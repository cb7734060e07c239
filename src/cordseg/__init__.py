"""cordseg: tiled U-Net segmentation of cord-like structures in large
grayscale micrographs, with forward and reverse-mode kernels implemented
from scratch on numpy."""

__version__ = "0.1.0"
