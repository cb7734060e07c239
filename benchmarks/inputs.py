"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of a seed, so the same seed gives the
same files byte for byte.  The program under test only ever sees the files
these functions write.

The predict frame is stored the way real exports store it: each PNG row
carries the filter libpng's adaptive heuristic picks (the one with the
smallest sum of absolute signed residuals, ties to the lower type), the
zlib stream is split into 8 KiB IDAT chunks, and the frame ends in an
acquisition band with a scale bar and a two-orientation bar target.  The
noisy micrograph rows pick Average, the black band None, the scale bar Sub
and Up, and the bar target Paeth, so every unfiltering branch of the
decoder runs.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
IDAT_CHUNK = 8192
FILTER_NAMES = ("None", "Sub", "Up", "Average", "Paeth")

# Stream ids that keep the per-workload draws apart for one seed.
_STREAM_DATASET = 0x64
_STREAM_MOSAIC = 0x2000
_STREAM_FRAME64 = 0x700


def write_pgm(path: Path, img: np.ndarray) -> None:
    height, width = img.shape
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii")
                     + np.ascontiguousarray(img, dtype=np.uint8).tobytes())


def write_dataset(root: Path, samples) -> None:
    """Paired images/ and masks/ PGM files, masks stored as 0/255."""
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    for s in samples:
        write_pgm(root / "images" / f"{s.name}.pgm", s.image)
        write_pgm(root / "masks" / f"{s.name}.pgm", s.mask * np.uint8(255))


def sub_seed(seed: int, stream: int) -> int:
    return (seed * 0x9E3779B1 + stream) & 0xFFFFFFFF


def training_samples(data, seed: int):
    """The 94-tile 64x64 synthetic dataset of the acceptance config."""
    return data.gen_synthetic(94, 64, sub_seed(seed, _STREAM_DATASET))


def mosaic(data, width: int, height: int, seed: int, stream: int):
    """Frame and truth tiled from 512x512 synthetic samples, cropped."""
    side = 512
    cols, rows = -(-width // side), -(-height // side)
    samples = data.gen_synthetic(cols * rows, side, sub_seed(seed, stream))
    image = np.block([[samples[r * cols + c].image for c in range(cols)] for r in range(rows)])
    truth = np.block([[samples[r * cols + c].mask for c in range(cols)] for r in range(rows)])
    return (np.ascontiguousarray(image[:height, :width]),
            np.ascontiguousarray(truth[:height, :width]))


def add_acquisition_band(image: np.ndarray, truth: np.ndarray, rows: int = 40) -> None:
    """Overwrite the bottom rows with a black band holding a scale bar and a
    bar target of vertical and horizontal bars side by side; truth there is
    background."""
    band = np.zeros((rows, image.shape[1]), dtype=np.uint8)
    band[8:16, 100:500] = 255                                   # scale bar
    target = np.where(np.arange(160) % 2, 168, 40).astype(np.uint8)
    band[24:36, 100:260] = target[None, :]                      # vertical bars
    band[24:36, 260:420] = target[24:36, None]                  # horizontal bars
    image[-rows:] = band
    truth[-rows:] = 0


def adaptive_filter(img: np.ndarray):
    """Filter every row the way libpng's default heuristic does.

    Returns (filter type per row, filtered rows as uint8).
    """
    x = img.astype(np.int16)
    a = np.zeros_like(x)
    a[:, 1:] = x[:, :-1]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, 1:] = x[:-1, :-1]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    candidates = np.stack([x, x - a, x - b, x - ((a + b) >> 1), x - paeth]) & 255
    cost = np.minimum(candidates, 256 - candidates).sum(axis=2, dtype=np.int64)
    types = cost.argmin(axis=0)
    filtered = candidates[types, np.arange(x.shape[0])].astype(np.uint8)
    return types, filtered


def encode_png_adaptive(img: np.ndarray):
    """8-bit grayscale PNG with adaptive row filters; returns (bytes, types)."""
    height, width = img.shape
    types, filtered = adaptive_filter(img)
    scanlines = np.empty((height, width + 1), dtype=np.uint8)
    scanlines[:, 0] = types
    scanlines[:, 1:] = filtered
    stream = zlib.compress(scanlines.tobytes(), 6)

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", zlib.crc32(ctype + body)))

    blob = PNG_SIGNATURE + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0))
    for start in range(0, len(stream), IDAT_CHUNK):
        blob += chunk(b"IDAT", stream[start:start + IDAT_CHUNK])
    return blob + chunk(b"IEND", b""), types


def check_png(data, blob: bytes, img: np.ndarray, types: np.ndarray) -> list[str]:
    """Problems with an encoded frame: it must decode bit-exactly through the
    program's decoder and use every filter type."""
    problems = []
    counts = np.bincount(types, minlength=5)
    missing = [FILTER_NAMES[t] for t in range(5) if counts[t] == 0]
    if missing:
        problems.append(f"PNG rows never use filter(s) {', '.join(missing)}")
    decoded = data.decode_png(blob)
    if decoded.shape != img.shape or not np.array_equal(decoded, img):
        problems.append("PNG does not round-trip bit-exactly through data.decode_png")
    return problems


def small_frame(data, seed: int):
    """The predict_png_small frame: 2000x1500, not a multiple of 256."""
    image, truth = mosaic(data, 2000, 1500, seed, _STREAM_MOSAIC)
    add_acquisition_band(image, truth)
    return image, truth


def unet64_frame(data, seed: int):
    """The predict_unet64 frame: 700x500, six 256-pixel tiles."""
    return mosaic(data, 700, 500, seed, _STREAM_FRAME64)
