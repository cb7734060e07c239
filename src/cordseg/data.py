"""Grayscale image and mask I/O, paired-dataset loading, and a synthetic
cord-image generator.

Images are 2-D uint8 numpy arrays (row, column); masks are 2-D uint8 arrays
with values in {0, 1}.  Two file formats are supported: binary PGM (ASCII
"P5", whitespace, width, height, maxval 255, single whitespace, raw bytes)
as the canonical dependency-free format, and 8-bit grayscale non-interlaced
PNG for interoperability with microscope exports.

A dataset directory holds filename-matched pairs:

    <root>/images/<name>.(pgm|png)
    <root>/masks/<name>.(pgm|png)

Mask files are binarized at >= 128 on load, since hand-drawn masks are
anti-aliased at the edges.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CordsegError, DomainError, ShapeError
from .rng import SplitMix64, derive


class ImageFormatError(CordsegError):
    """File is not in a format this package reads."""


class UnknownImageFormatError(ImageFormatError):
    """Leading magic bytes match neither PGM nor PNG."""


class UnsupportedPixelFormatError(ImageFormatError):
    """Recognized container, but not 8-bit single-channel pixels."""


class ImageDataError(ImageFormatError):
    """Pixel payload is inconsistent with the declared header."""


class PairingError(CordsegError):
    """images/ and masks/ entries do not match one-to-one."""


class EmptyDatasetError(CordsegError):
    """Dataset directory yields no samples."""


class Sample(NamedTuple):
    name: str
    image: np.ndarray
    mask: np.ndarray


# --- PGM ----------------------------------------------------------------------

_PGM_MAX_DIGITS = 18  # a longer field describes a raster of over 10**18 bytes


def decode_pgm(data: bytes) -> np.ndarray:
    if not data.startswith(b"P5"):
        raise UnknownImageFormatError(f"not a binary PGM: magic {data[:2]!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":  # comment runs to end of line
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos:pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise ImageDataError("malformed PGM header")
        if pos - start > _PGM_MAX_DIGITS:
            raise ImageDataError(f"PGM header field of {pos - start} digits")
        fields.append(int(data[start:pos]))
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedPixelFormatError(f"PGM maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise ImageDataError(f"bad PGM dimensions {width}x{height}")
    if not data[pos:pos + 1].isspace():
        raise ImageDataError("PGM maxval must be followed by one whitespace byte")
    pos += 1
    raster = data[pos:]
    if len(raster) != width * height:
        raise ImageDataError(f"PGM raster holds {len(raster)} bytes, expected "
                             f"{width * height} for {width}x{height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def encode_pgm(img: np.ndarray) -> bytes:
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ShapeError(f"expected a 2-D uint8 image, got {img.dtype} {img.shape}")
    height, width = img.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + img.tobytes()


# --- PNG (8-bit grayscale, non-interlaced) ------------------------------------
#
# Every PNG filter predicts a byte from its left, up and up-left neighbours
# (https://www.w3.org/TR/png/#9Filters), so all pixels on one anti-diagonal
# x + y = d depend only on diagonals d - 1 and d - 2.  The decoder stores the
# image skewed, diagonal d as one contiguous row, and decodes a whole diagonal
# per numpy step: H + W - 1 steps instead of a Python step per pixel (an image
# taller than max(2W, 256) rows is swept in bands of that height).  The IDAT
# stream is inflated with the size the header declares as its limit, so
# a small file cannot expand without bound before the size check.

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_MAX_SIDE = 2**31 - 1  # the PNG limit on width and height
_MIN_BAND = 256  # fewest rows per band of a tall image


def _unfilter_band(rows: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Unfilter (h, w + 1) scanlines whose row above decoded to `prev`.

    Pixel (y, x) lies on diagonal d = x + y.  Its filtered byte is held at
    raw[d, y] and its decoded value at dec[d + 2, y + 1], so its left, up
    and up-left neighbours are dec[d + 1, y + 1], dec[d + 1, y] and
    dec[d, y].  Column 0 of `dec` is row -1 (`prev`, then zeros), and cells
    with x < 0 stay zero: the PNG's implicit border.  int16 holds every
    intermediate value.
    """
    h, w = rows.shape[0], rows.shape[1] - 1
    ftype = rows[:, 0]
    raw = np.zeros((h + w - 1, h), np.uint8)
    as_strided(raw, (h, w), (h + 1, h))[...] = rows[:, 1:]
    dec = np.zeros((h + w + 1, h + 1), np.int16)
    dec[1:w + 1, 0] = prev
    for d in range(h + w - 1):
        y0, y1 = max(0, d - w + 1), min(h, d + 1)
        left = dec[d + 1, y0 + 1:y1 + 1]
        up = dec[d + 1, y0:y1]
        ul = dec[d, y0:y1]
        from_ul = up - ul          # Paeth's p - left
        from_left = left - ul      # Paeth's p - up
        pa, pb = np.abs(from_ul), np.abs(from_left)
        pc = np.abs(from_ul + from_left)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, ul))
        pred = np.choose(ftype[y0:y1], (0, left, up, (left + up) >> 1, paeth))
        cur = dec[d + 2, y0 + 1:y1 + 1]
        np.add(raw[d, y0:y1], pred, out=cur)
        cur &= 255
    decoded = dec.reshape(-1)[2 * h + 3:]
    item = dec.itemsize
    return as_strided(decoded, (h, w), ((h + 2) * item, (h + 1) * item)).astype(np.uint8)


def _unfilter(rows: np.ndarray) -> np.ndarray:
    """Reverse the per-row filters of (H, W + 1) scanlines, filter byte first.

    The skewed buffers grow with (h + W) * h for a band of h rows, so a tall
    image is decoded in bands of at most max(2W, 256) rows, each seeded with
    the last row of the band above; any image no taller than that is one
    sweep.
    """
    height, width = rows.shape[0], rows.shape[1] - 1
    unknown = np.flatnonzero(rows[:, 0] > 4)
    if unknown.size:
        y = int(unknown[0])
        raise ImageDataError(f"PNG row {y} uses unknown filter {rows[y, 0]}")
    out = np.empty((height, width), np.uint8)
    prev = np.zeros(width, np.uint8)
    band = max(2 * width, _MIN_BAND)
    for top in range(0, height, band):
        out[top:top + band] = _unfilter_band(rows[top:top + band], prev)
        prev = out[min(top + band, height) - 1]
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit grayscale non-interlaced PNG to a 2-D uint8 array.

    Every chunk's CRC is checked.  The concatenated IDAT stream is inflated
    with a limit of one byte more than the H * (W + 1) scanline bytes the
    header declares, and rejected if it inflates to more or less than that
    or ends early.  The scanlines are then unfiltered in one wavefront sweep
    over the image's anti-diagonals (see the section comment above).  Every
    malformed input raises an ImageFormatError.
    """
    if not data.startswith(_PNG_SIGNATURE):
        raise UnknownImageFormatError("not a PNG: bad signature")
    pos = len(_PNG_SIGNATURE)
    header = None
    idat = bytearray()
    while pos < len(data):
        if pos + 8 > len(data):
            raise ImageDataError("truncated PNG chunk header")
        length, ctype = struct.unpack(">I4s", data[pos:pos + 8])
        body = data[pos + 8:pos + 8 + length]
        if len(body) != length or pos + 12 + length > len(data):
            raise ImageDataError(f"truncated PNG chunk {ctype!r}")
        crc = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])[0]
        if crc != zlib.crc32(ctype + body):
            raise ImageDataError(f"PNG chunk {ctype!r} fails its checksum")
        pos += 12 + length
        if (ctype == b"IHDR") != (header is None):  # IHDR first, and only once
            raise ImageDataError(f"PNG chunk {ctype!r} out of order: one IHDR must come first")
        if ctype == b"IHDR":
            if length != 13:
                raise ImageDataError(f"PNG IHDR chunk holds {length} bytes, expected 13")
            header = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
    if header is None:
        raise ImageDataError("PNG has no IHDR chunk")
    width, height, bitdepth, color, compression, filt, interlace = header
    if not (0 < width <= _PNG_MAX_SIDE and 0 < height <= _PNG_MAX_SIDE):
        raise ImageDataError(f"bad PNG dimensions {width}x{height}")
    if (bitdepth, color) != (8, 0):
        raise UnsupportedPixelFormatError(f"only 8-bit grayscale PNG is supported, "
                                          f"got bit depth {bitdepth}, color type {color}")
    if compression or filt or interlace:
        raise UnsupportedPixelFormatError("compressed/interlace variants beyond "
                                          "the baseline are not supported")
    if not idat:
        raise ImageDataError("PNG has no IDAT data")
    expected = height * (width + 1)
    inflater = zlib.decompressobj()
    try:
        stream = inflater.decompress(bytes(idat), expected + 1)
    except zlib.error as exc:
        raise ImageDataError(f"PNG image data is corrupt: {exc}") from None
    if len(stream) > expected:
        raise ImageDataError(f"PNG scanline data exceeds the {expected} bytes "
                             f"declared for {width}x{height}")
    if not inflater.eof:
        raise ImageDataError("PNG image data stream ends early")
    if len(stream) != expected:
        raise ImageDataError(f"PNG scanline data holds {len(stream)} bytes, expected "
                             f"{expected}")
    rows = np.frombuffer(stream, dtype=np.uint8).reshape(height, width + 1)
    return _unfilter(rows)


# --- files and datasets --------------------------------------------------------

def load_grayscale(path) -> np.ndarray:
    """Decode a PGM or 8-bit grayscale PNG file to a 2-D uint8 array."""
    data = Path(path).read_bytes()
    if data.startswith(b"P5"):
        return decode_pgm(data)
    if data.startswith(_PNG_SIGNATURE):
        return decode_png(data)
    raise UnknownImageFormatError(f"{path}: unknown magic {data[:8]!r}")


def save_mask(path, mask: np.ndarray) -> None:
    """Write a binary mask as PGM with 0 -> 0 and 1 -> 255."""
    mask = np.asarray(mask)
    if not np.all((mask == 0) | (mask == 1)):
        raise DomainError("mask values must be exactly 0 or 1")
    Path(path).write_bytes(encode_pgm((mask * np.uint8(255)).astype(np.uint8)))


def load_mask(path) -> np.ndarray:
    """Load a mask file, binarizing grayscale values at >= 128."""
    return (load_grayscale(path) >= 128).astype(np.uint8)


def to_unit(img: np.ndarray) -> np.ndarray:
    """Map uint8 pixels to float32 in [0, 1] for the network."""
    return img.astype(np.float32) / np.float32(255.0)


_IMAGE_SUFFIXES = (".pgm", ".png")


def _stems(directory: Path) -> dict[str, Path]:
    found: dict[str, Path] = {}
    for path in sorted(directory.iterdir()):
        if path.suffix.lower() not in _IMAGE_SUFFIXES:
            continue
        if path.stem in found:
            raise PairingError(f"duplicate stem {path.stem!r}: {found[path.stem].name} "
                               f"and {path.name}")
        found[path.stem] = path
    return found


def load_dataset(root) -> list[Sample]:
    """Load name-matched (image, mask) pairs, sorted by name."""
    root = Path(root)
    images_dir = root / "images"
    masks_dir = root / "masks"
    if not images_dir.is_dir() or not masks_dir.is_dir():
        raise EmptyDatasetError(f"{root} must contain images/ and masks/ directories")
    images = _stems(images_dir)
    masks = _stems(masks_dir)
    orphans = sorted(set(images) ^ set(masks))
    if orphans:
        raise PairingError(f"unpaired entries: {', '.join(orphans)}")
    if not images:
        raise EmptyDatasetError(f"{root} holds no image/mask pairs")
    samples = []
    for name in sorted(images):
        image = load_grayscale(images[name])
        mask = load_mask(masks[name])
        if image.shape != mask.shape:
            raise ShapeError(f"sample {name!r}: image {image.shape} vs mask {mask.shape}")
        samples.append(Sample(name, image, mask))
    return samples


def save_dataset(root, samples: list[Sample]) -> None:
    """Write samples in the dataset directory layout as PGM files."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    for s in samples:
        (root / "images" / f"{s.name}.pgm").write_bytes(encode_pgm(s.image))
        save_mask(root / "masks" / f"{s.name}.pgm", s.mask)


# --- synthetic cords -----------------------------------------------------------

_MIN_FOREGROUND = 0.01
_MAX_FOREGROUND = 0.30


def _disk_offsets(thickness: int) -> np.ndarray:
    r = thickness / 2.0
    span = np.arange(-int(math.ceil(r)), int(math.ceil(r)) + 1)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    keep = dy * dy + dx * dx <= r * r
    return np.stack([dy[keep], dx[keep]], axis=1)


def _draw_sample(size: int, rng: SplitMix64) -> tuple[np.ndarray, np.ndarray]:
    margin = 2
    support = np.zeros((size, size), dtype=bool)
    for _ in range(1 + rng.randbelow(4)):
        y = margin + rng.f64() * (size - 1 - 2 * margin)
        x = margin + rng.f64() * (size - 1 - 2 * margin)
        heading = rng.f64() * 2.0 * math.pi
        steps = size // 2 + rng.randbelow(size)
        turns = rng.normal_array(steps, std=0.25)
        points = np.empty((steps, 2), dtype=np.int64)
        for i in range(steps):
            heading += turns[i]
            ny = y + math.sin(heading)
            nx = x + math.cos(heading)
            if not margin <= ny <= size - 1 - margin:
                heading = -heading
                ny = y + math.sin(heading)
            if not margin <= nx <= size - 1 - margin:
                heading = math.pi - heading
                nx = x + math.cos(heading)
            y = min(max(ny, margin), size - 1 - margin)
            x = min(max(nx, margin), size - 1 - margin)
            points[i] = (int(round(y)), int(round(x)))
        offsets = _disk_offsets(2 + rng.randbelow(3))
        dots = points[:, None, :] + offsets[None, :, :]
        np.clip(dots, 0, size - 1, out=dots)
        support[dots[:, :, 0].ravel(), dots[:, :, 1].ravel()] = True

    background = rng.normal_array(size * size, mean=60.0, std=15.0).reshape(size, size)
    foreground = rng.normal_array(size * size, mean=200.0, std=20.0).reshape(size, size)
    image = np.where(support, foreground, background)
    image = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    return image, support.astype(np.uint8)


def gen_synthetic(count: int, size: int, seed: int) -> list[Sample]:
    """Deterministic synthetic dataset of bright curved cords on a noisy
    dark background; the mask is exactly the rendered stroke support.

    Each sample redraws until its foreground fraction lands in
    [0.01, 0.30], so the benchmark stays stable across seeds.
    """
    if size < 32:
        raise DomainError(f"size must be at least 32, got {size}")
    if 8 * size * size > np.iinfo(np.intp).max:  # a float64 frame is drawn
        raise DomainError(f"size {size} gives a frame too large for numpy to index")
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    samples = []
    for i in range(count):
        rng = SplitMix64(derive(seed, 0x5A31, i))
        for _ in range(100):
            image, mask = _draw_sample(size, rng)
            fraction = mask.mean()
            if _MIN_FOREGROUND <= fraction <= _MAX_FOREGROUND:
                break
        else:
            raise DomainError(f"synthetic sample {i} of size {size}, seed {seed}: "
                              f"100 draws all missed the foreground-fraction "
                              f"window [{_MIN_FOREGROUND}, {_MAX_FOREGROUND}]")
        samples.append(Sample(f"cord_{i:04d}", image, mask))
    return samples
