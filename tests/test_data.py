import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from cordseg import data
from cordseg.data import (EmptyDatasetError, ImageDataError, PairingError,
                          UnknownImageFormatError, UnsupportedPixelFormatError)
from cordseg.errors import CordsegError, DomainError, ShapeError
from cordseg.rng import SplitMix64
from reference import encode_png, png_unfilter_reference


def random_image(rng, h, w):
    return (rng.u64_array(h * w) & np.uint64(255)).astype(np.uint8).reshape(h, w)


def png_chunk(ctype, body):
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))


def png_blob(width, height, stream, ihdr=None):
    """A PNG whose IDAT holds `stream` compressed; `ihdr` overrides the header body."""
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0) if ihdr is None else ihdr
    return (b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", zlib.compress(stream)) + png_chunk(b"IEND", b""))


def filtered_rows(rng, h, w, types=(0, 1, 2, 3, 4)):
    """Random scanlines, each row's filter byte drawn from `types`."""
    rows = random_image(rng, h, w + 1)
    rows[:, 0] = np.asarray(types, np.uint8)[rng.u64_array(h) % np.uint64(len(types))]
    return rows


def decode_rows(rows):
    h, w = rows.shape[0], rows.shape[1] - 1
    return data.decode_png(png_blob(w, h, rows.tobytes()))


# --- PGM ------------------------------------------------------------------------

def test_pgm_decode_minimal_header():
    img = data.decode_pgm(b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40]))
    np.testing.assert_array_equal(img, [[10, 20], [30, 40]])


def test_pgm_decode_tolerates_comments_and_whitespace():
    img = data.decode_pgm(b"P5\n# a comment\n 2\t2 \n255 " + bytes([1, 2, 3, 4]))
    np.testing.assert_array_equal(img, [[1, 2], [3, 4]])


def test_pgm_rejects_non_whitespace_raster_separator():
    with pytest.raises(ImageDataError, match="whitespace"):
        data.decode_pgm(b"P5\n2 2\n255X" + bytes(4))


def test_pgm_round_trip_bitwise():
    rng = SplitMix64(31)
    img = random_image(rng, 13, 7)
    assert np.array_equal(data.decode_pgm(data.encode_pgm(img)), img)


def test_pgm_decode_allocates_the_raster_once():
    # slicing the raster out of the file bytes before reading it copied it twice
    img = random_image(SplitMix64(66), 2000, 2000)
    blob = data.encode_pgm(img)
    tracemalloc.start()
    try:
        decoded = data.decode_pgm(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded, img) and decoded.flags.writeable
    assert peak < 1.2 * img.nbytes, peak / img.nbytes


def test_pgm_rejects_wrong_maxval():
    with pytest.raises(UnsupportedPixelFormatError):
        data.decode_pgm(b"P5\n2 2\n65535\n" + bytes(8))


def test_pgm_rejects_pixel_count_mismatch():
    with pytest.raises(ImageDataError):
        data.decode_pgm(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(ImageDataError):
        data.decode_pgm(b"P5\n2 2\n255\n" + bytes(5))


def test_pgm_rejects_overlong_header_field():
    # int() refuses strings of more than 4300 digits with a ValueError
    with pytest.raises(ImageDataError):
        data.decode_pgm(b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4))


def test_full_frame_pixel_count(tmp_path):
    img = np.zeros((2700, 3840), np.uint8)
    path = tmp_path / "frame.pgm"
    path.write_bytes(data.encode_pgm(img))
    loaded = data.load_grayscale(path)
    assert loaded.size == 10_368_000
    assert loaded.shape == (2700, 3840)


# --- PNG ------------------------------------------------------------------------

def test_png_round_trip_bitwise():
    rng = SplitMix64(32)
    img = random_image(rng, 9, 17)
    assert np.array_equal(data.decode_png(encode_png(img)), img)


def test_png_rejects_non_grayscale():
    import struct
    import zlib

    def chunk(ctype, body):
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))

    rgb = (b"\x89PNG\r\n\x1a\n"
           + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0))
           + chunk(b"IDAT", zlib.compress(bytes(2 * (1 + 6))))
           + chunk(b"IEND", b""))
    with pytest.raises(UnsupportedPixelFormatError):
        data.decode_png(rgb)


def test_png_all_filter_types_decode():
    # exercise Sub/Up/Average/Paeth by recompressing a filtered stream
    import struct
    import zlib

    img = np.arange(5 * 6, dtype=np.uint8).reshape(5, 6) * 7
    rows = []
    prev = np.zeros(6, np.int32)
    for y, ftype in enumerate([0, 1, 2, 3, 4]):
        cur = img[y].astype(np.int32)
        if ftype == 0:
            enc = cur
        elif ftype == 1:
            enc = cur - np.concatenate([[0], cur[:-1]])
        elif ftype == 2:
            enc = cur - prev
        elif ftype == 3:
            left = np.concatenate([[0], cur[:-1]])
            enc = cur - ((left + prev) >> 1)
        else:
            enc = np.empty(6, np.int32)
            for x in range(6):
                a = int(cur[x - 1]) if x else 0
                b = int(prev[x])
                c = int(prev[x - 1]) if x else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                enc[x] = cur[x] - pred
        rows.append(bytes([ftype]) + bytes((enc & 255).astype(np.uint8)))
        prev = cur

    def chunk(ctype, body):
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))

    blob = (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", 6, 5, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(b"".join(rows)))
            + chunk(b"IEND", b""))
    np.testing.assert_array_equal(data.decode_png(blob), img)


def test_png_unfilter_matches_loop_oracle_random_streams():
    rng = SplitMix64(37)
    for case in range(300):
        h, w = 1 + rng.randbelow(49), 1 + rng.randbelow(49)
        rows = filtered_rows(rng, h, w)
        assert np.array_equal(decode_rows(rows), png_unfilter_reference(rows)), (case, h, w)


@pytest.mark.parametrize("h, w, types", [
    (1, 1, (0, 1, 2, 3, 4)), (1, 29, (0, 1, 2, 3, 4)), (29, 1, (0, 1, 2, 3, 4)),
    (13, 11, (0,)), (13, 11, (1,)), (13, 11, (2,)), (13, 11, (3,)), (13, 11, (4,)),
    # taller than wide and wider than tall: the sweep's diagonals grow from
    # one pixel to min(H, W) pixels, hold there, and shrink back to one
    (600, 3, (0, 1, 2, 3, 4)), (530, 130, (3, 4)), (2, 700, (3, 4)),
])
def test_png_unfilter_matches_loop_oracle_edge_shapes(h, w, types):
    rows = filtered_rows(SplitMix64(h * 1000 + w), h, w, types)
    assert np.array_equal(decode_rows(rows), png_unfilter_reference(rows))


def test_png_tall_image_decode_memory_stays_bounded():
    # one skewed sweep over 8000 rows of width 2 would hold 8001x8000 cells
    rows = filtered_rows(SplitMix64(38), 8000, 2)
    blob = png_blob(2, 8000, rows.tobytes())
    tracemalloc.start()
    try:
        img = data.decode_png(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(img, png_unfilter_reference(rows))
    assert peak < 2_000_000, peak


def test_png_square_decode_peaks_below_3_2x_the_image():
    # random bytes do not deflate, so the IDAT holds about the image's bytes;
    # inflating it holds the scanlines twice while zlib joins its output, and
    # the unfilter works in place on one canvas the size of the image
    side = 2000
    rows = filtered_rows(SplitMix64(40), side, side)
    blob = png_blob(side, side, rows.tobytes())
    del rows
    tracemalloc.start()
    try:
        img = data.decode_png(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.shape == (side, side)
    assert peak < 3.2 * img.size, peak / img.size


def test_png_unknown_filter_names_row():
    rows = filtered_rows(SplitMix64(39), 6, 4)
    rows[3, 0] = 5
    with pytest.raises(ImageDataError, match="row 3 uses unknown filter 5"):
        decode_rows(rows)


@pytest.mark.parametrize("ihdr, stream", [
    (struct.pack(">IIBBBB", 2, 2, 8, 0, 0, 0), bytes(6)),
    (struct.pack(">IIBBBBBB", 2, 2, 8, 0, 0, 0, 0, 0), bytes(6)),
    (struct.pack(">IIBBBBB", 0, 2, 8, 0, 0, 0, 0), bytes(2)),
    (struct.pack(">IIBBBBB", 2, 0, 8, 0, 0, 0, 0), b""),
    (struct.pack(">IIBBBBB", 2**32 - 1, 2**32 - 1, 8, 0, 0, 0, 0), bytes(6)),
], ids=["short-ihdr", "long-ihdr", "zero-width", "zero-height", "over-png-limit"])
def test_png_rejects_malformed_header(ihdr, stream):
    with pytest.raises(ImageDataError):
        data.decode_png(png_blob(2, 2, stream, ihdr=ihdr))


def test_png_rejects_chunk_before_ihdr():
    ihdr = png_chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
    idat = png_chunk(b"IDAT", zlib.compress(bytes(6)))
    blob = b"\x89PNG\r\n\x1a\n" + idat + ihdr + png_chunk(b"IEND", b"")
    with pytest.raises(ImageDataError, match="IHDR must come first"):
        data.decode_png(blob)


def test_png_rejects_second_ihdr():
    first = png_chunk(b"IHDR", struct.pack(">IIBBBBB", 9, 9, 8, 0, 0, 0, 0))
    second = png_chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
    idat = png_chunk(b"IDAT", zlib.compress(bytes(6)))
    for blob in (first + second + idat, first + idat + second):
        with pytest.raises(ImageDataError, match="IHDR must come first"):
            data.decode_png(b"\x89PNG\r\n\x1a\n" + blob + png_chunk(b"IEND", b""))


def test_png_rejects_corrupt_and_truncated_image_data():
    good = zlib.compress(bytes(6))
    for idat in (b"\x00garbage!", good[:-3]):
        blob = (b"\x89PNG\r\n\x1a\n"
                + png_chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
                + png_chunk(b"IDAT", idat) + png_chunk(b"IEND", b""))
        with pytest.raises(ImageDataError):
            data.decode_png(blob)


def test_png_inflation_stops_at_declared_size():
    # a 2x2 header over a stream that inflates to 50 MB
    blob = png_blob(2, 2, bytes(50_000_000))
    tracemalloc.start()
    try:
        with pytest.raises(ImageDataError, match="exceeds"):
            data.decode_png(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "weird.dat"
    path.write_bytes(b"GIF89a....")
    with pytest.raises(UnknownImageFormatError):
        data.load_grayscale(path)


# --- decoder fuzz ----------------------------------------------------------------

def _chunks(blob):
    pos, out = 8, []
    while pos < len(blob):
        length, ctype = struct.unpack(">I4s", blob[pos:pos + 8])
        out.append((ctype, blob[pos + 8:pos + 8 + length]))
        pos += 12 + length
    return out


def _mutate_bytes(rng, blob):
    kind = rng.randbelow(3)
    if kind == 0:  # flip one to three bytes
        out = bytearray(blob)
        for _ in range(1 + rng.randbelow(3)):
            out[rng.randbelow(len(out))] ^= 1 + rng.randbelow(255)
        return bytes(out)
    if kind == 1:  # truncate
        return blob[:rng.randbelow(len(blob))]
    # splice: a slice of the file itself replaces another slice
    a, b = sorted((rng.randbelow(len(blob)), rng.randbelow(len(blob))))
    c = rng.randbelow(len(blob))
    return blob[:a] + blob[c:c + 1 + rng.randbelow(16)] + blob[b:]


def _mutate_chunk(rng, blob):
    """Mutate one chunk's body and give it a valid length and CRC again."""
    chunks = _chunks(blob)
    i = rng.randbelow(len(chunks))
    ctype, body = chunks[i]
    chunks[i] = (ctype, _mutate_bytes(rng, body) if body else bytes([rng.randbelow(256)]))
    return blob[:8] + b"".join(png_chunk(t, b) for t, b in chunks)


def test_decoder_fuzz_returns_image_or_cordseg_error(tmp_path):
    rng = SplitMix64(40)
    pgm = data.encode_pgm(random_image(rng, 7, 9))
    rows = filtered_rows(rng, 9, 7)
    stream = zlib.compress(rows.tobytes())
    png = (b"\x89PNG\r\n\x1a\n"
           + png_chunk(b"IHDR", struct.pack(">IIBBBBB", 7, 9, 8, 0, 0, 0, 0))
           + png_chunk(b"IDAT", stream[:20]) + png_chunk(b"IDAT", stream[20:])
           + png_chunk(b"IEND", b""))
    assert np.array_equal(data.decode_png(png), png_unfilter_reference(rows))
    path = tmp_path / "fuzz"
    outcomes = {"image": 0, "error": 0}
    for case in range(1500):
        if case % 3 == 0:
            blob = _mutate_bytes(rng, pgm)
        elif case % 3 == 1:
            blob = _mutate_bytes(rng, png)
        else:
            blob = _mutate_chunk(rng, png)
        path.write_bytes(blob)
        try:
            img = data.load_grayscale(path)
        except CordsegError:
            outcomes["error"] += 1
            continue
        except Exception as exc:  # noqa: BLE001 - the failure this test looks for
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc} on {blob!r}")
        assert isinstance(img, np.ndarray) and img.ndim == 2 and img.dtype == np.uint8, case
        outcomes["image"] += 1
    assert min(outcomes.values()) > 100, outcomes


# --- masks ------------------------------------------------------------------------

def test_save_mask_maps_one_to_255(tmp_path):
    mask = np.array([[1, 0], [0, 1]], np.uint8)
    path = tmp_path / "m.pgm"
    data.save_mask(path, mask)
    raw = path.read_bytes()
    assert raw.endswith(bytes([255, 0, 0, 255]))


def test_save_mask_all_zero(tmp_path):
    path = tmp_path / "z.pgm"
    data.save_mask(path, np.zeros((3, 3), np.uint8))
    assert data.load_grayscale(path).max() == 0


def test_mask_round_trip_through_rebinarize(tmp_path):
    rng = SplitMix64(33)
    mask = (random_image(rng, 8, 8) > 127).astype(np.uint8)
    path = tmp_path / "rt.pgm"
    data.save_mask(path, mask)
    assert np.array_equal(data.load_mask(path), mask)


def test_save_mask_rejects_nonbinary(tmp_path):
    with pytest.raises(DomainError):
        data.save_mask(tmp_path / "bad.pgm", np.array([[2]], np.uint8))


def test_to_unit_range():
    img = np.array([[0, 255, 128]], np.uint8)
    unit = data.to_unit(img)
    assert unit.dtype == np.float32
    np.testing.assert_allclose(unit, [[0.0, 1.0, 128 / 255]], rtol=1e-6)


# --- datasets -----------------------------------------------------------------------

def write_pair(root, name, image, mask):
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    (root / "images" / f"{name}.pgm").write_bytes(data.encode_pgm(image))
    data.save_mask(root / "masks" / f"{name}.pgm", mask)


def test_load_dataset_pairs_and_sorts(tmp_path):
    rng = SplitMix64(34)
    for name in ("b_tile", "a_tile", "c_tile"):
        write_pair(tmp_path, name, random_image(rng, 8, 8), np.zeros((8, 8), np.uint8))
    samples = data.load_dataset(tmp_path)
    assert [s.name for s in samples] == ["a_tile", "b_tile", "c_tile"]
    assert all(s.image.shape == s.mask.shape for s in samples)


def test_load_dataset_empty_dir_errors(tmp_path):
    (tmp_path / "images").mkdir()
    (tmp_path / "masks").mkdir()
    with pytest.raises(EmptyDatasetError):
        data.load_dataset(tmp_path)
    with pytest.raises(EmptyDatasetError):
        data.load_dataset(tmp_path / "missing")


def test_load_dataset_orphan_mask_named(tmp_path):
    rng = SplitMix64(35)
    write_pair(tmp_path, "ok", random_image(rng, 8, 8), np.zeros((8, 8), np.uint8))
    data.save_mask(tmp_path / "masks" / "orphan.pgm", np.zeros((8, 8), np.uint8))
    with pytest.raises(PairingError) as err:
        data.load_dataset(tmp_path)
    assert "orphan" in str(err.value)


def test_load_dataset_dim_mismatch(tmp_path):
    rng = SplitMix64(36)
    write_pair(tmp_path, "bad", random_image(rng, 8, 8), np.zeros((4, 4), np.uint8))
    with pytest.raises(ShapeError):
        data.load_dataset(tmp_path)


def test_save_dataset_round_trip(tmp_path):
    samples = data.gen_synthetic(5, 32, 9)
    data.save_dataset(tmp_path / "ds", samples)
    loaded = data.load_dataset(tmp_path / "ds")
    assert len(loaded) == 5
    for a, b in zip(samples, loaded):
        assert a.name == b.name
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)


# --- synthetic generator ----------------------------------------------------------

def test_synthetic_deterministic_bitwise():
    a = data.gen_synthetic(6, 32, 5)
    b = data.gen_synthetic(6, 32, 5)
    for s, t in zip(a, b):
        assert s.name == t.name
        assert np.array_equal(s.image, t.image)
        assert np.array_equal(s.mask, t.mask)


def test_synthetic_foreground_fraction_window():
    for seed in (0, 1, 2):
        for s in data.gen_synthetic(20, 64, seed):
            assert 0.01 <= s.mask.mean() <= 0.30, s.name


def test_synthetic_masks_binary_and_matched():
    for s in data.gen_synthetic(8, 48, 3):
        assert set(np.unique(s.mask)) <= {0, 1}
        assert s.image.shape == s.mask.shape == (48, 48)
        assert s.image.dtype == np.uint8


def test_synthetic_foreground_is_bright_stroke_support():
    # foreground pixels come from the stroke distribution, background stays dark
    for s in data.gen_synthetic(4, 64, 11):
        fg = s.image[s.mask == 1].astype(float)
        bg = s.image[s.mask == 0].astype(float)
        assert fg.mean() > 150
        assert bg.mean() < 100


def test_synthetic_window_miss_raises_domain_error(monkeypatch):
    def empty(size, rng):
        return np.zeros((size, size), np.uint8), np.zeros((size, size), np.uint8)

    monkeypatch.setattr(data, "_draw_sample", empty)
    with pytest.raises(DomainError, match="size 40, seed 7"):
        data.gen_synthetic(2, 40, 7)


def test_synthetic_rejects_tiny_size_and_count():
    with pytest.raises(DomainError):
        data.gen_synthetic(1, 16, 0)
    with pytest.raises(DomainError):
        data.gen_synthetic(0, 64, 0)
