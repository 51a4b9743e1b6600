"""Graymap round-trips."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghostsim import (
    FormatError,
    read_pgm,
    read_pgm_values,
    write_pgm,
)
from ghostsim.pgmio import PGM_MAXVAL
from oracles import p2_body

FLOAT_MAX = sys.float_info.max
# gray values on either side of each change in the number of digits
DIGIT_EDGES = (0, 9, 10, 99, 100, 999, 1000, 9999, 10000, PGM_MAXVAL)


@st.composite
def gray_arrays(draw):
    """Gray values of a 1x1 to 40x40 image, square or not, drawn from the
    digit edges, the whole range or both, with 0 and 65535 at its two ends
    when it has two pixels: ``write_pgm`` then maps each value to itself."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    from_edges = rng.random(h * w) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    gray = np.where(from_edges, rng.choice(DIGIT_EDGES, size=h * w),
                    rng.integers(0, PGM_MAXVAL + 1, size=h * w))
    if gray.size > 1:
        gray[0], gray[-1] = 0, PGM_MAXVAL
    else:
        gray[:] = 0  # a constant image is all 0
    return gray.reshape(h, w)


class TestPgm:
    def test_header_and_range(self, tmp_path, rng):
        path = tmp_path / "img.pgm"
        write_pgm(path, rng.normal(size=(6, 6)))
        text = path.read_text().splitlines()
        assert text[0] == "P2"
        assert text[1] == "6 6"
        assert text[2] == str(PGM_MAXVAL)
        gray, maxval = read_pgm(path)
        assert maxval == PGM_MAXVAL
        assert gray.shape == (6, 6)
        assert gray.min() >= 0 and gray.max() <= PGM_MAXVAL

    def test_values_round_trip_through_sidecar(self, tmp_path, rng):
        path = tmp_path / "img.pgm"
        image = rng.normal(size=(8, 8)) * 3.0 - 1.0
        sidecar = tmp_path / "img.meta"
        assert write_pgm(path, image) == [path, sidecar]
        vmin, vmax = float(image.min()), float(image.max())
        assert sidecar.read_text().splitlines()[:2] == [f"vmin = {vmin!r}",
                                                        f"vmax = {vmax!r}"]
        recovered = read_pgm_values(path)
        # quantized to 16 bits of the value range
        assert recovered == pytest.approx(image, abs=(vmax - vmin) / PGM_MAXVAL)

    def test_constant_image(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((4, 4), 2.5))
        recovered = read_pgm_values(path)
        assert np.array_equal(recovered, np.full((4, 4), 2.5))

    def test_signed_three_level_image(self, tmp_path):
        path = tmp_path / "levels.pgm"
        image = np.array([[-1.0, 0.0], [1.0, 0.0]])
        write_pgm(path, image)
        gray, _ = read_pgm(path)
        assert sorted(set(gray.ravel().tolist())) == [0, PGM_MAXVAL // 2 + 1, PGM_MAXVAL]
        assert read_pgm_values(path) == pytest.approx(image, abs=1e-4)

    @pytest.mark.parametrize("image", [
        [[-1e308, 0.0], [1e308, 5e307]],  # vmax - vmin overflows
        [[-FLOAT_MAX, 0.0], [FLOAT_MAX, 1.0]],
        [[0.0, FLOAT_MAX]],  # the span is finite, its top gray's product is not
        [[0.0, 5e-324], [1e-310, 2e-310]],  # PGM_MAXVAL / (vmax - vmin) overflows
        [[-5e-324, 1e-323]],
        [[1e-300, 1e-300 + 1e-315]],
        [[FLOAT_MAX, FLOAT_MAX]],  # vmin == vmax
        [[5e-324, 5e-324]],
    ], ids=["1e308", "float-max", "zero-to-float-max", "subnormal", "signed-subnormal",
            "narrow", "flat-float-max", "flat-subnormal"])
    def test_extreme_ranges_round_trip(self, tmp_path, image):
        # mapped on ends scaled by a power of two: no warning, the true ends
        # in the sidecar, every value within a gray step and inside them
        path = tmp_path / "x.pgm"
        image = np.array(image)
        vmin, vmax = float(image.min()), float(image.max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_pgm(path, image)
            back = read_pgm_values(path)
        assert (tmp_path / "x.meta").read_text().splitlines()[:2] == [f"vmin = {vmin!r}",
                                                                     f"vmax = {vmax!r}"]
        step = (vmax / 2 - vmin / 2) / PGM_MAXVAL * 2
        assert np.all(np.abs(back / 2 - image / 2) <= step / 2)
        assert back.min() == vmin and back.max() == vmax

    @pytest.mark.parametrize("image, pgm, meta", [
        (np.array([[-1.5, 0.0, 0.1 + 0.2], [0.1, 0.25, -0.2]]),
         b"P2\n3 2\n65535\n0 54612 65535\n58253 63715 47331\n",
         b"vmin = -1.5\nvmax = 0.30000000000000004\nmaxval = 65535\n"),
        (np.full((2, 3), -0.25),
         b"P2\n3 2\n65535\n0 0 0\n0 0 0\n",
         b"vmin = -0.25\nvmax = -0.25\nmaxval = 65535\n"),
    ])
    def test_exact_bytes(self, tmp_path, image, pgm, meta):
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        assert path.read_bytes() == pgm
        assert (tmp_path / "img.meta").read_bytes() == meta

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gray=gray_arrays())
    def test_bytes_match_the_format_oracle(self, tmp_path, gray):
        # the body is built from arrays; the oracle formats Python ints
        path = tmp_path / "img.pgm"
        write_pgm(path, gray.astype(float))
        h, w = gray.shape
        assert path.read_bytes() == f"P2\n{w} {h}\n{PGM_MAXVAL}\n{p2_body(gray)}".encode()

    def test_encoding_holds_at_most_40_bytes_a_pixel(self, tmp_path, rng):
        # a %-format over a tuple of Python ints held 59 B a pixel; the array
        # encoder about 30 (analysis._run_bytes counts 40)
        image = rng.normal(size=(512, 512))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_pgm(tmp_path / "big.pgm", image)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 40 * image.size

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P5 binary stuff")
        with pytest.raises(FormatError):
            read_pgm(path)
        # a real P5 file holds raw bytes, which are not UTF-8 text
        path.write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
        with pytest.raises(FormatError, match="not an ASCII"):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_text("P2\n2 2\n255\n1 2 3\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [0, 65536, 70000])
    def test_rejects_maxval_outside_netpbm_bounds(self, tmp_path, maxval):
        # Netpbm allows 0 < maxval < 65536
        path = tmp_path / "wide.pgm"
        path.write_text(f"P2\n2 1\n{maxval}\n0 0\n")
        with pytest.raises(FormatError, match=f"maxval {maxval}"):
            read_pgm(path)
        path.write_text("P2\n2 1\n65535\n0 65535\n")
        assert read_pgm(path)[1] == 65535

    def test_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2 # comment\n# another\n2 1\n255\n7 9\n")
        gray, maxval = read_pgm(path)
        assert gray.tolist() == [[7, 9]]
        assert maxval == 255

    def test_no_temp_files_left(self, tmp_path, rng):
        path = tmp_path / "img.pgm"
        write_pgm(path, rng.normal(size=(4, 4)))
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []

