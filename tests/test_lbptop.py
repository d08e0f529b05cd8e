import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion import lbptop
from avfusion.core import DimensionMismatch, EmptyVolume
from avfusion.lbptop import (GridLargerThanFrame, LbpTopParams, build_uniform_mapping,
                             lbp_top_descriptor)


def naive_lbp_top(volume, params):
    """Per-pixel reference: recomputes every code with scalar arithmetic,
    no incremental optimization.  Kept independent of the library path."""
    vol = np.asarray(volume, dtype=np.float64)
    n_t, n_y, n_x = vol.shape
    table = []
    nxt = 0
    for code in range(256):
        rot = ((code << 1) | (code >> 7)) & 0xFF
        if bin(code ^ rot).count("1") <= 2:
            table.append(nxt)
            nxt += 1
        else:
            table.append(58)

    def bounds(size, blocks):
        base, extra = divmod(size, blocks)
        out = [0]
        for i in range(blocks):
            out.append(out[-1] + base + (1 if i < extra else 0))
        return out

    rbounds = bounds(n_y, params.grid_rows)
    cbounds = bounds(n_x, params.grid_cols)

    def block_of(bnds, v):
        for i in range(len(bnds) - 1):
            if bnds[i] <= v < bnds[i + 1]:
                return i
        raise AssertionError(v)

    def offsets(r_u, r_v):
        out = []
        for k in range(8):
            ang = 2.0 * np.pi * k / 8.0
            du = r_u * np.cos(ang)
            dv = r_v * np.sin(ang)
            if abs(du - round(du)) < 1e-9:
                du = float(round(du))
            if abs(dv - round(dv)) < 1e-9:
                dv = float(round(dv))
            out.append((du, dv))
        return out

    rx, ry, rt = params.radius_x, params.radius_y, params.radius_t
    plane_offsets = [offsets(rx, ry), offsets(rx, rt), offsets(ry, rt)]

    def sample(plane, t, y, x, du, dv):
        iu, iv = int(np.floor(du)), int(np.floor(dv))
        fu, fv = du - iu, dv - iv

        def at(su, sv):
            if plane == 0:
                return vol[t, y + sv, x + su]
            if plane == 1:
                return vol[t + sv, y, x + su]
            return vol[t + sv, y + su, x]

        if fu == 0.0 and fv == 0.0:
            return at(iu, iv)
        if fu == 0.0:
            p00 = at(iu, iv)
            return p00 + fv * (at(iu, iv + 1) - p00)
        if fv == 0.0:
            p00 = at(iu, iv)
            return p00 + fu * (at(iu + 1, iv) - p00)
        p00 = at(iu, iv)
        p10 = at(iu + 1, iv)
        a = p00 + fv * (at(iu, iv + 1) - p00)
        b = p10 + fv * (at(iu + 1, iv + 1) - p10)
        return a + fu * (b - a)

    hist = np.zeros((params.grid_rows * params.grid_cols, 3, 59))
    for t in range(n_t):
        for y in range(n_y):
            for x in range(n_x):
                block = block_of(rbounds, y) * params.grid_cols + block_of(cbounds, x)
                center = vol[t, y, x]
                for plane in range(3):
                    if plane == 0:
                        ok = rx <= x < n_x - rx and ry <= y < n_y - ry
                    elif plane == 1:
                        ok = rx <= x < n_x - rx and rt <= t < n_t - rt
                    else:
                        ok = ry <= y < n_y - ry and rt <= t < n_t - rt
                    if not ok:
                        continue
                    code = 0
                    for k, (du, dv) in enumerate(plane_offsets[plane]):
                        if sample(plane, t, y, x, du, dv) >= center:
                            code |= 1 << k
                    hist[block, plane, table[code]] += 1.0
    if params.normalize_histograms:
        for b in range(hist.shape[0]):
            for p in range(3):
                s = hist[b, p].sum()
                if s > 0:
                    hist[b, p] /= s
    return hist.reshape(-1)


def test_uniform_mapping_counts():
    table = build_uniform_mapping()
    uniform_bins = table[table < 58]
    assert uniform_bins.size == 58
    assert len(set(uniform_bins.tolist())) == 58
    assert set(uniform_bins.tolist()) == set(range(58))


def test_uniform_mapping_known_codes():
    table = build_uniform_mapping()
    assert table[0b00000000] == 0  # smallest uniform code, ascending order
    assert table[0b01010101] == 58  # 8 transitions -> non-uniform bin
    # transition counting by direct enumeration
    for code in range(256):
        bits = [(code >> i) & 1 for i in range(8)]
        transitions = sum(bits[i] != bits[(i + 1) % 8] for i in range(8))
        if transitions <= 2:
            assert table[code] < 58
        else:
            assert table[code] == 58


def test_constant_volume_single_bin():
    table = build_uniform_mapping()
    vol = np.full((6, 9, 9), 128.0)
    desc = lbp_top_descriptor(vol)
    target_bin = table[255]  # every neighbor == center -> all bits set
    segments = desc.reshape(-1, 59)
    for seg in segments:
        if seg.sum() > 0:
            assert seg[target_bin] == pytest.approx(1.0)
            assert seg.sum() == pytest.approx(1.0)


def test_matches_naive_reference_exactly():
    rng = np.random.default_rng(2024)
    for rx, ry, rt in ((1, 1, 1), (2, 1, 1), (1, 2, 3)):  # circular, then elliptical
        params = LbpTopParams(radius_x=rx, radius_y=ry, radius_t=rt,
                              normalize_histograms=False)
        for _ in range(8):
            shape = (rng.integers(8, 13), rng.integers(8, 17), rng.integers(8, 17))
            vol = rng.integers(0, 256, size=shape).astype(np.float64)
            fast = lbp_top_descriptor(vol, params)
            slow = naive_lbp_top(vol, params)
            assert np.array_equal(fast, slow), (rx, ry, rt)
    for rows, cols in ((1, 1), (2, 3), (5, 3)):
        params = LbpTopParams(grid_rows=rows, grid_cols=cols, normalize_histograms=False)
        for _ in range(4):
            shape = (rng.integers(3, 13), rng.integers(8, 17), rng.integers(8, 17))
            vol = rng.integers(0, 256, size=shape).astype(np.float64)
            assert np.array_equal(lbp_top_descriptor(vol, params), naive_lbp_top(vol, params)), \
                (rows, cols)


@settings(max_examples=150, deadline=None)
@given(radii=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       grid=st.tuples(st.integers(1, 4), st.integers(1, 4)), data=st.data())
def test_matches_naive_reference_property(radii, grid, data):
    """Any radii, grid, intensities and memory layout, and chunk edges that
    fall inside rows and planes: the flat-run kernel equals the per-pixel
    oracle exactly.  T reaches down to 2*radius_t, where the temporal
    planes have no valid center."""
    rx, ry, rt = radii
    params = LbpTopParams(radius_x=rx, radius_y=ry, radius_t=rt, grid_rows=grid[0],
                          grid_cols=grid[1], normalize_histograms=data.draw(st.booleans()))
    shape = (data.draw(st.integers(2 * rt, 2 * rt + 3), label="T"),
             data.draw(st.integers(max(3, grid[0]), 9), label="H"),
             data.draw(st.integers(max(3, grid[1]), 9), label="W"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    layout = data.draw(st.sampled_from(["C", "transposed", "stepped"]), label="layout")
    size = (shape[0], 2 * shape[1], shape[2]) if layout == "stepped" else shape
    if data.draw(st.booleans(), label="integer intensities"):
        vol = rng.integers(0, 256, size=size).astype(np.float64)
    else:
        vol = rng.uniform(0.0, 255.0, size=size)
    if layout == "transposed":
        vol = vol.T.copy().T  # Fortran order
    elif layout == "stepped":
        vol = vol[:, ::2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lbptop, "CHUNK", data.draw(st.sampled_from([1, 7, 64, lbptop.CHUNK]),
                                              label="CHUNK"))
        fast = lbp_top_descriptor(vol, params)
    assert np.array_equal(fast, naive_lbp_top(vol, params))


@pytest.mark.parametrize("chunk", [997, lbptop.CHUNK])
def test_matches_naive_reference_across_chunk_edges(monkeypatch, chunk):
    """Frames larger than the property test draws, so the per-chunk window
    of shared differences (five frames past the chunk on the temporal
    planes at radius_t=3) and the lerp window of each tap cross chunk edges
    inside rows and frames; real-valued intensities make every lerp count."""
    vol = np.random.default_rng(31).uniform(0.0, 255.0, size=(7, 40, 40))
    params = LbpTopParams(radius_x=1, radius_y=2, radius_t=3, normalize_histograms=False)
    monkeypatch.setattr(lbptop, "CHUNK", chunk)
    assert np.array_equal(lbp_top_descriptor(vol, params), naive_lbp_top(vol, params))


def test_descriptor_allocates_less_than_twice_the_volume():
    vol = np.random.default_rng(12).integers(0, 256, size=(24, 96, 96)).astype(np.float64)
    lbp_top_descriptor(vol)  # warm-up
    tracemalloc.start()
    try:
        lbp_top_descriptor(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # full-size float64 windows per neighbor corner would reach about 5 × vol.nbytes
    assert peak < 2 * vol.nbytes


def test_matches_naive_reference_normalized():
    rng = np.random.default_rng(7)
    params = LbpTopParams()
    vol = rng.integers(0, 256, size=(9, 12, 14)).astype(np.float64)
    assert np.array_equal(lbp_top_descriptor(vol, params), naive_lbp_top(vol, params))


def test_thin_temporal_volume():
    rng = np.random.default_rng(5)
    vol = rng.integers(0, 256, size=(3, 60, 60)).astype(np.float64)
    params = LbpTopParams(normalize_histograms=False)
    desc = lbp_top_descriptor(vol, params)
    assert desc.size == 2832
    assert np.array_equal(desc, naive_lbp_top(vol, params))
    # XT plane: valid centers are (t=1, all y, rx <= x < W-rx), blocked by x
    xt = desc.reshape(16, 3, 59)[:, 1, :]
    col_widths = [15, 15, 15, 15]
    for block in range(16):
        bc = block % 4
        width = col_widths[bc]
        if bc == 0 or bc == 3:
            width -= 1  # volume border strips one column
        expected = 1 * 15 * width  # single valid temporal slice
        assert xt[block].sum() == expected


def test_histogram_mass_equals_valid_centers():
    rng = np.random.default_rng(11)
    vol = rng.integers(0, 256, size=(6, 10, 11)).astype(np.float64)
    desc = lbp_top_descriptor(vol, LbpTopParams(normalize_histograms=False))
    t, h, w = vol.shape
    # total mass per plane across all blocks == number of valid centers
    per_plane = desc.reshape(16, 3, 59).sum(axis=(0, 2))
    assert per_plane[0] == t * (h - 2) * (w - 2)
    assert per_plane[1] == (t - 2) * h * (w - 2)
    assert per_plane[2] == (t - 2) * (h - 2) * w


def test_intensity_shift_and_scale_invariance():
    rng = np.random.default_rng(3)
    vol = rng.integers(0, 120, size=(6, 9, 9)).astype(np.float64)
    base = lbp_top_descriptor(vol)
    assert np.array_equal(base, lbp_top_descriptor(vol + 17.0))
    assert np.array_equal(base, lbp_top_descriptor(vol * 2.0))


def test_determinism():
    rng = np.random.default_rng(9)
    vol = rng.integers(0, 256, size=(5, 8, 8)).astype(np.float64)
    assert np.array_equal(lbp_top_descriptor(vol), lbp_top_descriptor(vol.copy()))


def test_descriptor_length_for_custom_grid():
    rng = np.random.default_rng(1)
    vol = rng.integers(0, 256, size=(5, 10, 10)).astype(np.float64)
    params = LbpTopParams(grid_rows=2, grid_cols=3)
    desc = lbp_top_descriptor(vol, params)
    assert desc.size == params.descriptor_length == 2 * 3 * 3 * 59


def test_errors():
    with pytest.raises(EmptyVolume):
        lbp_top_descriptor(np.zeros((0, 4, 4)))
    with pytest.raises(GridLargerThanFrame):
        lbp_top_descriptor(np.zeros((4, 3, 10)))
    with pytest.raises(DimensionMismatch):
        lbp_top_descriptor(np.zeros((4, 4)))
    for bad in (np.nan, -1.0, 256.0):
        vol = np.zeros((4, 8, 8))
        vol[2, 3, 3] = bad
        with pytest.raises(ValueError):
            lbp_top_descriptor(vol)
    with pytest.raises(ValueError):
        LbpTopParams(radius_x=0)
    with pytest.raises(ValueError):
        LbpTopParams(radius_x=1.5)
    with pytest.raises(ValueError, match="^radius_x must be an integer >= 1, got True$"):
        LbpTopParams(radius_x=True)
    for bad in ("no", 0, 1, None, np.int64(0)):
        with pytest.raises(ValueError, match="^normalize_histograms must be a bool, got "):
            LbpTopParams(normalize_histograms=bad)
    for ok in (False, np.bool_(False)):
        assert LbpTopParams(normalize_histograms=ok).normalize_histograms == ok


def test_too_short_time_axis_gives_zero_temporal_planes():
    rng = np.random.default_rng(4)
    vol = rng.integers(0, 256, size=(2, 8, 8)).astype(np.float64)  # T == 2*radius_t
    desc = lbp_top_descriptor(vol, LbpTopParams(normalize_histograms=False))
    per_plane = desc.reshape(16, 3, 59).sum(axis=(0, 2))
    assert per_plane[0] > 0
    assert per_plane[1] == 0
    assert per_plane[2] == 0
