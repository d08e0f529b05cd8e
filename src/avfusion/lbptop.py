"""LBP-TOP descriptor: uniform LBP histograms on three orthogonal planes.

For every spatial block of a T×H×W grayscale volume, 8-neighbor local
binary patterns are accumulated on the XY, XT and YT planes and reduced
to 59-bin uniform-pattern histograms.  The per-block, per-plane
histograms are concatenated into one descriptor of length
``grid_rows * grid_cols * 3 * 59`` (2832 with the default 4×4 grid).

Conventions, fixed so that independent reimplementations agree:

* Neighbor k of a center sits at angle ``2*pi*k/8`` on the ellipse with
  the plane's two radii; the first in-plane axis carries the cosine, the
  second the sine.  Bit k of the code is 1 when the sampled neighbor is
  >= the center intensity.
* Off-lattice samples are bilinearly interpolated with nested lerps
  (``a + t*(b-a)``); offsets within 1e-9 of an integer are snapped, so
  axis-aligned samples are exact lattice reads.
* Centers whose neighbor circle leaves the volume are skipped (no
  padding).  A block/plane with no valid centers yields an all-zero
  histogram.
* Blocks partition H and W as evenly as possible; the first ``H mod
  grid_rows`` row-blocks get one extra row (same for columns).  Time is
  never blocked.

Codes are computed on one flat run per plane.  In the C-ordered volume a
sample at in-plane offset (su, sv) sits at the fixed flat offset
``su*stride_u + sv*stride_v`` from every center, so each numpy call over
a ``CHUNK``-voxel piece of the run from the first valid center to the
last reads contiguous slices and writes into buffers allocated once.
Centers inside the run that are not valid get codes that nothing reads.

Each chunk takes the difference ``p(x + stride_v) - p(x)`` once, over the
window from the lowest interpolated (floor, floor) corner to the highest
corner plus ``stride_u``; every interpolated neighbor of the plane reads
its differences from that window.  A neighbor then makes one lerp
``w = p + fv*diff`` over the chunk plus ``stride_u`` voxels: the first
and the last chunk-length stretches of ``w`` are the lerps ``a`` and ``b``
along v at its two u-corners, and its sample is ``a + fu*(b - a)``.  The
lerps themselves cannot be shared between neighbors, because the eight
fractions are not symmetric to the last ulp (``fu`` is 0.7071067811865476
for neighbor 1 and ...474 for neighbor 7); only the difference, which
holds no fraction, is common to all of them.  The histogram index
``block*256 + code`` stays int64: ``np.bincount`` casts any narrower
index to intp, so a narrow one adds an array and a pass.

The result is exact: each valid center goes through the same float64
operations, on the same operands and in the same order, as a per-pixel
evaluation (``p00 + fv*(p01 - p00)`` at both u-corners, then the lerp
along u), and integer counts of the 256 codes per block are folded into
the 59 bins.  Every read stays inside the volume: a chunk's windows read
from its first center's lowest corner to its last center's highest
corner, and the run begins and ends at valid centers, whose corners are
inside the volume.
"""

from dataclasses import dataclass

import numpy as np

from .core import check_count, check_volume

N_BINS = 59
N_PLANES = 3


class GridLargerThanFrame(ValueError):
    pass


@dataclass(frozen=True)
class LbpTopParams:
    radius_x: int = 1
    radius_y: int = 1
    radius_t: int = 1
    grid_rows: int = 4
    grid_cols: int = 4
    normalize_histograms: bool = True

    def __post_init__(self):
        for name in ("radius_x", "radius_y", "radius_t", "grid_rows", "grid_cols"):
            check_count(getattr(self, name), name)
        if not isinstance(self.normalize_histograms, (bool, np.bool_)):
            raise ValueError(
                f"normalize_histograms must be a bool, got {self.normalize_histograms!r}")

    @property
    def descriptor_length(self):
        return self.grid_rows * self.grid_cols * N_PLANES * N_BINS


def build_uniform_mapping():
    """Build the 256-entry code -> bin table for 8-neighbor uniform LBP.

    A code is uniform when its circular 0/1 transition count is at most
    2; the 58 uniform codes get bins 0..57 in ascending numeric order and
    every other code maps to bin 58.
    """
    table = np.full(256, N_BINS - 1, dtype=np.uint8)
    next_bin = 0
    for code in range(256):
        rotated = ((code << 1) | (code >> 7)) & 0xFF
        if bin(code ^ rotated).count("1") <= 2:
            table[code] = next_bin
            next_bin += 1
    return table


# Row c is the one-hot bin of code c: (per-code counts) @ _FOLD gives the
# 59-bin histogram, exactly, since the counts are integers.
_FOLD = np.eye(N_BINS)[build_uniform_mapping()]


def _block_index(size, blocks):
    """Block index of each of ``size`` cells split into ``blocks`` near-equal runs."""
    base, extra = divmod(size, blocks)
    return np.repeat(np.arange(blocks), base + (np.arange(blocks) < extra))


def _neighbor_offsets(r_u, r_v):
    """The 8 (du, dv) sampling offsets, near-integers snapped."""
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    du = r_u * np.cos(angles)
    dv = r_v * np.sin(angles)
    du = np.where(np.abs(du - np.rint(du)) < 1e-9, np.rint(du), du)
    dv = np.where(np.abs(dv - np.rint(dv)) < 1e-9, np.rint(dv), dv)
    return du, dv


# Planes as (first in-plane volume axis, second in-plane volume axis);
# volume axes are (t, y, x) = (0, 1, 2).
_PLANE_AXES = ((2, 1), (2, 0), (1, 0))  # XY, XT, YT

# Voxels per piece of the flat run: a few float64 buffers of this length
# stay in L2.
CHUNK = 32768


def _plane_codes(flat, shape, axis_u, axis_v, radii, codes):
    """Write LBP codes of one orthogonal plane into the flat ``codes``.

    ``flat`` is the C-ordered volume of ``shape``, raveled.  Every center
    from the first valid one to the last gets a code at its own flat index;
    only the valid region, returned as three slices, is meaningful.
    Returns None when the plane has no valid centers.
    """
    r_u, r_v = radii[axis_u], radii[axis_v]
    lo = [0, 0, 0]
    hi = list(shape)
    lo[axis_u] += r_u
    hi[axis_u] -= r_u
    lo[axis_v] += r_v
    hi[axis_v] -= r_v
    if lo[axis_u] >= hi[axis_u] or lo[axis_v] >= hi[axis_v]:
        return None
    strides = (shape[1] * shape[2], shape[2], 1)
    s_u, s_v = strides[axis_u], strides[axis_v]
    first = sum(l * s for l, s in zip(lo, strides))
    stop = sum((h - 1) * s for h, s in zip(hi, strides)) + 1
    taps = []  # per neighbor: flat offset of its (floor, floor) corner, fu, fv
    for du, dv in zip(*_neighbor_offsets(r_u, r_v)):
        iu, iv = int(np.floor(du)), int(np.floor(dv))
        taps.append((iu * s_u + iv * s_v, du - iu, dv - iv))
    # Integer radii put an offset on the lattice or off it on both axes, and
    # the diagonal neighbors (odd k) always off it.
    corners = [o for o, fu, fv in taps if fu != 0.0 or fv != 0.0]
    o_lo, o_hi = min(corners), max(corners) + s_u

    def at(offset, extra=0):  # the sample at ``offset`` of centers [c0, c1 + extra)
        return flat[c0 + offset:c1 + offset + extra]

    n = min(CHUNK, stop - first)
    diff, w, lerp_u = np.empty(n + o_hi - o_lo), np.empty(n + s_u), np.empty(n)
    ge, bit = np.empty(n, dtype=bool), np.empty(n, dtype=np.uint8)
    for c0 in range(first, stop, CHUNK):
        c1 = min(c0 + CHUNK, stop)
        m = c1 - c0
        w_m, u_m, ge_m, bit_m, out = w[:m + s_u], lerp_u[:m], ge[:m], bit[:m], codes[c0:c1]
        # diff[j] = p01 - p00 of the corner at flat offset o_lo + j, shared by all taps
        np.subtract(at(o_lo + s_v, o_hi - o_lo), at(o_lo, o_hi - o_lo),
                    out=diff[:m + o_hi - o_lo])
        out.fill(0)
        for k, (o00, fu, fv) in enumerate(taps):
            if fu == 0.0 and fv == 0.0:
                sample = at(o00)
            else:  # w = p00 + fv*(p01-p00) at both u-corners; a + fu*(b-a)
                np.multiply(diff[o00 - o_lo:o00 - o_lo + m + s_u], fv, out=w_m)
                np.add(at(o00, s_u), w_m, out=w_m)
                a, b = w_m[:m], w_m[s_u:]
                np.subtract(b, a, out=u_m)
                np.multiply(u_m, fu, out=u_m)
                sample = np.add(a, u_m, out=u_m)
            np.greater_equal(sample, at(0), out=ge_m)
            np.multiply(ge_m.view(np.uint8), np.uint8(1 << k), out=bit_m)
            np.bitwise_or(out, bit_m, out=out)
    return tuple(slice(l, h) for l, h in zip(lo, hi))


def lbp_top_descriptor(volume, params=None):
    """Compute the concatenated LBP-TOP descriptor of a video volume.

    ``volume`` is T×H×W with finite intensities in [0, 255], treated as
    float64; anything else raises a ValueError.  Layout of
    the result: blocks in row-major order; within a block planes XY, XT,
    YT; within a plane bins 0..58.  With ``normalize_histograms`` each
    non-empty 59-bin segment is L1-normalized to sum 1; segments with no
    valid centers stay all-zero.
    """
    params = params or LbpTopParams()
    vol = check_volume(volume)
    _, height, width = vol.shape
    if height < params.grid_rows or width < params.grid_cols:
        raise GridLargerThanFrame(
            f"{params.grid_rows}x{params.grid_cols} grid does not fit a {height}x{width} frame")

    radii = (params.radius_t, params.radius_y, params.radius_x)
    row_block = _block_index(height, params.grid_rows)
    col_block = _block_index(width, params.grid_cols)
    n_blocks = params.grid_rows * params.grid_cols
    hist = np.zeros((n_blocks, N_PLANES, N_BINS), dtype=np.float64)
    flat = vol.reshape(-1)  # C order, a copy only when vol is not C-contiguous
    codes = np.empty(flat.size, dtype=np.uint8)
    for plane_idx, (axis_u, axis_v) in enumerate(_PLANE_AXES):
        region = _plane_codes(flat, vol.shape, axis_u, axis_v, radii, codes)
        if region is None:
            continue
        _, rows, cols = region
        block = (row_block[rows, None] * params.grid_cols + col_block[None, cols]) << 8
        counts = np.bincount((block + codes.reshape(vol.shape)[region]).reshape(-1),
                             minlength=n_blocks << 8)
        hist[:, plane_idx] = counts.reshape(n_blocks, 256) @ _FOLD
    if params.normalize_histograms:
        totals = hist.sum(axis=2, keepdims=True)
        np.divide(hist, totals, out=hist, where=totals > 0)
    return hist.reshape(-1)
