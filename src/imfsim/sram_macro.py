"""Behavioral model of a 6T-SRAM array that filters its own contents.

The array stores one binary frame.  Asserting the n word lines of a row group
starts a discharge race on every n-column bit-line pair: cells storing 0 pull
BL down, cells storing 1 pull BLB down, and whichever side trips the cells of
the other side first overwrites the whole n x n patch with its value.  With
matched devices this is exactly a majority vote (the non-overlapping median);
device mismatch makes near-balanced patches resolve wrongly with some
probability, which is the error source this model reproduces.

Race model per mixed patch (k ones out of n^2):

    dt = n * (C_BL * V_BL,trip / I_BL  -  C_BLB * V_BLB,trip / I_BLB)

with I_BL the summed current of the 0-storing cells, I_BLB of the 1-storing
cells, V_BL,trip the mean sampled trip point of the cells that flip when BL
wins (the 1-storing cells) and V_BLB,trip the mean for the 0-storing cells.
C_BLB = C_BL * (1 + delta_c) models deliberate or parasitic imbalance.
Outcome is 1 iff dt > 0.  Uniform patches have no race; they keep their value
and report dt = +/-inf.

Mismatch sampling: a lottery is two standard-normal draws from one numpy
default_rng(seed) stream, currents for the whole array first, then trip
points, row-major.  They are scaled at use: a cell's discharge current is
i_s_nominal + sigma_i * z with sigma_i = sigma_i_over_mu * i_s_nominal,
truncated at +/-4 sigma (a clip, so the draw count is fixed) and floored at
a tiny positive value; its trip point is v_trip_nominal + sigma_vtrip * z',
floored likewise.  On numpy's Generator this is bitwise the same stream as
Normal(mean, sigma) draws, so an independent re-implementation with the same
seed reproduces the lottery bit for bit.  Monte-Carlo trials reseed with
rng_seed + trial_index; the seed does not depend on the supply.

One race, two ways.  Every direct race runs through _race_in_place on a
scaled lottery.  Without the floors, a mixed patch with k ones comes out 1
exactly when, at effective spread s,

    f = v_bl * (k + s*Z1) - (1 + delta_c) * v_blb * (n^2 - k + s*Z0) > 0,

with Z1, Z0 the clipped standard current draws summed over its 1- and
0-storing cells and v_bl, v_blb their mean trip points (_trip_points).
characterize (ber_supply_sweep) draws each lottery once for every supply and
counts each supply's wins from f (_closed_form_wins); calibration draws each
frame once for both supplies, and f is linear in s, so image BER is a step
function of sigma and each bisection step is a lookup (_LinearRaces).
Both trust f under one rule, _closed_form_holds: s is at most
_LINEAR_MAX_SPREAD, no current or trip point can reach its floor, trip
points stray no further from nominal than clipped currents, no scale is
extreme, and no patch lies within _RACE_RTOL of a tie.  Anywhere else the
race runs directly, so f only stands where it equals the direct race.

Timing: clearing strobes 16 word lines per cycle; writing costs one cycle per
on pixel; filtering costs two cycles (precharge + resolve) per row group.
Only complete n-wide column groups are filtered; the cols % n leftover
columns pass through untouched and are excluded from flip accounting.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Literal, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParamsError
from .frames import BinaryFrame
from .params import (DEFAULT_GEOMETRY, MAX_FRAME_HEIGHT, MAX_FRAME_WIDTH, CellVariation,
                     DeviceParams, KernelSpec, MacroGeometry, variation_at_device)

_CURRENT_FLOOR = 1e-12       # A, keeps clipped samples strictly positive
_VTRIP_FLOOR = 1e-9          # V


@dataclass
class MacroState:
    geometry: MacroGeometry
    device: DeviceParams
    bits: np.ndarray            # (rows, cols) uint8
    cell_current: np.ndarray    # (rows, cols) float64, amperes
    cell_vtrip: np.ndarray      # (rows, cols) float64, volts
    cycle_count: int = 0


@dataclass
class FilterReport:
    n: int
    flips_intended: int
    flips_unintended: int
    cycles: int                 # cycles spent by this filter pass
    valid_frame: int            # OR over the post-filter array


@dataclass(frozen=True)
class PatternStat:
    pattern_id: int
    trials: int
    flips: int
    ber: float


@dataclass
class BERStat:
    n: int
    k: int
    patches: int
    trials: int
    pattern_stats: list[PatternStat]
    ber: float                  # aggregate unintended flips / (patches * trials * patterns)


@dataclass(frozen=True)
class CalibrationResult:
    sigma_i_over_mu: float      # fitted reference spread
    ber_low_vdd: float
    ber_high_vdd: float


# ---------------------------------------------------------------------------
# lottery sampling and state construction
# ---------------------------------------------------------------------------

def _standard_draws(shape: tuple[int, ...], seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal current draws, then trip-point draws, from
    default_rng(seed), as one (2, *shape) array; into `out` when given."""
    return np.random.default_rng(seed).standard_normal((2, *shape), out=out)


def _scale_lottery(
    z_i: np.ndarray, z_v: np.ndarray, device: DeviceParams, variation: CellVariation
) -> tuple[np.ndarray, np.ndarray]:
    """Standard current and trip-point draws scaled, in place, to the device
    and variation: each is loc + scale * z, clipped and floored."""
    i_s = device.i_s_nominal
    sigma_i = variation.sigma_i_over_mu * i_s
    z_i *= sigma_i
    z_i += i_s
    np.clip(z_i, i_s - 4.0 * sigma_i, i_s + 4.0 * sigma_i, out=z_i)
    np.maximum(z_i, _CURRENT_FLOOR, out=z_i)
    z_v *= variation.sigma_vtrip
    z_v += device.v_trip_nominal
    np.maximum(z_v, _VTRIP_FLOOR, out=z_v)
    return z_i, z_v


def sample_cell_lottery(
    shape: tuple[int, ...], device: DeviceParams, variation: CellVariation, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell currents and trip points: the standard draws of default_rng(seed),
    scaled to the device and variation."""
    return _scale_lottery(*_standard_draws(tuple(int(d) for d in shape), seed), device, variation)


def init_macro(
    geometry: MacroGeometry, device: DeviceParams, variation: CellVariation
) -> MacroState:
    """Fresh all-zero array with one sampled mismatch lottery (seeded, reproducible)."""
    shape = (geometry.rows, geometry.cols)
    currents, vtrips = sample_cell_lottery(shape, device, variation, variation.rng_seed)
    return MacroState(
        geometry=geometry,
        device=device,
        bits=np.zeros(shape, dtype=np.uint8),
        cell_current=currents,
        cell_vtrip=vtrips,
    )


def clear_memory(state: MacroState) -> int:
    """Zero the array, strobing clear_group word lines per cycle; returns cycles spent."""
    state.bits.fill(0)
    cycles = -(-state.geometry.rows // state.geometry.clear_group)
    state.cycle_count += cycles
    return cycles


def load_frame(state: MacroState, frame: BinaryFrame) -> int:
    """clear_memory, then write the frame into the array at one cycle per on
    pixel; returns the cycles spent on both."""
    if frame.height != state.geometry.rows or frame.width != state.geometry.cols:
        raise DimensionMismatchError(
            f"frame {frame.width}x{frame.height} does not fit array "
            f"{state.geometry.cols}x{state.geometry.rows}"
        )
    cycles = clear_memory(state)
    state.bits[:] = frame.pixels
    written = int(np.count_nonzero(frame.pixels))
    state.cycle_count += written
    return cycles + written


# ---------------------------------------------------------------------------
# the race
# ---------------------------------------------------------------------------

def race(n: int, k, i_bl, i_blb, vt_ones, vt_zeros, device: DeviceParams):
    """The race equation over per-patch sums: k ones, the summed currents of
    the 0- and 1-storing cells and their summed trip points.

    Returns (outcome, dt).  Uniform patches (k = 0 or n^2) keep their value;
    their dt is NaN.
    """
    nn = n * n
    with np.errstate(divide="ignore", invalid="ignore"):
        v_bl = vt_ones / k                  # cells that flip if BL wins
        v_blb = vt_zeros / (nn - k)
        dt = n * (
            device.c_bl * v_bl / i_bl
            - device.c_bl * (1.0 + device.delta_c) * v_blb / i_blb
        )
    outcome = np.where(k == 0, 0, np.where(k == nn, 1, dt > 0)).astype(np.uint8)
    return outcome, dt


def _patch_grid(rows: int, cols: int, n: int) -> tuple[int, int]:
    """(row groups, complete patches per group) of an array filtered with n x n patches."""
    if rows % n != 0:
        raise DimensionMismatchError(f"rows {rows} not divisible by n={n}")
    return rows // n, cols // n


def frame_geometry(height: int, width: int, n: int) -> MacroGeometry:
    """The macro region a height x width frame fills, checked to lie inside
    the macro and to hold whole n-row groups."""
    if height > DEFAULT_GEOMETRY.rows or width > DEFAULT_GEOMETRY.cols:
        raise DimensionMismatchError(
            f"frame {width}x{height} exceeds the {MAX_FRAME_WIDTH}x{MAX_FRAME_HEIGHT} macro")
    _patch_grid(height, width, n)
    return MacroGeometry(rows=height, cols=width)


def _in_order(terms: list[np.ndarray]) -> np.ndarray:
    """Sum one or more same-shape arrays left to right."""
    if len(terms) == 1:
        return terms[0]
    acc = terms[0] + terms[1]
    for t in terms[2:]:
        acc += t
    return acc


def _pairwise(terms: list[np.ndarray]) -> np.ndarray:
    """Sum two or more same-shape arrays in the order numpy's pairwise
    summation adds a contiguous run of len(terms) values."""
    m = len(terms)
    if m < 8:
        return _in_order(terms)
    if m <= 128:
        r = list(terms[:8])
        for i in range(8, m - m % 8, 8):
            r = [r[j] + terms[i + j] for j in range(8)]
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in terms[m - m % 8:]:
            acc += t
        return acc
    half = m // 2
    half -= half % 8
    return _pairwise(terms[:half]) + _pairwise(terms[half:])


def patch_sums(a: np.ndarray, n: int) -> np.ndarray:
    """Sum of a (rows, cols) array over each complete n x n patch,
    shape (rows // n, cols // n); rows must be a multiple of n.

    Bitwise equal to a[:, :used].reshape(groups, n, per_group, n)
    .sum(axis=(1, 3)) on a C-contiguous copy, because it adds in numpy's own
    order: each patch row is a contiguous run of n values, summed pairwise,
    and the row sums are added top to bottom.  With one patch per group the
    whole patch is one contiguous run of n^2 values.
    """
    rows, cols = a.shape
    per_group = cols // n
    if per_group == 1:
        return _pairwise([a[i::n, j:j + 1] for i in range(n) for j in range(n)])
    runs = a[:, :per_group * n].reshape(rows, per_group, n)
    row_sums = _pairwise([runs[:, :, j] for j in range(n)]).reshape(rows // n, n, per_group)
    return _in_order([row_sums[:, i] for i in range(n)])


def _cell_planes(a: np.ndarray, n: int) -> np.ndarray:
    """The complete n x n patches of each (rows, cols) array of a stack as n^2
    cell planes, a view: planes[m, i, j] == a[m, i::n, j:used:n], shape
    (groups, per_group)."""
    m, rows, cols = a.shape
    per_group = cols // n
    patches = a[:, :, :per_group * n].reshape(m, rows // n, n, per_group, n)
    return patches.transpose(0, 2, 4, 1, 3)


def _split_sums(values: np.ndarray, ones: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch sums of `values` over the 1-storing cells and over the 0-storing cells."""
    part = values * ones
    on_ones = patch_sums(part, n)
    np.subtract(values, part, out=part)
    return on_ones, patch_sums(part, n)


def _race_in_place(
    bits: np.ndarray, currents: np.ndarray, vtrips: np.ndarray, n: int, device: DeviceParams
) -> tuple[int, int]:
    """Race every complete n x n patch of a (rows, cols) array, overwrite the
    patches with the outcomes and return (flips_intended, flips_unintended)."""
    used, nn = _patch_grid(*bits.shape, n)[1] * n, n * n
    ones = bits != 0
    k = patch_sums(ones.astype(np.intp), n)
    i_blb, i_bl = _split_sums(currents, ones, n)
    vt_ones, vt_zeros = _split_sums(vtrips, ones, n)
    outcome, _ = race(n, k, i_bl, i_blb, vt_ones, vt_zeros, device)
    ideal = k >= KernelSpec(n).threshold

    flips_intended = int(np.where(ideal, nn - k, k).sum())
    flips_unintended = nn * int(np.count_nonzero(outcome != ideal))
    for i in range(n):
        for j in range(n):
            bits[i::n, j:used:n] = outcome
    return flips_intended, flips_unintended


def filter_in_memory(state: MacroState, n: int, device: DeviceParams) -> FilterReport:
    """Run the in-array filter over every complete n x n patch, two cycles per row group.

    All patches of a row group race simultaneously; results overwrite the
    patches in place.  Flip counts compare the post-filter contents with the
    ideal majority decision of the pre-filter contents over the filtered
    region.  Leftover columns (cols % n) are untouched and not counted.
    """
    flips_intended, flips_unintended = _race_in_place(
        state.bits, state.cell_current, state.cell_vtrip, n, device)
    cycles = 2 * (state.geometry.rows // n)
    state.cycle_count += cycles
    return FilterReport(n, flips_intended, flips_unintended, cycles, int(state.bits.any()))


_MAX_WORKERS = 4


def filter_in_memory_stack(
    frames: np.ndarray, first_seed: int, device: DeviceParams, variation: CellVariation, n: int
) -> list[tuple[int, int, int, int]]:
    """Load, filter and read back every frame of a (frames, height, width)
    uint8 stack in place, as init_macro + load_frame + filter_in_memory would
    with lottery seed first_seed + index; `variation` is already scaled to
    the device.  Returns one (valid_frame, flips_intended, flips_unintended,
    cycles) row per frame; cycles count the clear, one write per on pixel
    and the filter.

    The frames run on up to _MAX_WORKERS threads, each drawing into its own
    scratch, so the result does not depend on their count.  The threads call
    only private helpers: bench/spans.py rebinds public names with a tracer
    that is not thread-safe.
    """
    count, rows, cols = frames.shape
    geometry = frame_geometry(rows, cols, n)
    fixed_cycles = -(-rows // geometry.clear_group) + 2 * (rows // n)
    workers = max(1, min(count, os.cpu_count() or 1, _MAX_WORKERS))
    reports: list = [None] * count

    def work(first: int) -> None:
        draws = np.empty((2, rows, cols))
        for i in range(first, count, workers):
            _standard_draws((rows, cols), first_seed + i, draws)
            written = int(np.count_nonzero(frames[i]))
            flips = _race_in_place(frames[i], *_scale_lottery(*draws, device, variation),
                                   n, device)
            reports[i] = (int(frames[i].any()), *flips, fixed_cycles + written)

    if workers == 1:
        work(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only here, so startup stays lean
        with ThreadPoolExecutor(workers) as pool:
            for done in [pool.submit(work, w) for w in range(workers)]:
                done.result()
    return reports


# ---------------------------------------------------------------------------
# the race in closed form
# ---------------------------------------------------------------------------

# A direct race decides its sign as the closed form f does whenever |f|
# exceeds this fraction of f's terms.  There every current and trip point
# lies within [0.04, 1.96] of nominal, so each per-patch sum of n^2 cells, in
# either form, is off by at most about 25 n^2 ulps, and f by about 1e-12 of
# its terms at n = 15, the largest odd n that divides the macro's 240 rows.
# That bound grows as n^2 and reaches this band near n = 130.  On the default
# characterize sweep the term ratios of the two forms differ by at most 1.1e-15.
_RACE_RTOL = 1e-10
# Closed-form races whose tie band is relatively wider than this are not trusted.
_MAX_TIE_BAND = 1e-6
# Largest effective spread the closed form handles.  Clipped currents then
# stay above 4% of i_s: never floored, and never so small that rounding of a
# single current matters.
_LINEAR_MAX_SPREAD = 0.24


def _closed_form_holds(device: DeviceParams, s: float, sigma_vtrip: float,
                       trip_range: tuple[float, float]) -> bool:
    """Whether f may stand in for the direct race at effective spread s, by
    the module docstring's rule, each floor computed as _scale_lottery does;
    each caller still refuses a patch within _RACE_RTOL of a tie."""
    i_s, v_nom = device.i_s_nominal, device.v_trip_nominal
    z_min, z_max = trip_range
    return (s <= _LINEAR_MAX_SPREAD and i_s - 4.0 * (s * i_s) > _CURRENT_FLOOR
            and z_min * sigma_vtrip + v_nom > _VTRIP_FLOOR
            and sigma_vtrip * max(-z_min, z_max) <= 4.0 * _LINEAR_MAX_SPREAD * v_nom
            and all(1e-60 < x < 1e60
                    for x in (i_s, v_nom, device.c_bl, 1.0 + device.delta_c)))


def _trip_points(sums: np.ndarray, counts, device: DeviceParams, sigma_vtrip: float):
    """Mean trip points v_nom + sigma_vtrip * W / count, W = sums[side, 1]."""
    means = sums[:, 1] * (sigma_vtrip / counts)
    means += device.v_trip_nominal
    return means


# ---------------------------------------------------------------------------
# characterization
# ---------------------------------------------------------------------------

def pattern_to_patch(pattern_id: int, n: int) -> np.ndarray:
    """Decode a bitmask pattern id (bit i = cell (i // n, i % n)) to an n x n array."""
    if not 0 <= pattern_id < 1 << (n * n):
        raise InvalidParamsError(f"pattern id {pattern_id} out of range for n={n}")
    bits = [(pattern_id >> i) & 1 for i in range(n * n)]     # ids pass 64 bits from n = 9
    return np.array(bits, dtype=np.uint8).reshape(n, n)


def _pattern_ids(n: int, k: int, patterns: Literal["all"] | int, seed: int) -> list[int]:
    """Every k-ones pattern id, or `patterns` distinct ones drawn from
    default_rng([seed, n, k]), sorted."""
    if patterns == "all":
        return [sum(1 << p for p in pos) for pos in combinations(range(n * n), k)]
    rng, seen = np.random.default_rng([seed, n, k]), set()
    while len(seen) < min(patterns, math.comb(n * n, k)):
        seen.add(int(sum(1 << int(p) for p in rng.choice(n * n, size=k, replace=False))))
    return sorted(seen)


def _sweep_grid(n: int, ks: Sequence[int], trials: int, patterns, geometry: MacroGeometry):
    """Check a sweep's arguments; returns its (row groups, patches per group)."""
    grid = _patch_grid(geometry.rows, geometry.cols, n)
    if not grid[1]:
        raise DimensionMismatchError(f"cols {geometry.cols} hold no complete patch of n={n}")
    for k in ks:
        if not 0 <= k <= n * n:
            raise InvalidParamsError(f"k={k} impossible for n={n}")
    if trials <= 0:
        raise InvalidParamsError("trials must be positive")
    if patterns != "all" and (type(patterns) is not int or patterns <= 0):
        raise InvalidParamsError(f"patterns must be positive, an int or 'all'; got {patterns!r}")
    return grid


def _ber_stat(n: int, k: int, patches: int, trials: int, pids: list, flips: list) -> BERStat:
    return BERStat(
        n=n, k=k, patches=patches, trials=trials,
        pattern_stats=[PatternStat(pid, trials, f, f / (patches * trials))
                       for pid, f in zip(pids, flips)],
        ber=sum(flips) / (patches * trials * len(pids)),
    )


def _closed_form_wins(sums: np.ndarray, k: int, nn: int, device: DeviceParams,
                      variation: CellVariation, trip_range: tuple[float, float]) -> int | None:
    """The patches where the 1-side wins (dt > 0), from the closed form of the
    race, or None where it might differ from the direct race.

    sums[side, q] sum the clipped current (q = 0) and standard trip-point
    (q = 1) draws over each patch's 1-storing (side 0) and 0-storing cells
    (side 1); the trip-point draws span trip_range.  The 1-side wins exactly
    when f > 0 (module docstring).  The count is trusted where
    _closed_form_holds and each |f| exceeds _RACE_RTOL of its terms.
    """
    s, sigma_v = variation.sigma_i_over_mu, variation.sigma_vtrip
    if not _closed_form_holds(device, s, sigma_v, trip_range):
        return None
    c_blb = 1.0 + device.delta_c
    side = np.array([k, nn - k], dtype=float).reshape(2, 1, 1)
    terms = _trip_points(sums, side, device, sigma_v)     # v_bl, v_blb
    terms *= sums[:, 0] * s + side              # times i_blb / i_s, i_bl / i_s
    ratio = terms[0] / terms[1]                 # f > 0 iff ratio > 1 + delta_c
    wins = np.count_nonzero(ratio > c_blb * (1.0 + _RACE_RTOL) / (1.0 - _RACE_RTOL))
    losses = np.count_nonzero(ratio < c_blb * (1.0 - _RACE_RTOL) / (1.0 + _RACE_RTOL))
    return wins if wins + losses == ratio.size else None


def ber_supply_sweep(
    n: int, ks: Sequence[int], devices: Sequence[DeviceParams], variation: CellVariation,
    trials: int = 8, patterns: Literal["all"] | int = 16,
    geometry: MacroGeometry = DEFAULT_GEOMETRY,
) -> list[list[BERStat]]:
    """ber_pattern_sweep at every supply and every k, with the reference
    `variation` scaled to each supply: result[s][j] == ber_pattern_sweep(n,
    ks[j], devices[s], variation_at_device(variation, devices[s])), bit for
    bit.

    The lottery seed rng_seed + pattern_index * trials + trial depends on
    neither the supply nor k, so each lottery is drawn once, one ahead on a
    worker thread.  Every patch holds the same pattern, so for each k a
    lottery reduces to per-patch sums of its standard draws, and a supply's
    races to a closed-form sign on them (_closed_form_wins).  Where that sign
    is not sure, _race_in_place races the tiled pattern on the lottery, scaled
    at most once per supply.
    """
    groups, per_group = _sweep_grid(n, ks, trials, patterns, geometry)
    ids = [_pattern_ids(n, k, patterns, variation.rng_seed) for k in ks]
    scaled = [variation_at_device(variation, device) for device in devices]
    nn, threshold, patches = n * n, KernelSpec(n).threshold, groups * per_group
    shape, count = (geometry.rows, geometry.cols), max(map(len, ids), default=0) * trials
    buffers, scratch = np.empty((2, 2, *shape)), np.empty((2, geometry.rows, per_group * n))
    flips = [[[0] * len(pids) for pids in ids] for _ in devices]

    from concurrent.futures import ThreadPoolExecutor  # only here, so startup stays lean
    # One worker draws the next lottery while this thread races the last.  It
    # calls only a private helper, as bench/spans.py's tracer is not
    # thread-safe.  Leaving the block joins it, also when a race raises.
    with ThreadPoolExecutor(1) as pool:
        def draw(idx: int):     # seed rng_seed + pattern_index * trials + trial
            return pool.submit(_standard_draws, shape, variation.rng_seed + idx, buffers[idx % 2])

        ahead = draw(0) if count else None
        for idx in range(count):
            z = ahead.result()
            if idx + 1 < count:
                ahead = draw(idx + 1)
            pi = idx // trials
            # i_s + sigma_i * clip(z, -4, 4) rounds to exactly the clipped
            # current of _scale_lottery, so both race paths read clipped draws.
            np.clip(z[0], -4.0, 4.0, out=z[0])
            cells = _cell_planes(z, n)
            trip_range = float(z[1].min()), float(z[1].max())
            races = []
            for j, (k, pids) in enumerate(zip(ks, ids)):
                if pi < len(pids) and 0 < k < nn:
                    ones = pattern_to_patch(pids[pi], n)
                    races.append((j, k, ones, np.stack([
                        _in_order([cells[:, i, jj] for i, jj in zip(*mask.nonzero())])
                        for mask in (ones, 1 - ones)])))
            for device, var, row_flips in zip(devices, scaled, flips):
                lottery = None          # the scaled lottery, made only for a direct race
                for j, k, ones, sums in races:
                    wins = _closed_form_wins(sums, k, nn, device, var, trip_range)
                    if wins is not None:
                        row_flips[j][pi] += nn * int(wins if k < threshold else patches - wins)
                        continue
                    if lottery is None:
                        np.copyto(scratch, z[:, :, :per_group * n])
                        lottery = _scale_lottery(*scratch, device, var)
                    tile = np.tile(ones, (groups, per_group))
                    row_flips[j][pi] += _race_in_place(tile, *lottery, n, device)[1]
    return [[_ber_stat(n, k, patches, trials, pids, pattern_flips)
             for k, pids, pattern_flips in zip(ks, ids, row_flips)]
            for row_flips in flips]


def ber_pattern_sweep(
    n: int, k: int, device: DeviceParams, variation: CellVariation, trials: int = 8,
    patterns: Literal["all"] | int = 16, geometry: MacroGeometry = DEFAULT_GEOMETRY,
) -> BERStat:
    """Fill every complete patch of the array with a k-ones pattern and measure
    unintended flips against the majority decision, resampling the mismatch
    lottery each trial (seed = rng_seed + pattern_index * trials + trial).

    `patterns` is "all" (every C(n^2, k) placement) or a sample size.  BER
    is unintended flips / (patches * trials), so a fully wrong patch
    contributes n^2.  Each trial races a whole macro state.
    """
    groups, per_group = _sweep_grid(n, [k], trials, patterns, geometry)
    pids = _pattern_ids(n, k, patterns, variation.rng_seed)
    flips = [0] * len(pids)
    for pi, pid in enumerate(pids):
        tile = np.tile(pattern_to_patch(pid, n), (groups, per_group))
        for t in range(trials):
            seed = variation.rng_seed + pi * trials + t
            state = init_macro(geometry, device, replace(variation, rng_seed=seed))
            state.bits[:, :per_group * n] = tile
            flips[pi] += filter_in_memory(state, n, device).flips_unintended
    return _ber_stat(n, k, groups * per_group, trials, pids, flips)


def patch_error_trials(
    pattern: np.ndarray, device: DeviceParams, variation: CellVariation, trials: int,
    seed: int | None = None,
) -> np.ndarray:
    """Monte-Carlo a single patch; returns a bool array, True where the race
    disagreed with the majority vote.

    Batch form of the per-trial lottery: currents are drawn as one
    (trials, n, n) block, then trip points as another, from default_rng(seed)
    (default variation.rng_seed), so the stream is reproducible.
    """
    patch = np.asarray(pattern, dtype=np.uint8)
    if patch.ndim != 2 or patch.shape[0] != patch.shape[1]:
        raise DimensionMismatchError(f"patch must be square, got shape {patch.shape}")
    n = patch.shape[0]
    spec = KernelSpec(n)
    k = int(patch.sum())
    expected = 1 if k >= spec.threshold else 0
    cur, vtr = sample_cell_lottery(
        (trials, n, n), device, variation, variation.rng_seed if seed is None else seed
    )
    ones = patch.astype(bool)
    if k == 0 or k == n * n:
        return np.zeros(trials, dtype=bool)
    outcome, _ = race(
        n, k, cur[:, ~ones].sum(axis=1), cur[:, ones].sum(axis=1),
        vtr[:, ones].sum(axis=1), vtr[:, ~ones].sum(axis=1), device,
    )
    return outcome != expected


# ---------------------------------------------------------------------------
# image-level BER and calibration
# ---------------------------------------------------------------------------

def measure_image_ber(
    frames: Sequence[BinaryFrame], device: DeviceParams, variation: CellVariation, n: int = 3
) -> float:
    """Mean fraction of pixels where the in-array filter disagrees with the
    ideal majority filter, with a fresh lottery per frame (rng_seed + index).

    `variation` is the reference spread; it is scaled to the device's
    overdrive here.
    """
    if not frames:
        raise InvalidParamsError("need at least one frame")
    eff = variation_at_device(variation, device)
    total_flips = 0
    total_px = 0
    for idx, frame in enumerate(frames):
        geom = MacroGeometry(rows=frame.height, cols=frame.width)
        state = init_macro(geom, device, replace(eff, rng_seed=eff.rng_seed + idx))
        state.bits[:, :] = frame.pixels
        report = filter_in_memory(state, n, device)
        total_flips += report.flips_unintended
        total_px += frame.width * frame.height
    return total_flips / total_px


class _LinearRaces:
    """Unintended flips of measure_image_ber on `device` as a function of the
    effective spread s, from one lottery draw per frame (see _linear_races).

    A mixed patch's f is linear in s, f = A + s*B, so the patch is wrong
    (outcome != majority) on one side of s* = -A/B only.  For each frame the
    s* inside the bisection range are kept sorted, split by the side on which
    the patch is wrong, and the flips at s are counted with searchsorted.

    flips(s) is None where f could disagree with the direct race: s outside
    s_range or where _closed_form_holds does not, an s* within rounding of
    s, or a patch whose A is too small against its terms to trust.
    """

    def __init__(self, device: DeviceParams, sigma_vtrip: float, n: int,
                 s_range: tuple[float, float]):
        self.device, self.sigma_vtrip, self.range = device, sigma_vtrip, s_range
        self.nn, self.threshold = n * n, KernelSpec(n).threshold
        self.band = 0.0        # widest relative tie band of any mixed patch
        self.constant = 0      # wrong patches whose s* lies outside s_range
        self.up: list[np.ndarray] = []      # per frame, sorted s* of patches wrong above s*
        self.down: list[np.ndarray] = []    # ... and of patches wrong below s*
        self.trip_range = (math.inf, -math.inf)     # of the standard trip-point draws

    def add(self, k, sums, trip_range: tuple[float, float]) -> None:
        """One frame's mixed patches, their ones counts and the sums[side, q]
        of _closed_form_wins, and the range of the frame's trip-point draws."""
        nn = self.nn
        s_lo, s_hi = self.range
        self.trip_range = (min(self.trip_range[0], trip_range[0]),
                           max(self.trip_range[1], trip_range[1]))
        window = s_lo * (1.0 - 2 * _MAX_TIE_BAND), s_hi * (1.0 + 2 * _MAX_TIE_BAND)
        v_bl, v_blb = _trip_points(sums, np.stack([k, nn - k]), self.device, self.sigma_vtrip)
        v_blb *= 1.0 + self.device.delta_c
        wrong_sign = np.where(k >= self.threshold, -1.0, 1.0)   # wrong iff sign * f > 0
        a = wrong_sign * (v_bl * k - v_blb * (nn - k))
        b = wrong_sign * (v_bl * sums[0, 0] - v_blb * sums[1, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            band = _RACE_RTOL * (v_bl * k + v_blb * (nn - k)) / np.abs(a)
            crit = -a / b
        self.band = max(self.band, float(band.max(initial=0.0)))
        moving = (crit >= window[0]) & (crit <= window[1])
        self.constant += int(np.count_nonzero(~moving & (a + math.sqrt(s_lo * s_hi) * b > 0)))
        self.up.append(np.sort(crit[moving & (b > 0)]))
        self.down.append(np.sort(crit[moving & (b < 0)]))

    def flips(self, s: float) -> int | None:
        if not (self.range[0] < s < self.range[1] and self.band <= _MAX_TIE_BAND
                and _closed_form_holds(self.device, s, self.sigma_vtrip, self.trip_range)):
            return None
        near = s * (1.0 - 2 * self.band), s * (1.0 + 2 * self.band)
        wrong = self.constant
        for up, down in zip(self.up, self.down):
            for crit in (up, down):
                if crit.searchsorted(near[1], "right") > crit.searchsorted(near[0], "left"):
                    return None
            wrong += int(up.searchsorted(s)) + len(down) - int(down.searchsorted(s))
        return self.nn * wrong


def _linear_races(
    frames: Sequence[BinaryFrame], variation: CellVariation, n: int,
    closed_forms: Sequence[tuple[DeviceParams, tuple[float, float]]],
) -> list[_LinearRaces]:
    """One _LinearRaces per (device, spread range) over `frames`, drawing and
    summing each frame's lottery (seed rng_seed + index) once for all."""
    if not frames:
        raise InvalidParamsError("need at least one frame")
    races = [_LinearRaces(device, variation.sigma_vtrip, n, s_range)
             for device, s_range in closed_forms]
    for idx, frame in enumerate(frames):
        _patch_grid(frame.height, frame.width, n)        # rows must be a multiple of n
        z = _standard_draws(frame.pixels.shape, variation.rng_seed + idx)
        np.clip(z[0], -4.0, 4.0, out=z[0])
        ones = frame.pixels != 0
        k = patch_sums(ones.astype(np.intp), n)
        mixed = (k > 0) & (k < n * n)
        sums = np.stack([_split_sums(draws, ones, n) for draws in z], axis=1)[:, :, mixed]
        trip_range = float(z[1].min()), float(z[1].max())
        for races_at in races:
            races_at.add(k[mixed], sums, trip_range)
    return races


def calibrate_current_sigma(
    frames: Sequence[BinaryFrame], device_low: DeviceParams, device_high: DeviceParams,
    variation: CellVariation, target_ber: float = 2e-4,
    sigma_bounds: tuple[float, float] = (2e-3, 0.5), iters: int = 18, n: int = 3,
) -> CalibrationResult:
    """Fit the reference sigma_i_over_mu so the low-supply image BER hits
    target_ber on `frames`, then report the high-supply BER on the same seeds.

    Image BER is monotone in the spread, so a log-space bisection suffices.
    Each BER is the count of a _LinearRaces at its supply, or a direct
    measure_image_ber where that count could differ from it.
    """
    lo, hi = sigma_bounds
    if not 0 < lo < hi:
        raise InvalidParamsError(f"bad sigma bounds {sigma_bounds}")

    def at(sigma: float) -> CellVariation:
        return replace(variation, sigma_i_over_mu=sigma)

    def effective(sigma: float, device: DeviceParams) -> float:
        return variation_at_device(at(sigma), device).sigma_i_over_mu

    low, high = _linear_races(frames, variation, n, [
        (device, (effective(lo, device), effective(hi, device)))
        for device in (device_low, device_high)
    ])
    total_px = sum(frame.width * frame.height for frame in frames)

    def ber_at(races: _LinearRaces, sigma: float) -> float:
        flips = races.flips(effective(sigma, races.device))
        if flips is None:
            return measure_image_ber(frames, races.device, at(sigma), n)
        return flips / total_px

    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if ber_at(low, mid) < target_ber:
            lo = mid
        else:
            hi = mid
    fitted = math.sqrt(lo * hi)
    return CalibrationResult(
        sigma_i_over_mu=fitted,
        ber_low_vdd=ber_at(low, fitted),
        ber_high_vdd=ber_at(high, fitted),
    )
