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
and report dt = NaN.

Mismatch sampling: a lottery is two standard-normal draws from one numpy
default_rng(seed) stream, currents for the whole array first, then trip
points, row-major.  They are scaled at use: a cell's discharge current is
i_s_nominal + sigma_i * z with sigma_i = sigma_i_over_mu * i_s_nominal and
z clipped to +/-4 when drawn (a clip, so the draw count is fixed), floored at
a tiny positive value; its trip point is v_trip_nominal + sigma_vtrip * z',
floored likewise.  Clipping z before scaling gives the bits of clipping the
current at i_s +/- 4 sigma_i, as rounding is monotone.  On numpy's Generator
this is bitwise the same stream as Normal(mean, sigma) draws, so an
independent re-implementation with the same seed reproduces the lottery bit
for bit.  Monte-Carlo trials reseed with rng_seed + trial_index; the seed
does not depend on the supply.

One race, two ways.  Every direct race runs through _race_in_place on a
scaled lottery.  Without the floors, a mixed patch with k ones comes out 1
exactly when, at effective spread s,

    f = v_bl * (k + s*Z1) - (1 + delta_c) * v_blb * (n^2 - k + s*Z0) > 0,

with Z1, Z0 the clipped standard current draws summed over its 1- and
0-storing cells and v_bl, v_blb their mean trip points.  One function,
_race_margin, returns f and its tie band, _RACE_RTOL times the sum of f's two
terms; characterize (ber_supply_sweep) and calibration both decide races with
it.  f stands for the race only under one rule, _closed_form_holds (s is at
most _LINEAR_MAX_SPREAD, no current or trip point can reach its floor, trip
points stray no further from nominal than clipped currents, no scale is
extreme), and only for a patch whose f clears the band.  Anywhere else the
race runs directly, so f only stands where it equals the direct race.  f and
both its terms are linear in s, so a patch whose f clears the band with one
sign at both ends of a spread range keeps that sign, clear of the band,
everywhere in between: calibration settles such patches once for its whole
bisection.

Timing: clearing strobes 16 word lines per cycle; writing costs one cycle per
on pixel; filtering costs two cycles (precharge + resolve) per row group.
Only complete n-wide column groups are filtered; the cols % n leftover
columns pass through untouched and are excluded from flip accounting.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import combinations, repeat
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .config import RunConfig
from .errors import DimensionMismatchError, InvalidParamsError
from .frames import BinaryFrame
from .params import (CLEAR_GROUP, DEFAULT_GEOMETRY, MAX_FRAME_HEIGHT, MAX_FRAME_WIDTH,
                     CellVariation, DeviceParams, KernelSpec, MacroGeometry, variation_at_device)

_CURRENT_FLOOR = 1e-12       # A, keeps clipped samples strictly positive
_VTRIP_FLOOR = 1e-9          # V


@dataclass
class MacroState:
    geometry: MacroGeometry
    bits: np.ndarray            # (rows, cols) uint8
    cell_current: np.ndarray    # (rows, cols) float64, amperes
    cell_vtrip: np.ndarray      # (rows, cols) float64, volts
    cycle_count: int = 0


@dataclass
class FilterReport:
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

def _standard_draws(
    shape: tuple[int, ...], seed: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Standard-normal current draws, clipped to +/-4, then trip-point draws,
    from default_rng(seed), as one (2, *shape) array: written into `out` if
    it has that shape, else into a new array."""
    if out is None or out.shape != (2, *shape):
        out = np.empty((2, *shape))
    np.random.default_rng(seed).standard_normal(out=out)
    np.clip(out[0], -4.0, 4.0, out=out[0])
    return out


def lottery_stream(shapes: Iterable[tuple[int, ...]], first_seed: int) -> Iterator[np.ndarray]:
    """The _standard_draws of seed first_seed + i for the i-th of `shapes`.

    A yielded lottery may be read, and scaled in place, until the caller asks
    for the next one; then its buffer takes the lottery after the next.  One
    worker thread draws the next lottery into the other buffer while the
    caller uses the current one, so at most two exist at once; a buffer is
    replaced only when the shape changes.  The worker calls only this private
    helper, as bench/spans.py's tracer is not thread-safe.  Closing the
    generator joins the worker, also when the caller raises."""
    from concurrent.futures import ThreadPoolExecutor  # only here, so startup stays lean
    with ThreadPoolExecutor(1) as pool:
        ahead = released = None
        for seed, shape in enumerate(shapes, first_seed):
            current = None if ahead is None else ahead.result()
            ahead = pool.submit(_standard_draws, shape, seed, released)
            if current is not None:
                yield current
                released = current
        if ahead is not None:
            yield ahead.result()


def _scale_lottery(
    z_i: np.ndarray, z_v: np.ndarray, device: DeviceParams, variation: CellVariation
) -> tuple[np.ndarray, np.ndarray]:
    """Standard current and trip-point draws scaled, in place, to the device
    and variation: each is loc + scale * z, floored."""
    z_i *= variation.sigma_i_over_mu * device.i_s_nominal
    z_i += device.i_s_nominal
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
        bits=np.zeros(shape, dtype=np.uint8),
        cell_current=currents,
        cell_vtrip=vtrips,
    )


def load_frame(state: MacroState, frame: BinaryFrame) -> int:
    """Clear the array, strobing CLEAR_GROUP word lines per cycle, then write
    the frame at one cycle per on pixel; returns the cycles spent on both."""
    if frame.height != state.geometry.rows or frame.width != state.geometry.cols:
        raise DimensionMismatchError(
            f"frame {frame.width}x{frame.height} does not fit array "
            f"{state.geometry.cols}x{state.geometry.rows}"
        )
    state.bits[:] = frame.pixels
    cycles = -(-state.geometry.rows // CLEAR_GROUP) + int(np.count_nonzero(frame.pixels))
    state.cycle_count += cycles
    return cycles


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
    return FilterReport(flips_intended, flips_unintended, cycles, int(state.bits.any()))


def filter_in_memory_stack(
    frames: np.ndarray, lotteries: Iterator[np.ndarray], device: DeviceParams,
    variation: CellVariation, n: int
) -> list[tuple[int, int, int, int, int, float, int]]:
    """Load, filter and read back every frame of a (frames, height, width)
    uint8 stack in place, as init_macro + load_frame + filter_in_memory would
    with the next standard draws of `lotteries` (lottery_stream) as each
    frame's lottery; `variation` is already scaled to the device.  Returns
    one (input_ones, output_ones, valid_frame, flips_intended,
    flips_unintended, ber, cycles) row per frame; cycles count the clear, one
    write per input one and the filter, and ber divides by every pixel."""
    _, rows, cols = frames.shape
    if rows > MAX_FRAME_HEIGHT or cols > MAX_FRAME_WIDTH:
        raise DimensionMismatchError(
            f"frame {cols}x{rows} exceeds the {MAX_FRAME_WIDTH}x{MAX_FRAME_HEIGHT} macro")
    fixed_cycles = -(-rows // CLEAR_GROUP) + 2 * _patch_grid(rows, cols, n)[0]
    reports = []
    for frame, z in zip(frames, lotteries):
        written = int(np.count_nonzero(frame))
        intended, unintended = _race_in_place(
            frame, *_scale_lottery(*z, device, variation), n, device)
        ones = int(np.count_nonzero(frame))
        reports.append((written, ones, int(ones > 0), intended, unintended,
                        unintended / frame.size, fixed_cycles + written))
    return reports


def simulate(cfg: RunConfig, chunks: Iterable[tuple[int, np.ndarray]]) -> Iterator[tuple]:
    """The simulate command: each (first index, stack) chunk of a recording
    filtered in place by filter_in_memory_stack, as (first, stack, report.csv
    rows).  It opens the run's lottery stream, seeded cfg.seed, on the first
    chunk, and closes it, joining its worker, when closed or when `chunks` raises."""
    device, lotteries = cfg.build(DeviceParams), None
    variation = variation_at_device(cfg.build(CellVariation), device)
    try:
        for first, chunk in chunks:
            if lotteries is None:
                lotteries = lottery_stream(repeat(chunk.shape[1:]), cfg.seed)
            rows = filter_in_memory_stack(chunk, lotteries, device, variation, cfg.n)
            yield first, chunk, [(i, *row) for i, row in enumerate(rows, first)]
    finally:
        if lotteries is not None:
            lotteries.close()


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
# Largest effective spread the closed form handles.  Clipped currents then
# stay above 4% of i_s: never floored, and never so small that rounding of a
# single current matters.
_LINEAR_MAX_SPREAD = 0.24


def _closed_form_holds(device: DeviceParams, s: float, sigma_vtrip: float,
                       trip_range: tuple[float, float]) -> bool:
    """Whether f may stand in for the direct race at effective spread s, for
    trip-point draws spanning trip_range, by the module docstring's rule, each
    floor computed as _scale_lottery does.  It fails from some s on, if at all.
    Each patch must still clear the tie band of _race_margin."""
    i_s, v_nom = device.i_s_nominal, device.v_trip_nominal
    z_min, z_max = trip_range
    return (s <= _LINEAR_MAX_SPREAD and i_s - 4.0 * (s * i_s) > _CURRENT_FLOOR
            and z_min * sigma_vtrip + v_nom > _VTRIP_FLOOR
            and sigma_vtrip * max(-z_min, z_max) <= 4.0 * _LINEAR_MAX_SPREAD * v_nom
            and all(1e-60 < x < 1e60
                    for x in (i_s, v_nom, device.c_bl, 1.0 + device.delta_c)))


def _race_margin(sums: np.ndarray, k, nn: int, device: DeviceParams, s: float,
                 sigma_vtrip: float) -> tuple[np.ndarray, np.ndarray]:
    """f at effective spread s for each patch, and its tie band: _RACE_RTOL
    times the sum of f's two terms (module docstring).

    sums[side, q] sum the clipped current (q = 0) and standard trip-point
    (q = 1) draws over each patch's 1-storing (side 0) and 0-storing cells
    (side 1); k is each patch's ones count, 0 < k < nn.
    """
    c_blb = 1.0 + device.delta_c
    ones = sums[0, 1] * (sigma_vtrip / k)
    ones += device.v_trip_nominal               # v_bl
    ones *= sums[0, 0] * s + k                  # times i_blb / i_s
    zeros = sums[1, 1] * (c_blb * sigma_vtrip / (nn - k))
    zeros += c_blb * device.v_trip_nominal      # (1 + delta_c) v_blb
    zeros *= sums[1, 0] * s + (nn - k)          # times i_bl / i_s
    band = ones + zeros
    band *= _RACE_RTOL
    ones -= zeros
    return ones, band


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


MAX_SWEEP_PATTERNS = 1 << 16    # patterns a sweep may run for one k


def _sweep_grid(n: int, ks: Sequence[int], trials: int, patterns, geometry: MacroGeometry):
    """Check a sweep's arguments, before any pattern is listed or drawn;
    returns its (row groups, patches per group)."""
    grid = _patch_grid(geometry.rows, geometry.cols, n)
    if not grid[1]:
        raise DimensionMismatchError(f"cols {geometry.cols} hold no complete patch of n={n}")
    if trials <= 0:
        raise InvalidParamsError("trials must be positive")
    if patterns != "all" and (type(patterns) is not int or patterns <= 0):
        raise InvalidParamsError(f"patterns must be positive, an int or 'all'; got {patterns!r}")
    for k in ks:
        if not 0 <= k <= n * n:
            raise InvalidParamsError(f"k={k} impossible for n={n}")
        count = math.comb(n * n, k) if patterns == "all" else min(patterns, math.comb(n * n, k))
        if count > MAX_SWEEP_PATTERNS:
            raise InvalidParamsError(f"k={k} at n={n} asks for {count} patterns, past the "
                                     f"{MAX_SWEEP_PATTERNS}-pattern limit of a sweep")
    return grid


def _ber_stat(n: int, k: int, patches: int, trials: int, pids: list, flips: list) -> BERStat:
    return BERStat(
        n=n, k=k, patches=patches, trials=trials,
        pattern_stats=[PatternStat(pid, trials, f, f / (patches * trials))
                       for pid, f in zip(pids, flips)],
        ber=sum(flips) / (patches * trials * len(pids)),
    )


def ber_supply_sweep(
    n: int, ks: Sequence[int], devices: Sequence[DeviceParams], variation: CellVariation,
    trials: int = 8, patterns: Literal["all"] | int = 16,
    geometry: MacroGeometry = DEFAULT_GEOMETRY,
) -> list[list[BERStat]]:
    """The k-ones pattern BER of every k at every supply, with the reference
    `variation` scaled to each supply: result[s][j] == ber_pattern_sweep(n,
    ks[j], devices[s], variation), bit for bit.

    The lottery seed rng_seed + pattern_index * trials + trial depends on
    neither the supply nor k, so each lottery is drawn once, one ahead
    (lottery_stream).  Every patch holds the same pattern, so for each k a
    lottery reduces to per-patch sums of its standard draws, and a supply's
    races to the signs of f on them (_race_margin).  Where the rule fails or
    any patch lies in its tie band, _race_in_place races the tiled pattern on
    the lottery, scaled at most once per supply.
    """
    groups, per_group = _sweep_grid(n, ks, trials, patterns, geometry)
    ids = [_pattern_ids(n, k, patterns, variation.rng_seed) for k in ks]
    scaled = [variation_at_device(variation, device) for device in devices]
    nn, threshold, patches = n * n, KernelSpec(n).threshold, groups * per_group
    shape, count = (geometry.rows, geometry.cols), max(map(len, ids), default=0) * trials
    flips = [[[0] * len(pids) for pids in ids] for _ in devices]

    with closing(lottery_stream(repeat(shape, count), variation.rng_seed)) as lotteries:
        for idx, z in enumerate(lotteries):
            pi = idx // trials
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
                s, sigma_v = var.sigma_i_over_mu, var.sigma_vtrip
                trusted = _closed_form_holds(device, s, sigma_v, trip_range)
                lottery = None          # the scaled lottery, made only for a direct race
                for j, k, ones, sums in races:
                    if trusted:
                        f, band = _race_margin(sums, k, nn, device, s, sigma_v)
                        wins = np.count_nonzero(f > band)
                        if wins + np.count_nonzero(f < -band) == patches:
                            row_flips[j][pi] += nn * int(wins if k < threshold else patches - wins)
                            continue
                    if lottery is None:
                        lottery = _scale_lottery(*z[:, :, :per_group * n].copy(), device, var)
                    tile = np.tile(ones, (groups, per_group))
                    row_flips[j][pi] += _race_in_place(tile, *lottery, n, device)[1]
    return [[_ber_stat(n, k, patches, trials, pids, pattern_flips)
             for k, pids, pattern_flips in zip(ks, ids, row_flips)]
            for row_flips in flips]


def characterize(cfg: RunConfig, vdds: Sequence[float], ks: Sequence[int],
                 trials: int | None = None, patterns=None) -> list[tuple]:
    """The characterize command's rows, one per pattern: ber_supply_sweep over
    `vdds` and `ks`, with the config's trials and patterns unless given."""
    stats = ber_supply_sweep(cfg.n, ks, [cfg.build(DeviceParams, vdd=v) for v in vdds],
                             cfg.build(CellVariation),
                             trials=cfg.trials if trials is None else trials,
                             patterns=cfg.patterns if patterns is None else patterns)
    return [(vdd, cfg.temperature, cfg.corner, cfg.n, stat.k, ps.pattern_id, ps.trials, ps.ber)
            for vdd, per_k in zip(vdds, stats) for stat in per_k for ps in stat.pattern_stats]


def ber_pattern_sweep(
    n: int, k: int, device: DeviceParams, variation: CellVariation, trials: int = 8,
    patterns: Literal["all"] | int = 16, geometry: MacroGeometry = DEFAULT_GEOMETRY,
) -> BERStat:
    """Fill every complete patch of the array with a k-ones pattern and measure
    unintended flips against the majority decision, resampling the mismatch
    lottery each trial (seed = rng_seed + pattern_index * trials + trial).
    `variation` is the reference spread, scaled to the device here.

    `patterns` is "all" (every C(n^2, k) placement) or a sample size.  BER
    is unintended flips / (patches * trials), so a fully wrong patch
    contributes n^2.  The per-state form of ber_supply_sweep's one-supply
    result, which characterize runs: each trial races a whole macro state.
    """
    groups, per_group = _sweep_grid(n, [k], trials, patterns, geometry)
    pids = _pattern_ids(n, k, patterns, variation.rng_seed)
    eff, flips = variation_at_device(variation, device), [0] * len(pids)
    for pi, pid in enumerate(pids):
        tile = np.tile(pattern_to_patch(pid, n), (groups, per_group))
        for t in range(trials):
            seed = variation.rng_seed + pi * trials + t
            state = init_macro(geometry, device, replace(eff, rng_seed=seed))
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
    if k == 0 or k == n * n:
        return np.zeros(trials, dtype=bool)
    cur, vtr = _scale_lottery(*_standard_draws(
        (trials, n, n), variation.rng_seed if seed is None else seed), device, variation)
    ones = patch.astype(bool)
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


def calibrate_current_sigma(
    frames: Sequence[BinaryFrame], device_low: DeviceParams, device_high: DeviceParams,
    variation: CellVariation, target_ber: float = 2e-4,
    sigma_bounds: tuple[float, float] = (2e-3, 0.5), iters: int = 18, n: int = 3,
) -> CalibrationResult:
    """Fit the reference sigma_i_over_mu so the low-supply image BER hits
    target_ber on `frames`, then report the high-supply BER on the same seeds.

    Image BER is monotone in the spread, so a log-space bisection suffices.
    Each frame's lottery (seed rng_seed + index) is drawn, one ahead
    (lottery_stream), and summed per mixed patch once.  A patch whose f clears
    its tie band with one sign at both ends of each supply's trusted spreads,
    [effective(lo), min(effective(hi), _LINEAR_MAX_SPREAD)], is counted once;
    each BER then evaluates f on the rest, or runs measure_image_ber where
    the rule fails or a patch lies in its band.
    """
    lo, hi = sigma_bounds
    if not (0 < lo < hi and math.isfinite(hi)):
        raise InvalidParamsError(f"bad sigma bounds {sigma_bounds}")
    if not (0 < target_ber < 1 and iters >= 0):
        raise InvalidParamsError(f"need 0 < target_ber < 1, iters >= 0; got {target_ber}, {iters}")
    if not frames:
        raise InvalidParamsError("need at least one frame")

    def at(sigma: float) -> CellVariation:
        return replace(variation, sigma_i_over_mu=sigma)

    def effective(sigma: float, device: DeviceParams) -> float:
        return variation_at_device(at(sigma), device).sigma_i_over_mu

    devices, sigma_v = (device_low, device_high), variation.sigma_vtrip
    ends = [(effective(lo, d), min(effective(hi, d), _LINEAR_MAX_SPREAD)) for d in devices]
    nn, threshold = n * n, KernelSpec(n).threshold
    settled = [0] * len(devices)        # wrong patches, per supply, settled at every supply
    kept_k, kept_sums = np.empty(0, np.intp), np.empty((2, 2, 0))   # unsettled at some supply
    trip_range = (math.inf, -math.inf)  # of the standard trip-point draws
    shapes = (frame.pixels.shape for frame in frames)
    with closing(lottery_stream(shapes, variation.rng_seed)) as lotteries:
        for frame, z in zip(frames, lotteries):
            _patch_grid(frame.height, frame.width, n)        # rows must be a multiple of n
            ones = frame.pixels != 0
            k = patch_sums(ones.astype(np.intp), n)
            mixed = (k > 0) & (k < nn)
            k = k[mixed]
            sums = np.stack([_split_sums(planes, ones, n) for planes in z], axis=1)[:, :, mixed]
            trip_range = (min(trip_range[0], float(z[1].min())),
                          max(trip_range[1], float(z[1].max())))
            wrong, rest = [], False
            for device, bracket in zip(devices, ends):
                one = zero = True       # the patch comes out 1 (0) over the whole bracket
                for s in bracket:
                    f, band = _race_margin(sums, k, nn, device, s, sigma_v)
                    one, zero = one & (f > band), zero & (f < -band)
                    del f, band         # before the next margin, to keep the peak down
                wrong.append(np.where(k >= threshold, zero, one))
                rest = rest | ~(one | zero)
            for i, w in enumerate(wrong):
                settled[i] += int(np.count_nonzero(w & ~rest))
            kept_k = np.concatenate([kept_k, k[rest]])     # a piece per frame raised peak RSS
            kept_sums = np.concatenate([kept_sums, sums[:, :, rest]], axis=-1)
    total_px = sum(frame.width * frame.height for frame in frames)

    def ber_at(i: int, sigma: float) -> float:
        device, s = devices[i], effective(sigma, devices[i])
        if _closed_form_holds(device, s, sigma_v, trip_range):
            f, band = _race_margin(kept_sums, kept_k, nn, device, s, sigma_v)
            if np.all(np.abs(f) > band):
                wrong = settled[i] + int(np.count_nonzero((f > 0) != (kept_k >= threshold)))
                return nn * wrong / total_px
        return measure_image_ber(frames, device, at(sigma), n)

    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if ber_at(0, mid) < target_ber:
            lo = mid
        else:
            hi = mid
    fitted = math.sqrt(lo * hi)
    return CalibrationResult(
        sigma_i_over_mu=fitted,
        ber_low_vdd=ber_at(0, fitted),
        ber_high_vdd=ber_at(1, fitted),
    )
