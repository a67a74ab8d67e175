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
a tiny positive value; its trip point is v_trip_nominal + sigma_vtrip * z'.  On numpy's Generator this is bitwise
the same stream as Normal(mean, sigma) draws, so an independent
re-implementation with the same seed reproduces the lottery bit for bit.
Monte-Carlo trials reseed with rng_seed + trial_index.  The seed does not
depend on the supply, so a sweep over several supplies draws each lottery
once and rescales it per supply.  Calibration draws each frame once: without
the floor a patch's race is linear in sigma (see _LinearRaces), so image BER
is a step function of sigma and each bisection step is a lookup.

Supply, temperature and corner enter through a square-law overdrive model:
V_T = 0.35 V at TT / 27 C, falling 1 mV/C and shifted +/-50 mV at SS/FF;
i_s scales with (vdd - V_T)^2 from a 50 uA reference at 1.0 V TT, and the
relative current spread scales inversely with overdrive (variation_at_device).
sigma_i_over_mu in CellVariation is therefore quoted at the 1.0 V TT
reference; harnesses that sweep the operating point call variation_at_device
to get the effective spread.  Trip points are 0.3 * vdd nominal, so
beta = 1 - v_trip/vdd = 0.7 by construction.

Timing: clearing strobes 16 word lines per cycle; writing costs one cycle per
listed pixel; filtering costs two cycles (precharge + resolve) per row group.
Only complete n-wide column groups are filtered; the cols % n leftover
columns pass through untouched and are excluded from flip accounting.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParamsError, OutOfBoundsError
from .filters import KernelSpec
from .frames import MAX_FRAME_HEIGHT, MAX_FRAME_WIDTH, BinaryFrame

# Reference operating point for the overdrive model.
TEMP_REF_C = 27.0
VDD_REF = 1.0
V_T0 = 0.35                 # V, threshold at TT / 27 C
VT_TEMP_SLOPE = 1.0e-3      # V per C; threshold drops as temperature rises
CORNER_VT_SHIFT = {"TT": 0.0, "SS": 0.05, "FF": -0.05}
I_S_REF = 50e-6             # A, unit-cell discharge current at the reference point
BETA_NOMINAL = 0.7          # 1 - v_trip / vdd

# Relative current spread at the reference overdrive, fitted by
# calibrate_current_sigma against the dense-noise workload so that 0.7 V image
# BER lands in [1e-4, 1e-3] while 1.2 V stays below 1e-5 (see tests).
CALIBRATED_SIGMA_I_OVER_MU = 0.0547
DEFAULT_SIGMA_VTRIP = 0.005  # V

_CURRENT_FLOOR = 1e-12       # A, keeps clipped samples strictly positive
_VTRIP_FLOOR = 1e-9          # V


def threshold_voltage(temperature: float, corner: str) -> float:
    if corner not in CORNER_VT_SHIFT:
        raise InvalidParamsError(f"corner must be one of {sorted(CORNER_VT_SHIFT)}, got {corner!r}")
    return V_T0 + CORNER_VT_SHIFT[corner] - VT_TEMP_SLOPE * (temperature - TEMP_REF_C)


REF_OVERDRIVE = VDD_REF - V_T0  # 0.65 V


@dataclass(frozen=True)
class DeviceParams:
    """Electrical operating point of the array."""

    vdd: float = 0.7
    temperature: float = 27.0
    corner: str = "TT"
    c_bl: float = 140e-15
    c_wl: float = 330e-15
    delta_c: float = 0.0            # BLB capacitance imbalance, C_BLB = c_bl*(1+delta_c)
    v_trip_nominal: float | None = None   # default 0.3*vdd
    i_s_nominal: float | None = None      # default overdrive-scaled from I_S_REF

    def __post_init__(self):
        vt = threshold_voltage(self.temperature, self.corner)
        if self.vdd <= vt:
            raise InvalidParamsError(
                f"vdd {self.vdd} V leaves no overdrive above V_T {vt:.3f} V"
            )
        if self.c_bl <= 0 or self.c_wl <= 0:
            raise InvalidParamsError("bit-line and word-line capacitances must be positive")
        if 1.0 + self.delta_c <= 0:
            raise InvalidParamsError(f"delta_c {self.delta_c} makes C_BLB non-positive")
        if self.v_trip_nominal is None:
            object.__setattr__(self, "v_trip_nominal", (1.0 - BETA_NOMINAL) * self.vdd)
        if not 0 < self.v_trip_nominal < self.vdd:
            raise InvalidParamsError(
                f"v_trip_nominal {self.v_trip_nominal} must lie inside (0, vdd)"
            )
        if self.i_s_nominal is None:
            object.__setattr__(
                self, "i_s_nominal", I_S_REF * (self.overdrive / REF_OVERDRIVE) ** 2
            )
        if self.i_s_nominal <= 0:
            raise InvalidParamsError("i_s_nominal must be positive")

    @property
    def overdrive(self) -> float:
        return self.vdd - threshold_voltage(self.temperature, self.corner)

    @property
    def beta(self) -> float:
        return 1.0 - self.v_trip_nominal / self.vdd


@dataclass(frozen=True)
class CellVariation:
    """Mismatch magnitudes; sigma_i_over_mu is quoted at the 1.0 V TT reference."""

    sigma_i_over_mu: float = CALIBRATED_SIGMA_I_OVER_MU
    sigma_vtrip: float = DEFAULT_SIGMA_VTRIP
    rng_seed: int = 0

    def __post_init__(self):
        if self.sigma_i_over_mu < 0 or self.sigma_vtrip < 0:
            raise InvalidParamsError("variation sigmas must be non-negative")


def variation_at_device(variation: CellVariation, device: DeviceParams) -> CellVariation:
    """Scale the reference current spread to the device's overdrive (sigma ~ 1/overdrive)."""
    scaled = variation.sigma_i_over_mu * REF_OVERDRIVE / device.overdrive
    return replace(variation, sigma_i_over_mu=scaled)


@dataclass(frozen=True)
class MacroGeometry:
    rows: int = MAX_FRAME_HEIGHT
    cols: int = MAX_FRAME_WIDTH
    clear_group: int = 16       # word lines strobed per clear cycle

    def __post_init__(self):
        if min(self.rows, self.cols, self.clear_group) <= 0:
            raise InvalidParamsError(f"geometry fields must be positive: {self}")


DEFAULT_GEOMETRY = MacroGeometry()


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
    vdd_low: float
    vdd_high: float


# ---------------------------------------------------------------------------
# lottery sampling and state construction
# ---------------------------------------------------------------------------

# One-entry memo of standard draws, set only inside _shared_draws().  It is a
# context variable, not a parameter, because sample_cell_lottery keeps the
# signature that its callers and tracing wrappers rely on.
_draw_memo: ContextVar[dict | None] = ContextVar("_draw_memo", default=None)


@contextmanager
def _shared_draws():
    """Within the block, a lottery drawn again with the same shape and seed
    reuses the last standard draws instead of redrawing them."""
    token = _draw_memo.set({})
    try:
        yield
    finally:
        _draw_memo.reset(token)


def _standard_draws(shape: tuple[int, ...], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal current draws, then trip-point draws, from
    default_rng(seed).  Fresh draws are writable; memoised ones are read-only."""
    memo = _draw_memo.get()
    if memo is not None and memo.get("key") == (shape, seed):
        return memo["z"]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(shape), rng.standard_normal(shape)
    if memo is not None:
        for a in z:
            a.flags.writeable = False
        memo.update(key=(shape, seed), z=z)
    return z


def _scaled(z: np.ndarray, scale: float, loc: float) -> np.ndarray:
    """loc + scale * z, in place when z is writable."""
    out = np.multiply(z, scale, out=z if z.flags.writeable else None)
    out += loc
    return out


def _scale_vtrips(z: np.ndarray, device: DeviceParams, variation: CellVariation) -> np.ndarray:
    vtrips = _scaled(z, variation.sigma_vtrip, device.v_trip_nominal)
    return np.maximum(vtrips, _VTRIP_FLOOR, out=vtrips)


def _scale_lottery(
    z_i: np.ndarray, z_v: np.ndarray, device: DeviceParams, variation: CellVariation
) -> tuple[np.ndarray, np.ndarray]:
    """Standard current and trip-point draws scaled to the device and
    variation, in place where they are writable."""
    i_s = device.i_s_nominal
    sigma_i = variation.sigma_i_over_mu * i_s
    currents = _scaled(z_i, sigma_i, i_s)
    np.clip(currents, i_s - 4.0 * sigma_i, i_s + 4.0 * sigma_i, out=currents)
    np.maximum(currents, _CURRENT_FLOOR, out=currents)
    return currents, _scale_vtrips(z_v, device, variation)


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


def write_events(state: MacroState, pixels: Iterable[tuple[int, int]]) -> int:
    """Set (row, col) cells to 1, one cycle per listed pixel (duplicates idempotent).

    Nothing is written if any pixel lies outside the array; the error names
    the first such pixel.
    """
    rc = np.asarray(pixels if isinstance(pixels, np.ndarray) else list(pixels), dtype=np.int64)
    if rc.size == 0:
        rc = rc.reshape(0, 2)
    if rc.ndim != 2 or rc.shape[1] != 2:
        raise InvalidParamsError(f"pixels must be (row, col) pairs, got shape {rc.shape}")
    rows, cols = state.geometry.rows, state.geometry.cols
    r, c = rc[:, 0], rc[:, 1]
    outside = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfBoundsError(f"pixel ({r[i]}, {c[i]}) outside {rows}x{cols} array")
    state.bits[r, c] = 1
    state.cycle_count += len(rc)
    return len(rc)


def load_frame(state: MacroState, frame: BinaryFrame) -> int:
    """clear_memory + write_events of the frame's on pixels in row-major order."""
    if frame.height != state.geometry.rows or frame.width != state.geometry.cols:
        raise DimensionMismatchError(
            f"frame {frame.width}x{frame.height} does not fit array "
            f"{state.geometry.cols}x{state.geometry.rows}"
        )
    cycles = clear_memory(state)
    cycles += write_events(state, np.argwhere(frame.pixels))
    return cycles


# ---------------------------------------------------------------------------
# the race
# ---------------------------------------------------------------------------

def race(
    n: int,
    k,
    i_bl,
    i_blb,
    vt_ones,
    vt_zeros,
    device: DeviceParams,
):
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


def _pairwise(terms: list[np.ndarray]) -> np.ndarray:
    """Sum two or more same-shape arrays in the order numpy's pairwise
    summation adds a contiguous run of len(terms) values."""
    m = len(terms)
    if m < 8:
        acc = terms[0] + terms[1]
        for t in terms[2:]:
            acc += t
        return acc
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
    acc = row_sums[:, 0] + row_sums[:, 1]
    for i in range(2, n):
        acc += row_sums[:, i]
    return acc


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
    spec = KernelSpec(n)
    _, per_group = _patch_grid(*bits.shape, n)
    used = per_group * n
    nn = n * n

    ones = bits != 0
    k = patch_sums(ones.astype(np.intp), n)
    i_blb, i_bl = _split_sums(currents, ones, n)
    vt_ones, vt_zeros = _split_sums(vtrips, ones, n)
    outcome, _ = race(n, k, i_bl, i_blb, vt_ones, vt_zeros, device)
    ideal = k >= spec.threshold

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
        z_i, z_v = np.empty((rows, cols)), np.empty((rows, cols))
        for i in range(first, count, workers):
            rng = np.random.default_rng(first_seed + i)
            rng.standard_normal(out=z_i)
            rng.standard_normal(out=z_v)
            written = int(np.count_nonzero(frames[i]))
            flips = _race_in_place(frames[i], *_scale_lottery(z_i, z_v, device, variation),
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
# characterization
# ---------------------------------------------------------------------------

def macro_patch_count(geometry: MacroGeometry, n: int) -> int:
    """Complete n x n patches per array."""
    return (geometry.rows // n) * (geometry.cols // n)


def pattern_to_patch(pattern_id: int, n: int) -> np.ndarray:
    """Decode a bitmask pattern id (bit i = cell (i // n, i % n)) to an n x n array."""
    if not 0 <= pattern_id < 1 << (n * n):
        raise InvalidParamsError(f"pattern id {pattern_id} out of range for n={n}")
    bits = (pattern_id >> np.arange(n * n)) & 1
    return bits.astype(np.uint8).reshape(n, n)


def _all_pattern_ids(n: int, k: int) -> list[int]:
    return [sum(1 << p for p in pos) for pos in combinations(range(n * n), k)]


def _sample_pattern_ids(n: int, k: int, m: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, n, k])
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < m:
        pos = rng.choice(n * n, size=k, replace=False)
        pid = int(sum(1 << int(p) for p in pos))
        if pid not in seen:
            seen.add(pid)
            out.append(pid)
        if len(seen) >= math.comb(n * n, k):
            break
    return sorted(out)


def _pattern_ids(n: int, k: int, patterns: Literal["all"] | int, seed: int) -> list[int]:
    if patterns == "all":
        return _all_pattern_ids(n, k)
    return _sample_pattern_ids(n, k, min(patterns, math.comb(n * n, k)), seed)


def ber_supply_sweep(
    n: int,
    ks: Sequence[int],
    supplies: Sequence[tuple[DeviceParams, CellVariation]],
    trials: int = 8,
    patterns: Literal["all"] | int = 16,
    geometry: MacroGeometry = DEFAULT_GEOMETRY,
) -> list[list[BERStat]]:
    """ber_pattern_sweep at every supply and every k: result[s][j] is the
    BERStat of supplies[s] at ks[j].

    `supplies` holds (device, variation) pairs, each variation already scaled
    to its device.  The lottery seed rng_seed + pattern_index * trials + trial
    depends on neither the supply nor k, so (pattern index, trial) is the
    outer loop, and each lottery is drawn once and rescaled for every
    (supply, k) that races on it.
    """
    for k in ks:
        if not 0 <= k <= n * n:
            raise InvalidParamsError(f"k={k} impossible for n={n}")
    if trials <= 0:
        raise InvalidParamsError("trials must be positive")
    if patterns != "all" and (type(patterns) is not int or patterns <= 0):
        raise InvalidParamsError(f"patterns must be positive, an int or 'all'; got {patterns!r}")
    ids = [[_pattern_ids(n, k, patterns, var.rng_seed) for k in ks] for _, var in supplies]
    groups, per_group = geometry.rows // n, geometry.cols // n
    used = per_group * n
    patches = macro_patch_count(geometry, n)

    flips = [[[0] * len(pids) for pids in row] for row in ids]
    with _shared_draws():
        for pi in range(max((len(pids) for row in ids for pids in row), default=0)):
            tiles = {
                pids[pi]: np.tile(pattern_to_patch(pids[pi], n), (groups, per_group))
                for row in ids for pids in row if pi < len(pids)
            }
            for t in range(trials):
                for (device, variation), row, row_flips in zip(supplies, ids, flips):
                    seed = variation.rng_seed + pi * trials + t
                    for pids, pattern_flips in zip(row, row_flips):
                        if pi < len(pids):
                            state = init_macro(geometry, device, replace(variation, rng_seed=seed))
                            state.bits[:, :used] = tiles[pids[pi]]
                            pattern_flips[pi] += filter_in_memory(state, n, device).flips_unintended
    return [
        [
            BERStat(
                n=n, k=k, patches=patches, trials=trials,
                pattern_stats=[
                    PatternStat(pid, trials, f, f / (patches * trials))
                    for pid, f in zip(pids, pattern_flips)
                ],
                ber=sum(pattern_flips) / (patches * trials * len(pids)),
            )
            for k, pids, pattern_flips in zip(ks, row, row_flips)
        ]
        for row, row_flips in zip(ids, flips)
    ]


def ber_pattern_sweep(
    n: int,
    k: int,
    device: DeviceParams,
    variation: CellVariation,
    trials: int = 8,
    patterns: Literal["all"] | int = 16,
    geometry: MacroGeometry = DEFAULT_GEOMETRY,
) -> BERStat:
    """Fill every complete patch of the array with a k-ones pattern and measure
    unintended flips against the majority decision, resampling the mismatch
    lottery each trial (seed = rng_seed + pattern_index * trials + trial).

    `patterns` is "all" (every C(n^2, k) placement) or a sample size.  BER
    is unintended flips / (patches * trials), so a fully wrong patch
    contributes n^2.
    """
    return ber_supply_sweep(n, [k], [(device, variation)], trials, patterns, geometry)[0][0]


def patch_error_trials(
    pattern: np.ndarray,
    device: DeviceParams,
    variation: CellVariation,
    trials: int,
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
    frames: Sequence[BinaryFrame],
    device: DeviceParams,
    variation: CellVariation,
    n: int = 3,
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


# A direct race decides its sign as f (see _LinearRaces) does whenever |f|
# exceeds this fraction of v_bl*k + (1+delta_c)*v_blb*(n^2-k).  Its rounding,
# and that of A and B here, stays below 1e-13 of that sum for any practical n
# and any spread up to _LINEAR_MAX_SPREAD.
_RACE_RTOL = 1e-10
# Closed-form races whose tie band is relatively wider than this are not trusted.
_MAX_TIE_BAND = 1e-6
# Largest effective spread the closed form handles.  Clipped currents then
# stay above 4% of i_s: never floored, and never so small that rounding of a
# single current matters.
_LINEAR_MAX_SPREAD = 0.24


class _LinearRaces:
    """Unintended flips of measure_image_ber as a function of the effective
    spread s, from one lottery draw per frame.

    Without the current floor, i_blb = i_s * (k + s*Z1) and
    i_bl = i_s * (n^2 - k + s*Z0), where Z1 and Z0 sum clip(z, -4, 4) over the
    1- and 0-storing cells.  A mixed patch then comes out 1 exactly when

        f(s) = v_bl * (k + s*Z1) - (1 + delta_c) * v_blb * (n^2 - k + s*Z0) > 0,

    which is linear in s, f = A + s*B.  So a patch is wrong (outcome !=
    majority) on one side of s* = -A/B only.  For each frame the s* inside the
    bisection range are kept sorted, split by the side on which the patch is
    wrong, and the flips at s are counted with searchsorted.

    flips(s) is None where the closed form could disagree with the direct
    race: s outside s_range or above _LINEAR_MAX_SPREAD, an s* within
    rounding of s, or a patch whose A is too small against its terms to trust.
    """

    def __init__(
        self,
        frames: Sequence[BinaryFrame],
        device: DeviceParams,
        variation: CellVariation,
        n: int,
        s_range: tuple[float, float],
    ):
        if not frames:
            raise InvalidParamsError("need at least one frame")
        spec = KernelSpec(n)
        nn = self.nn = n * n
        self.band = 0.0        # widest relative tie band of any mixed patch
        self.constant = 0      # wrong patches whose s* lies outside s_range
        self.up: list[np.ndarray] = []      # per frame, sorted s* of patches wrong above s*
        self.down: list[np.ndarray] = []    # ... and of patches wrong below s*
        self.range = s_lo, s_hi = s_range
        window = s_lo * (1.0 - 2 * _MAX_TIE_BAND), s_hi * (1.0 + 2 * _MAX_TIE_BAND)
        s_mid = math.sqrt(s_lo * s_hi)
        for idx, frame in enumerate(frames):
            _patch_grid(frame.height, frame.width, n)        # rows must be a multiple of n
            z_i, z_v = _standard_draws(frame.pixels.shape, variation.rng_seed + idx)
            ones = frame.pixels != 0
            k = patch_sums(ones.astype(np.intp), n)
            z1, z0 = _split_sums(np.clip(z_i, -4.0, 4.0), ones, n)
            vt1, vt0 = _split_sums(_scale_vtrips(z_v, device, variation), ones, n)
            mixed = (k > 0) & (k < nn)
            k, z1, z0, vt1, vt0 = (a[mixed] for a in (k, z1, z0, vt1, vt0))
            v_bl = vt1 / k
            v_blb = (1.0 + device.delta_c) * (vt0 / (nn - k))
            wrong_sign = np.where(k >= spec.threshold, -1.0, 1.0)   # wrong iff sign * f > 0
            a = wrong_sign * (v_bl * k - v_blb * (nn - k))
            b = wrong_sign * (v_bl * z1 - v_blb * z0)
            with np.errstate(divide="ignore", invalid="ignore"):
                band = _RACE_RTOL * (v_bl * k + v_blb * (nn - k)) / np.abs(a)
                crit = -a / b
            self.band = max(self.band, float(band.max(initial=0.0)))
            moving = (crit >= window[0]) & (crit <= window[1])
            self.constant += int(np.count_nonzero(~moving & (a + s_mid * b > 0)))
            self.up.append(np.sort(crit[moving & (b > 0)]))
            self.down.append(np.sort(crit[moving & (b < 0)]))

    def flips(self, s: float) -> int | None:
        if not self.range[0] < s < self.range[1] or s > _LINEAR_MAX_SPREAD:
            return None
        if self.band > _MAX_TIE_BAND:
            return None
        near = s * (1.0 - 2 * self.band), s * (1.0 + 2 * self.band)
        wrong = self.constant
        for up, down in zip(self.up, self.down):
            for crit in (up, down):
                if crit.searchsorted(near[1], "right") > crit.searchsorted(near[0], "left"):
                    return None
            wrong += int(up.searchsorted(s)) + len(down) - int(down.searchsorted(s))
        return self.nn * wrong


def calibrate_current_sigma(
    frames: Sequence[BinaryFrame],
    device_low: DeviceParams,
    device_high: DeviceParams,
    variation: CellVariation,
    target_ber: float = 2e-4,
    sigma_bounds: tuple[float, float] = (2e-3, 0.5),
    iters: int = 18,
    n: int = 3,
) -> CalibrationResult:
    """Fit the reference sigma_i_over_mu so the low-supply image BER hits
    target_ber on `frames`, then report the high-supply BER on the same seeds.

    Image BER is monotone in the spread, so a log-space bisection suffices.
    Each step takes the closed-form count of _LinearRaces, or a direct
    measure_image_ber where that count could differ from it.
    """
    lo, hi = sigma_bounds
    if not 0 < lo < hi:
        raise InvalidParamsError(f"bad sigma bounds {sigma_bounds}")

    def at(sigma: float) -> CellVariation:
        return replace(variation, sigma_i_over_mu=sigma)

    def effective(sigma: float) -> float:
        return variation_at_device(at(sigma), device_low).sigma_i_over_mu

    races = _LinearRaces(frames, device_low, variation, n, (effective(lo), effective(hi)))
    total_px = sum(frame.width * frame.height for frame in frames)

    def ber_at(sigma: float) -> float:
        flips = races.flips(effective(sigma))
        if flips is None:
            return measure_image_ber(frames, device_low, at(sigma), n)
        return flips / total_px

    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if ber_at(mid) < target_ber:
            lo = mid
        else:
            hi = mid
    fitted = math.sqrt(lo * hi)
    return CalibrationResult(
        sigma_i_over_mu=fitted,
        ber_low_vdd=measure_image_ber(frames, device_low, at(fitted), n),
        ber_high_vdd=measure_image_ber(frames, device_high, at(fitted), n),
        vdd_low=device_low.vdd,
        vdd_high=device_high.vdd,
    )
