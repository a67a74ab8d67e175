"""Analytic workload, latency, energy, current and throughput models.

Each cost family is one table keyed by name: per-frame operation counts of
an M = W*H pixel frame by filtering method (fractional counts round up),
and clock cycles and energy per frame by architecture.  Digital energies
scale read/write costs by (vdd/ref_vdd)^2 and by the bit-line capacitance
ratio of the baseline array to the filtering array; the in-array filter
costs a flat measured energy per pixel.  Charging current of the filtering
array:

    i_ch = ((rho+lambda) * N_col * C_BL + n * C_WL) * vdd * f / 2

plus a measured 0.68% bit-flip overhead.  Throughput counts 2 ops per cell
per cycle across the n rows being filtered.  report(cfg) evaluates all of
these at one run configuration, as the `perf` command writes them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, InvalidParamsError
from .params import DEFAULT_GEOMETRY, DeviceParams, EnergyConstants, WorkloadParams

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig

BITFLIP_CURRENT_FRACTION = 0.0068   # of i_ch


@dataclass(frozen=True)
class FilterCost:
    reads: int
    writes: int
    logic_ops: int
    cells: int


@dataclass(frozen=True)
class CurrentBreakdown:
    i_ch: float
    i_bitflip: float
    i_imf: float
    i_leakage: float
    i_total: float


@dataclass(frozen=True)
class SystemEnergy:
    average: float
    baseline: float
    savings: float


def _formula(table: dict, kind: str, name: str):
    try:
        return table[name]
    except KeyError:
        raise InvalidParamsError(
            f"unknown {kind} {name!r}, expected one of {tuple(table)}") from None


# method -> per-frame (reads, writes, logic_ops, cells) of (params, M, n^2)
_OP_COUNTS = {
    # event-neighborhood baseline over the last beta_t frames
    "nn_filt": lambda p, m, n2: (p.beta_t * p.gamma * n2 * m, p.beta_t * p.gamma * m,
                                 p.gamma * n2 * m, p.beta_t * m),
    "median_filter": lambda p, m, n2: (n2 * m, m, n2 * m, 2 * m),
    "nomf": lambda p, m, n2: (m, m, m, m),
    "nomf_imc": lambda p, m, n2: (m / p.n, p.alpha * m, 0, m),
}
# arch -> clock cycles per frame of (width, height, n)
_LATENCY = {
    "mf": lambda w, h, n: (n * n + 1) * w * h,      # sliding median
    "mfpr": lambda w, h, n: 2 * n * h,              # with partial reuse
    "mfrb": lambda w, h, n: (n * n + 1) * w * h,    # with a row buffer
    "mfprrb": lambda w, h, n: 2 * h,                # with both
    "imf": lambda w, h, n: 2 * h // n,              # the in-array filter
}
# arch -> joules per frame of (M, n, constants, supply and capacitance scale)
_ENERGY = {
    "mf": lambda m, n, c, s: m * (n * n * c.e_read + c.e_write) * s,
    # the row buffer saves 2n of the n^2 reads per pixel
    "mfrb": lambda m, n, c, s: m * ((n * n - 2 * n) * c.e_read + c.e_write) * s,
    "imc_nomf": lambda m, n, c, s: m * c.e_imc_pixel,
}
FILTER_METHODS = tuple(_OP_COUNTS)
LATENCY_ARCHS = tuple(_LATENCY)
ENERGY_ARCHS = tuple(_ENERGY)


def op_counts(method: str, params: WorkloadParams) -> FilterCost:
    counts = _formula(_OP_COUNTS, "method", method)(params, params.pixels, params.n * params.n)
    return FilterCost(*map(math.ceil, counts))


def digital_latency(arch: str, width: int, height: int, n: int) -> int:
    """Clock cycles to filter one width x height frame."""
    cycles = _formula(_LATENCY, "arch", arch)
    if arch == "imf" and height % n != 0:
        raise DimensionMismatchError(f"height {height} not divisible by n={n}")
    return cycles(width, height, n)


def baseline_energy(
    arch: str, params: WorkloadParams, constants: EnergyConstants, vdd: float
) -> float:
    """Energy per frame in joules for a digital baseline or the in-array filter."""
    try:
        scale = (vdd / constants.ref_vdd) ** 2 * constants.cap_ratio
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):    # the division and the product overflow without raising
        raise InvalidParamsError(f"vdd {vdd} / ref_vdd {constants.ref_vdd} overflows")
    return _formula(_ENERGY, "arch", arch)(params.pixels, params.n, constants, scale)


def rho_lambda_bound(k: int, n: int, beta: float = 0.7) -> tuple[float, float]:
    """Bounds on the summed bit-line swing fraction rho+lambda for a k-ones patch."""
    n2 = n * n
    if not 0 <= k <= n2:
        raise InvalidParamsError(f"k={k} impossible for n={n}")
    minority, majority = min(k, n2 - k), max(k, n2 - k)
    return 1.0, 1.0 + beta * minority / majority


def imc_current(
    params: WorkloadParams,
    device: DeviceParams,
    f: float,
    rho_lambda_mean: float = 1.01,
    i_imf: float = 0.0,
    i_leakage: float = 0.0,
) -> CurrentBreakdown:
    """Supply current of the filtering array at clock f, for params.width columns."""
    if f <= 0:
        raise InvalidParamsError("clock frequency must be positive")
    i_ch = ((rho_lambda_mean * params.width * device.c_bl + params.n * device.c_wl)
            * device.vdd * f / 2.0)
    i_bitflip = BITFLIP_CURRENT_FRACTION * i_ch
    return CurrentBreakdown(i_ch, i_bitflip, i_imf, i_leakage,
                            i_total=i_ch + i_bitflip + i_imf + i_leakage)


def throughput_efficiency(
    f: float, n: int, cols: int, energy_per_pixel: float
) -> tuple[float, float]:
    """(GOPS, TOPS/W): 2 ops per cell over n rows per cycle; 2 ops per pixel energy."""
    if f <= 0 or energy_per_pixel <= 0:
        raise InvalidParamsError("frequency and energy must be positive")
    gops = 2.0 * cols * n * f / 1e9
    tops_per_w = (2.0 / energy_per_pixel) / 1e12
    return gops, tops_per_w


def system_energy_per_frame(
    params: WorkloadParams, constants: EnergyConstants, denoise_energy: float
) -> SystemEnergy:
    """Average per-frame energy when empty frames skip inference, vs running
    inference on every frame."""
    if denoise_energy < 0:
        raise InvalidParamsError("denoise energy must be non-negative")
    average = denoise_energy + (1.0 - params.empty_frame_fraction) * constants.dnn_energy
    baseline = constants.dnn_energy
    return SystemEnergy(average=average, baseline=baseline, savings=1.0 - average / baseline)


def report(cfg: "RunConfig") -> tuple[list[tuple[str, float]], list[str]]:
    """The `perf` report of a run configuration: (metric, value) rows and
    readable summary lines; InvalidParamsError if a metric is not finite."""
    params, constants = cfg.build(WorkloadParams), cfg.build(EnergyConstants)
    f, vdd = cfg.frequency, cfg.vdd
    rows = [(f"ops.{method}.{k}", v) for method in FILTER_METHODS
            for k, v in asdict(op_counts(method, params)).items()]

    cycles = {a: digital_latency(a, params.width, params.height, params.n) for a in LATENCY_ARCHS}
    for arch, c in cycles.items():
        rows += [(f"latency.{arch}.cycles", c), (f"latency.{arch}.seconds", c / f)]

    energy = {a: baseline_energy(a, params, constants, vdd) for a in ENERGY_ARCHS}
    e_mf, e_mfrb, e_imc = energy["mf"], energy["mfrb"], energy["imc_nomf"]
    rows += [(f"energy.{arch}", e) for arch, e in energy.items()]
    rows += [("energy.ratio_mf_imc", e_mf / e_imc), ("energy.ratio_mfrb_imc", e_mfrb / e_imc)]

    # supply current at the characterized point: full array width, 1.2 V, 48 MHz
    char_device = cfg.build(DeviceParams, vdd=1.2)
    char_params = WorkloadParams(width=DEFAULT_GEOMETRY.cols, height=DEFAULT_GEOMETRY.rows,
                                 n=params.n)
    cur = imc_current(char_params, char_device, 48e6, cfg.rho_lambda_mean)
    i_imf = 0.36 / (1.0 - 0.36) * cur.i_total  # reconstructed controller share
    cur = imc_current(char_params, char_device, 48e6, cfg.rho_lambda_mean, i_imf=i_imf)
    rows += [(f"current.{k}", v) for k, v in asdict(cur).items()]

    gops, tops = throughput_efficiency(f, params.n, DEFAULT_GEOMETRY.cols, constants.e_imc_pixel)
    rows += [("throughput.gops", gops), ("throughput.tops_per_w", tops)]

    system = {label: system_energy_per_frame(params, constants, e)
              for label, e in (("imc", e_imc), ("mf", e_mf))}
    # the baseline is dnn_energy, a configured constant, so it gets no row
    rows += [(f"system.{label}.{k}", v) for label, s in system.items()
             for k, v in asdict(s).items() if k != "baseline"]
    for name, value in rows:    # extreme finite keys, such as frequency = 1e308, overflow
        if not math.isfinite(value):
            raise InvalidParamsError(f"perf metric {name} is not finite, got {value}")

    imf_us = cycles["imf"] / f * 1e6
    lines = [
        f"per-frame op counts for {params.width}x{params.height}, n={params.n}: see perf.csv",
        f"in-array filter: {cycles['imf']} cycles = {imf_us:.3g} us per frame at "
        f"{f / 1e6:.0f} MHz ({1 / imf_us:.2f} frames/us)",
        f"latency ratios: mf/imf = {cycles['mf'] / cycles['imf']:.6g}, "
        f"mfprrb/imf = {cycles['mfprrb'] / cycles['imf']:.6g}",
        f"energy per frame at {vdd:g} V: mf {e_mf * 1e9:.4g} nJ, "
        f"mfrb {e_mfrb * 1e9:.4g} nJ, in-array {e_imc * 1e9:.4g} nJ "
        f"({e_mf / e_imc:.0f}x / {e_mfrb / e_imc:.0f}x)",
        f"array charging current at 1.2 V, 48 MHz, rho+lambda = "
        f"{cfg.rho_lambda_mean:g}: {cur.i_ch * 1e3:.4g} mA "
        f"(+{cur.i_bitflip * 1e6:.3g} uA bit-flip, i_imf reconstructed at 36% of total)",
        f"peak filtering throughput: {gops:.1f} GOPS at {f / 1e6:.0f} MHz "
        f"across {DEFAULT_GEOMETRY.cols} columns",
        f"efficiency: {tops:.1f} TOPS/W at {constants.e_imc_pixel * 1e15:.0f} fJ/pixel",
    ]
    lines += [
        f"system energy with {label} denoise: {s.average * 1e9:.4g} nJ/frame "
        f"avg vs {s.baseline * 1e9:.4g} nJ baseline "
        f"({s.savings * 100:.1f}% saved at {params.empty_frame_fraction:.0%} empty)"
        for label, s in system.items()
    ]
    return rows, lines
