"""Analytic workload, latency, energy, current and throughput models.

Per-frame operation counts for an M = W*H pixel frame (alpha = fraction of
pixels the non-overlapping filter actually flips, beta_t = temporal window of
the event-neighborhood baseline, gamma = its event density):

    method            reads            writes        logic ops      cells
    nn_filt           beta_t*gamma*n^2*M  beta_t*gamma*M  gamma*n^2*M    beta_t*M
    median_filter     n^2*M            M             n^2*M          2*M
    nomf              M                M             M              M
    nomf_imc          M/n              alpha*M       0              M

Fractional counts round up.  Digital implementations cost, in clock cycles:
sliding median (mf) (n^2+1)*W*H, with partial reuse (mfpr) 2*n*H, with a row
buffer (mfrb) (n^2+1)*W*H, with both (mfprrb) 2*H; the in-array filter (imf)
2*H/n.  Energy per frame for digital baselines scales read/write costs by
(vdd/ref_vdd)^2 and by the bit-line capacitance ratio of the baseline array
to the filtering array; the in-array filter is a flat measured per-pixel
energy.  Charging current of the filtering array:

    i_ch = ((rho+lambda) * N_col * C_BL + n * C_WL) * vdd * f / 2

plus a measured 0.68% bit-flip overhead.  Throughput counts 2 ops per cell
per cycle across the n rows being filtered.  report(cfg) evaluates all of
these at one run configuration, as the `perf` command writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, InvalidParamsError
from .sram_macro import DEFAULT_GEOMETRY, DeviceParams

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig

FILTER_METHODS = ("nn_filt", "median_filter", "nomf", "nomf_imc")
LATENCY_ARCHS = ("mf", "mfpr", "mfrb", "mfprrb", "imf")
ENERGY_ARCHS = ("mf", "mfrb", "imc_nomf")

BITFLIP_CURRENT_FRACTION = 0.0068   # of i_ch


@dataclass(frozen=True)
class WorkloadParams:
    width: int = 240
    height: int = 180
    n: int = 3
    alpha: float = 0.015            # flipped-pixel fraction
    beta_t: int = 16                # temporal window, frames
    gamma: float = 0.127            # event density
    empty_frame_fraction: float = 0.51

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidParamsError("frame dimensions must be positive")
        if self.n < 3 or self.n % 2 == 0:
            raise InvalidParamsError(f"n must be odd and >= 3, got {self.n}")
        if not 0 <= self.alpha <= 1 or not 0 <= self.gamma <= 1:
            raise InvalidParamsError("alpha and gamma are fractions")
        if self.beta_t <= 0:
            raise InvalidParamsError("beta_t must be positive")
        if not 0 <= self.empty_frame_fraction <= 1:
            raise InvalidParamsError("empty_frame_fraction is a fraction")

    @property
    def pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class EnergyConstants:
    e_read: float = 0.916e-12       # J per bit, measured baseline array
    e_write: float = 6.0e-12        # J per bit
    ref_vdd: float = 1.0            # V at which e_read/e_write were measured
    cap_ratio: float = 89.0 / 140.0  # baseline / filtering array bit-line capacitance
    e_imc_pixel: float = 39e-15     # J per pixel, in-array filtering
    dnn_energy: float = 1076.6e-9   # J per frame of downstream inference

    def __post_init__(self):
        for name in ("e_read", "e_write", "ref_vdd", "cap_ratio", "e_imc_pixel"):
            if getattr(self, name) <= 0:
                raise InvalidParamsError(f"{name} must be positive, got {getattr(self, name)}")
        if self.dnn_energy < 0:
            raise InvalidParamsError(f"dnn_energy must be non-negative, got {self.dnn_energy}")


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


def op_counts(method: str, params: WorkloadParams) -> FilterCost:
    m = params.pixels
    n2 = params.n * params.n
    method = method.lower()
    if method == "nn_filt":
        return FilterCost(
            reads=math.ceil(params.beta_t * params.gamma * n2 * m),
            writes=math.ceil(params.beta_t * params.gamma * m),
            logic_ops=math.ceil(params.gamma * n2 * m),
            cells=params.beta_t * m,
        )
    if method == "median_filter":
        return FilterCost(reads=n2 * m, writes=m, logic_ops=n2 * m, cells=2 * m)
    if method == "nomf":
        return FilterCost(reads=m, writes=m, logic_ops=m, cells=m)
    if method == "nomf_imc":
        return FilterCost(
            reads=math.ceil(m / params.n),
            writes=math.ceil(params.alpha * m),
            logic_ops=0,
            cells=m,
        )
    raise InvalidParamsError(f"unknown method {method!r}, expected one of {FILTER_METHODS}")


def digital_latency(arch: str, width: int, height: int, n: int) -> int:
    """Clock cycles to filter one width x height frame."""
    arch = arch.lower()
    n2 = n * n
    if arch == "mf":
        return (n2 + 1) * width * height
    if arch == "mfpr":
        return 2 * n * height
    if arch == "mfrb":
        return (n2 + 1) * width * height
    if arch == "mfprrb":
        return 2 * height
    if arch == "imf":
        if height % n != 0:
            raise DimensionMismatchError(f"height {height} not divisible by n={n}")
        return 2 * height // n
    raise InvalidParamsError(f"unknown arch {arch!r}, expected one of {LATENCY_ARCHS}")


def baseline_energy(
    arch: str, params: WorkloadParams, constants: EnergyConstants, vdd: float
) -> float:
    """Energy per frame in joules for a digital baseline or the in-array filter."""
    arch = arch.lower()
    m = params.pixels
    n = params.n
    scale = (vdd / constants.ref_vdd) ** 2 * constants.cap_ratio
    if arch == "mf":
        return m * (n * n * constants.e_read + constants.e_write) * scale
    if arch == "mfrb":
        # the row buffer saves 2n of the n^2 reads per pixel
        return m * ((n * n - 2 * n) * constants.e_read + constants.e_write) * scale
    if arch == "imc_nomf":
        return m * constants.e_imc_pixel
    raise InvalidParamsError(f"unknown arch {arch!r}, expected one of {ENERGY_ARCHS}")


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
    i_ch = (
        (rho_lambda_mean * params.width * device.c_bl + params.n * device.c_wl)
        * device.vdd
        * f
        / 2.0
    )
    i_bitflip = BITFLIP_CURRENT_FRACTION * i_ch
    return CurrentBreakdown(
        i_ch=i_ch,
        i_bitflip=i_bitflip,
        i_imf=i_imf,
        i_leakage=i_leakage,
        i_total=i_ch + i_bitflip + i_imf + i_leakage,
    )


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
    readable summary lines."""
    params = cfg.workload()
    constants = cfg.energy_constants()
    f = cfg.frequency
    rows = []
    lines = []

    for method in FILTER_METHODS:
        c = op_counts(method, params)
        rows += [
            (f"ops.{method}.reads", c.reads),
            (f"ops.{method}.writes", c.writes),
            (f"ops.{method}.logic_ops", c.logic_ops),
            (f"ops.{method}.cells", c.cells),
        ]
    lines.append(
        f"per-frame op counts for {params.width}x{params.height}, n={params.n}: see perf.csv"
    )

    cycles = {}
    for arch in LATENCY_ARCHS:
        cycles[arch] = digital_latency(arch, params.width, params.height, params.n)
        rows.append((f"latency.{arch}.cycles", cycles[arch]))
        rows.append((f"latency.{arch}.seconds", cycles[arch] / f))
    imf_us = cycles["imf"] / f * 1e6
    lines.append(
        f"in-array filter: {cycles['imf']} cycles = {imf_us:.3g} us per frame at "
        f"{f / 1e6:.0f} MHz ({1 / imf_us:.2f} frames/us)"
    )
    lines.append(
        f"latency ratios: mf/imf = {cycles['mf'] / cycles['imf']:.6g}, "
        f"mfprrb/imf = {cycles['mfprrb'] / cycles['imf']:.6g}"
    )

    e_mf = baseline_energy("mf", params, constants, cfg.vdd)
    e_mfrb = baseline_energy("mfrb", params, constants, cfg.vdd)
    e_imc = baseline_energy("imc_nomf", params, constants, cfg.vdd)
    rows += [
        ("energy.mf", e_mf),
        ("energy.mfrb", e_mfrb),
        ("energy.imc_nomf", e_imc),
        ("energy.ratio_mf_imc", e_mf / e_imc),
        ("energy.ratio_mfrb_imc", e_mfrb / e_imc),
    ]
    lines.append(
        f"energy per frame at {cfg.vdd:g} V: mf {e_mf * 1e9:.4g} nJ, "
        f"mfrb {e_mfrb * 1e9:.4g} nJ, in-array {e_imc * 1e9:.4g} nJ "
        f"({e_mf / e_imc:.0f}x / {e_mfrb / e_imc:.0f}x)"
    )

    # supply current at the characterized point: full array width, 1.2 V, 48 MHz
    char_device = cfg.device(vdd=1.2)
    char_params = WorkloadParams(width=DEFAULT_GEOMETRY.cols, height=DEFAULT_GEOMETRY.rows,
                                 n=params.n)
    cur = imc_current(char_params, char_device, 48e6, cfg.rho_lambda_mean)
    i_imf = 0.36 / (1.0 - 0.36) * cur.i_total  # reconstructed controller share
    cur = imc_current(char_params, char_device, 48e6, cfg.rho_lambda_mean, i_imf=i_imf)
    rows += [
        ("current.i_ch", cur.i_ch),
        ("current.i_bitflip", cur.i_bitflip),
        ("current.i_imf", cur.i_imf),
        ("current.i_leakage", cur.i_leakage),
        ("current.i_total", cur.i_total),
    ]
    lines.append(
        f"array charging current at 1.2 V, 48 MHz, rho+lambda = "
        f"{cfg.rho_lambda_mean:g}: {cur.i_ch * 1e3:.4g} mA "
        f"(+{cur.i_bitflip * 1e6:.3g} uA bit-flip, i_imf reconstructed at 36% of total)"
    )

    gops, tops = throughput_efficiency(f, params.n, DEFAULT_GEOMETRY.cols, constants.e_imc_pixel)
    rows += [("throughput.gops", gops), ("throughput.tops_per_w", tops)]
    lines.append(
        f"peak filtering throughput: {gops:.1f} GOPS at {f / 1e6:.0f} MHz "
        f"across {DEFAULT_GEOMETRY.cols} columns"
    )
    lines.append(
        f"efficiency: {tops:.1f} TOPS/W at {constants.e_imc_pixel * 1e15:.0f} fJ/pixel"
    )

    for label, denoise in (("imc", e_imc), ("mf", e_mf)):
        sys_e = system_energy_per_frame(params, constants, denoise)
        rows += [
            (f"system.{label}.average", sys_e.average),
            (f"system.{label}.savings", sys_e.savings),
        ]
        lines.append(
            f"system energy with {label} denoise: {sys_e.average * 1e9:.4g} nJ/frame "
            f"avg vs {sys_e.baseline * 1e9:.4g} nJ baseline "
            f"({sys_e.savings * 100:.1f}% saved at {params.empty_frame_fraction:.0%} empty)"
        )
    return rows, lines
