"""Parameter objects of every layer, with their validation and defaults.

None imports numpy, so a command loads its configuration without the modules
that compute with it.  The macro's supply, temperature and corner enter
through a square-law overdrive model: V_T = 0.35 V at TT / 27 C, falling
1 mV/C and shifted +/-50 mV at SS/FF; i_s scales with (vdd - V_T)^2 from a
50 uA reference at 1.0 V TT, and the relative current spread scales inversely
with overdrive (variation_at_device).  sigma_i_over_mu in CellVariation is
therefore quoted at the 1.0 V TT reference; harnesses that sweep the
operating point call variation_at_device to get the effective spread.  Trip
points are 0.3 * vdd nominal, so beta = 1 - v_trip/vdd = 0.7 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidParamsError, shown

# The filtering macro is 320 columns by 240 rows; frames must fit in it.
MAX_FRAME_WIDTH = 320
MAX_FRAME_HEIGHT = 240
CLEAR_GROUP = 16    # word lines the macro strobes per clear cycle


@dataclass(frozen=True)
class FrameConfig:
    """Accumulation parameters: window length (us) and sensor dimensions."""

    t_f: int = 66_000           # 66 ms windows, ~15 frames per second
    sensor_width: int = 240
    sensor_height: int = 180

    def __post_init__(self):
        if self.t_f <= 0:
            raise InvalidParamsError(f"t_f must be positive, got {self.t_f}")
        if not (0 < self.sensor_width <= MAX_FRAME_WIDTH):
            raise InvalidParamsError(
                f"sensor_width must be in 1..{MAX_FRAME_WIDTH}, got {self.sensor_width}"
            )
        if not (0 < self.sensor_height <= MAX_FRAME_HEIGHT):
            raise InvalidParamsError(
                f"sensor_height must be in 1..{MAX_FRAME_HEIGHT}, got {self.sensor_height}"
            )


@dataclass(frozen=True)
class KernelSpec:
    n: int = 3

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise InvalidParamsError(f"kernel size must be odd and >= 3, got {self.n}")

    @property
    def threshold(self) -> int:
        # ceil(n^2 / 2)
        return (self.n * self.n + 1) // 2


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


def _check_finite(obj) -> None:
    """Reject the first non-finite float field of a dataclass by its name."""
    for name, value in vars(obj).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidParamsError(f"{name} must be finite, got {value}")


def threshold_voltage(temperature: float, corner: str) -> float:
    if corner not in CORNER_VT_SHIFT:
        raise InvalidParamsError(
            f"corner must be one of {sorted(CORNER_VT_SHIFT)}, got {shown(corner)}")
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
        _check_finite(self)
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
            try:
                i_s = I_S_REF * (self.overdrive / REF_OVERDRIVE) ** 2
            except OverflowError:
                raise InvalidParamsError(f"overdrive {self.overdrive} V is out of range") from None
            object.__setattr__(self, "i_s_nominal", i_s)
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
        _check_finite(self)
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

    def __post_init__(self):
        if min(self.rows, self.cols) <= 0:
            raise InvalidParamsError(f"geometry fields must be positive: {self}")


DEFAULT_GEOMETRY = MacroGeometry()


@dataclass(frozen=True)
class TrackerConfig:
    iou_match_threshold: float = 0.3
    confirm_hits: int = 3       # consecutive hits to confirm (spawn counts as the first)
    kill_misses: int = 5        # consecutive misses to kill

    def __post_init__(self):
        if not 0 < self.iou_match_threshold <= 1:
            raise InvalidParamsError("iou_match_threshold must be in (0, 1]")
        if self.confirm_hits < 1 or self.kill_misses < 1:
            raise InvalidParamsError("confirm_hits and kill_misses must be >= 1")


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
