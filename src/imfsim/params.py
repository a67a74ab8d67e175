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

FIELD_RULES holds the one rule of each field that is checked alone, by field
name; RunConfig, whose mirrored keys take their types and defaults from the
fields here, is checked from the same table.  check_fields applies
it, and only the checks across fields (vdd above V_T, v_trip_nominal inside
(0, vdd), the range of the derived i_s and the corner) are written by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidParamsError, shown

# The filtering macro is 320 columns by 240 rows; frames must fit in it.
MAX_FRAME_WIDTH = 320
MAX_FRAME_HEIGHT = 240
CLEAR_GROUP = 16    # word lines the macro strobes per clear cycle

# name -> (predicate, what the value must be), for each field of a parameter
# object or RunConfig key that has a rule of its own.  A name that several
# objects share (n, width, height) has one rule.
FIELD_RULES = {
    **dict.fromkeys(["t_f", "width", "height", "c_bl", "c_wl", "i_s_nominal", "rows", "cols",
                     "beta_t", "e_read", "e_write", "ref_vdd", "cap_ratio", "e_imc_pixel",
                     "dnn_energy", "frequency", "rho_lambda_mean"],
                    (lambda v: v > 0, "be positive")),
    **dict.fromkeys(["seed", "rng_seed", "sigma_i_over_mu", "sigma_vtrip"],
                    (lambda v: v >= 0, "be >= 0")),
    **dict.fromkeys(["confirm_hits", "kill_misses", "rescale_a", "rescale_b", "min_area",
                     "trials", "patterns", "n_frames", "max_objects"],
                    (lambda v: v >= 1, "be >= 1")),
    **dict.fromkeys(["alpha", "gamma", "empty_frame_fraction", "salt_p"],
                    (lambda v: 0 <= v <= 1, "lie in [0, 1]")),
    "sensor_width": (lambda v: 0 < v <= MAX_FRAME_WIDTH, f"be in 1..{MAX_FRAME_WIDTH}"),
    "sensor_height": (lambda v: 0 < v <= MAX_FRAME_HEIGHT, f"be in 1..{MAX_FRAME_HEIGHT}"),
    "n": (lambda v: v >= 3 and v % 2 == 1, "be odd and >= 3"),
    "delta_c": (lambda v: v > -1, "be > -1"),       # C_BLB = c_bl * (1 + delta_c) > 0
    "temperature": (lambda v: v >= -273.15, "be >= -273.15"),   # degrees C, absolute zero
    "iou_match_threshold": (lambda v: 0 < v <= 1, "lie in (0, 1]"),
    "connectivity": (lambda v: v in (4, 8), "be 4 or 8"),
}


def check_fields(obj) -> None:
    """Reject the first non-finite float field of a dataclass, then the first
    field that breaks its FIELD_RULES rule; the error's key names the field."""
    for name, value in vars(obj).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidParamsError(f"{name} must be finite, got {value}", name)
    for name, value in vars(obj).items():
        rule = FIELD_RULES.get(name)
        if rule and value is not None and not rule[0](value):
            raise InvalidParamsError(f"{name} must {rule[1]}, got {shown(value)}", name)


@dataclass(frozen=True)
class FrameConfig:
    """Accumulation parameters: window length (us) and sensor dimensions."""

    t_f: int = 66_000           # 66 ms windows, ~15 frames per second
    sensor_width: int = 240
    sensor_height: int = 180

    __post_init__ = check_fields


@dataclass(frozen=True)
class KernelSpec:
    n: int = 3

    __post_init__ = check_fields

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


def threshold_voltage(temperature: float, corner: str) -> float:
    if corner not in CORNER_VT_SHIFT:
        raise InvalidParamsError(
            f"corner must be one of {sorted(CORNER_VT_SHIFT)}, got {shown(corner)}", "corner")
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
        check_fields(self)
        vt = threshold_voltage(self.temperature, self.corner)
        if self.vdd <= vt:
            raise InvalidParamsError(f"vdd must be above V_T = {vt:.3f} V, got {self.vdd}", "vdd")
        if self.v_trip_nominal is None:
            object.__setattr__(self, "v_trip_nominal", (1.0 - BETA_NOMINAL) * self.vdd)
        if not 0 < self.v_trip_nominal < self.vdd:
            raise InvalidParamsError(f"v_trip_nominal must lie inside (0, vdd = {self.vdd}), "
                                     f"got {self.v_trip_nominal}", "v_trip_nominal")
        if self.i_s_nominal is None:
            try:
                i_s = I_S_REF * (self.overdrive / REF_OVERDRIVE) ** 2
            except OverflowError:
                i_s = math.inf
            if not 0 < i_s < math.inf:      # the square overflowed or underflowed
                key = "vdd" if abs(self.vdd) >= abs(vt) else "temperature"  # the larger term
                raise InvalidParamsError(f"{key}: overdrive {self.overdrive} V is out of range",
                                         key)
            object.__setattr__(self, "i_s_nominal", i_s)

    @property
    def overdrive(self) -> float:
        return self.vdd - threshold_voltage(self.temperature, self.corner)


@dataclass(frozen=True)
class CellVariation:
    """Mismatch magnitudes; sigma_i_over_mu is quoted at the 1.0 V TT reference."""

    sigma_i_over_mu: float = CALIBRATED_SIGMA_I_OVER_MU
    sigma_vtrip: float = DEFAULT_SIGMA_VTRIP
    rng_seed: int = 0

    __post_init__ = check_fields


def variation_at_device(variation: CellVariation, device: DeviceParams) -> CellVariation:
    """Scale the reference current spread to the device's overdrive (sigma ~ 1/overdrive)."""
    scaled = variation.sigma_i_over_mu * REF_OVERDRIVE / device.overdrive
    return replace(variation, sigma_i_over_mu=scaled)


@dataclass(frozen=True)
class MacroGeometry:
    rows: int = MAX_FRAME_HEIGHT
    cols: int = MAX_FRAME_WIDTH

    __post_init__ = check_fields


DEFAULT_GEOMETRY = MacroGeometry()


@dataclass(frozen=True)
class TrackerConfig:
    iou_match_threshold: float = 0.3
    confirm_hits: int = 3       # consecutive hits to confirm (spawn counts as the first)
    kill_misses: int = 5        # consecutive misses to kill

    __post_init__ = check_fields


@dataclass(frozen=True)
class WorkloadParams:
    width: int = 240
    height: int = 180
    n: int = 3
    alpha: float = 0.015            # flipped-pixel fraction
    beta_t: int = 16                # temporal window, frames
    gamma: float = 0.127            # event density
    empty_frame_fraction: float = 0.51

    __post_init__ = check_fields

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

    __post_init__ = check_fields
