"""Flat key = value run configuration shared by all CLI commands.

Files hold one `key = value` per line; '#' starts a comment; unknown keys are
rejected by name.  Every key mirrors a parameter object field and has the
package default, so an empty config is valid.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import InvalidParamsError, shown
from .params import (CALIBRATED_SIGMA_I_OVER_MU, DEFAULT_SIGMA_VTRIP, CellVariation,
                     DeviceParams, EnergyConstants, FrameConfig, KernelSpec, TrackerConfig,
                     WorkloadParams)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    # frame accumulation
    t_f: int = 66_000
    width: int = 240
    height: int = 180
    # kernel
    n: int = 3
    # device operating point
    vdd: float = 0.7
    temperature: float = 27.0
    corner: str = "TT"
    c_bl: float = 140e-15
    c_wl: float = 330e-15
    delta_c: float = 0.0
    v_trip: float | None = None
    i_s: float | None = None
    # mismatch
    sigma_i_over_mu: float = CALIBRATED_SIGMA_I_OVER_MU
    sigma_vtrip: float = DEFAULT_SIGMA_VTRIP
    # workload model
    alpha: float = 0.015
    beta_t: int = 16
    gamma: float = 0.127
    empty_frame_fraction: float = 0.51
    # energy model
    e_read: float = 0.916e-12
    e_write: float = 6.0e-12
    ref_vdd: float = 1.0
    cap_ratio: float = 89.0 / 140.0
    e_imc_pixel: float = 39e-15
    dnn_energy: float = 1076.6e-9
    frequency: float = 70e6
    rho_lambda_mean: float = 1.01
    # proposals and tracking
    iou_match_threshold: float = 0.3
    confirm_hits: int = 3
    kill_misses: int = 5
    rescale_a: int = 8
    rescale_b: int = 6
    min_area: int = 2
    connectivity: int = 8
    # characterization
    trials: int = 8
    patterns: int = 16
    # synthetic generation
    n_frames: int = 500
    salt_p: float = 0.01
    max_objects: int = 3

    def __post_init__(self):
        """Check every key at load, whichever command reads it: numbers must be
        finite, and each parameter object must accept its fields."""
        if not 0 < self.frequency < math.inf:
            raise InvalidParamsError(f"frequency must be positive and finite, got {self.frequency}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParamsError(f"config key {f.name!r} must be finite, got {value}")
        if self.rho_lambda_mean <= 0:
            raise InvalidParamsError(
                f"rho_lambda_mean must be positive, got {self.rho_lambda_mean}")
        if not 0 <= self.salt_p <= 1:
            raise InvalidParamsError(f"salt_p must lie in [0, 1], got {self.salt_p}")
        for key, low in dict(seed=0, max_objects=1, n_frames=1, rescale_a=1, rescale_b=1,
                             min_area=1, trials=1, patterns=1).items():
            if getattr(self, key) < low:
                raise InvalidParamsError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.connectivity not in (4, 8):
            raise InvalidParamsError(f"connectivity must be 4 or 8, got {self.connectivity}")
        self.device()
        self.variation()
        self.frame_config()
        self.kernel()
        self.workload()
        self.energy_constants()
        self.tracker_config()

    def _build(self, cls, **given):
        """cls with every field not given read from the config key of the same
        name, or of its _RENAMED name."""
        fields = {f.name: getattr(self, _RENAMED.get(f.name, f.name))
                  for f in dataclasses.fields(cls)}
        return cls(**fields | given)

    def device(self, vdd: float | None = None) -> DeviceParams:
        """The configured operating point, optionally at another supply.

        Trip point and current left unset in the config are derived at the
        supply actually used, so device(vdd=1.2) equals DeviceParams(vdd=1.2)
        under the defaults.
        """
        return self._build(DeviceParams, vdd=self.vdd if vdd is None else vdd)

    def variation(self) -> CellVariation:
        return self._build(CellVariation)

    def frame_config(self) -> FrameConfig:
        return self._build(FrameConfig)

    def kernel(self) -> KernelSpec:
        return self._build(KernelSpec)

    def workload(self) -> WorkloadParams:
        return self._build(WorkloadParams)

    def energy_constants(self) -> EnergyConstants:
        return self._build(EnergyConstants)

    def tracker_config(self) -> TrackerConfig:
        return self._build(TrackerConfig)


# parameter fields fed by a config key of another name
_RENAMED = {"v_trip_nominal": "v_trip", "i_s_nominal": "i_s", "rng_seed": "seed",
            "sensor_width": "width", "sensor_height": "height"}
_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_OPTIONAL_FLOATS = {"v_trip", "i_s"}


# A number as the config and the CLI spell it: an optional minus, then digits
# (an integer, within int64) or digits with an optional fraction and exponent
# (a float, or nan / inf, which RunConfig rejects by name).  No '+' or '_'.
# Compiled on first use (re caches them), not when the CLI starts.
_INT = r"-?[0-9]+"
_FLOAT = r"-?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|(?i:nan|inf|infinity))"


def parse_int(text: str) -> int:
    """A config or CLI integer; ValueError unless -?[0-9]+ within int64."""
    if not re.fullmatch(_INT, text) or not -2**63 <= int(text) < 2**63:
        raise ValueError(f"not an integer within int64: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """A config or CLI float; ValueError for a '+', a '_' or anything but a
    decimal number or nan / inf."""
    if not re.fullmatch(_FLOAT, text):
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def _coerce(key: str, raw: str, where: str):
    raw = raw.strip()
    if key in _OPTIONAL_FLOATS and raw.lower() in ("", "none"):
        return None
    ftype = "float" if key in _OPTIONAL_FLOATS else _FIELDS[key].type
    try:
        # a minus sign is left to the key's own check
        return {"int": parse_int, "float": parse_float}.get(ftype, str)(raw)
    except ValueError:
        expected = "digits 0-9 within int64" if ftype == "int" else "a number"
        raise InvalidParamsError(
            f"{where}: config key {key!r}: expected {expected}, got {shown(raw)}")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into a typed override dict; unknown keys are errors."""
    overrides = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise InvalidParamsError(f"{source}:{line_no}: non-ASCII character")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamsError(
                f"{source}:{line_no}: expected 'key = value', got {shown(raw)}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise InvalidParamsError(f"{source}:{line_no}: unknown config key {shown(key)}")
        overrides[key] = _coerce(key, value, f"{source}:{line_no}")
    return overrides


def load_config(path: Union[str, Path, None], **extra) -> RunConfig:
    """RunConfig from an optional file plus keyword overrides (None values skipped)."""
    overrides = {}
    if path is not None:
        text = Path(path).read_text(encoding="ascii", errors="surrogateescape")
        overrides.update(parse_config_text(text, str(path)))
    overrides.update({k: v for k, v in extra.items() if v is not None})
    return RunConfig(**overrides)
