"""Flat key = value run configuration shared by all CLI commands.

Files hold one `key = value` per line; '#' starts a comment; unknown keys are
rejected by name.  Every key mirrors a parameter object field and has the
package default, so an empty config is valid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import InvalidParamsError
from .filters import KernelSpec
from .frames import FrameConfig
from .perf_model import EnergyConstants, WorkloadParams
from .pipeline import TrackerConfig
from .sram_macro import (
    CALIBRATED_SIGMA_I_OVER_MU,
    DEFAULT_SIGMA_VTRIP,
    CellVariation,
    DeviceParams,
)


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
    r_tg: float = 200.0
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

    def device(self, vdd: float | None = None) -> DeviceParams:
        """The configured operating point, optionally at another supply.

        Trip point and current left unset in the config are derived at the
        supply actually used, so device(vdd=1.2) equals DeviceParams(vdd=1.2)
        under the defaults.
        """
        return DeviceParams(
            vdd=self.vdd if vdd is None else vdd,
            temperature=self.temperature,
            corner=self.corner,
            c_bl=self.c_bl,
            c_wl=self.c_wl,
            delta_c=self.delta_c,
            v_trip_nominal=self.v_trip,
            i_s_nominal=self.i_s,
            r_tg=self.r_tg,
        )

    def variation(self) -> CellVariation:
        return CellVariation(
            sigma_i_over_mu=self.sigma_i_over_mu,
            sigma_vtrip=self.sigma_vtrip,
            rng_seed=self.seed,
        )

    def frame_config(self) -> FrameConfig:
        return FrameConfig(t_f=self.t_f, sensor_width=self.width, sensor_height=self.height)

    def kernel(self) -> KernelSpec:
        return KernelSpec(self.n)

    def workload(self) -> WorkloadParams:
        return WorkloadParams(
            width=self.width,
            height=self.height,
            n=self.n,
            alpha=self.alpha,
            beta_t=self.beta_t,
            gamma=self.gamma,
            empty_frame_fraction=self.empty_frame_fraction,
        )

    def energy_constants(self) -> EnergyConstants:
        return EnergyConstants(
            e_read=self.e_read,
            e_write=self.e_write,
            ref_vdd=self.ref_vdd,
            cap_ratio=self.cap_ratio,
            e_imc_pixel=self.e_imc_pixel,
            dnn_energy=self.dnn_energy,
        )

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(
            iou_match_threshold=self.iou_match_threshold,
            confirm_hits=self.confirm_hits,
            kill_misses=self.kill_misses,
        )


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_OPTIONAL_FLOATS = {"v_trip", "i_s"}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key in _OPTIONAL_FLOATS:
        if raw.lower() in ("", "none"):
            return None
        try:
            return float(raw)
        except ValueError:
            raise InvalidParamsError(f"config key {key!r}: expected a number, got {raw!r}")
    ftype = _FIELDS[key].type
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError:
        raise InvalidParamsError(f"config key {key!r}: expected {ftype}, got {raw!r}")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into a typed override dict; unknown keys are errors."""
    overrides = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamsError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise InvalidParamsError(f"{source}:{line_no}: unknown config key {key!r}")
        overrides[key] = _coerce(key, value)
    return overrides


def load_config(path: Union[str, Path, None], **extra) -> RunConfig:
    """RunConfig from an optional file plus keyword overrides (None values skipped)."""
    overrides = {}
    if path is not None:
        overrides.update(parse_config_text(Path(path).read_text(encoding="ascii"), str(path)))
    overrides.update({k: v for k, v in extra.items() if v is not None})
    return RunConfig(**overrides)
