"""Flat key = value run configuration shared by all CLI commands.

Files hold one `key = value` per line; '#' starts a comment; unknown keys are
rejected by name.  Every key has a default, so an empty config is valid; a key
that mirrors a parameter object field takes its type and default from it, and
RunConfig.build(cls) makes each parameter object from those keys.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import InvalidParamsError, shown
from .params import (CellVariation, DeviceParams, EnergyConstants, FrameConfig, KernelSpec,
                     TrackerConfig, WorkloadParams, check_fields)


# Only their fields are read; a docstring spares dataclass a slow inspect.signature.
@dataclass(init=False, repr=False, eq=False)
class _PerfKeys:
    """perf's keys that no parameter object holds."""
    frequency: float = 70e6
    rho_lambda_mean: float = 1.01


@dataclass(init=False, repr=False, eq=False)
class _RunKeys:
    """Proposal, characterization and generation keys no parameter object holds."""
    rescale_a: int = 8
    rescale_b: int = 6
    min_area: int = 2
    connectivity: int = 8
    trials: int = 8
    patterns: int = 16
    n_frames: int = 500
    salt_p: float = 0.01
    max_objects: int = 3


class _Builders:
    """A run's configuration: every key, checked at load, and the parameter
    objects built from it."""

    def __post_init__(self):
        """Check every key at load, whichever command reads it: first each key
        alone by its params.FIELD_RULES rule, then each parameter object must
        accept its fields, and perf's energy scale (vdd / ref_vdd)^2 must be
        finite.  An error of one key or field carries its name."""
        check_fields(self)
        for cls in (DeviceParams, CellVariation, FrameConfig, KernelSpec, WorkloadParams,
                    EnergyConstants, TrackerConfig):
            self.build(cls)
        try:
            finite = math.isfinite((self.vdd / self.ref_vdd) ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidParamsError(f"ref_vdd must keep (vdd / ref_vdd)^2 finite at vdd = "
                                     f"{self.vdd}, got {self.ref_vdd}", "ref_vdd")

    def build(self, cls, **given):
        """cls with every field not given read from the config key of the same
        name, or of its _RENAMED name.

        A device's trip point and current left unset in the config are derived
        at the supply actually used, so build(DeviceParams, vdd=1.2) equals
        DeviceParams(vdd=1.2) under the defaults.
        """
        fields = {f.name: getattr(self, _RENAMED.get(f.name, f.name))
                  for f in dataclasses.fields(cls)}
        return cls(**fields | given)


# parameter fields fed by a config key of another name
_RENAMED = {"v_trip_nominal": "v_trip", "i_s_nominal": "i_s", "rng_seed": "seed",
            "sensor_width": "width", "sensor_height": "height"}


def _keys(*sources) -> dict:
    """Config key -> the field it mirrors, the first of a shared key; seed leads."""
    keys = {}
    for cls in sources:
        for f in dataclasses.fields(cls):
            keys.setdefault(_RENAMED.get(f.name, f.name), f)
    return {"seed": keys.pop("seed")} | keys


RunConfig = dataclasses.make_dataclass(
    "RunConfig", [(key, f.type, dataclasses.field(default=f.default)) for key, f in _keys(
        FrameConfig, KernelSpec, DeviceParams, CellVariation, WorkloadParams, EnergyConstants,
        _PerfKeys, TrackerConfig, _RunKeys).items()],
    bases=(_Builders,), frozen=True,     # make_dataclass(module=) needs Python 3.12
    namespace={"__module__": __name__, "__doc__": _Builders.__doc__})
_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


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
    ftype, _, optional = _FIELDS[key].type.partition(" | ")    # "float | None": optional
    if optional and raw.lower() in ("", "none"):
        return None
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
    """RunConfig from an optional file plus keyword overrides (None values
    skipped).  A failed check of one key the file set names the key as the
    file wrote it, after the <file>:<line> that set it last."""
    text = "" if path is None else Path(path).read_text(encoding="ascii", errors="surrogateescape")
    overrides = parse_config_text(text, str(path))
    flags = {k: v for k, v in extra.items() if v is not None}
    try:
        return RunConfig(**overrides | flags)
    except InvalidParamsError as exc:
        key = _RENAMED.get(exc.key, exc.key)    # the config key that feeds the field
        if key not in overrides or key in flags:
            raise
        line = max(i for i, raw in enumerate(text.splitlines(), 1)  # the last that sets it
                   if raw.split("#", 1)[0].split("=", 1)[0].strip() == key)
        raise InvalidParamsError(f"{path}:{line}: {key}{str(exc)[len(exc.key):]}", key) from None
