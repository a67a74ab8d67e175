import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from imfsim.config import RunConfig, load_config, parse_config_text
from imfsim.errors import InvalidParamsError
from imfsim.params import (
    CellVariation,
    DeviceParams,
    EnergyConstants,
    FrameConfig,
    KernelSpec,
    TrackerConfig,
    WorkloadParams,
)


def test_empty_config_is_all_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("")
    assert load_config(path) == RunConfig()
    assert load_config(None) == RunConfig()


def test_parse_types_comments_and_optionals():
    text = (
        "# a comment\n"
        "seed = 7\n"
        "vdd = 0.8   # inline comment\n"
        "corner = SS\n"
        "i_s = none\n"
        "v_trip = 0.25\n"
        "\n"
    )
    got = parse_config_text(text)
    assert got == {"seed": 7, "vdd": 0.8, "corner": "SS", "i_s": None, "v_trip": 0.25}
    assert isinstance(got["seed"], int) and isinstance(got["vdd"], float)


def test_parse_unknown_key_names_source_and_line():
    with pytest.raises(InvalidParamsError) as exc:
        parse_config_text("seed = 1\nvddd = 0.7\n", source="run.cfg")
    msg = str(exc.value)
    assert "run.cfg:2" in msg and "vddd" in msg


def test_parse_rejects_line_without_assignment():
    with pytest.raises(InvalidParamsError) as exc:
        parse_config_text("just words\n")
    assert "expected 'key = value'" in str(exc.value)


def test_parse_rejects_bad_value_types():
    with pytest.raises(InvalidParamsError):
        parse_config_text("seed = 1.5\n")
    for value in ["1_000", "+5", "- 5", "--5", "0x10", "", "-", str(2**63), str(-2**63 - 1)]:
        with pytest.raises(InvalidParamsError, match=r"run.cfg:2: config key 'n_frames'"):
            parse_config_text(f"seed = 1\nn_frames = {value}\n", source="run.cfg")
    assert parse_config_text(f"seed = {2**63 - 1}\nn = -{2**63}\n") == {
        "seed": 2**63 - 1, "n": -2**63}
    with pytest.raises(InvalidParamsError):
        parse_config_text("vdd = fast\n")


def test_float_values_are_plain_decimals():
    for value, want in [("0.7", 0.7), (".5", 0.5), ("140e-15", 140e-15), ("1e+3", 1e3),
                        ("-2.", -2.0), ("1E-3", 1e-3)]:
        assert parse_config_text(f"c_bl = {value}\n") == {"c_bl": want}
    for value in ["+1_0.0", "1_0.0", "+0.7", "1e1_0", "0x1p-2", ".", "e5", "1e", "- 0.7",
                  "--0.7", "1.5.2"]:
        with pytest.raises(InvalidParamsError, match=r"run.cfg:2: config key 'vdd': expected a"):
            parse_config_text(f"seed = 1\nvdd = {value}\n", source="run.cfg")
    assert parse_config_text("v_trip = 0.3\n") == {"v_trip": 0.3}
    with pytest.raises(InvalidParamsError, match="config key 'i_s'"):
        parse_config_text("i_s = +2e-5\n")


def test_keyword_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nn = 5\n")
    cfg = load_config(path, seed=9, vdd=None)  # None overrides are skipped
    assert cfg.seed == 9 and cfg.n == 5 and cfg.vdd == 0.7


def test_builders_wire_through():
    cfg = load_config(None, seed=4, vdd=0.8, n=5, t_f=1000, width=48, height=30)
    assert cfg.build(DeviceParams).vdd == 0.8
    assert cfg.build(CellVariation).rng_seed == 4
    assert cfg.build(KernelSpec).n == 5
    fc = cfg.build(FrameConfig)
    assert (fc.t_f, fc.sensor_width, fc.sensor_height) == (1000, 48, 30)
    assert cfg.build(WorkloadParams).pixels == 48 * 30
    assert cfg.build(EnergyConstants).dnn_energy == pytest.approx(1076.6e-9)
    assert cfg.build(TrackerConfig).confirm_hits == 3


def test_default_config_builds_each_class_default():
    cfg = RunConfig()
    for cls in (DeviceParams, CellVariation, FrameConfig, KernelSpec, WorkloadParams,
                EnergyConstants, TrackerConfig):
        assert cfg.build(cls) == cls()


def test_device_at_another_supply_derives_its_own_nominals():
    cfg = RunConfig()
    high = cfg.build(DeviceParams, vdd=1.2)
    assert high == DeviceParams(vdd=1.2)
    assert high.v_trip_nominal == pytest.approx(0.36)
    assert high.i_s_nominal == pytest.approx(8.55e-5, rel=1e-3)
    # replace() on the 0.7 V device would keep the 0.7 V derived nominals
    stale = replace(cfg.build(DeviceParams), vdd=1.2)
    assert stale.v_trip_nominal == pytest.approx(0.21) and stale != high
    assert cfg.build(DeviceParams) == cfg.build(DeviceParams, vdd=0.7) == DeviceParams(vdd=0.7)
    # values set in the config are kept at every supply
    pinned = RunConfig(v_trip=0.3, i_s=2e-5).build(DeviceParams, vdd=1.2)
    assert pinned.v_trip_nominal == 0.3 and pinned.i_s_nominal == 2e-5


@pytest.mark.parametrize("key, value", [
    ("rho_lambda_mean", 0.0), ("salt_p", -0.01), ("salt_p", 1.01), ("max_objects", 0),
    ("e_read", 0.0), ("e_write", 0.0), ("ref_vdd", 0.0), ("cap_ratio", 0.0),
    ("e_imc_pixel", 0.0), ("e_imc_pixel", -1e-15), ("dnn_energy", 0.0), ("dnn_energy", -1e-9),
    ("seed", -1), ("rescale_a", 0), ("rescale_b", 0), ("connectivity", 6), ("trials", 0),
    ("patterns", 0), ("min_area", 0), ("min_area", -3),
])
def test_load_time_check_rejects_out_of_range_keys(key, value):
    with pytest.raises(InvalidParamsError, match=key):
        RunConfig(**{key: value})


def test_load_time_check_accepts_the_range_ends():
    for key, value in [("salt_p", 0.0), ("salt_p", 1.0), ("max_objects", 1), ("seed", 0),
                       ("connectivity", 4), ("rescale_a", 1), ("patterns", 1), ("min_area", 1)]:
        assert getattr(RunConfig(**{key: value}), key) == value


def test_the_device_is_checked_before_the_frame_window():
    # width's rule belongs to FrameConfig and vdd's to DeviceParams, which is built first
    with pytest.raises(InvalidParamsError, match=r"^vdd must be above V_T") as raised:
        RunConfig(width=400, vdd=0.2)
    assert raised.value.key == "vdd"


# a value of each config key that breaks its own rule or a check across keys;
# a new key fails the test below until it has one
BAD_VALUES = {
    "seed": "-1", "t_f": "0", "width": "400", "height": "0", "n": "4", "vdd": "0.3",
    "temperature": "nan", "corner": "XX", "c_bl": "0", "c_wl": "-1", "delta_c": "-1",
    "v_trip": "0.9", "i_s": "0", "sigma_i_over_mu": "-1", "sigma_vtrip": "-0.5", "alpha": "2",
    "beta_t": "0", "gamma": "1.5", "empty_frame_fraction": "-0.1", "e_read": "0",
    "e_write": "inf", "ref_vdd": "0", "cap_ratio": "0", "e_imc_pixel": "0", "dnn_energy": "0",
    "frequency": "0", "rho_lambda_mean": "0", "iou_match_threshold": "0", "confirm_hits": "0",
    "kill_misses": "0", "rescale_a": "0", "rescale_b": "0", "min_area": "0",
    "connectivity": "5", "trials": "0", "patterns": "0", "n_frames": "0", "salt_p": "2",
    "max_objects": "0",
}


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
def test_a_bad_value_of_any_key_names_the_key_and_its_line(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"# the line below is line 2\n{key} = {BAD_VALUES[key]}\n")
    with pytest.raises(InvalidParamsError) as raised:
        load_config(path)
    assert str(raised.value).startswith(f"{path}:2: {key} must ")
    assert raised.value.key == key


def _readme_default(text: str):
    """A default as README's key table writes it: none, a ratio such as
    89/140, an integer, a float or a word."""
    if text == "none":
        return None
    if "/" in text:
        num, den = text.split("/")
        return int(num) / int(den)
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def test_readme_key_table_matches_run_config():
    """README's Configuration table names every key once, in field order, with
    RunConfig's default; a row such as `width`, `height` | 240, 180 is one row
    per key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("| `")]
    rows = []
    for line in table:
        keys, defaults = line.split("|")[1:3]
        keys, defaults = re.findall(r"`(\w+)`", keys), defaults.strip().split(", ")
        assert len(keys) == len(defaults), line
        rows += zip(keys, map(_readme_default, defaults))
    assert [key for key, _ in rows] == [f.name for f in fields(RunConfig)]
    want = RunConfig()
    for key, value in rows:
        default = getattr(want, key)
        assert (type(value), value) == (type(default), default), key
