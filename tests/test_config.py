from dataclasses import replace

import pytest

from imfsim.config import RunConfig, load_config, parse_config_text
from imfsim.errors import InvalidParamsError
from imfsim.sram_macro import DeviceParams


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
    with pytest.raises(InvalidParamsError):
        parse_config_text("vdd = fast\n")


def test_keyword_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nn = 5\n")
    cfg = load_config(path, seed=9, vdd=None)  # None overrides are skipped
    assert cfg.seed == 9 and cfg.n == 5 and cfg.vdd == 0.7


def test_builders_wire_through():
    cfg = load_config(None, seed=4, vdd=0.8, n=5, t_f=1000, width=48, height=30)
    assert cfg.device().vdd == 0.8
    assert cfg.variation().rng_seed == 4
    assert cfg.kernel().n == 5
    fc = cfg.frame_config()
    assert (fc.t_f, fc.sensor_width, fc.sensor_height) == (1000, 48, 30)
    assert cfg.workload().pixels == 48 * 30
    assert cfg.energy_constants().dnn_energy == pytest.approx(1076.6e-9)
    assert cfg.tracker_config().confirm_hits == 3


def test_device_at_another_supply_derives_its_own_nominals():
    cfg = RunConfig()
    high = cfg.device(vdd=1.2)
    assert high == DeviceParams(vdd=1.2)
    assert high.v_trip_nominal == pytest.approx(0.36)
    assert high.i_s_nominal == pytest.approx(8.55e-5, rel=1e-3)
    # replace() on the 0.7 V device would keep the 0.7 V derived nominals
    stale = replace(cfg.device(), vdd=1.2)
    assert stale.v_trip_nominal == pytest.approx(0.21) and stale != high
    assert cfg.device() == cfg.device(vdd=cfg.vdd) == DeviceParams(vdd=0.7)
    # values set in the config are kept at every supply
    pinned = RunConfig(v_trip=0.3, i_s=2e-5).device(vdd=1.2)
    assert pinned.v_trip_nominal == 0.3 and pinned.i_s_nominal == 2e-5
