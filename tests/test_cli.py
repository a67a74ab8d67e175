import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

import imfsim.cli
import imfsim.frames
import imfsim.sram_macro
from helpers import run_cli, tree_bytes
from imfsim.config import RunConfig
from imfsim.frames import BinaryFrame, parse_event_stream, read_pbm, write_pbm

ROOT = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def traffic_dir(tmp_path_factory):
    """One small generated traffic recording shared by the command tests."""
    root = tmp_path_factory.mktemp("traffic")
    cfg = root / "gen.cfg"
    cfg.write_text("n_frames = 40\nseed = 5\n")
    assert run_cli("gen", "--kind", "traffic", "--events",
                   "--config", cfg, "--out", root / "data") == 0
    return root / "data"


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    assert "denoise" in capsys.readouterr().out


def _wheel(dest):
    """Pack this checkout into a wheel in `dest` and return its path.

    The wheel holds what the build backend would put there: the `imfsim`
    package from `src/`, and metadata and `console_scripts` entry points taken
    from `pyproject.toml`.  It is written directly, so no build backend or
    `wheel` package is needed.
    """
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    name, version = project["name"], project["version"]
    info = f"{name}-{version}.dist-info"
    files = {p.relative_to(ROOT / "src").as_posix(): p.read_bytes()
             for p in sorted((ROOT / "src" / name).rglob("*.py"))}
    files[f"{info}/METADATA"] = f"Metadata-Version: 2.1\nName: {name}\nVersion: {version}\n"
    files[f"{info}/WHEEL"] = ("Wheel-Version: 1.0\nGenerator: tests\n"
                              "Root-Is-Purelib: true\nTag: py3-none-any\n")
    files[f"{info}/entry_points.txt"] = "[console_scripts]\n" + "".join(
        f"{key} = {target}\n" for key, target in project["scripts"].items())
    files[f"{info}/RECORD"] = "".join(f"{path},,\n" for path in [*files, f"{info}/RECORD"])
    wheel = dest / f"{name}-{version}-py3-none-any.whl"
    with zipfile.ZipFile(wheel, "w") as zf:
        for path, data in files.items():
            zf.writestr(path, data)
    return wheel


@pytest.fixture
def installed(tmp_path, monkeypatch):
    """Install this checkout with pip into `tmp_path` and put it on PATH.

    Offline: `--no-index` and `--no-deps`, so numpy comes from the running
    interpreter.  Returns the directory pip writes console scripts to.
    """
    target = tmp_path / "site"
    subprocess.run([sys.executable, "-m", "pip", "install", "--quiet", "--no-index",
                    "--no-deps", "--no-compile", "--target", target, _wheel(tmp_path)],
                   check=True)
    monkeypatch.setenv("PATH", os.pathsep.join([str(target / "bin"), os.environ["PATH"]]))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(target), os.environ.get("PYTHONPATH")])))
    return target / "bin"


def test_console_script_installed(installed, tmp_path):
    exe = shutil.which("imfsim")
    assert exe is not None
    assert Path(exe).parent == installed

    def run(*argv):
        return subprocess.run([exe, *map(str, argv)], capture_output=True, text=True)

    proc = run("--help")
    assert proc.returncode == 0
    assert "track-eval" in proc.stdout

    # The README's exit codes reach the shell: 2 = bad parameters, 1 = I/O.
    cfg = write_cfg(tmp_path, "vddd = 0.7\n")
    assert run("perf", "--config", cfg, "--out", tmp_path / "out").returncode == 2
    missing = tmp_path / "missing.cfg"
    assert run("perf", "--config", missing, "--out", tmp_path / "out").returncode == 1


@pytest.mark.skipif(shutil.which("imfsim") is None,
                    reason="imfsim console script not on PATH (pip install -e .)")
def test_console_script_on_path():
    exe = shutil.which("imfsim")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "track-eval" in proc.stdout


def test_unknown_config_key_is_reported(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "vddd = 0.7\n")
    assert run_cli("perf", "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "vddd" in err and f"{cfg}:1" in err


def test_config_line_without_assignment(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "just words\n")
    assert run_cli("perf", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "key = value" in capsys.readouterr().err


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    rc = run_cli("denoise", "--events", tmp_path / "nope.txt", "--out", tmp_path / "out")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


GT_HEADER = b"frame_index,track_id,class,x,y,w,h\n"
TRACK_EVAL = ["track-eval", "--frames", "{traffic}", "--gt", "{input}"]


@pytest.mark.parametrize(
    "name, data, argv, expect",
    [
        ("events.txt", b"1000,1,1,1\n2000,a,1,1\n", ["denoise", "--events", "{input}"],
         "malformed event line 2: non-integer field"),
        ("events.txt", b"1000,1,1,1\n2000,\xe9,1,1\n", ["denoise", "--events", "{input}"],
         "malformed event line 2: non-ASCII"),
        ("events.txt", b"1_000,1,1,1\n2000,1,1,1\n", ["denoise", "--events", "{input}"],
         "malformed event line 1: non-integer field"),
        ("events.txt", b"1000,1,1,1\n2000,+1,1,1\n", ["denoise", "--events", "{input}"],
         "malformed event line 2: non-integer field"),
        ("events.txt", b"1000,1,1,1\n999,1,1,1\n", ["denoise", "--events", "{input}"],
         "timestamp decreases at event line 2"),
        ("events.txt", b"1000,1,1,1\n2000,240,1,1\n", ["denoise", "--events", "{input}"],
         "t=2000,x=240,y=1 outside 240x180"),
        ("run.cfg", b"n = 7\n", ["simulate", "--frames", "{traffic}", "--config", "{input}"],
         "rows 180 not divisible by n=7"),
        ("run.cfg", b"n = 7\n", ["characterize", "--config", "{input}", "--k", "20",
                                  "--trials", "1", "--patterns", "1"],
         "rows 240 not divisible by n=7"),
        ("run.cfg", b"n = 9\n", ["characterize", "--config", "{input}", "--k", "40",
                                  "--trials", "1", "--patterns", "1"],
         "rows 240 not divisible by n=9"),
        ("frames/frame_00000.pbm", b"P4\n240 180\n\x00\x00", ["denoise", "--frames", "{dir}"],
         "truncated PBM body"),
        ("frames/frame_00000.pbm", b"P4 8 1\n\xff\xff", ["denoise", "--frames", "{dir}"],
         "1 trailing bytes in"),
        ("frames/frame_00000.pbm", b"P4 " + b"9" * 5000 + b" 1\n\x00",
         ["denoise", "--frames", "{dir}"], "PBM header field longer than 20 bytes"),
        ("gt.csv", GT_HEADER + b"0,1,car,5,5,4,4\n1,1,car,5,5\n", TRACK_EVAL,
         "gt.csv:3: expected 7 fields, got 5"),
        ("gt.csv", GT_HEADER + b"0,1,car,5,x,4,4\n", TRACK_EVAL, "gt.csv:2: non-integer field"),
        ("gt.csv", GT_HEADER + b"0,1,car,1_0,5,4,4\n", TRACK_EVAL,
         "gt.csv:2: non-integer field"),
        ("gt.csv", GT_HEADER + b"0,1,car,5,+5,4,4\n", TRACK_EVAL, "gt.csv:2: non-integer field"),
        ("gt.csv", GT_HEADER + b"0,1,car,5,5,4,4\n1,1,v\xe9lo,5,5,4,4\n", TRACK_EVAL,
         "gt.csv:3: non-ASCII character"),
        ("gt.csv", GT_HEADER + b"0,1,car,5,5,0,4\n", TRACK_EVAL,
         "gt.csv:2: box sides must be positive"),
        ("gt.csv", GT_HEADER + b"0,1," + b"a" * 200_000 + b",5,5,4,4\n", TRACK_EVAL,
         "gt.csv:2: field larger than field limit"),
    ],
    ids=["malformed", "non-ascii", "underscore-digits", "plus-sign", "decreasing",
         "out-of-bounds", "kernel-vs-rows", "characterize-n-7", "characterize-n-9",
         "truncated-pbm", "trailing-pbm", "pbm-long-width", "gt-too-few-fields",
         "gt-non-integer", "gt-underscore-digits", "gt-plus-sign", "gt-non-ascii",
         "gt-zero-width", "gt-field-over-limit"],
)
def test_bad_input_exits_2(traffic_dir, tmp_path, capsys, name, data, argv, expect):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    subs = {"{input}": path, "{dir}": path.parent, "{traffic}": traffic_dir / "frames"}
    assert run_cli(*(subs.get(a, a) for a in argv), "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert expect in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected, or removed after the failure


@pytest.mark.parametrize("command", ["denoise", "simulate", "track-eval"])
def test_mixed_frame_sizes_are_rejected_before_any_work(tmp_path, capsys, command):
    from imfsim.frames import BinaryFrame, write_pbm

    d = tmp_path / "frames"
    d.mkdir()
    for i, (w, h) in enumerate([(24, 18), (24, 18), (24, 21), (30, 18)]):
        write_pbm(BinaryFrame.zeros(w, h), d / f"frame_{i:05d}.pbm")
    gt = write_cfg(tmp_path, "frame_index,track_id,class,x,y,w,h\n", "gt.csv")
    extra = ["--gt", gt] if command == "track-eval" else []
    out = tmp_path / "out"
    assert run_cli(command, "--frames", d, *extra, "--out", out) == 2
    err = capsys.readouterr().err
    assert "frame_00002.pbm" in err and "24x21" in err
    assert not out.exists()


def _exit_code(*argv):
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "cfg_text, argv, expect",
    [
        ("frequency = 0\n", ["perf"], "frequency must be positive and finite, got 0.0"),
        ("frequency = inf\n", ["perf"], "frequency must be positive and finite, got inf"),
        ("seed = 1\n# caf\xc3\xa9\n", ["perf"], "run.cfg:2: non-ASCII character"),
        ("", ["characterize", "--vdd", "abc"], "argument --vdd: expected a comma list"),
        ("", ["characterize", "--k", "4,x"], "argument --k: expected a comma list"),
        ("", ["characterize", "--patterns", "some"], "argument --patterns: expected"),
        ("", ["characterize", "--patterns", "0", "--vdd", "0.7"], "patterns must be positive"),
        ("", ["characterize", "--trials", "0", "--vdd", "0.7"], "trials must be positive"),
        ("t_f = 0\nn_frames = 2\n", ["gen", "--events"], "t_f must be positive"),
        # keys the command never reads are checked too, when the config loads
        ("temperature = nan\n", ["simulate", "--frames", "FRAMES"],
         "config key 'temperature' must be finite, got nan"),
        ("n = 4\nn_frames = 2\n", ["gen", "--kind", "noise"],
         "kernel size must be odd and >= 3, got 4"),
        ("vdd = nan\nn_frames = 2\n", ["gen", "--kind", "noise"],
         "config key 'vdd' must be finite, got nan"),
        ("e_imc_pixel = 0\n", ["perf"], "e_imc_pixel must be positive, got 0.0"),
        ("ref_vdd = 0\n", ["perf"], "ref_vdd must be positive, got 0.0"),
        ("rho_lambda_mean = -1\n", ["perf"], "rho_lambda_mean must be positive, got -1.0"),
        ("salt_p = 2\nn_frames = 2\n", ["gen"], "salt_p must lie in [0, 1], got 2.0"),
        ("max_objects = -1\nn_frames = 2\n", ["gen"], "max_objects must be >= 1, got -1"),
        ("e_read = 0\nn_frames = 2\n", ["gen", "--kind", "noise"],
         "e_read must be positive, got 0.0"),
        ("n_frames = 0\n", ["gen", "--kind", "noise"], "n_frames must be >= 1, got 0"),
        ("n_frames = -5\n", ["gen", "--kind", "noise"], "n_frames must be >= 1, got -5"),
        # traffic objects keep a one-pixel margin, so a frame side needs 3 pixels
        ("width = 2\nn_frames = 2\n", ["gen"], "traffic frames must be at least 3x3, got 2x180"),
        ("width = 1\nheight = 1\nn_frames = 2\n", ["gen", "--events"],
         "traffic frames must be at least 3x3, got 1x1"),
        ("height = 2\nn_frames = 2\n", ["gen"], "traffic frames must be at least 3x3, got 240x2"),
        # integer values are runs of 0-9 within int64, and the seed is not negative
        ("", ["gen", "--seed", "-1"], "seed must be >= 0, got -1"),
        ("seed = -3\n", ["simulate", "--frames", "FRAMES"], "seed must be >= 0, got -3"),
        ("vdd = 0.8\nbeta_t = 1" + "0" * 400 + "\n", ["perf"],
         "run.cfg:2: config key 'beta_t': expected digits 0-9 within int64"),
        ("t_f = " + str(10**30) + "\nn_frames = 2\n", ["gen", "--kind", "noise", "--events"],
         "run.cfg:1: config key 't_f': expected digits 0-9 within int64"),
        ("n_frames = 1_000\n", ["perf"], "run.cfg:1: config key 'n_frames': expected digits"),
        ("seed = +5\n", ["perf"], "run.cfg:1: config key 'seed': expected digits"),
        # keys that only their readers checked before
        ("rescale_a = 0\n", ["perf"], "rescale_a must be >= 1, got 0"),
        ("rescale_b = 0\n", ["perf"], "rescale_b must be >= 1, got 0"),
        ("connectivity = 5\n", ["perf"], "connectivity must be 4 or 8, got 5"),
        ("trials = 0\n", ["perf"], "trials must be >= 1, got 0"),
        ("patterns = 0\n", ["perf"], "patterns must be >= 1, got 0"),
        ("min_area = 0\n", ["perf"], "min_area must be >= 1, got 0"),
        # CLI integers and floats follow the config's rules
        ("", ["perf", "--seed", "1_0"], "argument --seed: expected an integer, got '1_0'"),
        ("", ["perf", "--seed", "+5"], "argument --seed: expected an integer, got '+5'"),
        ("", ["characterize", "--trials", "1_0"],
         "argument --trials: expected an integer, got '1_0'"),
        ("", ["characterize", "--k", "4,+5"],
         "argument --k: expected a comma list of integers, got '4,+5'"),
        ("", ["characterize", "--patterns", "1_6"], "argument --patterns: expected"),
        ("", ["characterize", "--vdd", "0.7,+0.8"],
         "argument --vdd: expected a comma list of numbers, got '0.7,+0.8'"),
        ("vdd = +1_0.0\n", ["perf"], "run.cfg:1: config key 'vdd': expected a number"),
    ],
    ids=["perf-frequency-0", "perf-frequency-inf", "config-non-ascii", "characterize-vdd",
         "characterize-k", "characterize-patterns", "characterize-patterns-0",
         "characterize-trials-0", "gen-events-t_f-0", "simulate-temperature-nan",
         "gen-noise-n-4", "gen-noise-vdd-nan", "perf-e_imc_pixel-0", "perf-ref_vdd-0",
         "perf-rho_lambda_mean-negative", "gen-salt_p-2", "gen-max_objects-negative",
         "gen-noise-e_read-0", "gen-noise-n_frames-0", "gen-noise-n_frames-negative",
         "gen-width-2", "gen-events-1x1", "gen-height-2",
         "gen-seed-flag-negative", "simulate-seed-negative", "perf-beta_t-huge",
         "gen-noise-events-t_f-huge", "perf-n_frames-underscore", "perf-seed-plus-sign",
         "perf-rescale_a-0", "perf-rescale_b-0", "perf-connectivity-5", "perf-trials-0",
         "perf-patterns-0", "perf-min_area-0", "perf-seed-flag-underscore",
         "perf-seed-flag-plus-sign", "characterize-trials-underscore",
         "characterize-k-plus-sign", "characterize-patterns-underscore",
         "characterize-vdd-plus-sign", "perf-vdd-plus-underscore"],
)
def test_bad_parameters_exit_2_without_a_traceback(tmp_path, capsys, cfg_text, argv, expect):
    frames = tmp_path / "frames"   # a valid recording with mixed patches
    frames.mkdir()
    for i in range(2):
        write_pbm(BinaryFrame(np.eye(18, 24, i, dtype=np.uint8)), frames / f"frame_{i:05d}.pbm")
    argv = [frames if a == "FRAMES" else a for a in argv]
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(cfg_text.encode("latin-1"))
    out = tmp_path / "out"
    assert _exit_code(*argv, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert expect in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg_text, argv, where",
    [
        ("seed = " + "9" * 5000 + "\n", ["perf"], "run.cfg:1: config key 'seed': expected digits"),
        ("", ["perf", "--seed", "9" * 5000], "argument --seed: expected an integer"),
        ("corner = " + "X" * 5000 + "\n", ["perf"], "corner must be one of"),
        ("", ["denoise", "--frames", "x", "--filter", "F" * 5000],
         "argument --filter: invalid choice: 'FFFF"),
        ("", ["perf", "--bogus", "B" * 5000], "unrecognized arguments: '--bogus' 'BBBB"),
    ],
    ids=["config-seed", "flag-seed", "config-corner", "choice-filter", "unknown-option"],
)
def test_a_huge_rejected_value_is_cut_in_the_error(tmp_path, capsys, cfg_text, argv, where):
    cfg = write_cfg(tmp_path, cfg_text)
    assert _exit_code(*argv, "--config", cfg, "--out", tmp_path / "out") == 2
    # the temporary directory's path, whose length varies, is not counted
    lines = capsys.readouterr().err.replace(str(tmp_path), "").splitlines()
    assert any(where in line and "(5000 characters)" in line for line in lines)
    assert max(map(len, lines)) < 200


CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
HOSTILE_VALUES = st.one_of(
    st.sampled_from(["+5", "-1", "-0", "1_000", "nan", "-inf", "inf", "", "  ", "caf\u00e9",
                     "\u0663", "0", "1", "3", "0.5", "-0.5", "1e308", "1e-320", "TT", "none",
                     str(2**63 - 1), str(-2**63), str(2**63), "1" + "0" * 400]),
    st.integers(-10, 10).map(str),
    st.builds(str.__mul__, st.sampled_from("19"), st.integers(12, 400)),  # huge digit runs
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
CONFIG_LINES = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), HOSTILE_VALUES), max_size=4)


@settings(max_examples=60)
@given(command=st.sampled_from([("perf",), ("gen", "--kind", "noise", "--events")]),
       lines=CONFIG_LINES)
@example(command=("gen", "--kind", "noise", "--events"), lines=[("seed", "-3")])
@example(command=("gen", "--kind", "noise", "--events"), lines=[("t_f", "1" + "0" * 30)])
@example(command=("perf",), lines=[("beta_t", "1" + "0" * 400)])
@example(command=("perf",), lines=[("dnn_energy", "0")])
@example(command=("perf",), lines=[("vdd", "1" + "0" * 200)])
@example(command=("perf",), lines=[("ref_vdd", "1e-300")])
def test_hostile_config_values_exit_0_or_2_and_leave_no_out(command, lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines) + "n_frames = 2\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, err = Path(tmp) / "run.cfg", Path(tmp) / "out", io.StringIO()
        cfg.write_bytes(text.encode())
        with contextlib.redirect_stderr(err):
            code = run_cli(*command, "--config", cfg, "--out", out)
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        assert code == 0 or not out.exists()


def _late_bad_line_recording(tmp_path):
    """An event file whose line 2,001 is bad, after 100 windows of events."""
    lines = [f"{i * 1000},{i % 240},{i % 180},1\n" for i in range(2000)]
    path = tmp_path / "events.txt"
    path.write_text("".join(lines) + "2000000,x,0,1\n")
    cfg = write_cfg(tmp_path, "t_f = 20000\n")
    return path, cfg


@pytest.mark.parametrize("command", ["denoise", "simulate"])
def test_a_late_bad_line_removes_the_out_it_created(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(imfsim.frames, "_READ_BLOCK", 4096)  # a block is ~230 lines
    events, cfg = _late_bad_line_recording(tmp_path)
    written = []
    real = imfsim.frames.write_pbm

    def spy(frame, path):
        written.append(path)
        return real(frame, path)

    monkeypatch.setattr(imfsim.frames, "write_pbm", spy)
    out = tmp_path / "out"
    assert run_cli(command, "--events", events, "--config", cfg, "--out", out) == 2
    assert "malformed event line 2001: non-integer field" in capsys.readouterr().err
    # the bad line's block starts in window 88: every chunk before it was out
    assert len(written) == 88 // imfsim.frames.FRAME_CHUNK * imfsim.frames.FRAME_CHUNK
    assert not out.exists()


@pytest.mark.parametrize("source", ["events", "frames"])
def test_a_reader_error_joins_the_lottery_stream(tmp_path, monkeypatch, source):
    if source == "events":
        monkeypatch.setattr(imfsim.frames, "_READ_BLOCK", 4096)  # five chunks precede the bad line
        path, cfg = _late_bad_line_recording(tmp_path)
        argv = ["--events", path, "--config", cfg]
    else:
        path = tmp_path / "frames"
        path.mkdir()
        for i in range(imfsim.frames.FRAME_CHUNK + 3):
            write_pbm(BinaryFrame.zeros(12, 9), path / f"frame_{i:05d}.pbm")
        bad = path / f"frame_{imfsim.frames.FRAME_CHUNK + 1:05d}.pbm"  # in the second chunk
        bad.write_bytes(bad.read_bytes()[:-1])
        argv = ["--frames", path]
    counts = []

    class Stderr(io.StringIO):
        """Counts the threads as main reports the error, while the exception's
        traceback still holds the command's frame and any stream it left open."""

        def write(self, text):
            counts.append(threading.active_count())
            return super().write(text)

    before, err, out = threading.active_count(), Stderr(), tmp_path / "out"
    with contextlib.redirect_stderr(err):
        assert run_cli("simulate", *argv, "--out", out) == 2
    assert ("malformed event line 2001" if source == "events" else "truncated PBM body"
            ) in err.getvalue()
    assert not out.exists()
    assert counts and set(counts) == {before}
    assert threading.active_count() == before


@pytest.mark.parametrize("command", ["denoise", "simulate"])
def test_a_recording_past_the_frame_limit_is_rejected(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(imfsim.frames, "MAX_RECORDING_FRAMES", 100)
    written = []
    real = imfsim.frames.write_pbm
    monkeypatch.setattr(imfsim.frames, "write_pbm",
                        lambda frame, path: written.append(path) or real(frame, path))
    events = tmp_path / "events.txt"
    events.write_text("0,1,1,1\n5000000,2,2,1\n6599999,3,3,1\n6600000,1,1,1\n")
    out = tmp_path / "out"
    assert run_cli(command, "--events", events, "--out", out) == 2
    assert ("event t=6600000 falls in window 100, past the 100-frame limit of a recording"
            in capsys.readouterr().err)
    assert written == [] and not out.exists()
    events.write_text("0,1,1,1\n6599999,3,3,1\n")     # window 99 is the last allowed
    assert run_cli(command, "--events", events, "--out", out) == 0
    assert len(written) == 100


def test_a_sweep_past_the_pattern_limit_is_rejected(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr(imfsim.sram_macro, "MAX_SWEEP_PATTERNS", 126)
    assert run_cli("characterize", "--k", "4,5", "--patterns", "all", "--trials", "1",
                   "--vdd", "0.7", "--out", out) == 0      # C(9, 4) = C(9, 5) = 126
    shutil.rmtree(out)
    monkeypatch.setattr(imfsim.sram_macro, "MAX_SWEEP_PATTERNS", 125)
    assert run_cli("characterize", "--k", "0,4", "--patterns", "200", "--trials", "1",
                   "--vdd", "0.7", "--out", out) == 2
    err = capsys.readouterr().err
    assert "k=4 at n=3 asks for 126 patterns, past the 125-pattern limit" in err
    assert not out.exists()
    monkeypatch.undo()
    # C(25, 12) = 5,200,300 patterns; the second asks for 100,000 of C(225, 112)
    for cfg, patterns, k in (("n = 5\n", "all", "12"), ("n = 15\n", "100000", "112")):
        assert run_cli("characterize", "--config", write_cfg(tmp_path, cfg), "--k", k,
                       "--patterns", patterns, "--trials", "1", "--vdd", "0.7",
                       "--out", out) == 2
        assert "past the 65536-pattern limit of a sweep" in capsys.readouterr().err
        assert not out.exists()


def test_a_failed_run_keeps_an_out_that_existed(tmp_path, capsys):
    events, cfg = _late_bad_line_recording(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("earlier results")
    assert run_cli("denoise", "--events", events, "--config", cfg, "--out", out) == 2
    assert (out / "keep.txt").read_text() == "earlier results"


def test_empty_frames_dir_is_invalid(tmp_path, capsys):
    (tmp_path / "frames").mkdir()
    rc = run_cli("denoise", "--frames", tmp_path / "frames", "--out", tmp_path / "out")
    assert rc == 2
    assert "no .pbm frames" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_traffic_outputs(traffic_dir):
    frames = sorted((traffic_dir / "frames").glob("*.pbm"))
    assert len(frames) == 40
    assert frames[0].name == "frame_00000.pbm"
    first = read_pbm(frames[0])
    assert (first.width, first.height) == (240, 180)
    gt = read_csv(traffic_dir / "gt.csv")
    assert gt and {"frame_index", "track_id", "class", "x", "y", "w", "h"} == set(gt[0])


def test_gen_events_round_trip_to_frames(traffic_dir, tmp_path):
    events = parse_event_stream(traffic_dir / "events.txt")
    assert events
    rc = run_cli("denoise", "--events", traffic_dir / "events.txt",
                 "--filter", "nomf", "--out", tmp_path / "from_events")
    assert rc == 0
    rc = run_cli("denoise", "--frames", traffic_dir / "frames",
                 "--filter", "nomf", "--out", tmp_path / "from_frames")
    assert rc == 0
    assert tree_bytes(tmp_path / "from_events") == tree_bytes(tmp_path / "from_frames")


def test_gen_streams_in_bounded_memory(tmp_path):
    def peak(n_frames):
        cfg = write_cfg(tmp_path, f"n_frames = {n_frames}\n", f"{n_frames}.cfg")
        tracemalloc.start()
        try:
            assert run_cli("gen", "--kind", "traffic", "--events", "--config", cfg,
                           "--out", tmp_path / f"out{n_frames}") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations, kept apart
    small, large = peak(3 * imfsim.frames.FRAME_CHUNK), peak(6 * imfsim.frames.FRAME_CHUNK)
    # three more chunks of 240 x 180 frames held at once would take 8.3 MB
    assert large <= small + 65536


@pytest.fixture(scope="module")
def long_recording(tmp_path_factory):
    """A 96-frame traffic recording: six 16-frame chunks."""
    root = tmp_path_factory.mktemp("long")
    cfg = root / "gen.cfg"
    cfg.write_text("n_frames = 96\n")
    assert run_cli("gen", "--events", "--config", cfg, "--out", root / "data") == 0
    return root


# Peak traced bytes of one run on long_recording, about 25% above those read
# with 16-frame chunks and 8,192-event batches (2.0, 4.3, 3.6, 3.0 and
# 2.9 MB).  With 64-frame chunks and 32,768-event batches the same runs
# peaked at 5.9, 10.5, 11.2, 5.0 and 11.2 MB.
WORKING_SET_BOUNDS = {
    "gen-events": 2.5e6,
    "denoise-events": 5.4e6,
    "omf": 4.5e6,
    "simulate": 3.75e6,
    "track-eval": 3.65e6,
}


@pytest.mark.parametrize("name", WORKING_SET_BOUNDS)
def test_streamed_commands_hold_a_bounded_working_set(long_recording, tmp_path, name):
    data = long_recording / "data"
    argv = {
        "gen-events": ["gen", "--events", "--config", long_recording / "gen.cfg"],
        "denoise-events": ["denoise", "--events", data / "events.txt"],
        "omf": ["denoise", "--frames", data / "frames", "--filter", "omf"],
        "simulate": ["simulate", "--frames", data / "frames"],
        "track-eval": ["track-eval", "--frames", data / "frames", "--gt", data / "gt.csv"],
    }[name]
    assert run_cli(*argv, "--out", tmp_path / "warm-up") == 0  # first-call allocations
    tracemalloc.start()
    try:
        assert run_cli(*argv, "--out", tmp_path / "out") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WORKING_SET_BOUNDS[name]


def test_gen_noise_kind(tmp_path):
    cfg = write_cfg(tmp_path, "n_frames = 3\nsalt_p = 0.35\nseed = 2\n")
    assert run_cli("gen", "--kind", "noise", "--config", cfg, "--out", tmp_path / "o") == 0
    frames = [read_pbm(p) for p in sorted((tmp_path / "o" / "frames").glob("*.pbm"))]
    assert len(frames) == 3
    density = sum(f.popcount() for f in frames) / (3 * 43200)
    assert density == pytest.approx(0.35, abs=0.02)
    assert read_csv(tmp_path / "o" / "gt.csv") == []  # header-only ground truth
    assert not (tmp_path / "o" / "events.txt").exists()


# ---------------------------------------------------------------------------
# denoise / simulate
# ---------------------------------------------------------------------------

def test_denoise_report_schema_and_frames(traffic_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("denoise", "--frames", traffic_dir / "frames",
                   "--filter", "omf", "--out", out) == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 40
    assert list(rows[0]) == ["frame_index", "input_ones", "output_ones", "valid_frame"]
    outs = sorted((out / "frames").glob("*.pbm"))
    assert len(outs) == 40
    for row, path in zip(rows, outs):
        assert int(row["output_ones"]) == read_pbm(path).popcount()
        assert row["valid_frame"] in ("0", "1")


def test_filters_of_a_kernel_past_the_frame_finish(tmp_path):
    # The loops of both kernels are bounded by the frame, not by n: in a
    # subprocess with a timeout, so a kernel that loops over n fails the test.
    rng = np.random.default_rng(2)
    frames = [BinaryFrame((rng.random((18, 24)) < p).astype(np.uint8)) for p in (0.3, 0.7)]
    for i, frame in enumerate(frames):
        write_pbm(frame, tmp_path / f"frame_{i:05d}.pbm")
    cfg = write_cfg(tmp_path, f"n = {10**6 + 1}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name in ("nomf", "omf"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-c", "import sys; from imfsim.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", "denoise", "--frames", tmp_path,
                        "--filter", name, "--config", cfg, "--out", out],
                       env=env, check=True, timeout=60)
        for i, frame in enumerate(frames):
            got = read_pbm(out / "frames" / f"frame_{i:05d}.pbm").pixels
            vote = frame.popcount() >= (frame.pixels.size + 1) // 2    # one whole-frame tile
            assert np.array_equal(got, np.full_like(got, vote if name == "nomf" else 0))
    assert [f.popcount() >= 216 for f in frames] == [False, True]


def test_simulate_matches_denoise_imc_filter(traffic_dir, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed = 3\n")
    a, b = tmp_path / "sim", tmp_path / "imc"
    assert run_cli("simulate", "--frames", traffic_dir / "frames",
                   "--config", cfg, "--out", a) == 0
    # the macro filter is run by simulate alone
    assert _exit_code("denoise", "--frames", traffic_dir / "frames",
                      "--filter", "imc", "--config", cfg, "--out", b) == 2
    assert "invalid choice: 'imc'" in capsys.readouterr().err
    assert not b.exists()
    rows = read_csv(a / "report.csv")
    assert list(rows[0]) == [
        "frame_index", "input_ones", "output_ones", "valid_frame",
        "flips_intended", "flips_unintended", "ber", "cycles",
    ]
    # cycles = clear + per-pixel writes + 2 per row group
    first = rows[0]
    assert int(first["cycles"]) == 12 + int(first["input_ones"]) + 2 * 180 // 3


def test_simulate_without_variation_equals_ideal_nomf(tmp_path):
    # dims divisible by n, so every tile is complete and the two paths agree bit for bit
    gen_cfg = write_cfg(tmp_path, "n_frames = 6\nwidth = 48\nheight = 30\nseed = 8\n", "g.cfg")
    assert run_cli("gen", "--kind", "noise", "--config", gen_cfg, "--out", tmp_path / "d") == 0
    run_cfg = write_cfg(
        tmp_path,
        "width = 48\nheight = 30\nsigma_i_over_mu = 0\nsigma_vtrip = 0\nseed = 8\n",
        "r.cfg",
    )
    assert run_cli("simulate", "--frames", tmp_path / "d" / "frames",
                   "--config", run_cfg, "--out", tmp_path / "hw") == 0
    assert run_cli("denoise", "--frames", tmp_path / "d" / "frames", "--filter", "nomf",
                   "--config", run_cfg, "--out", tmp_path / "ideal") == 0
    hw = tree_bytes(tmp_path / "hw" / "frames")
    ideal = tree_bytes(tmp_path / "ideal" / "frames")
    assert hw == ideal
    for row in read_csv(tmp_path / "hw" / "report.csv"):
        assert row["flips_unintended"] == "0" and row["ber"] == "0"


def test_simulate_passes_the_edge_columns_that_nomf_votes(tmp_path):
    # width 5 with n = 3: the macro races columns 0-2 only; nomf also votes the
    # 3 x 2 edge tile, where one pixel of six is a minority
    px = np.zeros((3, 5), dtype=np.uint8)
    px[1, 4] = 1
    d = tmp_path / "frames"
    d.mkdir()
    write_pbm(BinaryFrame(px), d / "frame_00000.pbm")
    cfg = write_cfg(tmp_path, "sigma_i_over_mu = 0\nsigma_vtrip = 0\n")
    assert run_cli("simulate", "--frames", d, "--config", cfg, "--out", tmp_path / "hw") == 0
    assert run_cli("denoise", "--frames", d, "--filter", "nomf", "--config", cfg,
                   "--out", tmp_path / "ideal") == 0
    assert read_pbm(tmp_path / "hw" / "frames" / "frame_00000.pbm").pixels.tolist() == px.tolist()
    assert not read_pbm(tmp_path / "ideal" / "frames" / "frame_00000.pbm").pixels.any()
    (row,) = read_csv(tmp_path / "hw" / "report.csv")
    assert (row["output_ones"], row["flips_intended"], row["flips_unintended"]) == ("1", "0", "0")


def test_all_zero_frame_reports_invalid(tmp_path):
    from imfsim.frames import BinaryFrame, write_pbm

    d = tmp_path / "frames"
    d.mkdir()
    write_pbm(BinaryFrame.zeros(48, 30), d / "frame_00000.pbm")
    cfg = write_cfg(tmp_path, "width = 48\nheight = 30\n")
    for args in (("denoise", "--filter", "nomf"), ("simulate",)):
        out = tmp_path / f"out_{args[0]}"
        assert run_cli(args[0], "--frames", d, *args[1:], "--config", cfg, "--out", out) == 0
        (row,) = read_csv(out / "report.csv")
        assert row["valid_frame"] == "0" and row["output_ones"] == "0"


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

def test_characterize_row_schema_and_uniform_k(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("characterize", "--vdd", "0.7,1.2", "--k", "0,5",
                 "--trials", "1", "--patterns", "3", "--out", out)
    assert rc == 0
    rows = read_csv(out / "characterize.csv")
    # k=0 collapses to its single pattern; k=5 keeps the requested 3
    assert len(rows) == 2 * (1 + 3)
    assert list(rows[0]) == ["vdd", "temp_c", "corner", "n", "k", "pattern_id", "trials", "ber"]
    for row in rows:
        assert row["corner"] == "TT" and row["n"] == "3"
        if row["k"] == "0":
            assert row["ber"] == "0"
        assert float(row["ber"]) >= 0


def test_characterize_all_patterns(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("characterize", "--vdd", "0.7", "--k", "5",
                 "--trials", "1", "--patterns", "all", "--out", out)
    assert rc == 0
    rows = read_csv(out / "characterize.csv")
    assert len(rows) == 126  # C(9, 5)
    assert len({r["pattern_id"] for r in rows}) == 126


# ---------------------------------------------------------------------------
# perf
# ---------------------------------------------------------------------------

def test_perf_report_values(tmp_path):
    out = tmp_path / "out"
    assert run_cli("perf", "--out", out) == 0
    text = (out / "perf.txt").read_text()
    assert "134.4 GOPS" in text
    assert "51.3 TOPS/W" in text
    assert "(114x / 70x)" in text
    metrics = {r["metric"]: float(r["value"]) for r in read_csv(out / "perf.csv")}
    assert metrics["ops.nn_filt.reads"] == 790042
    assert metrics["ops.nomf_imc.writes"] == 648
    assert metrics["latency.imf.cycles"] == 120  # 240x180 workload
    assert metrics["energy.ratio_mf_imc"] == pytest.approx(114, abs=2)
    assert metrics["energy.ratio_mfrb_imc"] == pytest.approx(70, abs=2)
    assert metrics["current.i_ch"] == pytest.approx(1.331e-3, rel=0.02)
    assert metrics["system.imc.savings"] == pytest.approx(0.508, abs=0.002)
    assert metrics["system.mf.savings"] < metrics["system.imc.savings"]


def test_perf_current_uses_the_configured_device_at_1v2(tmp_path, monkeypatch):
    import imfsim.perf_model as perf_model
    from imfsim.config import load_config

    devices = []

    def spy(params, device, *args, **kwargs):
        devices.append(device)
        return real(params, device, *args, **kwargs)

    real = perf_model.imc_current
    monkeypatch.setattr(perf_model, "imc_current", spy)
    cfg = write_cfg(tmp_path, "i_s = 2e-5\nv_trip = 0.3\nc_wl = 3e-13\n")
    assert run_cli("perf", "--config", cfg, "--out", tmp_path / "out") == 0
    want = load_config(cfg).device(vdd=1.2)
    assert (want.vdd, want.i_s_nominal, want.v_trip_nominal, want.c_wl) == (1.2, 2e-5, 0.3, 3e-13)
    assert devices == [want, want]


# ---------------------------------------------------------------------------
# track-eval
# ---------------------------------------------------------------------------

def test_track_eval_outputs(traffic_dir, tmp_path):
    out = tmp_path / "out"
    rc = run_cli("track-eval", "--frames", traffic_dir / "frames",
                 "--gt", traffic_dir / "gt.csv", "--out", out)
    assert rc == 0
    for filt in ("omf", "nomf"):
        curve = read_csv(out / f"f1_curve_{filt}.csv")
        assert [r["thr"] for r in curve] == [str(t) for t in
                                             (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
        vals = [float(r["weighted_f1"]) for r in curve]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert (out / f"tracks_{filt}.csv").exists()
    summary = {r["metric"]: float(r["value"]) for r in read_csv(out / "summary.csv")}
    assert set(summary) == {"auc_omf", "auc_nomf", "auc_abs_diff"}
    assert summary["auc_abs_diff"] == pytest.approx(
        abs(summary["auc_omf"] - summary["auc_nomf"])
    )
    assert 0.0 <= summary["auc_omf"] <= 0.8 and 0.0 <= summary["auc_nomf"] <= 0.8


def test_track_eval_requires_inputs(tmp_path, capsys):
    rc = run_cli("track-eval", "--frames", tmp_path, "--gt", tmp_path / "gt.csv",
                 "--out", tmp_path / "out")
    assert rc == 2  # the frames are read first, so the missing gt.csv is not reached
    assert "no .pbm frames" in capsys.readouterr().err


def test_track_eval_scores_zero_without_ground_truth_tracks(traffic_dir, tmp_path):
    # a recording with no ground-truth track weights every F1 by zero tracks
    gt = tmp_path / "gt.csv"
    gt.write_bytes(GT_HEADER)
    out = tmp_path / "out"
    assert run_cli("track-eval", "--frames", traffic_dir / "frames", "--gt", gt,
                   "--out", out) == 0
    for filt in ("omf", "nomf"):
        assert [float(r["weighted_f1"]) for r in read_csv(out / f"f1_curve_{filt}.csv")] == [
            0.0] * 9
    assert {r["metric"]: float(r["value"]) for r in read_csv(out / "summary.csv")} == {
        "auc_omf": 0.0, "auc_nomf": 0.0, "auc_abs_diff": 0.0}


# ---------------------------------------------------------------------------
# seed handling
# ---------------------------------------------------------------------------

def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "n_frames = 4\nseed = 1\n")
    a, b, c = (tmp_path / x for x in ("a", "b", "c"))
    assert run_cli("gen", "--kind", "noise", "--config", cfg, "--out", a) == 0
    assert run_cli("gen", "--kind", "noise", "--config", cfg, "--seed", "2", "--out", b) == 0
    assert run_cli("gen", "--kind", "noise", "--config", cfg, "--seed", "1", "--out", c) == 0
    assert tree_bytes(a) == tree_bytes(c)
    assert tree_bytes(a) != tree_bytes(b)


# ---------------------------------------------------------------------------
# golden output trees
# ---------------------------------------------------------------------------

def tree_sha256(root):
    """SHA-256 over the sorted relative paths and contents of every file under root."""
    h = hashlib.sha256()
    for name, data in tree_bytes(root).items():
        h.update(Path(name).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


PERF_NONDEFAULT = ("n = 5\nvdd = 1.0\nfrequency = 48e6\nalpha = 0.25\ngamma = 0.3\n"
                   "beta_t = 7\nempty_frame_fraction = 0.2\n")

# Recorded on the per-frame implementation; any change to these trees is a
# change in results, not only in speed.
GOLDEN_TREES = {
    "nomf": "1f8c5e570e8351d815e9e6d51275bff82ed6146f70549254c3c83192d12ca35b",
    "omf": "a3310a4c0b058306f2db46f2bbdac5668563f66734f6e39e969ce5f76b7d38fe",
    "simulate": "c4be5bbfa2701eda160b2ab63b3a02fce760dc305668bcf02fcc924813d90e32",
    "track-eval": "379f5092d702b3a3a77a07d95f32003f8f7a4f49f86baec85249ead8acd3b81f",
    "perf": "3255d1799db4ddc42b16e94910563c875cb8f8af94b03a018947aa586fbf8ae0",
    # recorded before the cost model was rewritten as tables
    "perf-nondefault": "15af8c268473f54487e929ef75515247d0a2263e7583d5a04255a670e6725a62",
    # recorded on the whole-recording event path, before streaming
    "gen-events": "cdd0e8151b783d18c1bd0739a30f1ef117ae253786d8235d6f507760c4598605",
    # recorded while gen still drew the whole recording as one list
    "gen-noise-events": "e175c2d8d2a820e604f0545a7961b075912406e0b017e64c2778dbce4012009b",
    "nomf-events": "1f8c5e570e8351d815e9e6d51275bff82ed6146f70549254c3c83192d12ca35b",
    "simulate-events": "c4be5bbfa2701eda160b2ab63b3a02fce760dc305668bcf02fcc924813d90e32",
    # recorded on the per-state sweep, before it moved to patch space
    "characterize": "ba4f3f045e646205e8f361730a07e2d3e63056c29e31eced91c78eaa610c36cf",
    "characterize-n5": "394a783d3922f9007883d986b4fff4922dbaecba02423fa2907e148ba65f828a",
    "characterize-all": "fb73fc74ad95c70090d8a10f40731cb30863b88c8134eb4c2efa9fb44aa4d855",
}


def assert_golden_tree(traffic_dir, tmp_path, name):
    frames, out = traffic_dir / "frames", tmp_path / "out"
    events = traffic_dir / "events.txt"
    argv = {
        "nomf": ["denoise", "--frames", frames, "--filter", "nomf"],
        "omf": ["denoise", "--frames", frames, "--filter", "omf"],
        "simulate": ["simulate", "--frames", frames],
        "track-eval": ["track-eval", "--frames", frames, "--gt", traffic_dir / "gt.csv"],
        "perf": ["perf"],
        "perf-nondefault": ["perf", "--config", write_cfg(tmp_path, PERF_NONDEFAULT)],
        "gen-events": ["gen", "--kind", "traffic", "--events",
                       "--config", traffic_dir.parent / "gen.cfg"],
        "gen-noise-events": ["gen", "--kind", "noise", "--events", "--config",
                             write_cfg(tmp_path, "n_frames = 40\nsalt_p = 0.05\n", "noise.cfg")],
        "nomf-events": ["denoise", "--events", events, "--filter", "nomf"],
        "simulate-events": ["simulate", "--events", events],
        "characterize": ["characterize"],
        "characterize-n5": ["characterize", "--config",
                            write_cfg(tmp_path, "n = 5\n", "n5.cfg"), "--k", "0,3,12,13,20,25",
                            "--vdd", "0.7,1.0", "--patterns", "4", "--trials", "2"],
        "characterize-all": ["characterize", "--patterns", "all", "--k", "0,1,4,5",
                             "--vdd", "0.6,0.8", "--trials", "2"],
    }[name]
    assert run_cli(*argv, "--seed", "5", "--out", out) == 0
    assert tree_sha256(out) == GOLDEN_TREES[name]


@pytest.mark.parametrize("name", GOLDEN_TREES)
def test_output_trees_match_golden_digests(traffic_dir, tmp_path, name):
    assert_golden_tree(traffic_dir, tmp_path, name)


@pytest.mark.parametrize("name", ["characterize", "characterize-n5", "characterize-all"])
def test_characterize_trees_do_not_depend_on_the_closed_form(
        traffic_dir, tmp_path, monkeypatch, name):
    # with an infinite band no closed-form sign is sure, so every race runs directly
    monkeypatch.setattr(imfsim.sram_macro, "_RACE_RTOL", float("inf"))
    raced = []
    race = imfsim.sram_macro.race

    def counted(*args):
        raced.append(args)
        return race(*args)

    monkeypatch.setattr(imfsim.sram_macro, "race", counted)
    assert_golden_tree(traffic_dir, tmp_path, name)
    assert raced


@pytest.mark.parametrize("name", ["nomf", "simulate", "nomf-events", "simulate-events",
                                  "track-eval", "gen-events", "gen-noise-events"])
def test_output_trees_do_not_depend_on_the_chunk_size(traffic_dir, tmp_path, monkeypatch, name):
    # 7 does not divide the 40-frame recordings; 64 holds each in one chunk
    for chunk in (7, 64):
        monkeypatch.setattr(imfsim.frames, "FRAME_CHUNK", chunk)
        (tmp_path / str(chunk)).mkdir()
        assert_golden_tree(traffic_dir, tmp_path / str(chunk), name)
