"""Each command loads only what it runs.

Every case runs in a fresh interpreter with `src` on PYTHONPATH, so modules
that an earlier test imported cannot hide an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMPUTE = ("imfsim.sram_macro", "imfsim.perf_model", "imfsim.pipeline", "imfsim.synth")

# Prints the exit code of cli.main(argv) and the modules loaded by then.
PROBE = """
import json, sys
import imfsim.cli
code = None
if sys.argv[1:]:
    try:
        code = imfsim.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _loaded(*argv) -> tuple[int | None, set[str]]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


def test_importing_the_cli_loads_no_numpy_and_no_compute_module():
    _, modules = _loaded()
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("imfsim")} == {
        "imfsim", "imfsim.cli", "imfsim.config", "imfsim.errors", "imfsim.params"}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["perf", "--out", "{out}"], 0),
    (["perf", "--config", "{bad}", "--out", "{out}"], 2),  # DeviceParams rejects the supply
], ids=["help", "perf", "config-error"])
def test_light_commands_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "bad.cfg").write_text("vdd = 0.2\n")
    subs = {"{bad}": tmp_path / "bad.cfg", "{out}": tmp_path / "out"}
    got, modules = _loaded(*(subs.get(a, a) for a in argv))
    assert got == code
    assert "numpy" not in modules


@pytest.mark.parametrize("filt", ["nomf", "omf"])
def test_ideal_denoise_loads_no_macro_cost_or_tracking_module(tmp_path, filt):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(2):
        (frames / f"frame_{i:05d}.pbm").write_bytes(b"P4\n8 6\n" + bytes(range(6)))
    code, modules = _loaded("denoise", "--frames", frames, "--filter", filt,
                            "--out", tmp_path / "out")
    assert code == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert not modules & set(COMPUTE)
