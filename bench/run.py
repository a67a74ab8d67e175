"""imfsim benchmark: three seeded workloads run through the CLI, checked and timed.

    python3 bench/run.py --workload traffic_events --seed 0 --seconds 20 --trace 0

Every step runs in its own fresh single-threaded child process, one at a
time, and is timed from outside.  After each step its output tree is hashed
and checked: against the golden digests in bench/golden.json when that
seed was recorded, and for any seed against reference computations written
here (majority filters, the macro report, the calibration bands).  A step
that exits nonzero or fails a check counts as failed.  Outputs live in a
temporary directory under .bench_work/ that is removed afterwards.

--trace 0 repeats the workload until --seconds have passed (at least once)
and reports medians over the passes.  --trace 1 runs one untraced pass and
one traced pass, in which each step runs in-process under bench/spans.py, and
reports per-layer self times and counters.  The last stdout line is one JSON
object; the lines before it print every metric by name with its unit.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spans import check_self_sum  # bench/ is on sys.path as the script's directory

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("traffic_events", "traffic_frames", "noise_mismatch")
EVENT_TARGET = 3_240_000    # events in the ROADMAP baseline recording
SETUP_SAMPLES = 7           # at least; one more is taken before every timed step
STEP_TIMEOUT_S = 170.0
SIDE, THRESHOLD = 3, 5      # default kernel: 3 x 3, majority at 5 ones
H, W = 180, 240             # default sensor
CLEAR_CYCLES = -(-H // 16)  # clear_group of 16 word lines

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
}
RATIOS = {
    "sram_macro.lottery_distinct_ratio": ("sram_macro.lottery_distinct", "sram_macro.lotteries"),
    "sram_macro.mixed_patch_ratio": ("sram_macro.patches_mixed", "sram_macro.patches_raced"),
    "pipeline.proposal_keep_ratio": ("pipeline.proposals_kept", "pipeline.components_found"),
}


def _per_layer_names() -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
           OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_child(argv: list[str], log: Path) -> Child:
    """Run one step to completion through bench/launch.py; stderr goes to `log`."""
    with open(log, "w") as err:
        done = subprocess.run(
            [sys.executable, str(BENCH / "launch.py"), str(STEP_TIMEOUT_S), *argv],
            cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=err, text=True,
            timeout=STEP_TIMEOUT_S + 30,
        )
    if done.returncode != 0:
        raise RuntimeError(f"launcher failed: {log.read_text()[-400:]}")
    r = json.loads(done.stdout)
    return Child(r["code"], r["wall_s"], r["rss_mb"])


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "imfsim.cli", *map(str, args)]


def library(*args) -> list[str]:
    return [sys.executable, str(BENCH / "step.py"), *map(str, args)]


def traced(argv: list[str], trace_file: Path) -> list[str]:
    """The same step run in-process under the tracer."""
    if argv[1:3] == ["-m", "imfsim.cli"]:
        return library("--trace", trace_file, "cli", *argv[3:])
    return library("--trace", trace_file, *argv[2:])


def measure_setup() -> float:
    """One fresh-process `import imfsim.cli`, timed inside the child."""
    code = ("import time; t = time.perf_counter(); import imfsim.cli; "
            "print(repr(time.perf_counter() - t))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"import imfsim.cli failed: {done.stderr[-400:]}")
    return float(done.stdout)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def tree_digest(path: Path) -> str:
    """SHA-256 over the sorted relative paths and contents of every file under path."""
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(p.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


_PBM_HEADER = re.compile(rb"P4\n(\d+) (\d+)\n")


def read_pbm(path: Path) -> np.ndarray:
    """A P4 frame as written by imfsim (fixed header layout), as (h, w) uint8."""
    data = path.read_bytes()
    m = _PBM_HEADER.match(data)
    if not m:
        raise CheckError(f"{path.name}: unexpected PBM header")
    w, h = int(m.group(1)), int(m.group(2))
    raw = np.frombuffer(data, np.uint8, offset=m.end()).reshape(h, -1)
    return np.unpackbits(raw, axis=1)[:, :w]


def read_frames(directory: Path) -> np.ndarray:
    paths = sorted(directory.glob("*.pbm"))
    if not paths:
        raise CheckError(f"no frames under {directory.name}")
    return np.stack([read_pbm(p) for p in paths])


def nomf_ref(frames: np.ndarray) -> np.ndarray:
    n, h, w = frames.shape
    k = frames.reshape(n, h // SIDE, SIDE, w // SIDE, SIDE).sum(axis=(2, 4))
    return (k >= THRESHOLD).astype(np.uint8).repeat(SIDE, axis=1).repeat(SIDE, axis=2)


def omf_ref(frames: np.ndarray) -> np.ndarray:
    n, h, w = frames.shape
    p = np.pad(frames, ((0, 0), (1, 1), (1, 1)))  # window sums of at most 9 fit in uint8
    s = sum(p[:, i:i + h, j:j + w] for i in range(SIDE) for j in range(SIDE))
    return (s >= THRESHOLD).astype(np.uint8)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class CheckError(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def check_filtered(out: Path, expected: np.ndarray) -> None:
    got = read_frames(out / "frames")
    require(got.shape == expected.shape, f"frames {got.shape} != {expected.shape}")
    require(bool(np.array_equal(got, expected)), "filtered frames differ from the reference")


def check_simulate(out: Path, inputs: np.ndarray) -> dict:
    """Macro report against the ideal filter; returns the simulated means."""
    got = read_frames(out / "frames")
    ideal = nomf_ref(inputs)
    header, rows = read_csv(out / "report.csv")
    require(header == ["frame_index", "input_ones", "output_ones", "valid_frame",
                       "flips_intended", "flips_unintended", "ber", "cycles"],
            f"report header {header}")
    require(len(rows) == len(inputs) == len(got), "report rows != frames")
    for i, row in enumerate(rows):
        idx, ones_in, ones_out, valid, f_int, f_un, ber, cycles = row
        x, y, ref = inputs[i], got[i], ideal[i]
        require(int(idx) == i and int(ones_in) == int(x.sum())
                and int(ones_out) == int(y.sum()) and int(valid) == int(y.any()),
                f"frame {i}: popcounts")
        require(int(f_int) == int((x != ref).sum()), f"frame {i}: intended flips")
        require(int(f_un) == int((y != ref).sum()), f"frame {i}: unintended flips")
        require(math.isclose(float(ber), int(f_un) / x.size, rel_tol=1e-9), f"frame {i}: ber")
        require(int(cycles) == CLEAR_CYCLES + int(ones_in) + 2 * (H // SIDE),
                f"frame {i}: cycles")
    return {
        "sim_cycles_per_frame": statistics.fmean(int(r[7]) for r in rows),
        "sim_image_ber": statistics.fmean(float(r[6]) for r in rows),
    }


def check_track_eval(out: Path) -> None:
    aucs = {}
    for filt in ("omf", "nomf"):
        header, rows = read_csv(out / f"tracks_{filt}.csv")
        require(header == ["frame_index", "track_id", "class", "x", "y", "w", "h"],
                f"tracks_{filt} header")
        _, curve = read_csv(out / f"f1_curve_{filt}.csv")
        thr = [float(r[0]) for r in curve]
        f1 = [float(r[1]) for r in curve]
        require(thr == [round(0.1 * i, 1) for i in range(1, 10)], "f1 thresholds")
        require(all(0.0 <= v <= 1.0 for v in f1), "f1 outside [0, 1]")
        aucs[filt] = sum((b - a) * (u + v) / 2 for a, b, u, v in zip(thr, thr[1:], f1, f1[1:]))
    _, summary = read_csv(out / "summary.csv")
    got = {k: float(v) for k, v in summary}
    for key, want in (("auc_omf", aucs["omf"]), ("auc_nomf", aucs["nomf"]),
                      ("auc_abs_diff", abs(aucs["omf"] - aucs["nomf"]))):
        require(math.isclose(got[key], want, rel_tol=1e-9, abs_tol=1e-12), f"summary {key}")


def check_perf(out: Path) -> None:
    header, rows = read_csv(out / "perf.csv")
    require(header == ["metric", "value"] and len(rows) > 20, "perf.csv shape")
    require(all(math.isfinite(float(v)) for _, v in rows), "perf.csv values")
    require((out / "perf.txt").stat().st_size > 0, "perf.txt empty")


def check_characterize(out: Path) -> None:
    header, rows = read_csv(out / "characterize.csv")
    require(header == ["vdd", "temp_c", "corner", "n", "k", "pattern_id", "trials", "ber"],
            "characterize header")
    require(len(rows) == 4 * 2 * 16, f"{len(rows)} characterize rows")
    for vdd, _, _, n, k, pid, trials, ber in rows:
        require(float(vdd) in (0.7, 0.8, 1.0, 1.2) and n == "3" and k in ("4", "5"),
                "characterize grid")
        require(bin(int(pid)).count("1") == int(k) and trials == "8", "pattern or trials")
        require(0.0 <= float(ber) <= 1.0, "ber outside [0, 1]")


def check_calibrate(out: Path) -> dict:
    fit = json.loads((out / "calibration.json").read_text())
    # the acceptance bands of tests/test_acceptance.py, criterion 4
    require(1e-4 <= fit["ber_low_vdd"] <= 1e-3, f"0.7 V BER {fit['ber_low_vdd']}")
    require(fit["ber_high_vdd"] < 1e-5, f"1.2 V BER {fit['ber_high_vdd']}")
    require(2e-3 < fit["sigma_i_over_mu"] < 0.5, f"sigma {fit['sigma_i_over_mu']}")
    return fit


def check_frames_input(out: Path, count: int, density: tuple[float, float]) -> np.ndarray:
    frames = read_frames(out / "frames")
    require(frames.shape == (count, H, W), f"input frames {frames.shape}")
    require(density[0] <= frames.mean() <= density[1], f"input density {frames.mean()}")
    require((out / "gt.csv").is_file(), "gt.csv missing")
    return frames


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Step:
    name: str
    metric: str | None          # end-to-end metric it adds to; None for input preparation
    argv: list[str]
    out: Path
    check: Callable[[Path], dict | None]


@dataclass
class StepResult:
    step: Step
    child: Child
    digest: str
    ok: bool
    detail: str = ""
    extra: dict = field(default_factory=dict)
    trace: dict | None = None


class Workload:
    """Builds a workload's steps from the seed; inputs live under `work`."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.inputs = work / "inputs"
        self.data: dict = {}

    def prepare(self) -> list[Step]:
        """Untimed input steps, run once per benchmark run."""
        s, inp = self.seed, self.inputs
        if self.name == "traffic_events":
            def size(out):
                self.data["n_frames"] = int((out / "events.cfg").read_text().split("=")[1])
            return [Step("size", None, library("frames-for-events", s, EVENT_TARGET, inp / "size"),
                         inp / "size", size)]
        if self.name == "traffic_frames":
            def load(out):
                self.data["frames"] = check_frames_input(out, 500, (0.005, 0.5))
            return [Step("inputs", None, cli("gen", "--kind", "traffic", "--seed", s,
                                             "--out", inp / "traffic"), inp / "traffic", load)]
        cfg = self.work / "noise.cfg"
        cfg.write_text("n_frames = 64\nsalt_p = 0.35\n")

        def load(out):
            self.data["frames"] = check_frames_input(out, 64, (0.34, 0.36))
        return [Step("inputs", None, cli("gen", "--kind", "noise", "--config", cfg, "--seed", s,
                                         "--out", inp / "noise"), inp / "noise", load)]

    def steps(self, out: Path) -> list[Step]:
        """The timed steps of one pass, writing under `out`."""
        s, inp = self.seed, self.inputs
        if self.name == "traffic_events":
            gen = out / "gen"

            def check_gen(o):
                frames = read_frames(o / "frames")
                require(len(frames) == self.data["n_frames"], "gen frame count")
                with open(o / "events.txt", "rb") as fh:
                    lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 24), b""))
                require(lines == int(frames.sum()), f"{lines} events for {int(frames.sum())} pixels")
                self.data["frames"] = frames
            return [
                Step("gen", "gen_s", cli("gen", "--kind", "traffic", "--events", "--config",
                                         inp / "size" / "events.cfg", "--seed", s,
                                         "--out", gen),
                     gen, check_gen),
                Step("denoise_events", "denoise_s",
                     cli("denoise", "--events", gen / "events.txt", "--filter", "nomf",
                         "--seed", s, "--out", out / "denoise"),
                     out / "denoise", lambda o: check_filtered(o, nomf_ref(self.data["frames"]))),
            ]
        if self.name == "traffic_frames":
            frames_dir, t = inp / "traffic" / "frames", self.data.get("frames")
            return [
                Step("denoise_nomf", "denoise_s",
                     cli("denoise", "--frames", frames_dir, "--filter", "nomf", "--seed", s,
                         "--out", out / "nomf"), out / "nomf",
                     lambda o: check_filtered(o, nomf_ref(t))),
                Step("denoise_omf", "denoise_s",
                     cli("denoise", "--frames", frames_dir, "--filter", "omf", "--seed", s,
                         "--out", out / "omf"), out / "omf",
                     lambda o: check_filtered(o, omf_ref(t))),
                Step("simulate", "simulate_s",
                     cli("simulate", "--frames", frames_dir, "--seed", s, "--out", out / "sim"),
                     out / "sim", lambda o: check_simulate(o, t)),
                Step("track_eval", "track_eval_s",
                     cli("track-eval", "--frames", frames_dir, "--gt", inp / "traffic" / "gt.csv",
                         "--seed", s, "--out", out / "track"), out / "track", check_track_eval),
                Step("perf", "perf_s", cli("perf", "--seed", s, "--out", out / "perf"),
                     out / "perf", check_perf),
            ]
        frames_dir, x = inp / "noise" / "frames", self.data.get("frames")
        return [
            Step("simulate", "simulate_s",
                 cli("simulate", "--frames", frames_dir, "--seed", s, "--out", out / "sim"),
                 out / "sim", lambda o: check_simulate(o, x)),
            Step("characterize", "characterize_s",
                 cli("characterize", "--seed", s, "--out", out / "char"), out / "char",
                 check_characterize),
            Step("calibrate", "calibrate_s", library("calibrate", s, out / "cal"), out / "cal",
                 check_calibrate),
        ]


class Runner:
    """Runs steps, checks them against golden digests and the references, keeps results."""

    def __init__(self, workload: Workload, golden: dict):
        self.wl = workload
        self.golden = golden.get(workload.name, {}).get(str(workload.seed), {})
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, step: Step, trace_file: Path | None = None) -> StepResult:
        argv = step.argv if trace_file is None else traced(step.argv, trace_file)
        log = self.wl.work / f"{step.name}.log"
        child = run_child(argv, log)
        result = StepResult(step, child, "", ok=child.code == 0)
        if not result.ok:
            result.detail = f"exit {child.code}: {log.read_text()[-400:]}"
        else:
            result.digest = tree_digest(step.out) if step.out.exists() else ""
            result.detail = self.verify(step.name, result.digest)
            if not result.detail:
                try:
                    result.extra = step.check(step.out) or {}
                except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                    result.detail = f"check failed: {exc}"
            if not result.detail and trace_file is not None:
                result.trace = json.loads(trace_file.read_text())
                try:
                    check_self_sum(result.trace)
                except AssertionError as exc:
                    result.detail = str(exc)
            result.ok = not result.detail
        self.attempted += 1
        if not result.ok:
            self.failed += 1
            self.failures.append(f"{self.wl.name}/{step.name}: {result.detail}")
        return result

    def verify(self, name: str, digest: str) -> str:
        """Empty when the digest matches golden (if recorded) and every earlier pass."""
        want = self.golden.get(name)
        if want is not None and digest != want:
            return f"digest {digest[:12]} != golden {want[:12]}"
        first = self.first_digest.setdefault(name, digest)
        if digest != first:
            return f"digest {digest[:12]} differs from the first pass {first[:12]}"
        return ""


def run_pass(runner: Runner, work: Path, index: int, trace: bool,
             setup: list[float] | None = None) -> list[StepResult]:
    """One pass of the timed steps; with `setup`, a set-up sample precedes each
    step, so the samples spread over the run instead of bunching in one moment."""
    out = work / f"pass{index}"
    out.mkdir()
    results = []
    try:
        for step in runner.wl.steps(out):
            if setup is not None:
                setup.append(measure_setup())
            tf = work / f"trace-{index}-{step.name}.json" if trace else None
            results.append(runner.run(step, tf))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def step_metrics(results: list[StepResult]) -> dict[str, float]:
    m: dict[str, float] = {"wall_s": 0.0, "peak_rss_mb": 0.0}
    for r in results:
        m[r.step.metric] = m.get(r.step.metric, 0.0) + r.child.wall_s
        m["wall_s"] += r.child.wall_s
        m["peak_rss_mb"] = max(m["peak_rss_mb"], r.child.rss_mb)
    return m


def layer_metrics(results: list[StepResult], names: list[str]) -> dict[str, float]:
    """Sum the per-step trace summaries into the per-layer metrics."""
    values: dict[str, float] = {}
    for r in results:
        if r.trace is None:
            continue
        for k, v in list(r.trace["self_s"].items()) + list(r.trace["counts"].items()):
            values[k] = values.get(k, 0) + v
        values["trace.hook_s"] = values.get("trace.hook_s", 0.0) + r.trace["hook_s"]
    for ratio, (num, den) in RATIOS.items():
        values[ratio] = values.get(num, 0) / values[den] if values.get(den) else 0.0
    return {n: values.get(n, 0) for n in names}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_per_frame"):
        return "cycles"
    return "ratio" if name.endswith(("_ratio", "_ber")) else "count"


def emit(workload: str, name: str, value, unit: str) -> None:
    print(f"{workload:15s} {name:40s} {value!r} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 golden: dict, record: bool) -> dict:
    wl = Workload(name, seed, work)
    runner = Runner(wl, golden)
    (work / "inputs").mkdir()
    for step in wl.prepare():
        if not runner.run(step).ok:
            raise RuntimeError(f"input preparation failed: {runner.failures[-1]}")

    metrics: dict[str, float] = {}
    if trace:
        plain = run_pass(runner, work, 0, trace=False)
        traced_results = run_pass(runner, work, 1, trace=True)
        metrics = layer_metrics(traced_results, _per_layer_names())
        metrics["trace.overhead_s"] = (step_metrics(traced_results)["wall_s"]
                                      - step_metrics(plain)["wall_s"])
        for r in traced_results:
            if r.trace:
                emit(name, f"{r.step.name}.traced_root_s", r.trace["root_s"], "s")
                emit(name, f"{r.step.name}.traced_startup_s",
                     r.child.wall_s - r.trace["root_s"], "s")
        passes = [plain, traced_results]
    else:
        # Passes repeat while the next one, as long as the last, still ends
        # within `seconds`; there is always at least one.
        setup: list[float] = []
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(runner, work, len(passes), trace=False, setup=setup))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup())
        per_pass = [step_metrics(p) for p in passes]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["setup_s"] = statistics.median(setup)
        for r in passes[0]:
            for k, v in r.extra.items():
                if k.startswith("sim_"):
                    metrics[f"{r.step.name}.{k}"] = v
        emit(name, "passes", len(passes), "count")
    metrics["fail_ratio"] = runner.failed / runner.attempted
    if record and runner.failed == 0:
        record_golden(name, seed, runner.first_digest, passes[0])
    return {"runner": runner, "metrics": metrics}


def record_golden(name: str, seed: int, digests: dict, results: list[StepResult]) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    entry = dict(digests)
    for r in results:
        if r.step.name == "calibrate":
            entry["calibration"] = r.extra
    old = golden.setdefault(name, {}).get(str(seed))
    if old is not None and old != entry:
        raise SystemExit(f"golden digests for {name} seed {seed} already recorded and differ")
    golden[name][str(seed)] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this seed's digests to bench/golden.json")
    args = ap.parse_args(argv)

    if not (SRC / "imfsim" / "cli.py").is_file():
        print(f"error: imfsim sources not found under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    attempted = failed = 0
    all_metrics: dict[str, dict] = {}
    try:
        for name in names:
            wdir = work / name
            wdir.mkdir()
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), wdir,
                               golden, args.record)
            attempted += res["runner"].attempted
            failed += res["runner"].failed
            for line in res["runner"].failures:
                print(f"FAILED {line}", file=sys.stderr)
            all_metrics[name] = res["metrics"]
            for k, v in res["metrics"].items():
                emit(name, k, v, unit_of(k))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # only when no other run is using it
        except OSError:
            pass

    wanted = _per_layer_names() if args.trace else list(END_TO_END_UNITS)
    out = {}
    for wl, m in all_metrics.items():
        prefix = "" if len(names) == 1 else f"{wl}."
        for k in wanted:
            if k in m:
                out[prefix + k] = {"value": m[k], "unit": unit_of(k)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
