"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_times_subtract_children_and_their_bookkeeping():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def hook(tr_, *args):
        clock.advance(0.5)          # bookkeeping, before and after every child

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        tr.call("b_s", leaf, (), {}, pre=hook, post=hook)
        clock.advance(3.0)

    def step():
        clock.advance(0.25)
        tr.call("a_s", middle, (), {}, pre=hook, post=hook)
        tr.call("b_s", leaf, (), {})

    tr.root(step)
    summary = tr.summary()
    # root: 0.25 own + a (0.5 + 1 + [0.5 + 2 + 0.5] + 3 + 0.5) + b 2 = 10.25
    assert summary["root_s"] == pytest.approx(10.25)
    assert summary["self_s"] == pytest.approx({spans.ROOT: 0.25, "a_s": 4.0, "b_s": 4.0})
    assert summary["hook_s"] == pytest.approx(2.0)
    spans.check_self_sum(summary)


def test_self_sum_check_rejects_a_gap():
    summary = {"self_s": {spans.ROOT: 1.0, "a_s": 2.0}, "hook_s": 0.5, "root_s": 3.6,
               "counts": {}}
    with pytest.raises(AssertionError):
        spans.check_self_sum(summary)


def test_real_step_self_times_add_up():
    from imfsim.filters import KernelSpec, StrideMode, apply_filter
    from imfsim.frames import BinaryFrame

    tr = spans.Tracer()
    restore = spans.install(tr)
    try:
        frame = BinaryFrame(np.random.default_rng(0).random((12, 15)) < 0.5)
        tr.root(lambda: [apply_filter(frame, KernelSpec(3), m) for m in StrideMode])
    finally:
        for module, attr, original in restore:
            setattr(module, attr, original)
    summary = tr.summary()
    assert set(summary["self_s"]) == {spans.ROOT, "filters.nomf_s",
                                      "filters.median_filter_overlap_s"}
    assert summary["counts"]["filters.frames_filtered"] == 2
    spans.check_self_sum(summary)


# ---------------------------------------------------------------------------
# lottery accounting
# ---------------------------------------------------------------------------

def test_install_wraps_every_namespace_and_counts_distinct_lotteries():
    import imfsim.cli
    import imfsim.sram_macro as sm
    from imfsim.frames import BinaryFrame

    tr = spans.Tracer()
    restore = spans.install(tr)
    try:
        assert imfsim.cli.init_macro is sm.init_macro
        assert sm.init_macro.__wrapped__ is not sm.init_macro
        geom = sm.MacroGeometry(rows=6, cols=6)
        dev = sm.DeviceParams(vdd=0.7)

        def step():
            # seeds 0..3 on 6 x 6: four distinct lotteries
            sm.ber_pattern_sweep(3, 4, dev, sm.CellVariation(), trials=2, patterns=2,
                                 geometry=geom)
            # seeds 0 and 1 on 6 x 6 again, twice: four redraws
            frames = [BinaryFrame(np.eye(6, dtype=np.uint8)), BinaryFrame.zeros(6, 6)]
            for _ in range(2):
                sm.measure_image_ber(frames, dev, sm.CellVariation())

        tr.root(step)
    finally:
        for module, attr, original in restore:
            setattr(module, attr, original)
    assert not hasattr(sm.init_macro, "__wrapped__")
    counts = tr.summary()["counts"]
    assert counts["sram_macro.lotteries"] == 8
    assert counts["sram_macro.lottery_distinct"] == 4
    assert counts["sram_macro.lottery_cells"] == 8 * 36
    assert counts["sram_macro.measure_image_ber_calls"] == 2
    assert counts["sram_macro.patches_raced"] == 8 * 4


def _traced_result(counts: dict) -> run.StepResult:
    step = run.Step("s", "x_s", [], Path("."), lambda o: None)
    child = run.Child(0, 1.0, 1.0)
    trace = {"self_s": {}, "hook_s": 0.0, "root_s": 0.0, "counts": counts}
    return run.StepResult(step, child, "", True, trace=trace)


def test_distinct_ratio_sums_each_step_separately():
    # each step is its own process, so repeats across steps are not redraws
    steps = [
        _traced_result({"sram_macro.lotteries": 1280, "sram_macro.lottery_distinct": 64}),
        _traced_result({"sram_macro.lotteries": 64, "sram_macro.lottery_distinct": 64}),
    ]
    metrics = run.layer_metrics(steps, ["sram_macro.lottery_distinct_ratio",
                                        "pipeline.proposal_keep_ratio"])
    assert metrics["sram_macro.lottery_distinct_ratio"] == pytest.approx(128 / 1344)
    assert metrics["pipeline.proposal_keep_ratio"] == 0.0   # no components, no division


# ---------------------------------------------------------------------------
# digest and reference checks
# ---------------------------------------------------------------------------

def _write_tree(root: Path) -> None:
    (root / "frames").mkdir(parents=True)
    (root / "frames" / "a.bin").write_bytes(b"\x00\x01\x02")
    (root / "report.csv").write_text("x\n1\n")


def test_tree_digest_sees_contents_and_names(tmp_path):
    _write_tree(tmp_path / "a")
    _write_tree(tmp_path / "b")
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    (tmp_path / "b" / "report.csv").rename(tmp_path / "b" / "report2.csv")
    assert run.tree_digest(tmp_path / "a") != run.tree_digest(tmp_path / "b")


def test_corrupted_output_counts_as_failed(tmp_path):
    out = tmp_path / "out"
    _write_tree(out)
    golden = {"noise_mismatch": {"7": {"fake": run.tree_digest(out)}}}
    runner = run.Runner(run.Workload("noise_mismatch", 7, tmp_path), golden)
    step = run.Step("fake", "x_s", [sys.executable, "-c", "pass"], out, lambda o: None)

    assert runner.run(step).ok
    with open(out / "frames" / "a.bin", "r+b") as fh:
        fh.write(b"\x09")
    result = runner.run(step)
    assert not result.ok and "golden" in result.detail
    assert (runner.attempted, runner.failed) == (2, 1)


def test_unrecorded_seed_must_repeat_its_first_digest(tmp_path):
    out = tmp_path / "out"
    _write_tree(out)
    runner = run.Runner(run.Workload("noise_mismatch", 12345, tmp_path), {})
    step = run.Step("fake", "x_s", [sys.executable, "-c", "pass"], out, lambda o: None)
    assert runner.run(step).ok
    (out / "report.csv").write_text("x\n2\n")
    assert not runner.run(step).ok


def test_nonzero_exit_and_failed_reference_check_count(tmp_path):
    out = tmp_path / "out"
    _write_tree(out)
    runner = run.Runner(run.Workload("noise_mismatch", 1, tmp_path), {})
    crash = run.Step("crash", "x_s", [sys.executable, "-c", "raise SystemExit(2)"], out,
                     lambda o: None)
    assert not runner.run(crash).ok

    def bad(o):
        run.require(False, "reference mismatch")
    assert not runner.run(run.Step("bad", "x_s", [sys.executable, "-c", "pass"], out, bad)).ok
    assert runner.failed == 2


def test_reference_filters_match_imfsim_and_catch_a_flipped_pixel(tmp_path):
    from imfsim.filters import KernelSpec, median_filter_overlap, nomf
    from imfsim.frames import BinaryFrame, write_pbm

    rng = np.random.default_rng(3)
    frames = (rng.random((4, run.H, run.W)) < 0.4).astype(np.uint8)
    spec = KernelSpec(3)
    out = tmp_path / "frames"
    out.mkdir()
    for i, f in enumerate(frames):
        write_pbm(nomf(BinaryFrame(f), spec), out / f"frame_{i:05d}.pbm")
        assert np.array_equal(run.omf_ref(frames[i:i + 1])[0],
                              median_filter_overlap(BinaryFrame(f), spec).pixels)
    run.check_filtered(tmp_path, run.nomf_ref(frames))

    flipped = run.read_pbm(out / "frame_00002.pbm")
    flipped[5, 7] ^= 1
    write_pbm(BinaryFrame(flipped), out / "frame_00002.pbm")
    with pytest.raises(run.CheckError):
        run.check_filtered(tmp_path, run.nomf_ref(frames))
