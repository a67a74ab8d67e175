"""Release acceptance gate.

One test per numbered criterion, named so the verbose pytest report reads as a
per-criterion pass/fail line.  Tolerances and time budgets are pinned here,
not imported from the package under test.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from helpers import filter_stack, run_cli, tree_bytes
from imfsim.filters import KernelSpec, nomf
from imfsim.frames import BinaryFrame
from imfsim.params import CALIBRATED_SIGMA_I_OVER_MU
from imfsim.perf_model import (
    EnergyConstants,
    FilterCost,
    WorkloadParams,
    baseline_energy,
    digital_latency,
    imc_current,
    op_counts,
    system_energy_per_frame,
    throughput_efficiency,
)
from imfsim.sram_macro import (
    CellVariation,
    DeviceParams,
    ber_supply_sweep,
    calibrate_current_sigma,
    measure_image_ber,
    pattern_to_patch,
    patch_error_trials,
    variation_at_device,
)
from imfsim.synth import noise_frames

NO_VARIATION = CellVariation(0.0, 0.0)


def test_criterion_1_latency_and_throughput():
    gops, tops = throughput_efficiency(70e6, 3, 320, 39e-15)
    assert gops == pytest.approx(134.4, rel=1e-3)
    assert tops == pytest.approx(51.3, rel=5e-3)

    imf = digital_latency("imf", 320, 240, 3)
    assert digital_latency("mf", 320, 240, 3) == 4800 * imf
    assert digital_latency("mfprrb", 320, 240, 3) == 3 * imf

    cycles = digital_latency("imf", 240, 180, 3)
    frame_time = cycles / 70e6
    assert frame_time == pytest.approx(1.71e-6, rel=0.01)
    assert 1e-6 / frame_time == pytest.approx(0.583, rel=0.01)

    # an empty 240 x 320 frame costs the clear and 2 cycles per row group
    empty = np.zeros((1, 240, 320), dtype=np.uint8)
    *_, cycles = filter_stack(empty, 0, DeviceParams(), NO_VARIATION, 3)[0]
    assert cycles - 2 * 240 // 3 == 15
    print("criterion 1: PASS (134.4 GOPS, 51.3 TOPS/W, 4800x/3x, 1.71 us, 15-cycle clear)")


def test_criterion_2_energy_and_operation_model():
    params = WorkloadParams()
    constants = EnergyConstants()

    assert op_counts("nn_filt", params) == FilterCost(790042, 87783, 49378, 691200)
    assert op_counts("median_filter", params) == FilterCost(388800, 43200, 388800, 86400)
    assert op_counts("nomf", params) == FilterCost(43200, 43200, 43200, 43200)
    assert op_counts("nomf_imc", params) == FilterCost(14400, 648, 0, 43200)
    write_ratio = op_counts("nn_filt", params).writes / op_counts("nomf_imc", params).writes
    assert 134.0 <= write_ratio <= 136.0

    e_mf = baseline_energy("mf", params, constants, 0.7)
    e_mfrb = baseline_energy("mfrb", params, constants, 0.7)
    e_imc = baseline_energy("imc_nomf", params, constants, 0.7)
    assert e_mf == pytest.approx(191.67e-9, rel=0.01)
    assert e_mfrb == pytest.approx(117.72e-9, rel=0.01)
    assert e_imc == pytest.approx(1.685e-9, rel=0.01)
    assert e_mf / e_imc == pytest.approx(114, abs=2)
    assert e_mfrb / e_imc == pytest.approx(70, abs=2)

    cur = imc_current(
        WorkloadParams(width=320, height=240), DeviceParams(vdd=1.2), 48e6,
        rho_lambda_mean=1.01,
    )
    assert cur.i_ch == pytest.approx(1.331e-3, rel=0.02)
    print("criterion 2: PASS (op counts exact, 114x/70x energy, 1.33 mA charge current)")


def test_criterion_3_functional_equivalence_without_variation():
    t0 = time.monotonic()
    device = DeviceParams(vdd=0.7)
    spec = KernelSpec(3)

    # exhaustive: every 3x3 patch content, as one stack
    patches = np.stack([pattern_to_patch(pid, 3) for pid in range(512)])
    raced = patches.copy()
    filter_stack(raced, 0, device, NO_VARIATION, 3)
    for patch, got in zip(patches, raced):
        assert np.array_equal(got, nomf(BinaryFrame(patch), spec).pixels)

    # bulk: 1000 random full-size frames in 16-frame chunks, bit-exact
    rng = np.random.default_rng(424242)
    for first in range(0, 1000, 16):
        frames = np.stack([(rng.random((180, 240)) < rng.random()).astype(np.uint8)
                           for _ in range(min(16, 1000 - first))])
        raced = frames.copy()
        filter_stack(raced, first, device, NO_VARIATION, 3)
        for px, got in zip(frames, raced):
            assert np.array_equal(got, nomf(BinaryFrame(px), spec).pixels)

    # spot: random sizes against the per-tile oracle, both kernel sizes
    for n, seed in ((3, 31), (5, 32)):
        srng = np.random.default_rng(seed)
        for _ in range(100):
            w = int(srng.integers(1, 65))
            h = int(srng.integers(1, 65))
            px = (srng.random((h, w)) < srng.random()).astype(np.uint8)
            assert np.array_equal(
                nomf(BinaryFrame(px), KernelSpec(n)).pixels, oracles.nomf_naive(px, n)
            )

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 3: PASS (512 exhaustive + 1000 frames bit-exact, {elapsed:.1f}s)")


def test_criterion_4_statistical_error_model_and_calibration():
    t0 = time.monotonic()
    low = DeviceParams(vdd=0.7)
    high = DeviceParams(vdd=1.2)

    # uniform patches never flip
    for k in (0, 9):
        patch = pattern_to_patch((1 << k) - 1, 3)
        errs = patch_error_trials(patch, low, CellVariation(0.5, 0.02), 10_000, seed=1)
        assert errs.sum() == 0

    # near-balanced patterns dominate, bootstrap-backed
    trials = 200_000
    var_low = variation_at_device(CellVariation(rng_seed=31), low)
    counts = {}
    for k in range(1, 9):
        patch = pattern_to_patch((1 << k) - 1, 3)
        counts[k] = int(patch_error_trials(patch, low, var_low, trials, seed=100 + k).sum())
    assert counts[4] > 0 and counts[5] > 0
    brng = np.random.default_rng(0)
    for k_hi in (4, 5):
        for k_lo in (1, 2, 3, 6, 7, 8):
            hi = brng.binomial(trials, counts[k_hi] / trials, size=4000) / trials
            lo = brng.binomial(trials, counts[k_lo] / trials, size=4000) / trials
            assert float(np.quantile(hi - lo, 0.025)) >= 0.0

    # patch-level error rate falls with supply
    rates = []
    for vdd in (0.7, 0.8, 1.0, 1.2):
        d = DeviceParams(vdd=vdd)
        var = variation_at_device(CellVariation(rng_seed=9), d)
        rates.append(patch_error_trials(pattern_to_patch(31, 3), d, var, trials, seed=55).mean())
    assert all(a >= b for a, b in zip(rates, rates[1:])) and rates[0] > 0

    # image-level bands at the shipped calibration constant
    frames = noise_frames(64, 240, 180, p=0.35, seed=101)
    default_var = CellVariation()
    ladder = [
        measure_image_ber(frames, DeviceParams(vdd=vdd), default_var)
        for vdd in (0.7, 0.8, 1.0, 1.2)
    ]
    assert 1e-4 <= ladder[0] <= 1e-3
    assert ladder[-1] < 1e-5
    assert all(a >= b for a, b in zip(ladder, ladder[1:]))

    # refitting from scratch lands on the shipped constant and the same bands
    fit = calibrate_current_sigma(frames, low, high, CellVariation(rng_seed=0))
    assert 1e-4 <= fit.ber_low_vdd <= 1e-3
    assert fit.ber_high_vdd < 1e-5
    assert fit.sigma_i_over_mu == pytest.approx(CALIBRATED_SIGMA_I_OVER_MU, rel=0.05)

    # pattern-sweep band for the hardest pattern class
    sweep = ber_supply_sweep(3, [5], [low], default_var, trials=8, patterns=16)[0][0]
    assert 1e-3 <= sweep.ber <= 1e-2

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"criterion 4: PASS (fit sigma={fit.sigma_i_over_mu:.4f}, "
        f"image BER {ladder[0]:.2e}@0.7V -> {ladder[-1]:.1e}@1.2V, "
        f"k=5 sweep {sweep.ber:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_5_tracking_parity_between_filters(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_frames = 500\nseed = 0\n")
    assert run_cli("gen", "--kind", "traffic", "--config", cfg,
                   "--out", tmp_path / "data") == 0
    assert run_cli("track-eval", "--frames", tmp_path / "data" / "frames",
                   "--gt", tmp_path / "data" / "gt.csv",
                   "--out", tmp_path / "eval") == 0
    with open(tmp_path / "eval" / "summary.csv", newline="") as fh:
        summary = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert summary["auc_omf"] > 0.3  # the evaluation is not vacuous
    assert summary["auc_nomf"] > 0.3
    assert summary["auc_abs_diff"] < 0.05

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"criterion 5: PASS (auc omf {summary['auc_omf']:.3f} vs "
        f"nomf {summary['auc_nomf']:.3f}, diff {summary['auc_abs_diff']:.4f}, {elapsed:.1f}s)"
    )


def test_criterion_6_system_energy_savings_band():
    params = WorkloadParams()  # 51% empty frames
    constants = EnergyConstants()
    e_imc = baseline_energy("imc_nomf", params, constants, 0.7)
    e_mf = baseline_energy("mf", params, constants, 0.7)

    sweep = np.linspace(730e-9, 1700e-9, 25)
    imc_savings = []
    mf_savings = []
    for dnn in sweep:
        c = replace(constants, dnn_energy=float(dnn))
        imc_savings.append(system_energy_per_frame(params, c, e_imc).savings)
        mf_savings.append(system_energy_per_frame(params, c, e_mf).savings)

    assert all(0.50 <= s <= 0.51 for s in imc_savings)
    assert all(a < b for a, b in zip(mf_savings, mf_savings[1:]))
    assert mf_savings[0] < 0.32 < mf_savings[-1]
    assert mf_savings[0] < 0.39 < mf_savings[-1]
    print(
        f"criterion 6: PASS (in-array savings {min(imc_savings):.4f}..{max(imc_savings):.4f}; "
        f"digital baseline {mf_savings[0]:.3f}..{mf_savings[-1]:.3f} spans 0.32 and 0.39)"
    )


def test_criterion_7_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_frames = 30\nseed = 11\n")

    def run_twice(label, argv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{label}_{tag}"
            assert run_cli(*argv, "--out", out) == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1], f"{label} reruns differ"
        assert outs[0], f"{label} produced no files"

    run_twice("gen", ["gen", "--kind", "traffic", "--events", "--config", cfg])
    data = tmp_path / "gen_a"
    run_twice("denoise", ["denoise", "--frames", data / "frames",
                          "--filter", "omf", "--config", cfg])
    run_twice("denoise_ev", ["denoise", "--events", data / "events.txt",
                             "--filter", "nomf", "--config", cfg])
    run_twice("simulate", ["simulate", "--frames", data / "frames", "--config", cfg])
    run_twice("characterize", ["characterize", "--vdd", "0.7,1.2", "--k", "4,5",
                               "--trials", "2", "--patterns", "4", "--config", cfg])
    run_twice("perf", ["perf", "--config", cfg])
    run_twice("track_eval", ["track-eval", "--frames", data / "frames",
                             "--gt", data / "gt.csv", "--config", cfg])
    print("criterion 7: PASS (all six commands byte-identical across reruns)")
