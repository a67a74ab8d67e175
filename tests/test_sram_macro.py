import math
import sys
import threading
from contextlib import closing
from dataclasses import replace
from functools import partial
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import imfsim.sram_macro as sram_macro
import oracles
from helpers import filter_stack
from imfsim.config import RunConfig
from imfsim.errors import DimensionMismatchError, InvalidParamsError
from imfsim.filters import KernelSpec, nomf
from imfsim.frames import BinaryFrame
from imfsim.params import (EnergyConstants, FrameConfig, TrackerConfig, WorkloadParams,
                           threshold_voltage)
from imfsim.sram_macro import (
    DEFAULT_GEOMETRY,
    CellVariation,
    DeviceParams,
    MacroGeometry,
    ber_pattern_sweep,
    ber_supply_sweep,
    calibrate_current_sigma,
    filter_in_memory,
    init_macro,
    load_frame,
    measure_image_ber,
    pattern_to_patch,
    patch_error_trials,
    patch_sums,
    race,
    sample_cell_lottery,
    variation_at_device,
)
from imfsim.synth import noise_frames

NO_VARIATION = CellVariation(0.0, 0.0)


def uniform_lottery(device, n=3):
    cur = np.full((n, n), device.i_s_nominal)
    vtr = np.full((n, n), device.v_trip_nominal)
    return cur, vtr


def race_patch(patch, cur, vtr, device):
    """sram_macro.race on the sums of one n x n patch: (outcome bit, dt)."""
    ones = patch.astype(bool)
    outcome, dt = race(patch.shape[0], int(ones.sum()), cur[~ones].sum(), cur[ones].sum(),
                       vtr[ones].sum(), vtr[~ones].sum(), device)
    return int(outcome), float(dt)


# ---------------------------------------------------------------------------
# device model
# ---------------------------------------------------------------------------

def test_threshold_voltage_reference_points():
    assert threshold_voltage(27.0, "TT") == pytest.approx(0.35)
    assert threshold_voltage(27.0, "SS") == pytest.approx(0.40)
    assert threshold_voltage(27.0, "FF") == pytest.approx(0.30)
    assert threshold_voltage(77.0, "TT") == pytest.approx(0.30)
    assert threshold_voltage(0.0, "TT") == pytest.approx(0.377)
    with pytest.raises(InvalidParamsError):
        threshold_voltage(27.0, "tt")


def test_device_derives_overdrive_scaled_nominals():
    d = DeviceParams(vdd=0.7)
    assert d.overdrive == pytest.approx(0.35)
    assert d.v_trip_nominal == pytest.approx(0.21)
    assert d.v_trip_nominal == pytest.approx((1 - 0.7) * d.vdd)    # beta = 0.7
    assert d.i_s_nominal == pytest.approx(50e-6 * (0.35 / 0.65) ** 2)
    d12 = DeviceParams(vdd=1.2)
    assert d12.i_s_nominal == pytest.approx(50e-6 * (0.85 / 0.65) ** 2)
    explicit = DeviceParams(vdd=0.7, i_s_nominal=1e-5, v_trip_nominal=0.3)
    assert explicit.i_s_nominal == 1e-5 and explicit.v_trip_nominal == 0.3


def test_device_validation():
    with pytest.raises(InvalidParamsError):
        DeviceParams(vdd=0.3)  # no overdrive above V_T at TT
    with pytest.raises(InvalidParamsError):
        DeviceParams(vdd=0.38, corner="SS")  # V_T is 0.40 at the slow corner
    DeviceParams(vdd=0.38, corner="FF")  # 0.38 > 0.30 is fine at the fast corner
    with pytest.raises(InvalidParamsError):
        DeviceParams(vdd=0.7, delta_c=-1.0)
    with pytest.raises(InvalidParamsError):
        DeviceParams(vdd=0.7, v_trip_nominal=0.8)
    # V_T is exactly 0 here, and the derived i_s of a 1e-200 V overdrive underflows to 0
    with pytest.raises(InvalidParamsError, match="overdrive 1e-200 V is out of range"):
        DeviceParams(vdd=1e-200, temperature=327.0, corner="FF")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, field", [
    (DeviceParams, "vdd"), (DeviceParams, "temperature"), (DeviceParams, "c_bl"),
    (DeviceParams, "c_wl"), (DeviceParams, "delta_c"), (DeviceParams, "v_trip_nominal"),
    (DeviceParams, "i_s_nominal"), (CellVariation, "sigma_i_over_mu"),
    (CellVariation, "sigma_vtrip"), (EnergyConstants, "e_read"), (EnergyConstants, "e_write"),
    (EnergyConstants, "ref_vdd"), (EnergyConstants, "cap_ratio"),
    (EnergyConstants, "e_imc_pixel"), (EnergyConstants, "dnn_energy"),
    (WorkloadParams, "alpha"), (WorkloadParams, "gamma"),
    (WorkloadParams, "empty_frame_fraction"), (TrackerConfig, "iou_match_threshold"),
    (FrameConfig, "t_f"),
])
def test_a_non_finite_field_is_rejected_by_its_own_name(cls, field, value):
    with pytest.raises(InvalidParamsError) as raised:
        cls(**{field: value})
    assert str(raised.value) == f"{field} must be finite, got {value}"


def test_variation_scales_inversely_with_overdrive():
    var = CellVariation(sigma_i_over_mu=0.05, sigma_vtrip=0.004)
    eff = variation_at_device(var, DeviceParams(vdd=0.7))
    assert eff.sigma_i_over_mu == pytest.approx(0.05 * 0.65 / 0.35)
    assert eff.sigma_vtrip == 0.004  # absolute volts, not overdrive-scaled
    assert variation_at_device(var, DeviceParams(vdd=1.0)).sigma_i_over_mu == pytest.approx(0.05)
    ss = variation_at_device(var, DeviceParams(vdd=0.7, corner="SS"))
    ff = variation_at_device(var, DeviceParams(vdd=0.7, corner="FF"))
    assert ss.sigma_i_over_mu > eff.sigma_i_over_mu > ff.sigma_i_over_mu
    with pytest.raises(InvalidParamsError):
        CellVariation(-0.1)
    with pytest.raises(InvalidParamsError, match="rng_seed must be >= 0, got -1"):
        CellVariation(rng_seed=-1)


# ---------------------------------------------------------------------------
# lottery and state construction
# ---------------------------------------------------------------------------

def test_init_macro_deterministic_and_seed_sensitive():
    d = DeviceParams(vdd=0.7)
    v = CellVariation(sigma_i_over_mu=0.05, rng_seed=42)
    a = init_macro(DEFAULT_GEOMETRY, d, v)
    b = init_macro(DEFAULT_GEOMETRY, d, v)
    assert np.array_equal(a.cell_current, b.cell_current)
    assert np.array_equal(a.cell_vtrip, b.cell_vtrip)
    c = init_macro(DEFAULT_GEOMETRY, d, replace(v, rng_seed=43))
    assert not np.array_equal(a.cell_current, c.cell_current)
    assert a.cycle_count == 0 and not a.bits.any()
    assert a.bits.shape == (240, 320)


def test_zero_variation_collapses_to_nominals():
    d = DeviceParams(vdd=0.7)
    state = init_macro(MacroGeometry(rows=12, cols=15), d, NO_VARIATION)
    assert (state.cell_current == d.i_s_nominal).all()
    assert (state.cell_vtrip == d.v_trip_nominal).all()


def test_lottery_matches_documented_stream():
    d = DeviceParams(vdd=0.7)
    v = CellVariation(sigma_i_over_mu=0.3, sigma_vtrip=0.01)
    cur, vtr = sample_cell_lottery((40, 50), d, v, seed=9)
    ref_cur, ref_vtr = oracles.lottery_naive(
        (40, 50), d.i_s_nominal, 0.3, d.v_trip_nominal, 0.01, seed=9
    )
    assert np.array_equal(cur, ref_cur)
    assert np.array_equal(vtr, ref_vtr)
    sig = 0.3 * d.i_s_nominal
    assert cur.max() <= d.i_s_nominal + 4 * sig
    assert cur.min() >= d.i_s_nominal - 4 * sig
    assert (cur > 0).all() and (vtr > 0).all()


def test_lottery_mean_obeys_large_numbers():
    d = DeviceParams(vdd=1.0)
    state = init_macro(DEFAULT_GEOMETRY, d, CellVariation(0.05, 0.005, rng_seed=7))
    assert abs(state.cell_current.mean() / d.i_s_nominal - 1.0) < 0.01
    assert abs(state.cell_vtrip.mean() / d.v_trip_nominal - 1.0) < 0.01


def test_lottery_positive_under_huge_spread():
    d = DeviceParams(vdd=0.7)
    cur, _ = sample_cell_lottery((200, 200), d, CellVariation(5.0, 0.4), seed=3)
    assert (cur > 0).all()


# ---------------------------------------------------------------------------
# array operations
# ---------------------------------------------------------------------------

def test_loading_an_empty_frame_costs_the_clear_and_clears():
    d = DeviceParams()
    state = init_macro(DEFAULT_GEOMETRY, d, NO_VARIATION)
    state.bits[:] = 1
    assert load_frame(state, BinaryFrame.zeros(320, 240)) == 15  # ceil(240 / 16)
    assert not state.bits.any()
    st180 = init_macro(MacroGeometry(rows=180, cols=240), d, NO_VARIATION)
    assert load_frame(st180, BinaryFrame.zeros(240, 180)) == 12
    st17 = init_macro(MacroGeometry(rows=17, cols=8), d, NO_VARIATION)
    assert load_frame(st17, BinaryFrame.zeros(8, 17)) == 2


def test_load_frame_round_trip_and_cycle_invariant():
    rng = np.random.default_rng(2)
    geom = MacroGeometry(rows=24, cols=30)
    state = init_macro(geom, DeviceParams(vdd=0.7), NO_VARIATION)
    px = (rng.random((24, 30)) < 0.2).astype(np.uint8)
    fr = BinaryFrame(px)
    cycles = load_frame(state, fr)
    assert np.array_equal(state.bits, px)
    assert cycles == math.ceil(24 / 16) + int(px.sum())
    filter_in_memory(state, 3, DeviceParams(vdd=0.7))
    assert state.cycle_count == math.ceil(24 / 16) + int(px.sum()) + 2 * 24 // 3
    # a second frame loaded over the first leaves exactly the second frame
    before = state.cycle_count
    px2 = (rng.random((24, 30)) < 0.4).astype(np.uint8)
    assert load_frame(state, BinaryFrame(px2)) == math.ceil(24 / 16) + int(px2.sum())
    assert np.array_equal(state.bits, px2)
    assert state.cycle_count == before + math.ceil(24 / 16) + int(px2.sum())


def test_load_frame_rejects_wrong_size():
    state = init_macro(MacroGeometry(rows=24, cols=30), DeviceParams(), NO_VARIATION)
    with pytest.raises(DimensionMismatchError):
        load_frame(state, BinaryFrame.zeros(30, 23))


# ---------------------------------------------------------------------------
# the race
# ---------------------------------------------------------------------------

def test_resolve_patch_uniform_sentinels():
    # uniform patches keep their value; with no race their dt is NaN
    d = DeviceParams(vdd=0.7)
    cur, vtr = uniform_lottery(d)
    for bit in (0, 1):
        got, dt = race_patch(np.full((3, 3), bit, np.uint8), cur, vtr, d)
        assert got == bit and math.isnan(dt)


def test_resolve_patch_zero_variation_is_exact_majority():
    d = DeviceParams(vdd=0.7)
    cur, vtr = uniform_lottery(d)
    spec = KernelSpec(3)
    for pid in range(512):
        patch = pattern_to_patch(pid, 3)
        bit, dt = race_patch(patch, cur, vtr, d)
        assert bit == int(patch.sum() >= spec.threshold)
        if 0 < patch.sum() < 9:
            assert math.isfinite(dt)


def test_resolve_patch_matches_scalar_oracle():
    rng = np.random.default_rng(17)
    d = DeviceParams(vdd=0.7, delta_c=0.03)
    for _ in range(200):
        patch = (rng.random((3, 3)) < 0.5).astype(np.uint8)
        cur = rng.uniform(5e-6, 5e-5, (3, 3))
        vtr = rng.uniform(0.1, 0.3, (3, 3))
        bit, dt = race_patch(patch, cur, vtr, d)
        ref_bit, ref_dt = oracles.race_outcome_naive(patch, cur, vtr, d.c_bl, d.delta_c)
        assert bit == ref_bit
        if math.isfinite(ref_dt):
            assert dt == pytest.approx(ref_dt, rel=1e-12)


def test_resolve_patch_shape_and_parity_errors():
    d = DeviceParams()
    with pytest.raises(DimensionMismatchError):
        patch_error_trials(np.zeros((3, 2), np.uint8), d, NO_VARIATION, trials=1)
    with pytest.raises(DimensionMismatchError):
        patch_error_trials(np.zeros(9, np.uint8), d, NO_VARIATION, trials=1)
    with pytest.raises(InvalidParamsError):
        patch_error_trials(np.zeros((2, 2), np.uint8), d, NO_VARIATION, trials=1)


def test_capacitance_imbalance_slows_the_heavier_line():
    # C_BLB = 1.5 * C_BL: the ones' line trips later, so a 5-of-9 patch resolves 0
    d = DeviceParams(vdd=0.7, delta_c=0.5)
    cur, vtr = uniform_lottery(d)
    patch = pattern_to_patch(0b000011111, 3)
    bit, dt = race_patch(patch, cur, vtr, d)
    assert bit == 0 and dt < 0


# ---------------------------------------------------------------------------
# in-array filtering
# ---------------------------------------------------------------------------

def test_filter_zero_variation_equals_nomf_all_512_patterns():
    geom = MacroGeometry(rows=3, cols=3)
    d = DeviceParams(vdd=0.7)
    state = init_macro(geom, d, NO_VARIATION)
    spec = KernelSpec(3)
    for pid in range(512):
        patch = pattern_to_patch(pid, 3)
        state.bits[:, :] = patch
        report = filter_in_memory(state, 3, d)
        want = nomf(BinaryFrame(patch), spec)
        assert np.array_equal(state.bits, want.pixels)
        assert report.flips_unintended == 0
        assert report.valid_frame == int(want.pixels.any())


def test_filter_cycles_and_frame_time():
    d = DeviceParams(vdd=0.7)
    state = init_macro(DEFAULT_GEOMETRY, d, NO_VARIATION)
    report = filter_in_memory(state, 3, d)
    assert report.cycles == 160  # 2 cycles per 240/3 row groups
    st180 = init_macro(MacroGeometry(rows=180, cols=240), d, NO_VARIATION)
    r = filter_in_memory(st180, 3, d)
    assert r.cycles == 120
    assert r.cycles / 70e6 == pytest.approx(1.71e-6, rel=0.01)


def test_filter_rejects_indivisible_rows():
    d = DeviceParams()
    state = init_macro(MacroGeometry(rows=20, cols=30), d, NO_VARIATION)
    with pytest.raises(DimensionMismatchError):
        filter_in_memory(state, 3, d)


def test_filter_leftover_columns_pass_through():
    geom = MacroGeometry(rows=3, cols=5)  # 5 % 3 = 2 leftover columns
    d = DeviceParams(vdd=0.7)
    state = init_macro(geom, d, NO_VARIATION)
    state.bits[:, 3:] = 1
    report = filter_in_memory(state, 3, d)
    assert (state.bits[:, 3:] == 1).all()
    assert not state.bits[:, :3].any()
    assert report.flips_intended == 0 and report.flips_unintended == 0
    assert report.valid_frame == 1  # leftover columns still feed the OR


def test_filter_flip_accounting_single_speck():
    geom = MacroGeometry(rows=6, cols=6)
    d = DeviceParams(vdd=0.7)
    state = init_macro(geom, d, NO_VARIATION)
    state.bits[1, 1] = 1
    report = filter_in_memory(state, 3, d)
    assert report.flips_intended == 1
    assert report.flips_unintended == 0
    assert report.valid_frame == 0
    assert not state.bits.any()


def test_filter_report_reproducible():
    rng = np.random.default_rng(8)
    px = (rng.random((30, 40)) < 0.4).astype(np.uint8)
    d = DeviceParams(vdd=0.7)
    v = CellVariation(0.2, 0.01, rng_seed=5)
    reports = []
    for _ in range(2):
        state = init_macro(MacroGeometry(rows=30, cols=40), d, v)
        state.bits[:, :] = px
        reports.append(filter_in_memory(state, 3, d))
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# valid-frame sensing
# ---------------------------------------------------------------------------

def test_valid_frame_detect_levels():
    geom = MacroGeometry(rows=6, cols=6)
    d = DeviceParams(vdd=0.7)
    state = init_macro(geom, d, NO_VARIATION)
    assert filter_in_memory(state, 3, d).valid_frame == 0
    state.bits[0:3, 0:3] = 1
    assert filter_in_memory(state, 3, d).valid_frame == 1
    state.bits[:] = 0
    state.bits[0, 0] = 1   # a lone pixel is voted away, so the frame is empty
    assert filter_in_memory(state, 3, d).valid_frame == 0


# ---------------------------------------------------------------------------
# characterization
# ---------------------------------------------------------------------------

def test_macro_patch_counts():
    # (row groups, complete patches per group): 8,480 patches at n = 3, 3,072 at n = 5
    assert sram_macro._sweep_grid(3, [4], 1, 1, DEFAULT_GEOMETRY) == (80, 106)
    assert sram_macro._sweep_grid(5, [12], 1, 1, DEFAULT_GEOMETRY) == (48, 64)


def test_pattern_to_patch_layout():
    assert not pattern_to_patch(0, 3).any()
    assert pattern_to_patch(511, 3).all()
    center = pattern_to_patch(1 << 4, 3)
    assert center[1, 1] == 1 and center.sum() == 1
    corner = pattern_to_patch(1 << 8, 3)
    assert corner[2, 2] == 1 and corner.sum() == 1
    with pytest.raises(InvalidParamsError):
        pattern_to_patch(512, 3)
    with pytest.raises(InvalidParamsError):
        pattern_to_patch(-1, 3)


def test_ber_sweep_uniform_patterns_never_flip():
    d = DeviceParams(vdd=0.7)
    v = CellVariation(0.2, 0.01, rng_seed=5)
    for k in (0, 9):
        stat = ber_pattern_sweep(3, k, d, v, trials=2, patterns="all")
        assert stat.ber == 0.0
        assert stat.patches == 8480
        assert len(stat.pattern_stats) == 1


def test_ber_sweep_bookkeeping_and_validation():
    d = DeviceParams(vdd=0.7)
    stat = ber_pattern_sweep(3, 5, d, NO_VARIATION, trials=2, patterns=2)
    ids = [p.pattern_id for p in stat.pattern_stats]
    assert len(set(ids)) == 2 and ids == sorted(ids)
    assert all(int(pattern_to_patch(pid, 3).sum()) == 5 for pid in ids)
    assert all(p.trials == 2 for p in stat.pattern_stats)
    assert stat.ber == 0.0  # no mismatch, no unintended flips
    with pytest.raises(InvalidParamsError):
        ber_pattern_sweep(3, 10, d, NO_VARIATION)
    with pytest.raises(InvalidParamsError):
        ber_pattern_sweep(3, 5, d, NO_VARIATION, trials=0)
    with pytest.raises(InvalidParamsError):
        ber_pattern_sweep(3, 5, d, NO_VARIATION, patterns=0)


@pytest.mark.parametrize("patterns", ["some", 2.5, True], ids=["str", "float", "bool"])
def test_ber_sweep_rejects_a_pattern_count_that_is_not_an_int(patterns):
    with pytest.raises(InvalidParamsError, match="patterns"):
        ber_pattern_sweep(3, 4, DeviceParams(vdd=0.7), NO_VARIATION, trials=1,
                          patterns=patterns, geometry=MacroGeometry(rows=3, cols=3))


@pytest.mark.parametrize("sweep", ["supply", "pattern"])
def test_ber_sweeps_reject_a_geometry_without_a_complete_patch(sweep):
    d, geometry = DeviceParams(vdd=0.7), MacroGeometry(rows=3, cols=2)
    with pytest.raises(DimensionMismatchError, match="cols 2 hold no complete patch of n=3"):
        if sweep == "supply":
            ber_supply_sweep(3, [4], [d], CellVariation(), trials=1, patterns=1,
                             geometry=geometry)
        else:
            ber_pattern_sweep(3, 4, d, CellVariation(), trials=1, patterns=1,
                              geometry=geometry)


def test_ber_sweep_sampled_patterns_deterministic():
    d = DeviceParams(vdd=0.7)
    v = CellVariation(0.1, 0.005, rng_seed=9)
    geom = MacroGeometry(rows=30, cols=30)
    a = ber_pattern_sweep(3, 4, d, v, trials=2, patterns=6, geometry=geom)
    b = ber_pattern_sweep(3, 4, d, v, trials=2, patterns=6, geometry=geom)
    assert a == b
    assert len(a.pattern_stats) == 6
    assert all(int(pattern_to_patch(p.pattern_id, 3).sum()) == 4 for p in a.pattern_stats)


def test_patch_error_trials_matches_duplicate_implementation():
    d = DeviceParams(vdd=0.7)
    patch = pattern_to_patch(0b000011111, 3)
    for sigma in (0.05, 0.3):
        v = CellVariation(sigma, 0.005)
        errors = patch_error_trials(patch, d, v, trials=8000, seed=21)
        cur, vtr = oracles.lottery_naive(
            (8000, 3, 3), d.i_s_nominal, sigma, d.v_trip_nominal, 0.005, seed=21
        )
        ref = sum(
            oracles.race_outcome_naive(patch, cur[t], vtr[t], d.c_bl, 0.0)[0] != 1
            for t in range(8000)
        )
        assert int(errors.sum()) == ref


def test_patch_error_trials_seed_defaults_to_variation_seed():
    d = DeviceParams(vdd=0.7)
    v = CellVariation(0.3, 0.005, rng_seed=77)
    patch = pattern_to_patch(31, 3)
    a = patch_error_trials(patch, d, v, trials=500)
    b = patch_error_trials(patch, d, v, trials=500, seed=77)
    assert np.array_equal(a, b)


def test_measure_image_ber_zero_variation_is_zero():
    rng = np.random.default_rng(6)
    frames = [
        BinaryFrame((rng.random((30, 30)) < 0.5).astype(np.uint8)) for _ in range(5)
    ]
    d = DeviceParams(vdd=0.7)
    assert measure_image_ber(frames, d, NO_VARIATION) == 0.0
    with pytest.raises(InvalidParamsError):
        measure_image_ber([], d, NO_VARIATION)


def test_measure_image_ber_matches_the_oracle():
    d, v = DeviceParams(vdd=0.8, delta_c=0.03), CellVariation(0.2, 0.02, rng_seed=11)
    eff = variation_at_device(v, d)
    rng = np.random.default_rng(4)
    pixels = [(rng.random(shape) < 0.45).astype(np.uint8)
              for shape in [(30, 31), (24, 17), (30, 31)]]
    flips = 0
    for i, px in enumerate(pixels):
        cur, vtr = oracles.lottery_naive(px.shape, d.i_s_nominal, eff.sigma_i_over_mu,
                                         d.v_trip_nominal, eff.sigma_vtrip, 11 + i)
        flips += oracles.filter_in_memory_naive(px, cur, vtr, 3, d.c_bl, d.delta_c)[2]
    assert flips > 0
    assert measure_image_ber([BinaryFrame(px) for px in pixels], d, v, 3) == flips / sum(
        px.size for px in pixels)

    # a later frame whose rows are not a multiple of n raises, and leaves no thread
    before = threading.active_count()
    with pytest.raises(DimensionMismatchError, match="rows 20 not divisible by n=3") as raised:
        measure_image_ber([BinaryFrame(pixels[0]), BinaryFrame.zeros(9, 20)], d, v, 3)
    assert threading.active_count() == before   # joined while the traceback holds the frame


def test_calibrate_rejects_bad_bounds(monkeypatch):
    d = DeviceParams(vdd=0.7)
    frames = [BinaryFrame.zeros(6, 6)]
    with pytest.raises(InvalidParamsError):
        calibrate_current_sigma(frames, d, DeviceParams(vdd=1.2), NO_VARIATION, sigma_bounds=(0.5, 0.5))

    def drawn(*args):
        raise AssertionError("a lottery was drawn")

    monkeypatch.setattr(sram_macro, "_standard_draws", drawn)
    for bad in [dict(target_ber=math.nan), dict(target_ber=-1.0), dict(target_ber=0.0),
                dict(target_ber=1.0), dict(target_ber=2.0), dict(iters=-3),
                dict(sigma_bounds=(2e-3, math.inf)), dict(sigma_bounds=(math.nan, 0.5)),
                dict(sigma_bounds=(2e-3, math.nan))]:
        with pytest.raises(InvalidParamsError):
            calibrate_current_sigma(frames, d, DeviceParams(vdd=1.2), NO_VARIATION, **bad)


# ---------------------------------------------------------------------------
# the fast kernels against the code they replaced
# ---------------------------------------------------------------------------

@given(
    n=st.sampled_from([3, 5]),
    groups=st.integers(1, 6),
    per_group=st.integers(1, 12),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_patch_sums_bitwise_equal_numpy_sum(n, groups, per_group, extra, seed):
    rng = np.random.default_rng(seed)
    cols = per_group * n + extra % n
    a = rng.standard_normal((groups * n, cols)) * 10.0 ** rng.integers(-12, 3, (groups * n, cols))
    a[rng.random(a.shape) < 0.4] = 0.0
    used = per_group * n
    want = np.ascontiguousarray(a[:, :used]).reshape(groups, n, per_group, n).sum(axis=(1, 3))
    assert np.array_equal(patch_sums(a, n), want)


@given(
    n=st.sampled_from([3, 5]),
    groups=st.integers(1, 5),
    cols=st.integers(3, 40),
    density=st.floats(0.0, 1.0),
    sigma=st.sampled_from([0.0, 0.05, 0.3, 2.0]),
    delta_c=st.sampled_from([0.0, 0.04, -0.2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_in_memory_matches_replaced_code(n, groups, cols, density, sigma, delta_c, seed):
    geom = MacroGeometry(rows=groups * n, cols=max(cols, n))
    d = DeviceParams(vdd=0.7, delta_c=delta_c)
    state = init_macro(geom, d, CellVariation(sigma, 0.01, rng_seed=seed))
    rng = np.random.default_rng(seed)
    state.bits[:, :] = rng.random(state.bits.shape) < density
    want_bits, want_int, want_un, want_cycles = oracles.filter_in_memory_naive(
        state.bits.copy(), state.cell_current, state.cell_vtrip, n, d.c_bl, d.delta_c
    )
    report = filter_in_memory(state, n, d)
    assert np.array_equal(state.bits, want_bits)
    assert (report.flips_intended, report.flips_unintended) == (want_int, want_un)
    assert report.cycles == want_cycles == state.cycle_count
    assert report.valid_frame == int(want_bits.any())


@given(
    count=st.integers(1, 5),
    n=st.sampled_from([3, 5, 7]),
    groups=st.integers(1, 3),
    data=st.data(),
    density=st.floats(0.0, 1.0),
    sigma=st.sampled_from([0.0, 0.05, 0.3]),
    first_seed=st.integers(0, 2**63),
)
def test_filter_stack_matches_per_frame_macro_and_oracle(
        count, n, groups, data, density, sigma, first_seed):
    # Widths below n hold no patch; n to 2n - 1 one patch per group, which
    # patch_sums sums as one run of n^2; the rest leave partial edge columns.
    height, width = groups * n, data.draw(st.integers(1, 4 * n + 2), label="width")
    d = DeviceParams(vdd=0.7, delta_c=0.02)
    v = CellVariation(sigma, 0.01)
    rng = np.random.default_rng(first_seed % 2**32)
    frames = (rng.random((count, height, width)) < density).astype(np.uint8)
    stack = frames.copy()
    reports = filter_stack(stack, first_seed, d, v, n)
    assert len(reports) == count
    for i, (px, got, report) in enumerate(zip(frames, stack, reports)):
        state = init_macro(MacroGeometry(rows=height, cols=width), d,
                           replace(v, rng_seed=first_seed + i))
        load_frame(state, BinaryFrame(px))
        want = filter_in_memory(state, n, d)
        assert np.array_equal(got, state.bits)
        assert report == (int(px.sum()), int(got.sum()), want.valid_frame,
                          want.flips_intended, want.flips_unintended,
                          want.flips_unintended / px.size, state.cycle_count)

        cur, vtr = oracles.lottery_naive((height, width), d.i_s_nominal, sigma,
                                         d.v_trip_nominal, 0.01, first_seed + i)
        bits, intended, unintended, filter_cycles = oracles.filter_in_memory_naive(
            px, cur, vtr, n, d.c_bl, d.delta_c)
        assert np.array_equal(got, bits)
        assert report == (int(px.sum()), int(bits.sum()), int(bits.any()), intended, unintended,
                          unintended / px.size,
                          math.ceil(height / 16) + int(px.sum()) + filter_cycles)


def test_filter_stack_loses_no_frame_with_more_threads_than_cores():
    rng = np.random.default_rng(3)
    frames = (rng.random((32, 24, 40)) < 0.5).astype(np.uint8)
    d, v = DeviceParams(vdd=0.7), CellVariation(0.3, 0.01)
    want = frames.copy()    # one frame per call: each lottery is drawn before its race
    want_reports = [filter_stack(want[i:i + 1], 11 + i, d, v, 3)[0]
                    for i in range(len(want))]
    got, result = frames.copy(), {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter allows
    try:
        caller = threading.Thread(target=lambda: result.update(
            reports=filter_stack(got, 11, d, v, 3)))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert result["reports"] == want_reports
    assert np.array_equal(got, want)


def test_lottery_stream_draws_into_two_buffers_per_shape():
    # each lottery holds its seed's draws when it is yielded, though its
    # buffer held the lottery two earlier, scaled in place as callers may
    shapes = [(6, 9)] * 7 + [(9, 12)] * 5
    got = []
    with closing(sram_macro.lottery_stream(iter(shapes), 4)) as lotteries:
        for i, (shape, z) in enumerate(zip(shapes, lotteries)):
            assert np.array_equal(z, sram_macro._standard_draws(shape, 4 + i)), i
            z *= 1e3
            got.append(z)
    assert len(got) == len(shapes)
    assert len({id(z) for z in got[:7]}) == 2       # all still referenced, so ids are distinct
    assert len({id(z) for z in got}) == 4           # a new pair only for the new shape

    with closing(sram_macro.lottery_stream(repeat((3, 4), 40), 0)) as lotteries:
        got = list(lotteries)
    assert len(got) == 40 and len({id(z) for z in got}) == 2


def test_filter_stack_joins_its_draw_thread(monkeypatch):
    rng = np.random.default_rng(4)
    frames = (rng.random((5, 12, 20)) < 0.5).astype(np.uint8)
    args = (7, DeviceParams(vdd=0.7), CellVariation(0.3, 0.01), 3)
    calls = []
    race_in_place = sram_macro._race_in_place

    def failing(*a):
        calls.append(a)
        if len(calls) == 3:
            raise RuntimeError("third frame")
        return race_in_place(*a)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter allows
    try:
        filter_stack(frames.copy(), *args)
        assert threading.active_count() == before
        monkeypatch.setattr(sram_macro, "_race_in_place", failing)
        with pytest.raises(RuntimeError, match="third frame") as raised:
            filter_stack(frames.copy(), *args)
        assert threading.active_count() == before   # joined while the traceback holds the frame
        assert len(calls) == 3
    finally:
        sys.setswitchinterval(interval)


def _chunks_of(frames, raise_at=None):
    """(first index, stack) chunks of two frames each, raising at chunk raise_at."""
    for c, first in enumerate(range(0, len(frames), 2)):
        if c == raise_at:
            raise OSError("chunk source failed")
        yield first, frames[first:first + 2].copy()


def test_simulate_generator_joins_its_lottery_worker_by_itself():
    frames = (np.random.default_rng(5).random((6, 12, 18)) < 0.5).astype(np.uint8)
    cfg = RunConfig(sigma_i_over_mu=0.3, seed=9)
    before = threading.active_count()
    whole = list(sram_macro.simulate(cfg, _chunks_of(frames)))
    assert [first for first, _, _ in whole] == [0, 2, 4]
    assert [row[0] for _, _, rows in whole for row in rows] == list(range(6))
    assert threading.active_count() == before

    run = sram_macro.simulate(cfg, _chunks_of(frames))
    first, stack, rows = next(run)
    assert threading.active_count() == before + 1     # the stream's worker draws ahead
    assert (first, len(rows)) == (0, 2) and np.array_equal(stack, whole[0][1])
    assert rows == whole[0][2]
    run.close()
    assert threading.active_count() == before

    run = sram_macro.simulate(cfg, _chunks_of(frames, raise_at=1))
    assert next(run)[2] == whole[0][2]
    assert threading.active_count() == before + 1
    with pytest.raises(OSError, match="chunk source failed") as raised:
        next(run)
    assert threading.active_count() == before   # joined while the traceback holds the frame
    assert raised.traceback


# (n, rows, cols, (patterns, ks) runs)
SWEEP_CASES = [
    (3, 9, 14, ((4, [3, 4, 5]), ("all", [4]))),     # 14 % 3 = 2 leftover columns
    (3, 6, 5, ((4, [3, 5, 9]),)),                   # cols < 2n: one patch per group
    (5, 10, 23, ((3, [0, 12, 13, 24]),)),
    (5, 5, 9, ((3, [12, 13]),)),                    # n = 5, one patch per group
    (9, 9, 20, ((2, [40, 41]),)),                   # n > 8: patch rows summed pairwise
]
# (supplies, reference variation, whether each supply races directly)
SUPPLY_CASES = [
    # effective spreads 0.557 and 0.229, on either side of _LINEAR_MAX_SPREAD
    ((DeviceParams(vdd=0.7), DeviceParams(vdd=1.2, delta_c=0.02)),
     CellVariation(0.3, 0.01, rng_seed=4), (True, False)),
    ((DeviceParams(vdd=1.1), DeviceParams(vdd=1.2)), CellVariation(0.3, 0.01, rng_seed=4),
     (True, False)),
    # i_s - 4 sigma_i passes the current floor, which about 5% of currents take
    ((DeviceParams(vdd=1.0, i_s_nominal=1.5e-12), DeviceParams(vdd=1.0)),
     CellVariation(0.2, 0.01, rng_seed=5), (True, False)),
    # 0.36 V trip points with a 0.2 V spread: about 4% take the trip-point floor
    ((DeviceParams(vdd=1.2, delta_c=-0.05),), CellVariation(0.1, 0.2, rng_seed=6), (True,)),
    # 1.2 nV trip points with a 0.1 nV spread: within the spread limit, but about
    # 2% take the trip-point floor
    ((DeviceParams(vdd=1.2, v_trip_nominal=1.2e-9),), CellVariation(0.25, 1e-10, rng_seed=8),
     (True,)),
    # C_BLB imbalances that leave the k = 5 (0.25) or k = 4 (-0.2) races balanced,
    # so about half of those go to the minority
    ((DeviceParams(vdd=0.8, delta_c=0.25), DeviceParams(vdd=1.0, delta_c=-0.2)),
     CellVariation(0.1, 0.005, rng_seed=7), (False, False)),
]


def test_supply_sweep_equals_separate_naive_sweeps():
    for case in SWEEP_CASES:
        _check_supply_sweep(*case, *SUPPLY_CASES[0][:2])


@pytest.fixture
def raced(monkeypatch):
    """The device of every direct race run through sram_macro.race."""
    devices = []
    direct = sram_macro.race

    def counted(*args):
        devices.append(args[-1])
        return direct(*args)

    monkeypatch.setattr(sram_macro, "race", counted)
    return devices


@pytest.mark.parametrize("supplies, ref, direct", SUPPLY_CASES)
def test_supply_sweep_race_paths_agree(raced, supplies, ref, direct):
    for case in (SWEEP_CASES[0], SWEEP_CASES[2]):
        _check_supply_sweep(*case, supplies, ref)
    raced.clear()       # the per-state ber_pattern_sweep of the checks races every patch
    ber_supply_sweep(3, [3, 4, 5], supplies, ref, trials=3, patterns=4,
                     geometry=MacroGeometry(rows=9, cols=14))
    assert tuple(d in raced for d in supplies) == direct


def _check_supply_sweep(n, rows, cols, runs, supplies, ref):
    geom = MacroGeometry(rows=rows, cols=cols)
    flipped = 0
    for patterns, ks in runs:
        got = ber_supply_sweep(n, ks, supplies, ref, trials=3, patterns=patterns, geometry=geom)
        assert len(got) == len(supplies)
        for d, per_k in zip(supplies, got):
            var = variation_at_device(ref, d)
            for k, stat in zip(ks, per_k):
                assert stat == ber_pattern_sweep(n, k, d, ref, trials=3, patterns=patterns,
                                                 geometry=geom)
                ids = [ps.pattern_id for ps in stat.pattern_stats]
                want = oracles.pattern_sweep_naive(
                    n, ids, (rows, cols), d.i_s_nominal, var.sigma_i_over_mu, d.v_trip_nominal,
                    var.sigma_vtrip, d.c_bl, d.delta_c, 3, var.rng_seed,
                )
                assert [ps.flips for ps in stat.pattern_stats] == want
                assert stat.ber == sum(want) / (stat.patches * 3 * len(ids))
                flipped += sum(want)
    assert flipped > 0


def test_supply_sweep_draws_each_lottery_once(monkeypatch):
    draws = []
    standard_draws = sram_macro._standard_draws

    def counted(shape, seed, out=None):
        draws.append(seed)
        return standard_draws(shape, seed, out)

    monkeypatch.setattr(sram_macro, "_standard_draws", counted)
    supplies = [DeviceParams(vdd=0.7), DeviceParams(vdd=1.2)]
    got = ber_supply_sweep(3, [4, 5], supplies, CellVariation(0.3, 0.01, rng_seed=7), trials=2,
                           patterns=3, geometry=MacroGeometry(rows=6, cols=9))
    assert [[len(stat.pattern_stats) for stat in per_k] for per_k in got] == [[3, 3], [3, 3]]
    assert draws == list(range(7, 7 + 3 * 2))


def test_default_supply_sweep_races_nothing_directly(raced):
    ber_supply_sweep(3, [4, 5], [DeviceParams(vdd=v) for v in (0.7, 0.8, 1.0, 1.2)],
                     CellVariation())
    assert raced == []


def test_supply_sweep_joins_its_draw_thread(monkeypatch):
    args = (3, [4], [DeviceParams(vdd=0.7), DeviceParams(vdd=1.2)],
            CellVariation(0.3, 0.01, rng_seed=2))
    kwargs = dict(trials=2, patterns=3, geometry=MacroGeometry(rows=12, cols=20))
    want = ber_supply_sweep(*args, **kwargs)
    calls = []
    race_margin = sram_macro._race_margin

    def failing(*a):
        calls.append(a)
        if len(calls) == 3:     # one call per lottery, at 1.2 V: 0.7 V races directly
            raise RuntimeError("third lottery")
        return race_margin(*a)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter allows
    try:
        assert ber_supply_sweep(*args, **kwargs) == want
        assert threading.active_count() == before
        monkeypatch.setattr(sram_macro, "_race_margin", failing)
        with pytest.raises(RuntimeError, match="third lottery") as raised:
            ber_supply_sweep(*args, **kwargs)
        assert threading.active_count() == before   # joined while the traceback holds the frame
    finally:
        sys.setswitchinterval(interval)


def test_supply_sweep_races_a_patch_in_the_tie_band_directly(monkeypatch):
    # one lottery of one 3 x 3 patch holding a 4-ones pattern
    variation, geometry = CellVariation(0.05, 0.01), MacroGeometry(rows=3, cols=3)

    def sweep(delta_c, form="banded"):
        with monkeypatch.context() as m:
            if form == "direct":
                m.setattr(sram_macro, "_closed_form_holds", lambda *args: False)
            elif form == "unbanded":
                m.setattr(sram_macro, "_RACE_RTOL", 0.0)
            return ber_supply_sweep(3, [4], [DeviceParams(vdd=0.7, delta_c=delta_c)],
                                    variation, trials=1, patterns=1, geometry=geometry)

    # bisect delta_c to the two adjacent doubles across the direct race's tie
    lo, hi = -0.9, 0.9
    below = sweep(lo, "direct")
    assert sweep(hi, "direct") != below
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if sweep(mid, "direct") == below else (lo, mid)
    # step away from the tie until the sign of f alone disagrees with the race
    up, down = [hi], [lo]
    for _ in range(63):
        up.append(np.nextafter(up[-1], 1.0))
        down.append(np.nextafter(down[-1], -1.0))
    delta_c = next((x for pair in zip(up, down) for x in pair
                    if sweep(x, "unbanded") != sweep(x, "direct")), None)
    assert delta_c is not None, "no delta_c near the tie where f's sign misleads"
    assert sweep(delta_c) == sweep(delta_c, "direct")


# ---------------------------------------------------------------------------
# closed-form calibration against the direct bisection
# ---------------------------------------------------------------------------

def _noise(count, h, w, p, seed):
    rng = np.random.default_rng(seed)
    return [BinaryFrame((rng.random((h, w)) < p).astype(np.uint8)) for _ in range(count)]


def _uniform_patches(count, h, w, seed):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(count):
        tiles = (rng.random((h // 3, -(-w // 3))) < 0.5).astype(np.uint8)
        frames.append(BinaryFrame(tiles.repeat(3, axis=0).repeat(3, axis=1)[:, :w]))
    return frames


def _direct_fit(frames, low, high, var, target, bounds, iters):
    fitted = oracles.bisect_sigma(
        lambda s: measure_image_ber(frames, low, replace(var, sigma_i_over_mu=s)),
        bounds, target, iters,
    )
    at = replace(var, sigma_i_over_mu=fitted)
    return fitted, measure_image_ber(frames, low, at), measure_image_ber(frames, high, at)


@pytest.fixture
def ber_calls(monkeypatch):
    calls = []
    direct = sram_macro.measure_image_ber

    def counted(*args, **kwargs):
        calls.append(args[2].sigma_i_over_mu)
        return direct(*args, **kwargs)

    monkeypatch.setattr(sram_macro, "measure_image_ber", counted)
    return calls


@pytest.mark.parametrize(
    "frames, low, var, target, bounds, closed_form",
    [
        (_noise(4, 30, 32, 0.4, 1), DeviceParams(vdd=0.7), CellVariation(rng_seed=3),
         2e-3, (2e-3, 0.5), True),
        (_noise(3, 27, 30, 0.5, 2), DeviceParams(vdd=0.7, delta_c=0.05),
         CellVariation(sigma_vtrip=0.01, rng_seed=8), 5e-3, (2e-3, 0.5), True),
        (_noise(3, 24, 25, 0.45, 3), DeviceParams(vdd=0.8, delta_c=-0.03),
         CellVariation(rng_seed=1), 1e-2, (1e-3, 0.2), True),
        # sigma_eff passes 0.25, where the current floor applies: direct steps
        (_noise(3, 30, 30, 0.5, 4), DeviceParams(vdd=0.7), CellVariation(rng_seed=5),
         0.2, (0.05, 3.0), False),
        # only uniform patches: no race, BER 0 at every spread
        (_uniform_patches(3, 30, 31, 5), DeviceParams(vdd=0.7), CellVariation(rng_seed=6),
         2e-4, (2e-3, 0.1), True),
        (_uniform_patches(2, 30, 30, 6), DeviceParams(vdd=0.7), CellVariation(rng_seed=6),
         2e-4, (2e-3, 0.5), False),
        # i_s - 4 sigma_i reaches the current floor from sigma_eff = 0.042
        (_noise(4, 30, 30, 0.45, 1), DeviceParams(vdd=0.7, i_s_nominal=1.2e-12),
         CellVariation(rng_seed=3), 2e-2, (2e-3, 0.13), False),
    ],
)
def test_closed_form_calibration_is_the_direct_bisection(
    ber_calls, frames, low, var, target, bounds, closed_form
):
    high = DeviceParams(vdd=1.2, delta_c=low.delta_c)
    fit = calibrate_current_sigma(frames, low, high, var, target_ber=target,
                                  sigma_bounds=bounds, iters=18)
    direct = len(ber_calls)
    assert (fit.sigma_i_over_mu, fit.ber_low_vdd, fit.ber_high_vdd) == _direct_fit(
        frames, low, high, var, target, bounds, 18
    )
    assert direct == 0 if closed_form else direct > 0


def test_calibration_draws_each_frame_once(monkeypatch):
    frames = _noise(5, 30, 32, 0.4, 1)
    draws = []
    standard_draws = sram_macro._standard_draws

    def counted(shape, seed, out=None):
        draws.append(seed)
        return standard_draws(shape, seed, out)

    monkeypatch.setattr(sram_macro, "_standard_draws", counted)
    calibrate_current_sigma(frames, DeviceParams(vdd=0.7), DeviceParams(vdd=1.2),
                            CellVariation(rng_seed=3), target_ber=2e-3)
    assert draws == [3, 4, 5, 6, 7]


def test_calibration_result_is_pinned():
    # recorded before calibration drew each frame once for both supplies
    fit = calibrate_current_sigma(noise_frames(8, 60, 48, 0.35, 3), DeviceParams(vdd=0.7),
                                  DeviceParams(vdd=0.8), CellVariation(rng_seed=3),
                                  target_ber=3e-2)
    assert (fit.sigma_i_over_mu, fit.ber_low_vdd, fit.ber_high_vdd) == (
        0.12510008551582283, 0.030078125, 0.016796875)


def test_calibration_on_frames_of_two_shapes_is_pinned():
    rng = np.random.default_rng(1)
    frames = [BinaryFrame((rng.random(shape) < 0.45).astype(np.uint8))
              for shape in [(30, 30), (24, 33), (30, 30)]]
    fit = calibrate_current_sigma(frames, DeviceParams(vdd=0.7), DeviceParams(vdd=1.2),
                                  CellVariation(rng_seed=3), target_ber=2e-2)
    assert (fit.sigma_i_over_mu, fit.ber_low_vdd, fit.ber_high_vdd) == (
        0.09788328012603692, 0.017361111111111112, 0.0)


def test_calibration_joins_its_draw_thread(monkeypatch):
    frames = _noise(5, 12, 20, 0.45, 4)
    args = (DeviceParams(vdd=0.7), DeviceParams(vdd=1.2), CellVariation(rng_seed=2))
    want = calibrate_current_sigma(frames, *args, target_ber=2e-2)
    calls = []
    race_margin = sram_macro._race_margin

    def failing(*a):
        calls.append(a)
        if len(calls) == 9:     # two supplies, two spreads each: the third frame's first
            raise RuntimeError("third frame")
        return race_margin(*a)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter allows
    try:
        assert calibrate_current_sigma(frames, *args, target_ber=2e-2) == want
        assert threading.active_count() == before
        monkeypatch.setattr(sram_macro, "_race_margin", failing)
        with pytest.raises(RuntimeError, match="third frame") as raised:
            calibrate_current_sigma(frames, *args, target_ber=2e-2)
        assert threading.active_count() == before   # joined while the traceback holds the frame
        assert len(calls) == 9
    finally:
        sys.setswitchinterval(interval)


def test_calibration_refuses_a_spread_at_a_critical_point(ber_calls):
    frames = _noise(2, 30, 30, 0.45, 9)
    low, high, var = DeviceParams(vdd=0.7), DeviceParams(vdd=1.2), CellVariation(rng_seed=2)
    # f = a + s*b for each mixed patch of frame 0, on its lottery
    ones = frames[0].pixels != 0
    k = sram_macro.patch_sums(ones.astype(np.intp), 3)
    mixed = (k > 0) & (k < 9)
    sums = np.stack([sram_macro._split_sums(planes, ones, 3)
                     for planes in sram_macro._standard_draws((30, 30), 2)], axis=1)[:, :, mixed]
    a, _ = sram_macro._race_margin(sums, k[mixed], 9, low, 0.0, var.sigma_vtrip)
    b = sram_macro._race_margin(sums, k[mixed], 9, low, 1.0, var.sigma_vtrip)[0] - a
    crit = -a / b
    crit = crit[(crit > 0.02) & (crit < 0.19)]
    assert crit.size
    # the reference sigma whose effective spread at 0.7 V is a critical spread
    sigma = float(crit[crit.size // 2]) / variation_at_device(
        replace(var, sigma_i_over_mu=1.0), low).sigma_i_over_mu
    bounds = (sigma / 1.5, sigma * 1.5)
    fit = calibrate_current_sigma(frames, low, high, var, target_ber=2e-3, sigma_bounds=bounds,
                                  iters=8)
    assert ber_calls[:1] == [math.sqrt(bounds[0] * bounds[1])]     # the first step runs directly
    assert (fit.sigma_i_over_mu, fit.ber_low_vdd, fit.ber_high_vdd) == _direct_fit(
        frames, low, high, var, 2e-3, bounds, 8)


def test_calibration_settles_no_patch_in_the_tie_band(monkeypatch):
    # one frame of one mixed 3 x 3 patch; a bracket of two adjacent doubles, so that f
    # keeps its sign over it and every spread the bisection tries sits at the tie
    frames, var = [BinaryFrame(pattern_to_patch(0b000101011, 3))], CellVariation(0.05, 0.01, 4)
    bounds = (0.05, float(np.nextafter(0.05, 1.0)))

    def calibrate(delta_c, form="banded"):
        with monkeypatch.context() as m:
            if form == "direct":
                m.setattr(sram_macro, "_closed_form_holds", lambda *args: False)
            elif form == "unbanded":
                m.setattr(sram_macro, "_RACE_RTOL", 0.0)
            return calibrate_current_sigma(
                frames, DeviceParams(vdd=0.7, delta_c=delta_c),
                DeviceParams(vdd=1.2, delta_c=delta_c), var, target_ber=0.5,
                sigma_bounds=bounds, iters=3)

    # bisect delta_c to the two adjacent doubles across the direct calibration's tie
    lo, hi = -0.9, 0.9
    below = calibrate(lo, "direct")
    assert calibrate(hi, "direct") != below
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if calibrate(mid, "direct") == below else (lo, mid)
    # step away from the tie until the sign of f alone disagrees with the race
    up, down = [hi], [lo]
    for _ in range(63):
        up.append(np.nextafter(up[-1], 1.0))
        down.append(np.nextafter(down[-1], -1.0))
    delta_c = next((x for pair in zip(up, down) for x in pair
                    if calibrate(x, "unbanded") != calibrate(x, "direct")), None)
    assert delta_c is not None, "no delta_c near the tie where f's sign misleads"
    assert calibrate(delta_c) == calibrate(delta_c, "direct")


@settings(max_examples=25)
@given(
    i_s=st.one_of(st.none(), st.floats(1e-12, 1.5e-12)),   # None: the overdrive default
    v_trip=st.one_of(st.none(), st.floats(1e-9, 2e-9)),    # None: 0.3 vdd
    delta_c=st.floats(-0.3, 0.3),
    trip_spread=st.floats(0.0, 0.4),    # sigma_vtrip over the 0.7 V nominal trip point
    spread=st.floats(0.02, 0.25),   # effective 0.037 to 0.46 at 0.7 V, 0.015 to 0.19 at 1.2 V
    seed=st.integers(0, 2**16),
)
@example(i_s=None, v_trip=None, delta_c=0.0, trip_spread=0.05, spread=0.05, seed=0)
@example(i_s=1.2e-12, v_trip=None, delta_c=0.0, trip_spread=0.05, spread=0.1, seed=0)
def test_closed_forms_equal_the_direct_race(i_s, v_trip, delta_c, trip_spread, spread, seed):
    frames = _noise(2, 9, 12, 0.45, seed)
    supplies = [DeviceParams(vdd=v, delta_c=delta_c, i_s_nominal=i_s, v_trip_nominal=v_trip)
                for v in (0.7, 1.2)]
    ref = CellVariation(spread, trip_spread * supplies[0].v_trip_nominal, rng_seed=seed)
    bounds = (0.5 * spread, 2 * spread)
    for target in (2e-2, 1e-1):
        fit = calibrate_current_sigma(frames, *supplies, ref, target_ber=target,
                                      sigma_bounds=bounds, iters=8)
        assert (fit.sigma_i_over_mu, fit.ber_low_vdd, fit.ber_high_vdd) == _direct_fit(
            frames, *supplies, ref, target, bounds, 8)
    sweep = partial(ber_supply_sweep, 3, [3, 4, 5], supplies, ref, trials=2, patterns=3,
                    geometry=MacroGeometry(rows=9, cols=14))
    got = sweep()
    with pytest.MonkeyPatch.context() as m:     # every race direct
        m.setattr(sram_macro, "_closed_form_holds", lambda *args: False)
        assert got == sweep()


def test_closed_form_holds_up_to_the_linear_spread_limit():
    # at the default device the current-floor clause alone holds to s = 0.249,
    # so these two spreads are decided by _LINEAR_MAX_SPREAD alone
    device, trips = DeviceParams(), (-4.0, 4.0)
    assert sram_macro._closed_form_holds(device, 0.24, 0.0, trips)
    assert not sram_macro._closed_form_holds(device, 0.2401, 0.0, trips)
    assert device.i_s_nominal - 4.0 * (0.2401 * device.i_s_nominal) > sram_macro._CURRENT_FLOOR


@pytest.mark.parametrize("trips", [(-1.0, 4.0), (-4.0, 1.0)])
def test_closed_form_declines_a_trip_spread_past_0_96_of_nominal(trips):
    device = DeviceParams()
    v_nom = device.v_trip_nominal
    reach = max(-trips[0], trips[1])
    for past, holds in ((-1e-9, True), (1e-9, False)):
        sigma_vtrip = 0.96 * v_nom * (1 + past) / reach
        # every trip point stays above its floor: only the spread clause can decline
        assert trips[0] * sigma_vtrip + v_nom > sram_macro._VTRIP_FLOOR
        assert sram_macro._closed_form_holds(device, 0.1, sigma_vtrip, trips) is holds
