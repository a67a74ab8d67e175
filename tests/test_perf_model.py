import re

import pytest

from imfsim.errors import DimensionMismatchError, InvalidParamsError
from imfsim.perf_model import (
    BITFLIP_CURRENT_FRACTION,
    EnergyConstants,
    FilterCost,
    WorkloadParams,
    baseline_energy,
    digital_latency,
    imc_current,
    op_counts,
    rho_lambda_bound,
    system_energy_per_frame,
    throughput_efficiency,
)
from imfsim.sram_macro import DeviceParams

DEFAULTS = WorkloadParams()  # 240x180, n=3, alpha=0.015, beta_t=16, gamma=0.127


# ---------------------------------------------------------------------------
# operation counts
# ---------------------------------------------------------------------------

def test_op_counts_default_workload():
    # ceil(16 * 0.127 * 9 * 43200), ceil(16 * 0.127 * 43200), ceil(0.127 * 9 * 43200)
    assert op_counts("nn_filt", DEFAULTS) == FilterCost(
        reads=790042, writes=87783, logic_ops=49378, cells=691200
    )
    assert op_counts("median_filter", DEFAULTS) == FilterCost(
        reads=388800, writes=43200, logic_ops=388800, cells=86400
    )
    assert op_counts("nomf", DEFAULTS) == FilterCost(
        reads=43200, writes=43200, logic_ops=43200, cells=43200
    )
    assert op_counts("nomf_imc", DEFAULTS) == FilterCost(
        reads=14400, writes=648, logic_ops=0, cells=43200
    )


def test_op_counts_nn_filt_to_imc_write_ratio():
    # beta_t * gamma / alpha with the default coefficients
    nn = op_counts("nn_filt", DEFAULTS)
    imc = op_counts("nomf_imc", DEFAULTS)
    assert nn.writes / imc.writes == pytest.approx(135.47, abs=1.0)


def test_op_counts_scale_linearly_in_pixels():
    base = WorkloadParams(width=160, height=120, alpha=0.25, gamma=0.125)
    double = WorkloadParams(width=160, height=240, alpha=0.25, gamma=0.125)
    for method in ("nn_filt", "median_filter", "nomf", "nomf_imc"):
        a = op_counts(method, base)
        b = op_counts(method, double)
        assert (b.reads, b.writes, b.logic_ops, b.cells) == (
            2 * a.reads,
            2 * a.writes,
            2 * a.logic_ops,
            2 * a.cells,
        )


def test_op_counts_unknown_method():
    with pytest.raises(InvalidParamsError):
        op_counts("gaussian", DEFAULTS)


def test_workload_validation():
    with pytest.raises(InvalidParamsError):
        WorkloadParams(width=0)
    with pytest.raises(InvalidParamsError):
        WorkloadParams(n=4)
    with pytest.raises(InvalidParamsError):
        WorkloadParams(alpha=1.5)
    with pytest.raises(InvalidParamsError):
        WorkloadParams(beta_t=0)
    with pytest.raises(InvalidParamsError):
        WorkloadParams(empty_frame_fraction=-0.1)


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def test_digital_latency_cycle_counts():
    assert digital_latency("mf", 320, 240, 3) == 768_000
    assert digital_latency("mfrb", 320, 240, 3) == 768_000
    assert digital_latency("mfpr", 320, 240, 3) == 1440
    assert digital_latency("mfprrb", 320, 240, 3) == 480
    assert digital_latency("imf", 320, 240, 3) == 160


def test_latency_ratios():
    imf = digital_latency("imf", 320, 240, 3)
    assert digital_latency("mf", 320, 240, 3) // imf == 4800
    assert digital_latency("mfprrb", 320, 240, 3) // imf == 3


def test_imf_frame_time_and_rate():
    cycles = digital_latency("imf", 240, 180, 3)
    assert cycles == 120
    t = cycles / 70e6
    assert t == pytest.approx(1.71e-6, rel=0.01)
    assert 1e-6 / t == pytest.approx(0.583, rel=0.01)  # frames per microsecond


def test_latency_validation():
    with pytest.raises(DimensionMismatchError):
        digital_latency("imf", 240, 181, 3)
    with pytest.raises(InvalidParamsError):
        digital_latency("systolic", 320, 240, 3)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_baseline_energy_at_low_supply():
    c = EnergyConstants()
    mf = baseline_energy("mf", DEFAULTS, c, 0.7)
    mfrb = baseline_energy("mfrb", DEFAULTS, c, 0.7)
    imc = baseline_energy("imc_nomf", DEFAULTS, c, 0.7)
    assert mf == pytest.approx(191.68e-9, rel=0.01)
    assert mfrb == pytest.approx(117.72e-9, rel=0.01)
    assert imc == pytest.approx(1.685e-9, rel=0.01)
    assert mf / imc == pytest.approx(114, abs=2)
    assert mfrb / imc == pytest.approx(70, abs=2)


def test_baseline_energy_scales_with_supply_squared():
    c = EnergyConstants()
    for arch in ("mf", "mfrb"):
        e07 = baseline_energy(arch, DEFAULTS, c, 0.7)
        e14 = baseline_energy(arch, DEFAULTS, c, 1.4)
        assert e14 / e07 == pytest.approx(4.0)
    # the in-array pass is charge-domain per pixel; no supply rescaling applied
    assert baseline_energy("imc_nomf", DEFAULTS, c, 0.7) == baseline_energy(
        "imc_nomf", DEFAULTS, c, 1.4
    )
    assert baseline_energy("imc_nomf", DEFAULTS, c, 0.7) == pytest.approx(
        DEFAULTS.pixels * c.e_imc_pixel
    )
    with pytest.raises(InvalidParamsError):
        baseline_energy("adiabatic", DEFAULTS, c, 0.7)


@pytest.mark.parametrize("vdd, ref_vdd", [(1e200, 1.0), (1e150, 1e-200)],
                         ids=["square-raises", "division-is-inf"])
def test_baseline_energy_rejects_a_scale_that_overflows(vdd, ref_vdd):
    # (1e200)^2 raises OverflowError; 1e150 / 1e-200 is inf with no error
    with pytest.raises(InvalidParamsError,
                       match=re.escape(f"vdd {vdd} / ref_vdd {ref_vdd} overflows")):
        baseline_energy("mf", DEFAULTS, EnergyConstants(ref_vdd=ref_vdd), vdd)


# ---------------------------------------------------------------------------
# charge current and swing bounds
# ---------------------------------------------------------------------------

def test_rho_lambda_bounds():
    assert rho_lambda_bound(0, 3) == (1.0, 1.0)
    assert rho_lambda_bound(9, 3) == (1.0, 1.0)
    lo, hi = rho_lambda_bound(4, 3)
    assert (lo, hi) == (1.0, pytest.approx(1.56))
    assert rho_lambda_bound(5, 3) == (1.0, pytest.approx(1.56))
    assert rho_lambda_bound(1, 3)[1] == pytest.approx(1 + 0.7 / 8)
    # the near-balanced split maximizes the losing line's swing
    assert all(rho_lambda_bound(k, 3)[1] <= 1.56 + 1e-12 for k in range(10))
    with pytest.raises(InvalidParamsError):
        rho_lambda_bound(10, 3)


def test_imc_current_magnitude_and_structure():
    params = WorkloadParams(width=320, height=240)
    device = DeviceParams(vdd=1.2)
    cb = imc_current(params, device, 48e6, rho_lambda_mean=1.01)
    assert cb.i_ch == pytest.approx(1.331e-3, rel=0.02)
    assert cb.i_bitflip == pytest.approx(BITFLIP_CURRENT_FRACTION * cb.i_ch)
    assert cb.i_total == pytest.approx(cb.i_ch + cb.i_bitflip + cb.i_imf + cb.i_leakage)
    doubled = imc_current(params, device, 96e6, rho_lambda_mean=1.01)
    assert doubled.i_ch == pytest.approx(2 * cb.i_ch)
    with_static = imc_current(params, device, 48e6, i_imf=1e-4, i_leakage=2e-5)
    assert with_static.i_total == pytest.approx(cb.i_total + 1.2e-4, rel=1e-6)
    with pytest.raises(InvalidParamsError):
        imc_current(params, device, 0.0)


def test_throughput_and_efficiency():
    gops, tops = throughput_efficiency(70e6, 3, 320, 39e-15)
    assert gops == pytest.approx(134.4)
    assert tops == pytest.approx(51.28, rel=0.005)
    gops5, _ = throughput_efficiency(70e6, 5, 320, 39e-15)
    assert gops5 == pytest.approx(gops * 5 / 3)
    with pytest.raises(InvalidParamsError):
        throughput_efficiency(70e6, 3, 320, 0.0)


# ---------------------------------------------------------------------------
# system-level energy
# ---------------------------------------------------------------------------

def test_system_energy_accounting():
    c = EnergyConstants()
    imc = baseline_energy("imc_nomf", DEFAULTS, c, 0.7)
    se = system_energy_per_frame(DEFAULTS, c, imc)
    assert se.baseline == pytest.approx(c.dnn_energy)
    assert se.average == pytest.approx(imc + (1 - 0.51) * c.dnn_energy)
    # savings = empty fraction - denoise / dnn
    assert se.savings == pytest.approx(0.51 - imc / c.dnn_energy)
    assert 0.50 < se.savings < 0.51


def test_system_energy_edge_cases():
    c = EnergyConstants()
    params = WorkloadParams(empty_frame_fraction=0.0)
    se = system_energy_per_frame(params, c, 1e-9)
    assert se.savings < 0  # skipping nothing, the filter is pure overhead
    free = system_energy_per_frame(params, c, 0.0)
    assert free.savings == pytest.approx(0.0)
    with pytest.raises(InvalidParamsError):
        system_energy_per_frame(DEFAULTS, c, -1e-9)
    with pytest.raises(InvalidParamsError, match="dnn_energy must be positive"):
        system_energy_per_frame(DEFAULTS, EnergyConstants(dnn_energy=0.0), 1e-9)
