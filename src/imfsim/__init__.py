"""Event-frame denoising with a non-overlapping median filter, a behavioral
model of an SRAM array that filters in place, analytic cost models, and a
region-proposal/tracking evaluation pipeline."""

from .errors import (
    DimensionMismatchError,
    ImfsimError,
    InvalidCountError,
    InvalidParamsError,
    MalformedLineError,
    NonMonotonicTimestampError,
    OutOfBoundsError,
)
from .filters import KernelSpec, StrideMode, apply_filter, median_filter_overlap, nomf, patch_majority
from .frames import (
    BinaryFrame,
    EventArray,
    FrameConfig,
    aggregate_frames,
    is_empty,
    parse_event_stream,
    read_pbm,
    write_event_stream,
    write_pbm,
)
from .metrics import (
    EvalResult,
    f1_curve_auc,
    greedy_matches,
    image_ber,
    iou,
    precision_recall_f1,
    weighted_f1,
)
from .perf_model import (
    CurrentBreakdown,
    EnergyConstants,
    FilterCost,
    SystemEnergy,
    WorkloadParams,
    baseline_energy,
    digital_latency,
    imc_current,
    op_counts,
    rho_lambda_bound,
    system_energy_per_frame,
    throughput_efficiency,
)
from .pipeline import (
    BoundingBox,
    Track,
    TrackerConfig,
    connected_components,
    downscale_or,
    extract_patch,
    region_proposals,
    track_recording,
    track_update,
)
from .sram_macro import (
    BERStat,
    CalibrationResult,
    CellVariation,
    DeviceParams,
    FilterReport,
    GateCounts,
    MacroGeometry,
    MacroState,
    ber_pattern_sweep,
    ber_supply_sweep,
    calibrate_current_sigma,
    check_tg_criterion,
    clear_memory,
    filter_in_memory,
    init_macro,
    load_frame,
    macro_patch_count,
    measure_image_ber,
    patch_error_trials,
    read_frame,
    resolve_patch,
    tg_resistance_bound,
    valid_frame_detect,
    valid_frame_gate_counts,
    variation_at_device,
    write_events,
)

__version__ = "0.1.0"
