"""Command-line front end.

Subcommands: gen, denoise, simulate, characterize, perf, track-eval.
Every command takes --config/--seed/--out and writes only under --out, with
byte-identical output for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import synth
from .config import RunConfig, load_config
from .errors import ImfsimError
from .filters import FRAME_CHUNK, StrideMode, filter_chunks
from .frames import (
    BinaryFrame,
    aggregate_stack,
    is_empty,
    parse_event_stream,
    read_pbm_stack,
    write_event_stream,
    write_pbm,
)
from .metrics import EvalResult, f1_curve_auc, greedy_matches, weighted_f1
from .perf_model import (
    FILTER_METHODS,
    LATENCY_ARCHS,
    WorkloadParams,
    baseline_energy,
    digital_latency,
    imc_current,
    op_counts,
    system_energy_per_frame,
    throughput_efficiency,
)
from .pipeline import BoundingBox, region_proposals_stack, track_proposals
from .sram_macro import (
    DEFAULT_GEOMETRY,
    ber_supply_sweep,
    filter_in_memory,
    frame_geometry,
    init_macro,
    load_frame,
    read_frame,
    variation_at_device,
)

F1_THRESHOLDS = [round(0.1 * i, 1) for i in range(1, 10)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_frames(args, cfg: RunConfig) -> np.ndarray:
    """The input recording as one (frames, height, width) uint8 stack."""
    if args.frames:
        return read_pbm_stack(args.frames)
    return aggregate_stack(parse_event_stream(args.events), cfg.frame_config())


def _write_frames(frames: list[BinaryFrame], out: Path, start: int = 0) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for idx, frame in enumerate(frames, start):
        write_pbm(frame, out / f"frame_{idx:05d}.pbm")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_denoise(args, forced_filter: str | None = None) -> int:
    cfg = load_config(args.config, seed=args.seed)
    stack = _load_frames(args, cfg)
    out = Path(args.out)
    filt = forced_filter or args.filter
    spec = cfg.kernel()
    device = cfg.device()
    header = ["frame_index", "input_ones", "output_ones", "valid_frame"]
    if filt == "imc":
        geom = frame_geometry(*stack.shape[1:], spec.n)  # before any output is written
        header += ["flips_intended", "flips_unintended", "ber", "cycles"]
    else:
        mode = StrideMode.OVERLAP if filt == "omf" else StrideMode.NON_OVERLAP
        filtered = (px for chunk in filter_chunks(stack, spec, mode) for px in chunk)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    rows, pending = [], []
    for idx, px in enumerate(stack):
        frame = BinaryFrame(px)
        if filt == "imc":
            variation = variation_at_device(
                replace(cfg.variation(), rng_seed=cfg.seed + idx), device
            )
            state = init_macro(geom, device, variation)
            load_frame(state, frame)
            report = filter_in_memory(state, spec.n, device)
            result = read_frame(state)
            ber = report.flips_unintended / (frame.width * frame.height)
            extra = (report.valid_frame, report.flips_intended, report.flips_unintended,
                     ber, state.cycle_count)
        else:
            result = BinaryFrame(next(filtered))
            extra = (int(not is_empty(result)),)
        rows.append((idx, frame.popcount(), result.popcount(), *extra))
        # Frames are written a chunk at a time.  Writing each as it came let the
        # allocator hand the macro's working memory back to the system and
        # fault it in again for every frame: simulate on 500 traffic frames
        # took 35.7k minor faults and about 0.23 s of system time, against
        # 13.7k and 0.09 s with the results of a chunk held until it is written.
        pending.append(result)
        if len(pending) == FRAME_CHUNK or idx == len(stack) - 1:
            _write_frames(pending, out / "frames", idx + 1 - len(pending))
            pending = []
    _write_csv(out / "report.csv", header, rows)
    return 0


def cmd_characterize(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out = Path(args.out)
    vdds = [float(v) for v in args.vdd.split(",")]
    ks = [int(k) for k in args.k.split(",")]
    patterns = "all" if args.patterns == "all" else int(args.patterns or cfg.patterns)
    trials = args.trials or cfg.trials
    devices = [cfg.device(vdd=vdd) for vdd in vdds]
    stats = ber_supply_sweep(
        cfg.n, ks, [(d, variation_at_device(cfg.variation(), d)) for d in devices],
        trials=trials, patterns=patterns,
    )
    rows = [
        (vdd, cfg.temperature, cfg.corner, cfg.n, stat.k, ps.pattern_id, ps.trials, ps.ber)
        for vdd, per_k in zip(vdds, stats)
        for stat in per_k
        for ps in stat.pattern_stats
    ]
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "characterize.csv",
        ["vdd", "temp_c", "corner", "n", "k", "pattern_id", "trials", "ber"],
        rows,
    )
    return 0


def cmd_perf(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out = Path(args.out)
    params = cfg.workload()
    constants = cfg.energy_constants()
    device = cfg.device()
    f = cfg.frequency
    rows = []
    lines = []

    for method in FILTER_METHODS:
        c = op_counts(method, params)
        rows += [
            (f"ops.{method}.reads", c.reads),
            (f"ops.{method}.writes", c.writes),
            (f"ops.{method}.logic_ops", c.logic_ops),
            (f"ops.{method}.cells", c.cells),
        ]
    lines.append(
        f"per-frame op counts for {params.width}x{params.height}, n={params.n}: see perf.csv"
    )

    cycles = {}
    for arch in LATENCY_ARCHS:
        cycles[arch] = digital_latency(arch, params.width, params.height, params.n)
        rows.append((f"latency.{arch}.cycles", cycles[arch]))
        rows.append((f"latency.{arch}.seconds", cycles[arch] / f))
    imf_us = cycles["imf"] / f * 1e6
    lines.append(
        f"in-array filter: {cycles['imf']} cycles = {imf_us:.3g} us per frame at "
        f"{f / 1e6:.0f} MHz ({1 / imf_us:.2f} frames/us)"
    )
    lines.append(
        f"latency ratios: mf/imf = {cycles['mf'] / cycles['imf']:.6g}, "
        f"mfprrb/imf = {cycles['mfprrb'] / cycles['imf']:.6g}"
    )

    e_mf = baseline_energy("mf", params, constants, cfg.vdd)
    e_mfrb = baseline_energy("mfrb", params, constants, cfg.vdd)
    e_imc = baseline_energy("imc_nomf", params, constants, cfg.vdd)
    rows += [
        ("energy.mf", e_mf),
        ("energy.mfrb", e_mfrb),
        ("energy.imc_nomf", e_imc),
        ("energy.ratio_mf_imc", e_mf / e_imc),
        ("energy.ratio_mfrb_imc", e_mfrb / e_imc),
    ]
    lines.append(
        f"energy per frame at {cfg.vdd:g} V: mf {e_mf * 1e9:.4g} nJ, "
        f"mfrb {e_mfrb * 1e9:.4g} nJ, in-array {e_imc * 1e9:.4g} nJ "
        f"({e_mf / e_imc:.0f}x / {e_mfrb / e_imc:.0f}x)"
    )

    # supply current at the characterized point: full array width, 1.2 V, 48 MHz
    char_device = cfg.device(vdd=1.2)
    char_params = WorkloadParams(width=DEFAULT_GEOMETRY.cols, height=DEFAULT_GEOMETRY.rows,
                                 n=params.n)
    cur = imc_current(char_params, char_device, 48e6, cfg.rho_lambda_mean)
    i_imf = 0.36 / (1.0 - 0.36) * cur.i_total  # reconstructed controller share
    cur = imc_current(char_params, char_device, 48e6, cfg.rho_lambda_mean, i_imf=i_imf)
    rows += [
        ("current.i_ch", cur.i_ch),
        ("current.i_bitflip", cur.i_bitflip),
        ("current.i_imf", cur.i_imf),
        ("current.i_leakage", cur.i_leakage),
        ("current.i_total", cur.i_total),
    ]
    lines.append(
        f"array charging current at 1.2 V, 48 MHz, rho+lambda = "
        f"{cfg.rho_lambda_mean:g}: {cur.i_ch * 1e3:.4g} mA "
        f"(+{cur.i_bitflip * 1e6:.3g} uA bit-flip, i_imf reconstructed at 36% of total)"
    )

    gops, tops = throughput_efficiency(f, params.n, DEFAULT_GEOMETRY.cols, constants.e_imc_pixel)
    rows += [("throughput.gops", gops), ("throughput.tops_per_w", tops)]
    lines.append(
        f"peak filtering throughput: {gops:.1f} GOPS at {f / 1e6:.0f} MHz "
        f"across {DEFAULT_GEOMETRY.cols} columns"
    )
    lines.append(
        f"efficiency: {tops:.1f} TOPS/W at {constants.e_imc_pixel * 1e15:.0f} fJ/pixel"
    )

    for label, denoise in (("imc", e_imc), ("mf", e_mf)):
        sys_e = system_energy_per_frame(params, constants, denoise)
        rows += [
            (f"system.{label}.average", sys_e.average),
            (f"system.{label}.savings", sys_e.savings),
        ]
        lines.append(
            f"system energy with {label} denoise: {sys_e.average * 1e9:.4g} nJ/frame "
            f"avg vs {sys_e.baseline * 1e9:.4g} nJ baseline "
            f"({sys_e.savings * 100:.1f}% saved at {params.empty_frame_fraction:.0%} empty)"
        )

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "perf.csv", ["metric", "value"], rows)
    (out / "perf.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    return 0


def cmd_track_eval(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out = Path(args.out)
    stack = read_pbm_stack(args.frames)
    gt_rows = synth.read_box_csv(args.gt)
    gt_by_frame: dict[int, list[BoundingBox]] = {}
    for row in gt_rows:
        gt_by_frame.setdefault(row.frame_index, []).append(
            BoundingBox(row.x, row.y, row.w, row.h)
        )
    n_tracks = len({row.track_id for row in gt_rows})
    spec = cfg.kernel()
    tracker_cfg = cfg.tracker_config()
    out.mkdir(parents=True, exist_ok=True)

    aucs = {}
    for filt, mode in (("omf", StrideMode.OVERLAP), ("nomf", StrideMode.NON_OVERLAP)):
        proposals = [
            boxes
            for chunk in filter_chunks(stack, spec, mode)
            for boxes in region_proposals_stack(
                chunk, cfg.rescale_a, cfg.rescale_b, cfg.min_area, cfg.connectivity
            )
        ]
        tracks, per_frame = track_proposals(proposals, tracker_cfg)
        pred_rows = [
            synth.GroundTruthBox(fi, t.track_id, "object", bx.x, bx.y, bx.w, bx.h)
            for t in tracks
            for fi, bx in sorted(t.boxes.items())
            if t.state != "tentative"
        ]
        pred_rows.sort(key=lambda r: (r.frame_index, r.track_id))
        synth.write_box_csv(pred_rows, out / f"tracks_{filt}.csv")

        curve = []
        for thr in F1_THRESHOLDS:
            tp = proposed = gts = 0
            for fi in range(len(stack)):
                pred = per_frame.get(fi, [])
                gt = gt_by_frame.get(fi, [])
                tp += len(greedy_matches(pred, gt, thr))
                proposed += len(pred)
                gts += len(gt)
            precision = tp / proposed if proposed else 0.0
            recall = tp / gts if gts else 0.0
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall > 0
                else 0.0
            )
            result = EvalResult(
                recording_id=str(args.frames), thr=thr,
                precision=precision, recall=recall, f1=f1, n_tracks=n_tracks,
            )
            curve.append((thr, weighted_f1([result])))
        _write_csv(out / f"f1_curve_{filt}.csv", ["thr", "weighted_f1"], curve)
        aucs[filt] = f1_curve_auc([c[0] for c in curve], [c[1] for c in curve])

    diff = abs(aucs["omf"] - aucs["nomf"])
    _write_csv(
        out / "summary.csv",
        ["metric", "value"],
        [("auc_omf", aucs["omf"]), ("auc_nomf", aucs["nomf"]), ("auc_abs_diff", diff)],
    )
    (out / "summary.txt").write_text(
        f"auc omf = {aucs['omf']:.6g}\nauc nomf = {aucs['nomf']:.6g}\n"
        f"abs diff = {diff:.6g}\n",
        encoding="ascii",
    )
    return 0


def cmd_gen(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "noise":
        frames = synth.noise_frames(
            cfg.n_frames, cfg.width, cfg.height, cfg.salt_p, cfg.seed
        )
        gt: list[synth.GroundTruthBox] = []
    else:
        frames, gt = synth.traffic_dataset(
            cfg.n_frames, cfg.width, cfg.height, cfg.salt_p, cfg.max_objects, cfg.seed
        )
    _write_frames(frames, out / "frames")
    synth.write_box_csv(gt, out / "gt.csv")
    if args.events:
        write_event_stream(synth.frames_to_events(frames, cfg.t_f), out / "events.txt")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="imfsim",
        description="Event-frame denoising, in-array filter simulation, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", parents=[common], help="filter a frame sequence")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames", help="directory of .pbm frames")
    src.add_argument("--events", help="event text file to accumulate")
    p.add_argument("--filter", choices=("omf", "nomf", "imc"), default="nomf")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="denoise with the in-array filter (denoise --filter imc)",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames", help="directory of .pbm frames")
    src.add_argument("--events", help="event text file to accumulate")
    p.set_defaults(func=lambda a: cmd_denoise(a, forced_filter="imc"))

    p = sub.add_parser("characterize", parents=[common], help="pattern error-rate sweep")
    p.add_argument("--vdd", default="0.7,0.8,1.0,1.2", help="comma list of supplies")
    p.add_argument("--k", default="4,5", help="comma list of ones counts")
    p.add_argument("--trials", type=int, help="lottery resamples per pattern")
    p.add_argument("--patterns", help="pattern sample size or 'all'")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("perf", parents=[common], help="analytic cost model report")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("track-eval", parents=[common], help="proposal/tracking evaluation")
    p.add_argument("--frames", required=True, help="directory of noisy .pbm frames")
    p.add_argument("--gt", required=True, help="ground-truth box csv")
    p.set_defaults(func=cmd_track_eval)

    p = sub.add_parser("gen", parents=[common], help="generate synthetic datasets")
    p.add_argument("--kind", choices=("traffic", "noise"), default="traffic")
    p.add_argument("--events", action="store_true", help="also write an event stream")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ImfsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
