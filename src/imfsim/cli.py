"""Command-line front end.

Subcommands: gen, denoise, simulate, characterize, perf, track-eval.
Every command takes --config/--seed/--out and writes only under --out, with
byte-identical output for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import synth
from .config import load_config
from .errors import ImfsimError
from .filters import median_filter_overlap_stack, nomf_stack
from .frames import BinaryFrame, iter_recording, write_event_stream, write_pbm
from .metrics import EvalResult, f1_curve_auc, match_counts, rates, weighted_f1
from .perf_model import report
from .pipeline import BoundingBox, region_proposals_stack, track_proposals
from .sram_macro import ber_supply_sweep, filter_in_memory_stack, variation_at_device
# Not called here: bench/tests/test_bench.py::
# test_install_wraps_every_namespace_and_counts_distinct_lotteries asserts
# that the tracer wraps this second binding of init_macro.
from .sram_macro import init_macro  # noqa: F401

F1_THRESHOLDS = [round(0.1 * i, 1) for i in range(1, 10)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _arg(parse, expected: str):
    """An argparse type: `parse`, with a ValueError reported as a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_frames(frames, out: Path, start: int = 0) -> None:
    """Write (height, width) pixel arrays as frame_<index>.pbm from `start`."""
    out.mkdir(parents=True, exist_ok=True)
    for idx, px in enumerate(frames, start):
        write_pbm(BinaryFrame(px), out / f"frame_{idx:05d}.pbm")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_denoise(cfg, args, out: Path) -> int:
    frames = iter_recording(args.frames) if args.frames else iter_recording(
        args.events, cfg.frame_config())
    device = cfg.device()
    variation = variation_at_device(cfg.variation(), device)
    header = ["frame_index", "input_ones", "output_ones", "valid_frame"]
    if args.filter == "imc":
        header += ["flips_intended", "flips_unintended", "ber", "cycles"]
    kernel = median_filter_overlap_stack if args.filter == "omf" else nomf_stack
    rows = []
    for first, chunk in frames:
        ones = [int(px.sum()) for px in chunk]  # before the macro filters the chunk in place
        if args.filter == "imc":
            results = chunk
            extras = [(valid, intended, unintended, unintended / chunk[0].size, cycles)
                      for valid, intended, unintended, cycles in filter_in_memory_stack(
                          chunk, cfg.seed + first, device, variation, cfg.n)]
        else:
            results = kernel(chunk, cfg.n)
            extras = [(int(px.any()),) for px in results]
        rows += [(idx, n_in, int(res.sum()), *extra) for idx, (n_in, res, extra)
                 in enumerate(zip(ones, results, extras), first)]
        _write_frames(results, out / "frames", first)
    _write_csv(out / "report.csv", header, rows)
    return 0


def cmd_characterize(cfg, args, out: Path) -> int:
    vdds, ks = args.vdd, args.k
    patterns = cfg.patterns if args.patterns is None else args.patterns
    trials = cfg.trials if args.trials is None else args.trials
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
    _write_csv(
        out / "characterize.csv",
        ["vdd", "temp_c", "corner", "n", "k", "pattern_id", "trials", "ber"],
        rows,
    )
    return 0


def cmd_perf(cfg, args, out: Path) -> int:
    rows, lines = report(cfg)
    _write_csv(out / "perf.csv", ["metric", "value"], rows)
    (out / "perf.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    return 0


def cmd_track_eval(cfg, args, out: Path) -> int:
    kernels = {"omf": median_filter_overlap_stack, "nomf": nomf_stack}
    proposals: dict[str, list] = {filt: [] for filt in kernels}
    for _, chunk in iter_recording(args.frames):
        for filt, kernel in kernels.items():
            proposals[filt] += region_proposals_stack(
                kernel(chunk, cfg.n), cfg.rescale_a, cfg.rescale_b, cfg.min_area,
                cfg.connectivity,
            )
    n_frames = len(proposals["omf"])
    gt_rows = synth.read_box_csv(args.gt)
    gt_by_frame: dict[int, list[BoundingBox]] = {}
    for row in gt_rows:
        gt_by_frame.setdefault(row.frame_index, []).append(
            BoundingBox(row.x, row.y, row.w, row.h)
        )
    n_tracks = len({row.track_id for row in gt_rows})
    tracker_cfg = cfg.tracker_config()
    gts = sum(len(gt_by_frame.get(fi, [])) for fi in range(n_frames))

    aucs = {}
    for filt in kernels:
        tracks, per_frame = track_proposals(proposals[filt], tracker_cfg)
        pred_rows = [
            synth.GroundTruthBox(fi, t.track_id, "object", bx.x, bx.y, bx.w, bx.h)
            for t in tracks
            for fi, bx in sorted(t.boxes.items())
            if t.state != "tentative"
        ]
        pred_rows.sort(key=lambda r: (r.frame_index, r.track_id))
        synth.write_box_csv(pred_rows, out / f"tracks_{filt}.csv")

        tps = map(sum, zip(*(match_counts(per_frame[fi], gt_by_frame.get(fi, []), F1_THRESHOLDS)
                             for fi in range(n_frames))))
        proposed = sum(len(boxes) for boxes in per_frame.values())
        curve = []
        for thr, tp in zip(F1_THRESHOLDS, tps):
            precision, recall, f1 = rates(tp, proposed, gts)
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


def cmd_gen(cfg, args, out: Path) -> int:
    if args.kind == "noise":
        frames = synth.noise_frames(
            cfg.n_frames, cfg.width, cfg.height, cfg.salt_p, cfg.seed
        )
        gt: list[synth.GroundTruthBox] = []
    else:
        frames, gt = synth.traffic_dataset(
            cfg.n_frames, cfg.width, cfg.height, cfg.salt_p, cfg.max_objects, cfg.seed
        )
    _write_frames((f.pixels for f in frames), out / "frames")
    synth.write_box_csv(gt, out / "gt.csv")
    if args.events:
        write_event_stream(synth.event_batches(frames, cfg.t_f), out / "events.txt")
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
    p.add_argument("--filter", choices=("omf", "nomf"), default="nomf")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("simulate", parents=[common], help="filter a frame sequence in the macro")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames", help="directory of .pbm frames")
    src.add_argument("--events", help="event text file to accumulate")
    p.set_defaults(func=cmd_denoise, filter="imc")

    p = sub.add_parser("characterize", parents=[common], help="pattern error-rate sweep")
    p.add_argument("--vdd", default="0.7,0.8,1.0,1.2", help="comma list of supplies",
                   type=_arg(lambda s: [float(v) for v in s.split(",")], "a comma list of numbers"))
    p.add_argument("--k", default="4,5", help="comma list of ones counts",
                   type=_arg(lambda s: [int(v) for v in s.split(",")], "a comma list of integers"))
    p.add_argument("--trials", type=int, help="lottery resamples per pattern")
    p.add_argument("--patterns", help="pattern sample size or 'all'",
                   type=_arg(lambda s: s if s == "all" else int(s), "a pattern count or 'all'"))
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
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    created = not out.exists()
    code = 1
    try:
        cfg = load_config(args.config, seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        code = args.func(cfg, args, out)
    except ImfsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    finally:
        # Recordings stream, so an input error can surface after output exists.
        if code and created and out.exists():
            import shutil  # only on failure, so startup stays lean
            shutil.rmtree(out, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
