"""Command-line front end.

Subcommands: gen, denoise, simulate, characterize, perf, track-eval.
Every command takes --config/--seed/--out and writes only under --out, with
byte-identical output for identical inputs and seed.  Each command imports
its compute modules when it runs, so start-up loads no numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from pathlib import Path

from .config import load_config, parse_float, parse_int
from .errors import ImfsimError, shown


def __getattr__(name: str):
    # PEP 562: bench/tests/test_bench.py expects imfsim.cli.init_macro.
    # ROADMAP item 1b deletes this.
    if name != "init_macro":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .sram_macro import init_macro
    return init_macro


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
            raise argparse.ArgumentTypeError(f"expected {expected}, got {shown(text)}") from None
    return convert


class _Parser(argparse.ArgumentParser):
    """argparse, with each rejected value cut by errors.shown in its error."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {shown(value)} (choose from {choices})")

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(map(shown, extras))}")
        return args


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_frames(frames, out: Path, start: int = 0) -> None:
    """Write (height, width) pixel arrays as frame_<index>.pbm from `start`."""
    from .frames import BinaryFrame, write_pbm
    out.mkdir(parents=True, exist_ok=True)
    for idx, px in enumerate(frames, start):
        write_pbm(BinaryFrame(px), out / f"frame_{idx:05d}.pbm")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_denoise(cfg, args, out: Path) -> int:
    from .frames import iter_recording
    frames = iter_recording(args.frames) if args.frames else iter_recording(
        args.events, cfg.frame_config())
    header = ["frame_index", "input_ones", "output_ones", "valid_frame"]
    if args.filter == "imc":
        from .sram_macro import filter_in_memory_stack, lottery_stream, variation_at_device
        device = cfg.device()
        variation = variation_at_device(cfg.variation(), device)
        header += ["flips_intended", "flips_unintended", "ber", "cycles"]
    else:
        from .filters import median_filter_overlap_stack, nomf_stack
        kernel = median_filter_overlap_stack if args.filter == "omf" else nomf_stack
    rows, lotteries = [], None
    with contextlib.ExitStack() as run:
        for first, chunk in frames:
            ones = [int(px.sum()) for px in chunk]  # before the macro filters the chunk in place
            if args.filter == "imc":
                if lotteries is None:
                    # One stream for the run, seeded cfg.seed + frame index; closing it as
                    # the run ends or raises, a reader error included, joins its worker.
                    lotteries = run.enter_context(
                        contextlib.closing(lottery_stream(chunk.shape[1:], cfg.seed)))
                results = chunk
                extras = [(valid, intended, unintended, unintended / chunk[0].size, cycles)
                          for valid, intended, unintended, cycles in filter_in_memory_stack(
                              chunk, lotteries, device, variation, cfg.n)]
            else:
                results = kernel(chunk, cfg.n)
                extras = [(int(px.any()),) for px in results]
            rows += [(idx, n_in, int(res.sum()), *extra) for idx, (n_in, res, extra)
                     in enumerate(zip(ones, results, extras), first)]
            _write_frames(results, out / "frames", first)
    _write_csv(out / "report.csv", header, rows)
    return 0


def cmd_characterize(cfg, args, out: Path) -> int:
    from .sram_macro import ber_supply_sweep
    vdds, ks = args.vdd, args.k
    patterns = cfg.patterns if args.patterns is None else args.patterns
    trials = cfg.trials if args.trials is None else args.trials
    stats = ber_supply_sweep(cfg.n, ks, [cfg.device(vdd=v) for v in vdds], cfg.variation(),
                             trials=trials, patterns=patterns)
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
    from .perf_model import report
    rows, lines = report(cfg)
    _write_csv(out / "perf.csv", ["metric", "value"], rows)
    (out / "perf.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    return 0


def cmd_track_eval(cfg, args, out: Path) -> int:
    from .frames import iter_recording
    from .pipeline import track_eval
    from .synth import write_box_csv
    results = track_eval(cfg, iter_recording(args.frames), args.gt)
    for filt, (rows, curve, _) in results.items():
        write_box_csv(rows, out / f"tracks_{filt}.csv")
        _write_csv(out / f"f1_curve_{filt}.csv", ["thr", "weighted_f1"], curve)
    omf, nomf = results["omf"][2], results["nomf"][2]
    diff = abs(omf - nomf)
    _write_csv(out / "summary.csv", ["metric", "value"],
               [("auc_omf", omf), ("auc_nomf", nomf), ("auc_abs_diff", diff)])
    (out / "summary.txt").write_text(
        f"auc omf = {omf:.6g}\nauc nomf = {nomf:.6g}\nabs diff = {diff:.6g}\n",
        encoding="ascii",
    )
    return 0


def cmd_gen(cfg, args, out: Path) -> int:
    from . import synth
    from .frames import write_event_stream
    if args.kind == "noise":
        chunks = synth.noise_chunks(cfg.n_frames, cfg.width, cfg.height, cfg.salt_p, cfg.seed)
    else:
        chunks = synth.traffic_chunks(
            cfg.n_frames, cfg.width, cfg.height, cfg.salt_p, cfg.max_objects, cfg.seed
        )
    with open(out / "gt.csv", "w", encoding="ascii", newline="") as gt_csv, \
            open(out / "events.txt", "wb") if args.events else contextlib.nullcontext() as events:
        gt = synth.box_writer(gt_csv)
        for first, chunk, boxes in chunks:  # each chunk is written before the next is drawn
            _write_frames(chunk, out / "frames", first)
            gt(boxes)
            if events:
                write_event_stream(synth.event_batches(chunk, cfg.t_f, first * cfg.t_f), events)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=_arg(parse_int, "an integer"),
                        help="override the config seed")
    common.add_argument("--out", default="out", help="output directory (default: out)")

    parser = _Parser(
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
                   type=_arg(lambda s: [*map(parse_float, s.split(","))], "a comma list of numbers"))
    p.add_argument("--k", default="4,5", help="comma list of ones counts",
                   type=_arg(lambda s: [*map(parse_int, s.split(","))], "a comma list of integers"))
    p.add_argument("--trials", type=_arg(parse_int, "an integer"),
                   help="lottery resamples per pattern")
    p.add_argument("--patterns", help="pattern sample size or 'all'",
                   type=_arg(lambda s: s if s == "all" else parse_int(s), "a pattern count or 'all'"))
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
