"""Command-line front end: gen, denoise, simulate, characterize, perf, track-eval.

Every command takes --config/--seed/--out and writes only under --out, with
byte-identical output for identical inputs and seed.  Each is one library
call, imported when the command runs, so start-up loads no numpy.
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
    # PEP 562: bench/tests/test_bench.py expects imfsim.cli.init_macro (ROADMAP item 9).
    if name != "init_macro":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .sram_macro import init_macro
    return init_macro


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
            raise argparse.ArgumentError(action, "invalid choice: {} (choose from {})".format(
                shown(value), ", ".join(map(repr, action.choices))))

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(map(shown, extras))}")
        return args


@contextlib.contextmanager
def _table(path: Path, header):
    """Open the CSV table at `path` and write its header; yield a function that
    appends rows to it, floats as .12g, in ASCII with \\n line ends."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield lambda rows: writer.writerows(
            [f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_frames(frames, out: Path, start: int) -> None:
    """Write (height, width) pixel arrays as frame_<index>.pbm from `start`."""
    from .frames import BinaryFrame, write_pbm
    out.mkdir(parents=True, exist_ok=True)
    for idx, px in enumerate(frames, start):
        write_pbm(BinaryFrame(px), out / f"frame_{idx:05d}.pbm")


def cmd_denoise(cfg, args, out: Path) -> None:
    from .frames import iter_recording
    from .params import FrameConfig
    chunks = iter_recording(args.frames) if args.frames else iter_recording(
        args.events, cfg.build(FrameConfig))
    header = ["frame_index", "input_ones", "output_ones", "valid_frame"]
    if args.filter == "imc":
        from .sram_macro import simulate
        run = simulate(cfg, chunks)
        header += ["flips_intended", "flips_unintended", "ber", "cycles"]
    else:
        from .filters import denoise
        run = denoise(chunks, args.filter, cfg.n)
    # closing simulate's run joins its lottery worker
    with contextlib.closing(run), _table(out / "report.csv", header) as add_rows:
        for first, frames, rows in run:     # each chunk is written before the next is read
            _write_frames(frames, out / "frames", first)
            add_rows(rows)
            del frames      # else it stays alive while simulate races the next chunk


def cmd_characterize(cfg, args, out: Path) -> None:
    from .sram_macro import characterize
    rows = characterize(cfg, args.vdd, args.k, args.trials, args.patterns)
    with _table(out / "characterize.csv", ("vdd", "temp_c", "corner", "n", "k", "pattern_id",
                                           "trials", "ber")) as add_rows:
        add_rows(rows)


def cmd_perf(cfg, args, out: Path) -> None:
    from .perf_model import report
    rows, lines = report(cfg)
    with _table(out / "perf.csv", ("metric", "value")) as add_rows:
        add_rows(rows)
    (out / "perf.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_track_eval(cfg, args, out: Path) -> None:
    from .frames import iter_recording
    from .pipeline import track_eval
    from .synth import BOX_HEADER
    results, summary = track_eval(cfg, iter_recording(args.frames), args.gt)
    for filt, (rows, curve, _) in results.items():
        with _table(out / f"tracks_{filt}.csv", BOX_HEADER) as add_rows:
            add_rows(rows)
        with _table(out / f"f1_curve_{filt}.csv", ("thr", "weighted_f1")) as add_rows:
            add_rows(curve)
    with _table(out / "summary.csv", ("metric", "value")) as add_rows:
        add_rows(summary.items())
    (out / "summary.txt").write_text("auc omf = {:.6g}\nauc nomf = {:.6g}\nabs diff = {:.6g}\n"
                                     .format(*summary.values()), encoding="ascii")


def cmd_gen(cfg, args, out: Path) -> None:
    from .frames import write_event_stream
    from .synth import BOX_HEADER, generate
    run = generate(cfg, args.kind, args.events)     # refuses a bad n_frames before any file
    with contextlib.closing(run), _table(out / "gt.csv", BOX_HEADER) as add_boxes, \
            open(out / "events.txt", "wb") if args.events else contextlib.nullcontext() as events:
        for first, frames, boxes, frame_events in run:  # each chunk is written before the next
            _write_frames(frames, out / "frames", first)
            add_boxes(boxes)
            if events:
                write_event_stream(frame_events, events)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=_arg(parse_int, "an integer"),
                        help="override the config seed")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    recording = _Parser(add_help=False)
    src = recording.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames", help="directory of .pbm frames")
    src.add_argument("--events", help="event text file to accumulate")

    parser = _Parser(prog="imfsim", description=(
        "Event-frame denoising, in-array filter simulation, and evaluation"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", parents=[common, recording], help="filter a frame sequence")
    p.add_argument("--filter", choices=("omf", "nomf"), default="nomf")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("simulate", parents=[common, recording],
                       help="filter a frame sequence in the macro")
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
        args.func(cfg, args, out)
        code = 0
    except (ImfsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2 if isinstance(exc, ImfsimError) else 1
    finally:
        # Recordings stream, so an input error can surface after output exists.
        if code and created and out.exists():
            import shutil  # only on failure, so startup stays lean
            shutil.rmtree(out, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
