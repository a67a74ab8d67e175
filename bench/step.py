"""Child entry point for one benchmark step.

    python bench/step.py [--trace FILE] cli ARGV...        # imfsim.cli.main(ARGV)
    python bench/step.py [--trace FILE] calibrate SEED OUT  # calibrate_current_sigma
    python bench/step.py frames-for-events SEED EVENTS OUT  # size the event workload

The untraced benchmark runs CLI steps as `python -m imfsim.cli` and uses this
file only for the library steps.  With --trace, the step runs in this process
under `spans.install`, and the span summary is written to FILE as JSON when
the step ends.  Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans

# Generator frames searched when sizing the event workload; far more than any
# seed needs to reach the ROADMAP's 3.24M events.
MAX_TRAFFIC_FRAMES = 1500


def calibrate(seed: str, out: str) -> int:
    """The noise_mismatch calibration, with its result written as exact JSON."""
    from imfsim.sram_macro import CellVariation, DeviceParams, calibrate_current_sigma
    from imfsim.synth import noise_frames

    fit = calibrate_current_sigma(
        noise_frames(64, 240, 180, 0.35, int(seed)),
        DeviceParams(vdd=0.7),
        DeviceParams(vdd=1.2),
        CellVariation(),
    )
    Path(out).mkdir(parents=True, exist_ok=True)
    result = {
        "sigma_i_over_mu": fit.sigma_i_over_mu,
        "ber_low_vdd": fit.ber_low_vdd,
        "ber_high_vdd": fit.ber_high_vdd,
    }
    (Path(out) / "calibration.json").write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


def frames_for_events(seed: str, events: str, out: str) -> int:
    """Write OUT/events.cfg with the smallest traffic frame count whose on
    pixels reach EVENTS.

    The generator draws frame by frame, so a shorter recording is a prefix of
    a longer one with the same seed.
    """
    import numpy as np
    from imfsim.config import RunConfig
    from imfsim.synth import traffic_dataset

    cfg = RunConfig(seed=int(seed))
    frames, _ = traffic_dataset(
        MAX_TRAFFIC_FRAMES, cfg.width, cfg.height, cfg.salt_p, cfg.max_objects, cfg.seed
    )
    total = np.cumsum([f.popcount() for f in frames])
    reached = np.nonzero(total >= int(events))[0]
    if reached.size == 0:
        print(f"seed {seed}: {MAX_TRAFFIC_FRAMES} frames hold only {total[-1]} events",
              file=sys.stderr)
        return 2
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "events.cfg").write_text(f"n_frames = {int(reached[0]) + 1}\n")
    return 0


def main(argv: list[str]) -> int:
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    if kind == "frames-for-events":
        return frames_for_events(*rest)

    import imfsim.cli

    if kind == "cli":
        run = lambda: imfsim.cli.main(rest)  # noqa: E731
    elif kind == "calibrate":
        run = lambda: calibrate(*rest)  # noqa: E731
    else:
        print(f"unknown step kind {kind!r}", file=sys.stderr)
        return 2
    if trace_file is None:
        return run()
    tracer = spans.Tracer()
    spans.install(tracer)
    code = tracer.root(run)
    Path(trace_file).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
