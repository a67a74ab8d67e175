"""In-memory spans and counters around imfsim's public layer functions.

`install(tracer)` replaces every traced function in every `imfsim.*` module
namespace that binds it (for example `init_macro` in both `imfsim.cli` and
`imfsim.sram_macro`), so calls through an import alias and calls inside the
defining module are both seen.  Each call records one span: its name, its
parent span, its start and end, and the start and end of the bookkeeping
around it.  Counter hooks run outside the span's own interval.

Self time of a span is its duration minus the intervals its direct children
cover, bookkeeping included; the bookkeeping is reported apart as
`trace.hook_s`.  So for every traced step

    sum(self times) + hook time == duration of the root span

which `check_self_sum` asserts.  Tiny hot helpers (`iou`, `patch_majority`,
`resolve_patch`) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter

import numpy as np

# (module, function) -> self-time metric.  Every public perf_model function
# shares one metric.
TIMED = {
    ("imfsim.frames", "parse_event_stream"): "frames.parse_event_stream_s",
    ("imfsim.frames", "aggregate_frames"): "frames.aggregate_frames_s",
    ("imfsim.frames", "write_event_stream"): "frames.write_event_stream_s",
    ("imfsim.frames", "read_pbm"): "frames.read_pbm_s",
    ("imfsim.frames", "write_pbm"): "frames.write_pbm_s",
    ("imfsim.synth", "traffic_dataset"): "synth.traffic_dataset_s",
    ("imfsim.synth", "frames_to_events"): "synth.frames_to_events_s",
    ("imfsim.synth", "noise_frames"): "synth.noise_frames_s",
    ("imfsim.filters", "nomf"): "filters.nomf_s",
    ("imfsim.filters", "median_filter_overlap"): "filters.median_filter_overlap_s",
    ("imfsim.sram_macro", "sample_cell_lottery"): "sram_macro.lottery_s",
    ("imfsim.sram_macro", "init_macro"): "sram_macro.init_macro_s",
    ("imfsim.sram_macro", "load_frame"): "sram_macro.load_frame_s",
    ("imfsim.sram_macro", "filter_in_memory"): "sram_macro.filter_in_memory_s",
    ("imfsim.sram_macro", "ber_pattern_sweep"): "sram_macro.ber_pattern_sweep_s",
    ("imfsim.sram_macro", "measure_image_ber"): "sram_macro.measure_image_ber_s",
    ("imfsim.sram_macro", "calibrate_current_sigma"): "sram_macro.calibrate_current_sigma_s",
    ("imfsim.pipeline", "downscale_or"): "pipeline.downscale_or_s",
    ("imfsim.pipeline", "connected_components"): "pipeline.connected_components_s",
    ("imfsim.pipeline", "region_proposals"): "pipeline.region_proposals_s",
    ("imfsim.pipeline", "track_update"): "pipeline.track_update_s",
    ("imfsim.metrics", "greedy_matches"): "metrics.greedy_matches_s",
}
PERF_MODEL_FUNCTIONS = (
    "op_counts", "digital_latency", "baseline_energy", "rho_lambda_bound",
    "imc_current", "throughput_efficiency", "system_energy_per_frame",
)
for _name in PERF_MODEL_FUNCTIONS:
    TIMED[("imfsim.perf_model", _name)] = "perf_model.s"

ROOT = "cli.self_s"


class Tracer:
    """Spans as [metric, parent, t0, t1, h0, h1] rows plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.lotteries: set = set()
        self._stack: list[int] = []

    def call(self, metric, fn, args=(), kwargs=None, pre=None, post=None):
        """Run fn as one span; pre and post run outside it, as bookkeeping."""
        kwargs = kwargs or {}
        h0 = self.clock()
        ctx = pre(self, *args, **kwargs) if pre else None
        span = [metric, self._stack[-1] if self._stack else -1, self.clock(), 0.0, h0, 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = self.clock()
            self._stack.pop()
        if post:
            post(self, ctx, result, *args, **kwargs)
        span[5] = self.clock()
        return result

    def root(self, fn):
        """Run one whole step as the root span, whose self time is `cli.self_s`."""
        return self.call(ROOT, fn)

    def summary(self) -> dict:
        """Self time per metric, hook time, root time and counters (JSON-ready)."""
        selfs, hook = self_times(self.spans)
        root_s = sum(s[3] - s[2] for s in self.spans if s[1] == -1)
        counts = dict(self.counts)
        counts["sram_macro.lottery_distinct"] = len(self.lotteries)
        return {"self_s": selfs, "hook_s": hook, "root_s": root_s, "counts": counts}


def self_times(spans) -> tuple[dict, float]:
    """Per-metric self time and total bookkeeping time of a span list."""
    covered = [0.0] * len(spans)
    for metric, parent, t0, t1, h0, h1 in spans:
        if parent >= 0:
            covered[parent] += h1 - h0
    selfs: dict[str, float] = {}
    hook = 0.0
    for i, (metric, parent, t0, t1, h0, h1) in enumerate(spans):
        selfs[metric] = selfs.get(metric, 0.0) + (t1 - t0) - covered[i]
        if parent >= 0:
            hook += (h1 - h0) - (t1 - t0)
    return selfs, hook


def check_self_sum(summary: dict, rel: float = 1e-9) -> None:
    """Self times plus hook time must add up to the root span's duration."""
    total = sum(summary["self_s"].values()) + summary["hook_s"]
    if not math.isclose(total, summary["root_s"], rel_tol=rel, abs_tol=1e-9):
        raise AssertionError(
            f"self times add to {total!r} s but the root span lasted {summary['root_s']!r} s"
        )


# ---------------------------------------------------------------------------
# counter hooks: pre(tracer, *args) -> ctx, post(tracer, ctx, result, *args)
# ---------------------------------------------------------------------------

def _count(key, amount=1):
    def post(tr, ctx, result, *args, **kwargs):
        tr.counts[key] += amount(result) if callable(amount) else amount
    return post


def _post_lottery(tr, ctx, result, shape, device, variation, seed):
    shape = tuple(int(d) for d in shape)
    tr.counts["sram_macro.lotteries"] += 1
    tr.counts["sram_macro.lottery_cells"] += math.prod(shape)
    tr.lotteries.add((int(seed), shape))


def _post_load_frame(tr, ctx, cycles, state, frame):
    tr.counts["sram_macro.cells_written"] += int(np.count_nonzero(frame.pixels))
    tr.counts["sram_macro.sim_cycles"] += int(cycles)


def _pre_filter(tr, state, n, device):
    groups, per_group = state.geometry.rows // n, state.geometry.cols // n
    bits = state.bits[: groups * n, : per_group * n].reshape(groups, n, per_group, n)
    k = bits.sum(axis=(1, 3), dtype=np.uint16)
    return int(k.size), int(((k > 0) & (k < n * n)).sum())


def _post_filter(tr, ctx, report, state, n, device):
    patches, mixed = ctx
    tr.counts["sram_macro.patches_raced"] += patches
    tr.counts["sram_macro.patches_mixed"] += mixed
    tr.counts["sram_macro.sim_cycles"] += report.cycles
    tr.counts["sram_macro.flips_intended"] += report.flips_intended
    tr.counts["sram_macro.flips_unintended"] += report.flips_unintended


HOOKS = {
    ("imfsim.frames", "parse_event_stream"): (None, _count("frames.events_parsed", len)),
    ("imfsim.frames", "read_pbm"): (None, _count("frames.pbm_reads")),
    ("imfsim.frames", "write_pbm"): (None, _count("frames.pbm_writes")),
    ("imfsim.synth", "frames_to_events"): (None, _count("synth.events_emitted", len)),
    ("imfsim.filters", "nomf"): (None, _count("filters.frames_filtered")),
    ("imfsim.filters", "median_filter_overlap"): (None, _count("filters.frames_filtered")),
    ("imfsim.sram_macro", "sample_cell_lottery"): (None, _post_lottery),
    ("imfsim.sram_macro", "load_frame"): (None, _post_load_frame),
    ("imfsim.sram_macro", "filter_in_memory"): (_pre_filter, _post_filter),
    ("imfsim.sram_macro", "measure_image_ber"): (None, _count("sram_macro.measure_image_ber_calls")),
    ("imfsim.pipeline", "connected_components"): (None, _count("pipeline.components_found", len)),
    ("imfsim.pipeline", "region_proposals"): (None, _count("pipeline.proposals_kept", len)),
    ("imfsim.metrics", "greedy_matches"): (None, _count("metrics.greedy_matches_calls")),
}


def _wrap(tracer: Tracer, fn, metric: str, hooks):
    pre, post = hooks

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(metric, fn, args, kwargs, pre, post)

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function in every loaded imfsim module.

    Returns the replaced bindings as (module, name, original) so a caller can
    put them back.
    """
    wrappers = {}
    for (mod_name, fn_name), metric in TIMED.items():
        fn = getattr(importlib.import_module(mod_name), fn_name)
        wrappers[id(fn)] = _wrap(tracer, fn, metric, HOOKS.get((mod_name, fn_name), (None, None)))
    replaced = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "imfsim" and not mod_name.startswith("imfsim."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, value))
    return replaced
