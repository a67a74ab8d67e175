"""Region proposals, overlap tracking and their scoring on filtered frames.

Frames are OR-downscaled by (a, b), connected components of the small image
become proposals (tiny specks dropped), proposal boxes are mapped back to
sensor coordinates by multiplying by (a, b) and clipped to the frame, and a
greedy IoU tracker links them over time.  Tracks confirm after a run of
consecutive hits and die after a run of consecutive misses.  Downscaling,
labelling and proposals are kernels over an (N, H, W) stack of frames; the
per-frame functions call them on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

from .errors import InvalidParamsError
from .filters import KERNELS
from .frames import BinaryFrame
from .metrics import f1_curve_auc, greedy_matches, match_counts, rates
from .params import TrackerConfig
from .synth import GroundTruthBox, read_box_csv

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig

F1_THRESHOLDS = [round(0.1 * i, 1) for i in range(1, 10)]


@dataclass(frozen=True)
class BoundingBox:
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise InvalidParamsError(f"box sides must be positive: {self}")


TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DEAD = "dead"


@dataclass
class Track:
    track_id: int
    boxes: dict[int, BoundingBox] = field(default_factory=dict)
    consecutive_hits: int = 0
    consecutive_misses: int = 0
    state: str = TENTATIVE

    @property
    def last_box(self) -> BoundingBox:
        return next(reversed(self.boxes.values()))  # boxes go in by frame


def downscale_or_stack(stack: np.ndarray, a: int, b: int) -> np.ndarray:
    """OR-reduce a*b blocks of every frame of an (N, H, W) stack; the output
    is (N, ceil(H/b), ceil(W/a))."""
    if a < 1 or b < 1:
        raise InvalidParamsError(f"rescale factors must be >= 1, got ({a}, {b})")
    _, h, w = stack.shape
    cols = np.zeros((len(stack), h, -(-w // a)), dtype=np.uint8)
    for j in range(min(a, w)):     # a slice past the frame is empty
        part = stack[:, :, j::a]
        cols[:, :, : part.shape[2]] |= part
    out = np.zeros((len(stack), -(-h // b), cols.shape[2]), dtype=np.uint8)
    for i in range(min(b, h)):
        part = cols[:, i::b]
        out[:, : part.shape[1]] |= part
    return out


# neighbours after a pixel in raster order; the rest are the same edges reversed
_FORWARD_STEPS = {4: ((0, 1), (1, 0)), 8: ((0, 1), (1, -1), (1, 0), (1, 1))}


def connected_components_stack(stack: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Bounding boxes of the connected 1-regions of every frame of an (N, H, W)
    stack, as int rows (frame, x, y, w, h) sorted by (frame, y, x).

    Foreground pixels are numbered in raster order over the whole stack, and
    each starts labelled by its own number.  Every round hooks, across each
    edge whose ends disagree, the larger root under the smaller label, then
    jumps pointers until each label is a root.  So each component ends
    labelled by its first pixel in raster order, which breaks (y, x) ties.
    """
    if connectivity not in _FORWARD_STEPS:
        raise InvalidParamsError(f"connectivity must be 4 or 8, got {connectivity}")
    n_frames, h, w = stack.shape
    fg = np.zeros((n_frames, h + 2, w + 2), dtype=bool)  # a background border per frame
    fg[:, 1:-1, 1:-1] = stack
    pos = np.flatnonzero(fg)
    index = np.full(fg.size, -1, dtype=np.intp)
    index[pos] = np.arange(pos.size)
    src, dst = [], []
    for dy, dx in _FORWARD_STEPS[connectivity]:
        neighbour = index[pos + dy * (w + 2) + dx]
        src.append(np.flatnonzero(neighbour >= 0))
        dst.append(neighbour[neighbour >= 0])
    src, dst = np.concatenate(src), np.concatenate(dst)

    label = np.arange(pos.size)
    while True:
        ls, ld = label[src], label[dst]
        apart = ls != ld
        if not apart.any():
            break
        ls, ld = ls[apart], ld[apart]
        np.minimum.at(label, np.maximum(ls, ld), np.minimum(ls, ld))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped

    frame, y, x = np.unravel_index(pos, fg.shape)
    roots, comp = np.unique(label, return_inverse=True)
    frame, x0, x1, y0, y1 = frame[roots], x[roots], x[roots], y[roots], y[roots]
    np.minimum.at(x0, comp, x)     # y0 is already the root's row
    np.maximum.at(x1, comp, x)
    np.maximum.at(y1, comp, y)
    boxes = np.stack([frame, x0 - 1, y0 - 1, x1 - x0 + 1, y1 - y0 + 1], axis=1)
    return boxes[np.lexsort((x0, y0, frame))]


def region_proposals_stack(
    stack: np.ndarray,
    a: int = 8,
    b: int = 6,
    min_area: int = 2,
    connectivity: int = 8,
) -> list[list[BoundingBox]]:
    """Per frame of an (N, H, W) stack: downscale, label, drop specks below
    min_area (downscaled px), map back by (a, b) and clip to the frame."""
    boxes = connected_components_stack(downscale_or_stack(stack, a, b), connectivity)
    n_frames, height, width = stack.shape
    out: list[list[BoundingBox]] = [[] for _ in range(n_frames)]
    for frame, x, y, w, h in boxes[boxes[:, 3] * boxes[:, 4] >= min_area].tolist():
        x, y = x * a, y * b     # inside the frame: x < ceil(width / a)
        out[frame].append(BoundingBox(x, y, min(w * a, width - x), min(h * b, height - y)))
    return out


def downscale_or(frame: BinaryFrame, a: int, b: int) -> BinaryFrame:
    """OR-reduce a*b blocks; output is ceil(W/a) x ceil(H/b)."""
    return BinaryFrame(downscale_or_stack(frame.pixels[None], a, b)[0])


def connected_components(frame: BinaryFrame, connectivity: int = 8) -> list[BoundingBox]:
    """Bounding boxes of connected 1-regions, sorted by (y, x)."""
    return [BoundingBox(x, y, w, h) for _, x, y, w, h in
            connected_components_stack(frame.pixels[None], connectivity).tolist()]


def region_proposals(
    frame: BinaryFrame,
    a: int = 8,
    b: int = 6,
    min_area: int = 2,
    connectivity: int = 8,
) -> list[BoundingBox]:
    """Downscale, label, drop specks below min_area (downscaled px), map back by (a, b)."""
    return region_proposals_stack(frame.pixels[None], a, b, min_area, connectivity)[0]


def track_update(
    live: list[Track],
    proposals: list[BoundingBox],
    frame_index: int,
    cfg: TrackerConfig,
    next_id: int,
) -> list[Track]:
    """One step over the live tracks, by ascending id: greedy IoU matching (ties
    to the lower id), hit/miss bookkeeping, confirmations and kills.  Returns the
    tracks still live, then spawns numbered from next_id; one that dies is set DEAD."""
    matches = greedy_matches([t.last_box for t in live], proposals, cfg.iou_match_threshold)
    assignment = {ti: pi for ti, pi, _ in matches}
    matched_props = set(assignment.values())

    for ti, t in enumerate(live):
        if ti in assignment:
            t.boxes[frame_index] = proposals[assignment[ti]]
            t.consecutive_hits += 1
            t.consecutive_misses = 0
            if t.state == TENTATIVE and t.consecutive_hits >= cfg.confirm_hits:
                t.state = CONFIRMED
        else:
            t.consecutive_misses += 1
            t.consecutive_hits = 0
            if t.consecutive_misses >= cfg.kill_misses:
                t.state = DEAD

    spawns = [p for pi, p in enumerate(proposals) if pi not in matched_props]
    return [t for t in live if t.state != DEAD] + [
        Track(next_id + i, {frame_index: p}, consecutive_hits=1) for i, p in enumerate(spawns)]


def track_proposals(
    proposals: list[list[BoundingBox]], cfg: TrackerConfig
) -> tuple[list[Track], list[list[BoundingBox]]]:
    """Track per-frame proposals; returns the tracks and, per frame, the boxes
    of the tracks confirmed as of that frame, by ascending track id."""
    tracks: list[Track] = []
    live: list[Track] = []
    per_frame = []
    for idx, frame_proposals in enumerate(proposals):
        made = len(tracks)
        live = track_update(live, frame_proposals, idx, cfg, made)
        tracks += [t for t in live if t.track_id >= made]
        per_frame.append([t.boxes[idx] for t in live
                          if t.state == CONFIRMED and idx in t.boxes])
    return tracks, per_frame


def track_eval(cfg: "RunConfig", chunks: Iterable[tuple[int, np.ndarray]],
               gt_path: Union[str, Path]) -> tuple[dict, dict[str, float]]:
    """Proposals of the omf- and nomf-filtered frames of a recording streamed
    as (first index, stack) chunks, tracked and matched against the boxes of
    `gt_path`, which is read after the chunks.  Per filter, omf then nomf:
    the boxes of every track not tentative as rows by (frame, track id), the
    (thr, weighted F1) curve over F1_THRESHOLDS and its AUC.  Then the
    summary: auc_omf, auc_nomf and auc_abs_diff."""
    proposals: dict[str, list] = {filt: [] for filt in KERNELS}
    for _, chunk in chunks:
        for filt, kernel in KERNELS.items():
            proposals[filt] += region_proposals_stack(
                kernel(chunk, cfg.n), cfg.rescale_a, cfg.rescale_b, cfg.min_area,
                cfg.connectivity,
            )
    gt_rows = read_box_csv(gt_path)
    gt: list[list[BoundingBox]] = [[] for _ in proposals["omf"]]
    for row in gt_rows:
        if row.frame_index < len(gt):
            gt[row.frame_index].append(BoundingBox(row.x, row.y, row.w, row.h))
    n_tracks, gts = len({row.track_id for row in gt_rows}), sum(map(len, gt))
    results = {}
    for filt, filt_proposals in proposals.items():
        tracks, per_frame = track_proposals(filt_proposals, cfg.build(TrackerConfig))
        rows = sorted((GroundTruthBox(fi, t.track_id, "object", bx.x, bx.y, bx.w, bx.h)
                       for t in tracks if t.state != TENTATIVE
                       for fi, bx in t.boxes.items()),
                      key=lambda r: (r.frame_index, r.track_id))
        tps = map(sum, zip(*(match_counts(b, g, F1_THRESHOLDS) for b, g in zip(per_frame, gt))))
        proposed = sum(map(len, per_frame))
        # the recording's F1 weighted by its track count, as (n * f1) / n:
        # that is not always bitwise f1, and the curve files hold the weighted value
        curve = [(thr, n_tracks * rates(tp, proposed, gts)[2] / n_tracks if n_tracks else 0.0)
                 for thr, tp in zip(F1_THRESHOLDS, tps)]
        results[filt] = rows, curve, f1_curve_auc(F1_THRESHOLDS, [v for _, v in curve])
    omf, nomf = results["omf"][2], results["nomf"][2]
    return results, {"auc_omf": omf, "auc_nomf": nomf, "auc_abs_diff": abs(omf - nomf)}
