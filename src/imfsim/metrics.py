"""Detection and tracking quality metrics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import InvalidParamsError

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import BoundingBox


def iou(a: "BoundingBox", b: "BoundingBox") -> float:
    """Intersection over union of two axis-aligned boxes; 0 for empty union."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def greedy_matches(
    proposed: Sequence["BoundingBox"], gt: Sequence["BoundingBox"], thr: float
) -> list[tuple[int, int, float]]:
    """One-to-one matching by descending IoU, lowest indices breaking ties.

    Only pairs with IoU >= thr participate.  Greedy selection is not always
    maximum-cardinality; callers that care compare against an exact matcher.
    """
    pairs = []
    for i, p in enumerate(proposed):
        for j, g in enumerate(gt):
            v = iou(p, g)
            if v >= thr:
                pairs.append((-v, i, j))
    pairs.sort()
    used_p: set[int] = set()
    used_g: set[int] = set()
    out = []
    for neg_v, i, j in pairs:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        out.append((i, j, -neg_v))
    return out


def match_counts(
    proposed: Sequence["BoundingBox"], gt: Sequence["BoundingBox"], thresholds: Sequence[float]
) -> list[int]:
    """len(greedy_matches(proposed, gt, thr)) for every thr, from one greedy
    pass over all pairs: the pairs at or above a threshold are a prefix of its
    order, and a greedy pick over a prefix picks what the whole pass picks there."""
    ious = [v for _, _, v in greedy_matches(proposed, gt, 0.0)]
    return [sum(v >= thr for v in ious) for thr in thresholds]


def rates(tp: int, proposed: int, gt: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of tp matches among proposed and gt counts."""
    precision = tp / proposed if proposed else 0.0
    recall = tp / gt if gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def f1_curve_auc(thresholds: Sequence[float], values: Sequence[float]) -> float:
    """Trapezoidal area under a metric-vs-threshold curve."""
    if len(thresholds) != len(values):
        raise InvalidParamsError("thresholds and values must have equal length")
    if len(thresholds) < 2:
        raise InvalidParamsError("need at least two thresholds")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise InvalidParamsError("thresholds must be strictly increasing")
    area = 0.0
    for (t0, t1), (v0, v1) in zip(
        zip(thresholds, thresholds[1:]), zip(values, values[1:])
    ):
        area += (t1 - t0) * (v0 + v1) / 2.0
    return area
