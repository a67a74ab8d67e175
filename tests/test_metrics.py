import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from imfsim.errors import InvalidParamsError
from imfsim.metrics import (
    f1_curve_auc,
    greedy_matches,
    iou,
    match_counts,
    rates,
)
from imfsim.pipeline import BoundingBox

boxes_st = st.builds(
    BoundingBox,
    x=st.integers(0, 40),
    y=st.integers(0, 40),
    w=st.integers(1, 15),
    h=st.integers(1, 15),
)


def random_boxes(rng, count, span=60):
    return [
        BoundingBox(
            int(rng.integers(0, span)),
            int(rng.integers(0, span)),
            int(rng.integers(1, 12)),
            int(rng.integers(1, 12)),
        )
        for _ in range(count)
    ]


def as_tuples(boxes):
    return [(b.x, b.y, b.w, b.h) for b in boxes]


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------

def test_iou_hand_cases():
    a = BoundingBox(0, 0, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox(2, 0, 2, 2)) == 0.0  # touching edges do not overlap
    assert iou(a, BoundingBox(1, 0, 2, 2)) == pytest.approx(1 / 3)
    assert iou(BoundingBox(0, 0, 4, 4), BoundingBox(1, 1, 2, 2)) == pytest.approx(0.25)


@given(boxes_st, boxes_st)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0
    assert v == pytest.approx(oracles.iou_xywh((a.x, a.y, a.w, a.h), (b.x, b.y, b.w, b.h)))


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_greedy_matches_one_to_one_and_ordered():
    P = [BoundingBox(0, 0, 4, 4), BoundingBox(1, 1, 4, 4), BoundingBox(30, 30, 2, 2)]
    G = [BoundingBox(0, 0, 4, 4), BoundingBox(20, 20, 2, 2)]
    out = greedy_matches(P, G, 0.1)
    assert out[0] == (0, 0, 1.0)  # exact pair claimed first
    assert len(out) == 1          # remaining pairs fall below the threshold
    ious = [v for _, _, v in out]
    assert ious == sorted(ious, reverse=True)


def test_greedy_matches_threshold_is_inclusive():
    P = [BoundingBox(0, 0, 2, 2)]
    G = [BoundingBox(1, 0, 2, 2)]  # IoU exactly 1/3
    assert greedy_matches(P, G, 1 / 3) == [(0, 0, pytest.approx(1 / 3))]
    assert greedy_matches(P, G, 0.34) == []


def test_greedy_ties_break_to_lowest_indices():
    g = BoundingBox(0, 0, 2, 2)
    out = greedy_matches([g, g], [g, g], 0.5)
    assert [(i, j) for i, j, _ in out] == [(0, 0), (1, 1)]


# a coarse grid, so equal boxes and equal IoUs are common
grid_boxes = st.lists(st.builds(BoundingBox, x=st.sampled_from([0, 2, 4]),
                                y=st.sampled_from([0, 2, 4]), w=st.sampled_from([2, 4]),
                                h=st.sampled_from([2, 4])), max_size=6)


@given(grid_boxes, grid_boxes, st.lists(st.sampled_from(
    [0.0, 0.1, 1 / 9, 0.2, 0.25, 1 / 3, 0.5, 0.9, 1.0, 1.5]), max_size=5))
def test_match_counts_equal_greedy_matches_at_every_threshold(P, G, extra):
    thresholds = [round(0.1 * i, 1) for i in range(1, 10)] + extra
    want = [oracles.greedy_matches_naive(as_tuples(P), as_tuples(G), thr) for thr in thresholds]
    assert [greedy_matches(P, G, thr) for thr in thresholds] == want
    assert match_counts(P, G, thresholds) == [len(m) for m in want]


def test_greedy_never_beats_exact_matching():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        P = random_boxes(rng, 30)
        G = random_boxes(rng, 30)
        for thr in (0.05, 0.2, 0.5):
            g = len(greedy_matches(P, G, thr))
            opt = oracles.max_matching_size(as_tuples(P), as_tuples(G), thr)
            assert g <= opt


def test_greedy_equals_exact_on_frozen_instance():
    rng = np.random.default_rng(2)
    P = random_boxes(rng, 50)
    G = random_boxes(rng, 50)
    g = len(greedy_matches(P, G, 0.1))
    assert g == oracles.max_matching_size(as_tuples(P), as_tuples(G), 0.1)
    assert g > 0


# ---------------------------------------------------------------------------
# precision / recall / F1
# ---------------------------------------------------------------------------

def precision_recall_f1(proposed, gt, thr):
    return rates(len(greedy_matches(proposed, gt, thr)), len(proposed), len(gt))


def test_precision_recall_f1_hand_case():
    G = [BoundingBox(0, 0, 4, 4), BoundingBox(10, 10, 4, 4)]
    P = [BoundingBox(0, 0, 4, 4), BoundingBox(30, 30, 4, 4), BoundingBox(40, 0, 4, 4)]
    p, r, f1 = precision_recall_f1(P, G, 0.5)
    assert p == pytest.approx(1 / 3)
    assert r == pytest.approx(1 / 2)
    assert f1 == pytest.approx(2 * (1 / 3) * (1 / 2) / (1 / 3 + 1 / 2))


def test_precision_recall_f1_empty_inputs():
    box = [BoundingBox(0, 0, 2, 2)]
    assert precision_recall_f1([], box, 0.5) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(box, [], 0.5) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(box, box, 0.5) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------

def test_f1_curve_auc_constant_curve():
    thr = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert f1_curve_auc(thr, [0.5] * 9) == pytest.approx(0.8 * 0.5)
    assert f1_curve_auc(thr, [1.0] * 9) == pytest.approx(0.8)


def test_f1_curve_auc_hand_case():
    assert f1_curve_auc([0.0, 1.0], [0.0, 1.0]) == pytest.approx(0.5)
    assert f1_curve_auc([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]) == pytest.approx(0.5)


def test_f1_curve_auc_validation():
    with pytest.raises(InvalidParamsError):
        f1_curve_auc([0.1, 0.2], [0.5])
    with pytest.raises(InvalidParamsError):
        f1_curve_auc([0.1], [0.5])
    with pytest.raises(InvalidParamsError):
        f1_curve_auc([0.1, 0.1], [0.5, 0.5])
    with pytest.raises(InvalidParamsError):
        f1_curve_auc([0.2, 0.1], [0.5, 0.5])
