import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from imfsim import pipeline
from imfsim.cli import _table
from imfsim.config import RunConfig
from imfsim.errors import InvalidParamsError
from imfsim.frames import BinaryFrame
from imfsim.metrics import iou, rates
from imfsim.pipeline import (
    CONFIRMED,
    DEAD,
    F1_THRESHOLDS,
    TENTATIVE,
    BoundingBox,
    Track,
    TrackerConfig,
    connected_components,
    connected_components_stack,
    downscale_or,
    downscale_or_stack,
    region_proposals,
    region_proposals_stack,
    track_eval,
    track_proposals,
    track_update,
)
from imfsim.synth import BOX_HEADER, GroundTruthBox


def boxes_as_tuples(boxes):
    return [(b.x, b.y, b.w, b.h) for b in boxes]


# ---------------------------------------------------------------------------
# boxes and downscaling
# ---------------------------------------------------------------------------

def test_bounding_box_validation():
    BoundingBox(1, 1, 1, 1)      # the smallest valid box
    with pytest.raises(InvalidParamsError):
        BoundingBox(0, 0, 0, 4)
    with pytest.raises(InvalidParamsError):
        BoundingBox(0, 0, 4, -1)


def test_downscale_identity_and_solid_block():
    rng = np.random.default_rng(1)
    px = (rng.random((10, 12)) < 0.5).astype(np.uint8)
    fr = BinaryFrame(px)
    assert downscale_or(fr, 1, 1) == fr
    solid = BinaryFrame(np.ones((6, 8), dtype=np.uint8))
    out = downscale_or(solid, 8, 6)
    assert out.pixels.shape == (1, 1) and out.pixels[0, 0] == 1


def test_downscale_ceil_dimensions_and_or():
    px = np.zeros((7, 9), dtype=np.uint8)
    px[6, 8] = 1  # lone pixel in the ragged corner cell
    out = downscale_or(BinaryFrame(px), 4, 3)
    assert out.pixels.shape == (3, 3)  # ceil(7/3) x ceil(9/4)
    assert out.popcount() == 1 and out.pixels[2, 2] == 1


def test_downscale_matches_oracle_and_is_monotone():
    rng = np.random.default_rng(7)
    for _ in range(25):
        h = int(rng.integers(1, 49))
        w = int(rng.integers(1, 65))
        a = int(rng.integers(1, 9))
        b = int(rng.integers(1, 7))
        px = (rng.random((h, w)) < 0.15).astype(np.uint8)
        got = downscale_or(BinaryFrame(px), a, b).pixels
        assert np.array_equal(got, oracles.downscale_or_naive(px, a, b))
        more = px.copy()
        more[int(rng.integers(0, h)), int(rng.integers(0, w))] = 1
        assert (got <= downscale_or(BinaryFrame(more), a, b).pixels).all()


def test_downscale_validation():
    fr = BinaryFrame.zeros(4, 4)
    with pytest.raises(InvalidParamsError):
        downscale_or(fr, 0, 1)
    with pytest.raises(InvalidParamsError):
        downscale_or(fr, 1, -2)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def test_components_empty_frame():
    assert connected_components(BinaryFrame.zeros(10, 10)) == []


def test_components_diagonal_connectivity():
    px = np.zeros((4, 4), dtype=np.uint8)
    px[0, 0] = px[1, 1] = 1
    fr = BinaryFrame(px)
    assert len(connected_components(fr, connectivity=8)) == 1
    assert len(connected_components(fr, connectivity=4)) == 2
    with pytest.raises(InvalidParamsError):
        connected_components(fr, connectivity=6)


def test_components_boxes_sorted_and_tight():
    px = np.zeros((10, 10), dtype=np.uint8)
    px[1:3, 5:9] = 1
    px[6:9, 0:2] = 1
    out = connected_components(BinaryFrame(px))
    assert out == [BoundingBox(5, 1, 4, 2), BoundingBox(0, 6, 2, 3)]


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        px = (rng.random((20, 20)) < 0.25 + 0.5 * (trial % 3 == 0)).astype(np.uint8)
        fr = BinaryFrame(px)
        for conn in (4, 8):
            got = boxes_as_tuples(connected_components(fr, conn))
            assert got == oracles.flood_boxes(px, conn)


def test_components_cover_all_pixels():
    rng = np.random.default_rng(13)
    px = (rng.random((16, 16)) < 0.3).astype(np.uint8)
    boxes = connected_components(BinaryFrame(px), 8)
    covered = np.zeros_like(px)
    for b in boxes:
        covered[b.y : b.y + b.h, b.x : b.x + b.w] = 1
    assert (px <= covered).all()


# ---------------------------------------------------------------------------
# region proposals
# ---------------------------------------------------------------------------

def test_region_proposals_scale_back_to_sensor_coordinates():
    px = np.zeros((60, 80), dtype=np.uint8)
    px[12:24, 16:32] = 1  # maps to a 2x2 block at (2, 2) after (8, 6) downscale
    out = region_proposals(BinaryFrame(px), a=8, b=6, min_area=2)
    assert out == [BoundingBox(16, 12, 16, 12)]


def test_region_proposals_min_area_drops_specks():
    px = np.zeros((60, 80), dtype=np.uint8)
    px[0, 0] = 1           # one downscaled pixel, area 1
    px[30:42, 40:56] = 1   # survives
    keep = region_proposals(BinaryFrame(px), min_area=2)
    assert keep == [BoundingBox(40, 30, 16, 12)]
    both = region_proposals(BinaryFrame(px), min_area=1)
    assert len(both) == 2


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------

def test_track_confirms_after_three_consecutive_hits():
    cfg = TrackerConfig()
    box = BoundingBox(8, 6, 16, 12)
    tracks = []
    for idx in range(3):
        tracks = track_update(tracks, [box], idx, cfg, len(tracks))
        assert [t.state for t in tracks] == [CONFIRMED if idx == 2 else TENTATIVE]
    (t,) = tracks
    assert t.consecutive_hits == 3 and t.boxes == {0: box, 1: box, 2: box}
    assert track_proposals([[box]] * 3, cfg)[1] == [[], [], [box]]


def test_track_dies_after_five_consecutive_misses():
    cfg = TrackerConfig()
    box = BoundingBox(0, 0, 16, 12)
    live = []
    for idx in range(3):
        live = track_update(live, [box], idx, cfg, len(live))
    (t,) = live
    for idx in range(3, 8):
        live = track_update(live, [], idx, cfg, 1)
        assert t.state == (DEAD if idx == 7 else CONFIRMED)
        assert live == ([] if idx == 7 else [t])   # a dead track leaves the live list
    assert t.consecutive_misses == 5
    (spawn,) = track_update(live, [box], 8, cfg, 1)
    assert t.state == DEAD and spawn.track_id == 1 and spawn.state == TENTATIVE
    tracks, _ = track_proposals([[box]] * 3 + [[]] * 5 + [[box]], cfg)
    assert [(t.track_id, t.state) for t in tracks] == [(0, DEAD), (1, TENTATIVE)]


def test_track_miss_resets_confirmation_streak():
    cfg = TrackerConfig()
    box = BoundingBox(0, 0, 16, 12)
    tracks = track_update([], [box], 0, cfg, 0)
    tracks = track_update(tracks, [box], 1, cfg, 1)
    tracks = track_update(tracks, [], 2, cfg, 1)      # streak broken while tentative
    tracks = track_update(tracks, [box], 3, cfg, 1)
    tracks = track_update(tracks, [box], 4, cfg, 1)
    (t,) = tracks
    assert t.state == TENTATIVE and t.consecutive_hits == 2
    tracks = track_update(tracks, [box], 5, cfg, 1)
    assert tracks[0].state == CONFIRMED


def test_track_ties_break_to_lower_track_id():
    cfg = TrackerConfig(confirm_hits=1)
    box = BoundingBox(0, 0, 16, 12)
    live = track_update([], [box, BoundingBox(100, 100, 16, 12)], 0, cfg, 0)
    assert [t.track_id for t in live] == [0, 1]
    # both live tracks overlap the single proposal equally; id 0 wins it
    live[1].boxes[0] = box
    live = track_update(live, [box], 1, cfg, 2)
    assert [t.track_id for t in live] == [0, 1]
    assert 1 in live[0].boxes and 1 not in live[1].boxes


def test_tracker_steps_over_live_tracks_only(monkeypatch):
    # a box that lives 3 frames and misses 5, over and over: one track at a
    # time is live, so no step sees more tracks late than early
    sizes = []
    step = pipeline.track_update

    def recording(live, *args):
        sizes.append(len(live))
        return step(live, *args)

    monkeypatch.setattr(pipeline, "track_update", recording)
    box = BoundingBox(0, 0, 16, 12)
    tracks, _ = track_proposals(([[box]] * 3 + [[]] * 5) * 1000, TrackerConfig())
    assert len(tracks) == 1000 and len(sizes) == 8000
    assert max(sizes) == max(sizes[:80])


# a coarse grid, so equal boxes and equal IoUs are common
grid_frames = st.lists(st.lists(st.builds(
    BoundingBox, x=st.sampled_from([0, 2, 4]), y=st.sampled_from([0, 2, 4]),
    w=st.sampled_from([2, 4]), h=st.sampled_from([2, 4])), max_size=4), max_size=10)


@given(grid_frames,
       st.one_of(st.sampled_from([1 / 9, 0.2, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.01, 1.0)),
       st.integers(1, 3), st.integers(1, 3))
def test_tracker_equals_the_inline_matching_oracle(proposals, thr, confirm_hits, kill_misses):
    tracks, per_frame = track_proposals(proposals, TrackerConfig(thr, confirm_hits, kill_misses))
    want_tracks, want_per_frame = oracles.track_proposals_naive(
        [boxes_as_tuples(frame) for frame in proposals], thr, confirm_hits, kill_misses)
    got = [(t.track_id, t.state, {fi: boxes_as_tuples([b])[0] for fi, b in t.boxes.items()})
           for t in tracks]
    assert got == want_tracks
    assert [boxes_as_tuples(per_frame[fi]) for fi in range(len(proposals))] == want_per_frame


def test_tracker_follows_constant_velocity_target():
    cfg = TrackerConfig()
    stack = np.zeros((50, 180, 240), dtype=np.uint8)
    gt = []
    for idx in range(50):
        x = 10 + 3 * idx
        stack[idx, 60:90, x : x + 40] = 1
        gt.append(BoundingBox(x, 60, 40, 30))
    tracks, per_frame = track_proposals(region_proposals_stack(stack), cfg)
    alive = [t for t in tracks if t.state == CONFIRMED]
    assert len(alive) == 1
    hits = sum(
        1
        for idx in range(2, 50)
        if per_frame[idx] and iou(per_frame[idx][0], gt[idx]) >= 0.5
    )
    assert hits >= 43  # at least 90% of the confirmable frames


def test_track_recording_deterministic():
    rng = np.random.default_rng(21)
    stack = (rng.random((20, 60, 80)) < 0.1).astype(np.uint8)
    a = track_proposals(region_proposals_stack(stack), TrackerConfig())
    b = track_proposals(region_proposals_stack(stack.copy()), TrackerConfig())
    assert a[1] == b[1]
    assert [(t.track_id, t.state, t.boxes) for t in a[0]] == [
        (t.track_id, t.state, t.boxes) for t in b[0]
    ]


def test_tracker_config_validation():
    with pytest.raises(InvalidParamsError):
        TrackerConfig(iou_match_threshold=0.0)
    with pytest.raises(InvalidParamsError):
        TrackerConfig(iou_match_threshold=1.5)
    with pytest.raises(InvalidParamsError):
        TrackerConfig(confirm_hits=0)
    with pytest.raises(InvalidParamsError):
        TrackerConfig(kill_misses=0)


# ---------------------------------------------------------------------------
# frame-stack kernels
# ---------------------------------------------------------------------------

small_stacks = hnp.arrays(
    np.uint8,
    st.tuples(st.integers(1, 3), st.integers(1, 20), st.integers(1, 20)),
    elements=st.integers(0, 1),
)


def stack_rows(stack, connectivity):
    """flood_boxes of every frame, as the kernel's (frame, x, y, w, h) rows."""
    return [(f, *box) for f, px in enumerate(stack)
            for box in oracles.flood_boxes(px, connectivity)]


@given(small_stacks, st.integers(1, 9), st.integers(1, 7))
def test_downscale_stack_matches_oracle(stack, a, b):
    got = downscale_or_stack(stack, a, b)
    assert got.shape == (len(stack), -(-stack.shape[1] // b), -(-stack.shape[2] // a))
    for px, small in zip(stack, got):
        assert np.array_equal(small, oracles.downscale_or_naive(px, a, b))
        assert np.array_equal(downscale_or(BinaryFrame(px), a, b).pixels, small)


@given(small_stacks, st.sampled_from([4, 8]))
def test_component_stack_matches_flood_fill(stack, connectivity):
    got = connected_components_stack(stack, connectivity)
    assert [tuple(r) for r in got.tolist()] == stack_rows(stack, connectivity)
    for f, px in enumerate(stack):
        want = [tuple(r[1:]) for r in got.tolist() if r[0] == f]
        assert boxes_as_tuples(connected_components(BinaryFrame(px), connectivity)) == want


def test_component_boxes_tie_on_corner_keeps_raster_order():
    # two 8-connected components whose boxes both start at (0, 0)
    px = np.zeros((6, 4), dtype=np.uint8)
    px[0, 1] = px[1, 0] = 1                 # box (0, 0, 2, 2)
    px[0:6, 3] = 1
    px[5, 0:4] = 1                          # box (0, 0, 4, 6)
    got = [tuple(r) for r in connected_components_stack(px[None], 8).tolist()]
    assert got == [(0, *b) for b in oracles.flood_boxes(px, 8)]
    assert got == [(0, 0, 0, 2, 2), (0, 0, 0, 4, 6)]


def spiral(side):
    """One 4-connected path winding inward, a one-pixel gap between its turns."""
    px = np.zeros((side, side), dtype=np.uint8)
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    y = x = d = turns = 0
    px[0, 0] = 1

    def clear(yy, xx):
        return not (0 <= yy < side and 0 <= xx < side) or not px[yy, xx]

    while turns < 2:
        dy, dx = steps[d]
        ny, nx = y + dy, x + dx
        if 0 <= ny < side and 0 <= nx < side and not px[ny, nx] and clear(ny + dy, nx + dx):
            y, x, turns = ny, nx, 0
            px[y, x] = 1
        else:
            d, turns = (d + 1) % 4, turns + 1
    return px


def serpentine(side):
    """Full even rows joined at alternate ends: one path of about side^2 / 2 pixels."""
    px = np.zeros((side, side), dtype=np.uint8)
    px[::2] = 1
    px[1::4, -1] = 1
    px[3::4, 0] = 1
    return px


@pytest.mark.parametrize("shape", [spiral, serpentine])
def test_adversarial_components_converge(shape):
    px = shape(30)
    for view in (px, px[::-1], px[:, ::-1], px.T, px.T[::-1, ::-1]):
        for connectivity in (4, 8):
            assert oracles.flood_boxes(view, connectivity) == [(0, 0, 30, 30)]
            got = connected_components_stack(np.ascontiguousarray(view)[None], connectivity)
            assert got.tolist() == [[0, 0, 0, 30, 30]]
    stack = np.repeat(px[None], 500, axis=0)
    got = connected_components_stack(stack, 4)
    assert got.tolist() == [[f, 0, 0, 30, 30] for f in range(500)]
    # One path of about 7,000 pixels per frame.  Labels that advanced a
    # bounded distance per round would need thousands of rounds here (over
    # 10 s); hooking with pointer jumping takes well under 0.1 s.
    stack = np.repeat(shape(120)[None], 25, axis=0)
    t0 = time.perf_counter()
    got = connected_components_stack(stack, 4)
    assert time.perf_counter() - t0 < 2.0
    assert got.tolist() == [[f, 0, 0, 120, 120] for f in range(25)]


@given(small_stacks, st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([4, 8]))
@settings(max_examples=25)
def test_region_proposals_stack_is_per_frame_proposals(stack, a, b, min_area, connectivity):
    got = region_proposals_stack(stack, a, b, min_area, connectivity)
    assert got == [region_proposals(BinaryFrame(px), a, b, min_area, connectivity)
                   for px in stack]


@st.composite
def framed_rectangles(draw):
    """Frame sides, rescale factors from 1 to past each side, and solid rectangles."""
    width, height = draw(st.integers(1, 320)), draw(st.integers(1, 240))
    a, b = draw(st.integers(1, width + 9)), draw(st.integers(1, height + 9))
    rects = draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, height - 1),
                                    st.integers(1, width), st.integers(1, height)),
                          min_size=1, max_size=4))
    return width, height, a, b, rects


@given(framed_rectangles())
@example((60, 40, 8, 6, [(50, 30, 10, 10)]))   # the last block column and row are partial
@settings(max_examples=25)
def test_proposal_and_track_boxes_stay_inside_the_frame(case):
    width, height, a, b, rects = case
    stack = np.zeros((4, height, width), dtype=np.uint8)   # still, so tracks confirm
    for x, y, w, h in rects:
        stack[:, y : y + h, x : x + w] = 1

    def inside(box):
        return 0 <= box.x and 0 <= box.y and box.x + box.w <= width and box.y + box.h <= height

    proposals = region_proposals_stack(stack, a, b, 1)
    assert all(proposals) and all(inside(box) for frame in proposals for box in frame)
    with tempfile.TemporaryDirectory() as tmp:
        gt = Path(tmp) / "gt.csv"
        gt.write_text(",".join(BOX_HEADER) + "\n")     # no ground truth
        results, _ = track_eval(RunConfig(rescale_a=a, rescale_b=b, min_area=1),
                                [(0, stack)], gt)
    for rows, _, _ in results.values():    # the rows of tracks_omf.csv and tracks_nomf.csv
        assert all(inside(row) for row in rows)


def test_stack_kernels_validate_parameters():
    stack = np.zeros((2, 4, 4), dtype=np.uint8)
    with pytest.raises(InvalidParamsError):
        downscale_or_stack(stack, 0, 1)
    with pytest.raises(InvalidParamsError):
        connected_components_stack(stack, 6)
    assert connected_components_stack(stack, 8).shape == (0, 5)


def test_track_eval_weights_the_f1_by_the_track_count(tmp_path):
    # six frames of one still box, confirmed from frame 2: 4 of 6 ground-truth
    # boxes found, F1 = 0.8; two more ground-truth tracks lie past the last
    # frame, so n = 3, and (3 * 0.8) / 3 is not bitwise 0.8
    stack = np.zeros((6, 36, 72), dtype=np.uint8)
    stack[:, 12:24, 24:48] = 1
    gt = [GroundTruthBox(fi, 0, "car", 24, 12, 24, 12) for fi in range(6)]
    with _table(tmp_path / "gt.csv", BOX_HEADER) as add_rows:
        add_rows(gt + [GroundTruthBox(9, tid, "car", 0, 0, 4, 4) for tid in (1, 2)])
    f1 = rates(4, 4, 6)[2]
    assert 3 * f1 / 3 != f1
    results, summary = track_eval(RunConfig(), [(0, stack)], tmp_path / "gt.csv")
    assert list(results) == ["omf", "nomf"]
    for rows, curve, auc in results.values():
        assert [(r.frame_index, r.track_id) for r in rows] == [(fi, 0) for fi in range(6)]
        assert curve == [(thr, 3 * f1 / 3) for thr in F1_THRESHOLDS]
        assert auc == pytest.approx(0.8 * 0.8)
    assert summary == {"auc_omf": results["omf"][2], "auc_nomf": results["nomf"][2],
                       "auc_abs_diff": abs(results["omf"][2] - results["nomf"][2])}
