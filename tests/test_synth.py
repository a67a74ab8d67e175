import numpy as np
import pytest

import oracles
from imfsim import frames as frames_module
from imfsim.errors import DimensionMismatchError, InvalidParamsError
from imfsim.frames import BinaryFrame, EventArray, FrameConfig, aggregate_frames
from imfsim.synth import (
    OBJECT_SIZES,
    GroundTruthBox,
    event_batches,
    frames_to_events,
    noise_chunks,
    noise_frames,
    read_box_csv,
    traffic_chunks,
    traffic_dataset,
    write_box_csv,
)


def test_noise_frames_density_and_determinism():
    a = noise_frames(10, width=240, height=180, p=0.35, seed=3)
    b = noise_frames(10, width=240, height=180, p=0.35, seed=3)
    assert all(x == y for x, y in zip(a, b))
    assert len(a) == 10 and a[0].pixels.shape == (180, 240)
    density = sum(f.popcount() for f in a) / (10 * 43200)
    assert density == pytest.approx(0.35, abs=0.01)
    assert noise_frames(1, p=0.35, seed=4)[0] != a[0]


def test_traffic_dataset_shapes_and_ground_truth():
    frames, gt = traffic_dataset(n_frames=60, seed=0)
    assert len(frames) == 60
    assert frames[0].pixels.shape == (180, 240)
    assert any(g.frame_index == 0 for g in gt)  # an object exists from the start
    ids = {g.track_id for g in gt}
    assert ids == set(range(len(ids)))  # contiguous track ids
    for g in gt:
        assert g.label in OBJECT_SIZES
        assert (g.h, g.w) in OBJECT_SIZES[g.label]
        assert 0 <= g.x and g.x + g.w <= 240
        assert 0 <= g.y and g.y + g.h <= 180
        # objects are solid blocks; salt noise only ever adds pixels
        block = frames[g.frame_index].pixels[g.y : g.y + g.h, g.x : g.x + g.w]
        assert block.all()


def test_traffic_dataset_deterministic_per_seed():
    f1, g1 = traffic_dataset(n_frames=30, seed=9)
    f2, g2 = traffic_dataset(n_frames=30, seed=9)
    assert g1 == g2
    assert all(a == b for a, b in zip(f1, f2))
    f3, g3 = traffic_dataset(n_frames=30, seed=10)
    assert g3 != g1 or any(a != b for a, b in zip(f1, f3))


def test_box_csv_round_trip(tmp_path):
    rows = [
        GroundTruthBox(0, 0, "car", 10, 20, 22, 12),
        GroundTruthBox(1, 0, "car", 13, 20, 22, 12),
        GroundTruthBox(1, 1, "bus", 50, 60, 40, 18),
    ]
    path = tmp_path / "gt.csv"
    write_box_csv(rows, path)
    assert read_box_csv(path) == rows
    text = path.read_text()
    assert text.splitlines()[0] == "frame_index,track_id,class,x,y,w,h"
    assert "\r" not in text


@pytest.mark.parametrize("field", ["1_0", "+5", "-5", "5.0", "\x1c5", ""])
def test_box_csv_integer_fields_are_digit_runs(tmp_path, field):
    path = tmp_path / "gt.csv"
    path.write_text(f"frame_index,track_id,class,x,y,w,h\n0,1,car, 10 ,\t20,4,4\n"
                    f"1,1,car,{field},20,4,4\n")
    with pytest.raises(InvalidParamsError, match=f"{path}:3: non-integer field"):
        read_box_csv(path)
    path.write_text("frame_index,track_id,class,x,y,w,h\n0,1,car, 10 ,\t20,4,4\n")
    assert read_box_csv(path) == [GroundTruthBox(0, 1, "car", 10, 20, 4, 4)]


def stack(frames):
    return np.stack([f.pixels for f in frames])


def test_frames_to_events_round_trip():
    frames, _ = traffic_dataset(n_frames=12, seed=2)
    events = frames_to_events(stack(frames), t_f=66_000)
    assert (events.polarity == 1).all()
    assert (events.t == (events.t // 66_000) * 66_000).all()
    rebuilt = aggregate_frames(
        events, FrameConfig(t_f=66_000, sensor_width=240, sensor_height=180)
    )
    # trailing empty frames cannot round-trip; everything up to the last event does
    assert len(rebuilt) <= len(frames)
    for got, want in zip(rebuilt, frames):
        assert got == want
    assert all(f.popcount() == 0 for f in frames[len(rebuilt) :])


def test_frames_to_events_matches_naive_loop():
    frames, _ = traffic_dataset(n_frames=12, seed=2)
    want = oracles.frames_to_events_naive([f.pixels for f in frames], 1000)
    assert frames_to_events(stack(frames), t_f=1000) == EventArray(*want)


def test_frames_to_events_edge_cases():
    assert len(frames_to_events(np.zeros((0, 3, 4), np.uint8), t_f=10)) == 0
    assert len(frames_to_events(stack([BinaryFrame.zeros(4, 3)]), t_f=10)) == 0
    with pytest.raises(DimensionMismatchError):
        frames_to_events(BinaryFrame.zeros(4, 3).pixels)


def test_synth_validation():
    assert noise_frames(0) == []
    with pytest.raises(InvalidParamsError):
        noise_frames(3, p=1.5)
    with pytest.raises(InvalidParamsError):
        traffic_dataset(n_frames=0)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_generators_concatenate_to_the_list_wrappers(monkeypatch, chunk):
    frames, gt = traffic_dataset(n_frames=30, seed=4)
    noise = noise_frames(30, 24, 18, p=0.35, seed=4)
    monkeypatch.setattr(frames_module, "FRAME_CHUNK", chunk)
    for got, want_frames, want_gt in ((list(traffic_chunks(30, seed=4)), frames, gt),
                                      (list(noise_chunks(30, 24, 18, p=0.35, seed=4)), noise, [])):
        assert [first for first, _, _ in got] == list(range(0, 30, chunk))
        assert [len(stack) for _, stack, _ in got[:-1]] == [chunk] * (len(got) - 1)
        assert np.array_equal(np.concatenate([stack for _, stack, _ in got]),
                              [f.pixels for f in want_frames])
        assert [box for _, _, boxes in got for box in boxes] == want_gt
        for first, stack, boxes in got:
            assert all(first <= box.frame_index < first + len(stack) for box in boxes)


def test_list_wrapper_frames_survive_the_next_chunk(monkeypatch):
    monkeypatch.setattr(frames_module, "FRAME_CHUNK", 4)
    for chunks, frames in ((traffic_chunks(12, seed=6), traffic_dataset(12, seed=6)[0]),
                           (noise_chunks(12, seed=6), noise_frames(12, seed=6))):
        _, first, _ = next(chunks)
        kept = first.copy()
        next(chunks)
        assert np.array_equal(first, kept)
        assert all(np.array_equal(f.pixels, px) for f, px in zip(frames, kept))


def test_event_batches_carry_the_epoch_across_chunks(monkeypatch):
    frames, _ = traffic_dataset(n_frames=20, seed=2)
    whole = frames_to_events(stack(frames), t_f=1000)
    monkeypatch.setattr("imfsim.frames.EVENT_BATCH", 500)
    batches = [batch for first in range(0, 20, 6)
               for batch in event_batches(stack(frames[first:first + 6]), 1000, first * 1000)]
    assert all(len(b) <= 500 or len(np.unique(b.t)) == 1 for b in batches)
    assert EventArray(*(np.concatenate([getattr(b, c) for b in batches])
                        for c in ("t", "x", "y", "polarity"))) == whole
