"""Synthetic workloads: moving-rectangle traffic scenes and dense noise fields.

Traffic scenes contain solid rectangles sized like typical road users seen
from a roadside event camera (three distance bands per class), moving at
constant horizontal velocity, plus Bernoulli salt noise.  Every frame comes
with ground-truth boxes, so the scenes drive the proposal/tracking
evaluation.  Dense noise fields (no objects, high salt rate) are the
characterization workload for error-rate calibration: they are rich in
near-balanced patches, which real traffic frames almost never produce.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Union

import numpy as np

from . import frames as _frames
from .config import RunConfig
from .errors import DimensionMismatchError, InvalidParamsError
from .frames import EVENT_DTYPE, BinaryFrame, _uint

# (height, width) per class, near/mid/far distance bands
OBJECT_SIZES: dict[str, tuple[tuple[int, int], ...]] = {
    "car": ((16, 42), (25, 47), (34, 82)),
    "bus": ((31, 94), (52, 107), (64, 180)),
    "bike": ((15, 21), (17, 22), (26, 44)),
    "truck": ((22, 50), (35, 61), (50, 104)),
}
BOX_HEADER = ["frame_index", "track_id", "class", "x", "y", "w", "h"]


class GroundTruthBox(NamedTuple):
    """One row of the box table: BOX_HEADER's columns in field order."""
    frame_index: int
    track_id: int
    label: str
    x: int
    y: int
    w: int
    h: int


@dataclass
class _Object:
    track_id: int
    label: str
    w: int
    h: int
    x: float
    y: int
    vx: float


def noise_chunks(
    count: int, width: int = 240, height: int = 180, p: float = 0.35, seed: int = 0
) -> Iterator[tuple[int, np.ndarray, list[GroundTruthBox]]]:
    """Bernoulli(p) salt fields, the calibration workload, as (first frame
    index, (frames, height, width) uint8 stack, no boxes) chunks of
    frames.FRAME_CHUNK frames, the last one maybe shorter."""
    if not 0 <= p <= 1:
        raise InvalidParamsError(f"noise rate must be a probability, got {p}")
    rng = np.random.default_rng(seed)
    for lo in range(0, count, _frames.FRAME_CHUNK):
        chunk = np.empty((min(_frames.FRAME_CHUNK, count - lo), height, width), dtype=np.uint8)
        for canvas in chunk:
            canvas[...] = rng.random((height, width)) < p
        yield lo, chunk, []


def noise_frames(
    count: int, width: int = 240, height: int = 180, p: float = 0.35, seed: int = 0
) -> list[BinaryFrame]:
    """noise_chunks as one list of frames."""
    return [BinaryFrame(px)
            for _, chunk, _ in noise_chunks(count, width, height, p, seed) for px in chunk]


def traffic_chunks(
    n_frames: int = 500,
    width: int = 240,
    height: int = 180,
    salt_p: float = 0.01,
    max_objects: int = 3,
    seed: int = 0,
) -> Iterator[tuple[int, np.ndarray, list[GroundTruthBox]]]:
    """Moving-rectangle scenes with salt noise, as (first frame index,
    (frames, height, width) uint8 stack, ground-truth boxes of those frames)
    chunks of frames.FRAME_CHUNK frames, the last one maybe shorter.

    Objects stay fully visible: they spawn at a frame edge, cross at constant
    velocity, and despawn before leaving.  The first object spawns at frame 0.
    """
    if n_frames < 1:
        raise InvalidParamsError("need at least one frame")
    if width < 3 or height < 3:     # objects keep a one-pixel margin
        raise InvalidParamsError(f"traffic frames must be at least 3x3, got {width}x{height}")
    rng = np.random.default_rng(seed)
    objects: list[_Object] = []
    next_id = 0
    labels = sorted(OBJECT_SIZES)

    def spawn() -> _Object:
        nonlocal next_id
        label = labels[int(rng.integers(len(labels)))]
        h, w = OBJECT_SIZES[label][int(rng.integers(3))]
        w = min(w, width - 2)
        h = min(h, height - 2)
        direction = 1 if rng.random() < 0.5 else -1
        speed = float(rng.integers(1, 4))
        x = 1.0 if direction > 0 else float(width - w - 1)
        y = int(rng.integers(0, height - h))
        obj = _Object(
            track_id=next_id, label=label, w=w, h=h, x=x, y=y, vx=direction * speed
        )
        next_id += 1
        return obj

    for lo in range(0, n_frames, _frames.FRAME_CHUNK):
        chunk = np.empty((min(_frames.FRAME_CHUNK, n_frames - lo), height, width),
                         dtype=np.uint8)
        gt: list[GroundTruthBox] = []
        for k, canvas in enumerate(chunk, lo):
            if (not objects and k == 0) or (len(objects) < max_objects and rng.random() < 0.08):
                objects.append(spawn())
            canvas[...] = rng.random((height, width)) < salt_p
            survivors = []
            for obj in objects:
                xi = int(round(obj.x))
                canvas[obj.y : obj.y + obj.h, xi : xi + obj.w] = 1
                gt.append(GroundTruthBox(k, obj.track_id, obj.label, xi, obj.y, obj.w, obj.h))
                obj.x += obj.vx
                if 0 <= obj.x and obj.x + obj.w <= width:
                    survivors.append(obj)
            objects = survivors
        yield lo, chunk, gt


def traffic_dataset(
    n_frames: int = 500,
    width: int = 240,
    height: int = 180,
    salt_p: float = 0.01,
    max_objects: int = 3,
    seed: int = 0,
) -> tuple[list[BinaryFrame], list[GroundTruthBox]]:
    """traffic_chunks as one list of frames and one list of boxes."""
    frames: list[BinaryFrame] = []
    gt: list[GroundTruthBox] = []
    for _, chunk, boxes in traffic_chunks(n_frames, width, height, salt_p, max_objects, seed):
        frames += map(BinaryFrame, chunk)
        gt += boxes
    return frames, gt


def generate(cfg: RunConfig, kind: str, events: bool = False) -> Iterator[tuple]:
    """The gen command: a "traffic" or "noise" recording as (first index, stack,
    boxes, lazy frames_to_events of each frame) chunks.  With `events`, a
    recording past its readers' window limit, or whose last epoch passes int64,
    raises at the call, before any chunk."""
    if events and cfg.n_frames > _frames.MAX_RECORDING_FRAMES:
        raise InvalidParamsError(f"n_frames = {cfg.n_frames} with --events is past the "
                                 f"{_frames.MAX_RECORDING_FRAMES}-frame limit of a recording")
    last = (cfg.n_frames - 1) * cfg.t_f     # the last frame's epoch
    if events and last >= 2**63:
        raise InvalidParamsError(f"t_f = {cfg.t_f} with --events puts frame {cfg.n_frames - 1}"
                                 f" at t = {last}, past int64")
    chunks = (noise_chunks(cfg.n_frames, cfg.width, cfg.height, cfg.salt_p, cfg.seed)
              if kind == "noise" else traffic_chunks(cfg.n_frames, cfg.width, cfg.height,
                                                     cfg.salt_p, cfg.max_objects, cfg.seed))
    return ((first, chunk, boxes, (frames_to_events(px[None], cfg.t_f, i * cfg.t_f)
                                   for i, px in enumerate(chunk, first)))
            for first, chunk, boxes in chunks)


def read_box_csv(path: Union[str, Path]) -> list[GroundTruthBox]:
    """The boxes of a BOX_HEADER table; a malformed line raises an
    InvalidParamsError naming <path>:<line>."""
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        out = []
        try:
            header = next(reader, None)
            if header != BOX_HEADER:
                raise InvalidParamsError(f"unexpected box csv header in {path}: {header}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if not all(map(str.isascii, row)):
                    raise InvalidParamsError(f"{where}: non-ASCII character")
                if len(row) != 7:
                    raise InvalidParamsError(f"{where}: expected 7 fields, got {len(row)}")
                try:
                    box = GroundTruthBox(_uint(row[0]), _uint(row[1]), row[2],
                                         *map(_uint, row[3:]))
                except ValueError:
                    raise InvalidParamsError(f"{where}: non-integer field") from None
                if box.w <= 0 or box.h <= 0:
                    raise InvalidParamsError(f"{where}: box sides must be positive")
                out.append(box)
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise InvalidParamsError(f"{path}:{reader.line_num}: {exc}") from None
    return out


def frames_to_events(stack: np.ndarray, t_f: int = 66_000, t0: int = 0) -> np.ndarray:
    """An EVENT_DTYPE array of one +1 event per on pixel of a (frames, height, width)
    stack at its frame's epoch, t0 + index * t_f, frame by frame in row-major order.

    Re-accumulating with the same t_f reproduces the frames exactly when the
    first and last frames are nonempty (the accumulator anchors at the first
    event and stops at the last).
    """
    if np.ndim(stack) != 3:
        raise DimensionMismatchError(
            f"frames_to_events takes a (frames, height, width) stack, got shape {np.shape(stack)}")
    ks, ys, xs = np.nonzero(stack)
    events = np.empty(ks.size, EVENT_DTYPE)
    events["t"], events["x"], events["y"], events["polarity"] = t0 + ks * t_f, xs, ys, 1
    return events

