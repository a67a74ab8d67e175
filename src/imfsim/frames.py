"""Event streams and binary frames.

Event files are plain text, one event per line:

    t_us,x,y,polarity

with microsecond integer timestamps (non-decreasing), pixel coordinates, and
polarity encoded as 0 (off, parsed to -1) or 1 (on, parsed to +1).  Lines whose
first non-blank character is '#' are comments; blank lines are skipped.
Anything else either parses or raises an error that names the 1-based line.
A parsed stream is an EventArray: one numpy column per field.

Frames are binary images stored as (height, width) uint8 arrays of {0,1} and
serialized as binary PBM (P4): rows packed MSB-first, each row padded to a
byte boundary, 1 = event pixel.

Accumulation turns an event stream into a frame sequence: time is cut into
half-open windows of t_f microseconds anchored at the first event's timestamp,
and a pixel is 1 iff at least one event (either polarity) hit it inside the
window.  Windows with no events still produce (empty) frames, so frame index
times t_f is always the offset from the stream start.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO, Union

import numpy as np

from .errors import (
    InvalidParamsError,
    MalformedLineError,
    NonMonotonicTimestampError,
    OutOfBoundsError,
)

# The filtering macro is 320 columns by 240 rows; frames must fit in it.
MAX_FRAME_WIDTH = 320
MAX_FRAME_HEIGHT = 240


class EventArray:
    """An event stream as four equal-length int64 columns.

    `t` is the timestamp in microseconds, `x` and `y` the pixel, `polarity`
    -1 (off) or +1 (on).  Index i across the columns is the i-th event in
    stream order.
    """

    __slots__ = ("t", "x", "y", "polarity")

    def __init__(self, t, x, y, polarity):
        cols = [_int_column(name, values) for name, values in
                (("t", t), ("x", x), ("y", y), ("polarity", polarity))]
        if len({c.size for c in cols}) > 1:
            raise InvalidParamsError(
                f"event columns differ in length: {[c.size for c in cols]}"
            )
        self.t, self.x, self.y, self.polarity = cols
        if (self.t < 0).any() or (self.x < 0).any() or (self.y < 0).any():
            raise InvalidParamsError("negative event field")
        if (np.abs(self.polarity) != 1).any():
            raise InvalidParamsError("polarity must be -1 or +1")

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventArray):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip((self.t, self.x, self.y, self.polarity),
                            (other.t, other.x, other.y, other.polarity))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"EventArray({len(self)} events)"


def _int_column(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise InvalidParamsError(
            f"event column {name} must be 1-d integers, got {arr.dtype} shape {arr.shape}"
        )
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FrameConfig:
    """Accumulation parameters: window length (us) and sensor dimensions."""

    t_f: int = 66_000           # 66 ms windows, ~15 frames per second
    sensor_width: int = 240
    sensor_height: int = 180

    def __post_init__(self):
        if self.t_f <= 0:
            raise InvalidParamsError(f"t_f must be positive, got {self.t_f}")
        if not (0 < self.sensor_width <= MAX_FRAME_WIDTH):
            raise InvalidParamsError(
                f"sensor_width must be in 1..{MAX_FRAME_WIDTH}, got {self.sensor_width}"
            )
        if not (0 < self.sensor_height <= MAX_FRAME_HEIGHT):
            raise InvalidParamsError(
                f"sensor_height must be in 1..{MAX_FRAME_HEIGHT}, got {self.sensor_height}"
            )


class BinaryFrame:
    """A (height, width) binary image backed by a uint8 array of {0,1}."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidParamsError(f"frame must be a nonempty 2-d array, got shape {arr.shape}")
        if arr.dtype == np.bool_:
            arr = arr.astype(np.uint8)
        if arr.dtype != np.uint8:
            if not np.isin(arr, (0, 1)).all():
                raise InvalidParamsError("frame pixels must be 0 or 1")
            arr = arr.astype(np.uint8)
        elif arr.max(initial=0) > 1:
            raise InvalidParamsError("frame pixels must be 0 or 1")
        if arr.shape[1] > MAX_FRAME_WIDTH or arr.shape[0] > MAX_FRAME_HEIGHT:
            raise InvalidParamsError(
                f"frame {arr.shape[1]}x{arr.shape[0]} exceeds {MAX_FRAME_WIDTH}x{MAX_FRAME_HEIGHT}"
            )
        self.pixels = arr

    @classmethod
    def zeros(cls, width: int, height: int) -> "BinaryFrame":
        return cls(np.zeros((height, width), dtype=np.uint8))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def popcount(self) -> int:
        return int(self.pixels.sum())

    def copy(self) -> "BinaryFrame":
        return BinaryFrame(self.pixels.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryFrame):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __hash__(self):  # pragma: no cover - frames are not meant to be dict keys
        return hash((self.pixels.shape, self.pixels.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryFrame({self.width}x{self.height}, ones={self.popcount()})"


def is_empty(frame: BinaryFrame) -> bool:
    """True iff the frame contains no event pixel."""
    return not frame.pixels.any()


# ---------------------------------------------------------------------------
# event stream parsing / writing
# ---------------------------------------------------------------------------

# np.fromstring saturates a value beyond int64 at its maximum, as strtoll does.
_INT64_MAX = np.iinfo(np.int64).max
_WRITE_CHUNK = 1 << 20    # events formatted per write


def parse_event_stream(source: Union[str, Path, TextIO, Iterable[str]]) -> EventArray:
    """Parse an event text stream; every line yields an event or a located error.

    A path whose file is in canonical form (only `t,x,y,p` lines of digits,
    each ending in a newline) is parsed as whole columns.  Anything else, and
    every TextIO or iterable of lines, goes through the line-by-line parser,
    which alone raises the located errors.
    """
    if isinstance(source, (str, Path)):
        events = _parse_canonical(Path(source).read_bytes())
        if events is not None:
            return events
        with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
            return _parse_lines(fh)
    return _parse_lines(source)


def _parse_canonical(data: bytes) -> EventArray | None:
    """The events of a canonical, valid file; None for anything else."""
    seps = data.translate(None, b"0123456789")
    # the separators alone must read ",,,\n" per line; this also rejects every other byte
    if not data.endswith(b"\n") or seps != b",,,\n" * (len(seps) // 4):
        return None
    fields = data.replace(b"\n", b",")
    if fields.startswith(b",") or b",," in fields:  # an empty field
        return None
    values = np.fromstring(fields, dtype=np.int64, sep=",")
    if values.size != len(seps) or (values == _INT64_MAX).any():
        return None
    t, x, y, p = values.reshape(-1, 4).T
    if (p > 1).any() or (np.diff(t) < 0).any():
        return None
    return EventArray(t, x, y, 2 * p - 1)


def _parse_lines(lines: Iterable[str]) -> EventArray:
    columns = tuple(array("q") for _ in range(4))
    last_t = None
    for line_no, raw in enumerate(lines, start=1):
        if not raw.isascii():
            raise MalformedLineError(line_no, "non-ASCII character")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise MalformedLineError(line_no, f"expected 4 fields, got {len(fields)}")
        try:
            t, x, y, pol = (int(f) for f in fields)
        except ValueError:
            raise MalformedLineError(line_no, "non-integer field") from None
        if t < 0 or x < 0 or y < 0:
            raise MalformedLineError(line_no, "negative field")
        if pol not in (0, 1):
            raise MalformedLineError(line_no, f"polarity must be 0 or 1, got {pol}")
        if last_t is not None and t < last_t:
            raise NonMonotonicTimestampError(line_no)
        last_t = t
        try:
            for col, value in zip(columns, (t, x, y, 1 if pol else -1)):
                col.append(value)
        except OverflowError:
            raise MalformedLineError(line_no, "field exceeds 64 bits") from None
    return EventArray(*(np.frombuffer(col, dtype=np.int64) for col in columns))


def write_event_stream(events: EventArray, path: Union[str, Path]) -> None:
    """Write events in the canonical text format parse_event_stream reads."""
    with open(path, "wb") as fh:
        for lo in range(0, len(events), _WRITE_CHUNK):
            fh.write(_format_rows(events, slice(lo, lo + _WRITE_CHUNK)))


def _format_rows(events: EventArray, rows: slice) -> bytes:
    """One `t,x,y,p` line per selected event, built as one byte matrix.

    Each number is written right-aligned in a field as wide as the column's
    widest value; the leading pad bytes are 0 and are dropped at the end.
    """
    numbers = [events.t[rows], events.x[rows], events.y[rows]]
    widths = [len(str(int(col.max()))) for col in numbers]
    buf = np.zeros((numbers[0].size, sum(widths) + 5), dtype=np.uint8)
    start = 0
    for col, width in zip(numbers, widths):
        _put_digits(buf[:, start : start + width], col)
        buf[:, start + width] = ord(",")
        start += width + 1
    buf[:, start] = ord("0") + (events.polarity[rows] > 0)
    buf[:, start + 1] = ord("\n")
    return buf[buf != 0].tobytes()


def _put_digits(field: np.ndarray, values: np.ndarray) -> None:
    """Decimal digits of non-negative `values`, right-aligned in `field`."""
    values = values.astype(np.min_scalar_type(values.max()))  # narrow ints divide faster
    for k in range(field.shape[1]):
        rest, digit = np.divmod(values, 10)
        digit = digit.astype(np.uint8) + np.uint8(ord("0"))
        if k:
            digit[values == 0] = 0  # leading zeros become pad bytes
        field[:, -1 - k] = digit
        values = rest


# ---------------------------------------------------------------------------
# accumulation
# ---------------------------------------------------------------------------

def aggregate_frames(events: EventArray, cfg: FrameConfig) -> list[BinaryFrame]:
    """OR-accumulate events into t_f windows anchored at the first event.

    Both polarities mark the pixel.  An event exactly on a window boundary
    belongs to the later window.  Raises NonMonotonicTimestampError, naming
    the 1-based event index, if a timestamp decreases, and OutOfBoundsError
    if an event lies outside the configured sensor.
    """
    if not len(events):
        return []
    decreasing = events.t[1:] < events.t[:-1]
    if decreasing.any():
        raise NonMonotonicTimestampError(int(np.argmax(decreasing)) + 2, "event")
    outside = (events.x >= cfg.sensor_width) | (events.y >= cfg.sensor_height)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfBoundsError(
            f"event t={events.t[i]},x={events.x[i]},y={events.y[i]} outside "
            f"{cfg.sensor_width}x{cfg.sensor_height} sensor"
        )
    t0 = int(events.t[0])
    n_frames = (int(events.t[-1]) - t0) // cfg.t_f + 1
    stack = np.zeros((n_frames, cfg.sensor_height, cfg.sensor_width), dtype=np.uint8)
    stack[(events.t - t0) // cfg.t_f, events.y, events.x] = 1
    return [BinaryFrame(stack[k]) for k in range(n_frames)]


# ---------------------------------------------------------------------------
# PBM (P4) i/o
# ---------------------------------------------------------------------------

def write_pbm(frame: BinaryFrame, path: Union[str, Path]) -> None:
    header = f"P4\n{frame.width} {frame.height}\n".encode("ascii")
    packed = np.packbits(frame.pixels, axis=1)  # MSB-first, rows byte-padded
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def read_pbm(path: Union[str, Path]) -> BinaryFrame:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    i = 0
    # header: magic, width, height; '#' starts a comment through end of line
    while len(tokens) < 3 and i < len(data):
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) != 3 or tokens[0] != b"P4":
        raise InvalidParamsError(f"not a binary PBM file: {path}")
    if not (tokens[1].isdigit() and tokens[2].isdigit()):
        raise InvalidParamsError(f"PBM width and height must be integers in {path}")
    width, height = int(tokens[1]), int(tokens[2])
    if width < 1 or height < 1:
        raise InvalidParamsError(f"PBM frame {width}x{height} is empty in {path}")
    i += 1  # single whitespace byte after the header
    row_bytes = (width + 7) // 8
    if len(data) - i < height * row_bytes:
        raise InvalidParamsError(
            f"truncated PBM body in {path}: {width}x{height} needs "
            f"{height * row_bytes} bytes, got {max(len(data) - i, 0)}"
        )
    raw = np.frombuffer(data, dtype=np.uint8, count=height * row_bytes, offset=i)
    bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
    return BinaryFrame(bits)
