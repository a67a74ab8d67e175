"""Event streams and binary frames.

Event files are plain text, one event per line:

    t_us,x,y,polarity

with microsecond integer timestamps (non-decreasing), pixel coordinates, and
polarity encoded as 0 (off, parsed to -1) or 1 (on, parsed to +1).  Lines whose
first non-blank character is '#' are comments; blank lines are skipped.
Anything else either parses or raises an error that names the 1-based line.
A parsed stream is a 1-d array of EVENT_DTYPE, one record per event.

Frames are binary images stored as (height, width) uint8 arrays of {0,1} and
serialized as binary PBM (P4): rows packed MSB-first, each row padded to a
byte boundary, 1 = event pixel.

Accumulation turns an event stream into a frame sequence: time is cut into
half-open windows of t_f microseconds anchored at the first event's timestamp,
and a pixel is 1 iff at least one event (either polarity) hit it inside the
window.  Windows with no events still produce (empty) frames, so frame index
times t_f is always the offset from the stream start.

A recording, from an event file or a PBM directory, is read as a stream of
chunks of at most FRAME_CHUNK frames, so memory is bounded by a chunk.
"""

from __future__ import annotations

import io
import os
import re
from array import array
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    MalformedLineError,
    NonMonotonicTimestampError,
    OutOfBoundsError,
)
from .params import MAX_FRAME_HEIGHT, MAX_FRAME_WIDTH, FrameConfig

FRAME_CHUNK = 16    # frames per chunk of a streamed recording
EVENT_BATCH = 1 << 13   # events write_event_stream formats and writes at a time
MAX_RECORDING_FRAMES = 1 << 17  # windows an event recording may span: 2.4 h at t_f = 66 ms
# An event stream: timestamp in microseconds, pixel, and polarity -1 (off) or
# +1 (on); index i is the i-th event in stream order.
EVENT_DTYPE = np.dtype([("t", np.int64), ("x", np.int64), ("y", np.int64),
                        ("polarity", np.int64)])


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryFrame):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return f"BinaryFrame({self.width}x{self.height}, ones={self.popcount()})"


# ---------------------------------------------------------------------------
# event stream parsing / writing
# ---------------------------------------------------------------------------

# np.fromstring saturates a value beyond int64 at its maximum, as strtoll does.
_INT64_MAX = np.iinfo(np.int64).max
_READ_BLOCK = 1 << 18     # bytes of event text read per block
# The whitespace int() skips around a number; str.strip() would also drop \x1c-\x1f.
_INT_SPACE = " \t\n\r\x0b\x0c"


def parse_event_stream(path: Union[str, Path]) -> np.ndarray:
    """The events of the event file at `path` as one EVENT_DTYPE array, read in
    blocks (_event_blocks); every line yields an event or a located error."""
    return np.concatenate([np.empty(0, EVENT_DTYPE), *_event_blocks(path)])


def _event_blocks(path: Union[str, Path]) -> Iterator[np.ndarray]:
    """The events of a file, one EVENT_DTYPE array per block of about _READ_BLOCK
    bytes cut after a line end (a final CR may be half a CRLF, so not there).

    A block is copied once out of the read buffer and dropped once parsed; the
    line after the cut stays in the buffer.  Lines are counted as text mode
    counts them, so line numbers are absolute.
    """
    line_no, last_t, text = 1, -1, bytearray()
    with open(path, "rb") as fh:
        while True:
            size = len(text)
            text += fh.read(_READ_BLOCK)
            eof = len(text) == size
            cut = len(text) if eof else max(text.rfind(b"\n"), text.rfind(b"\r", 0, -1)) + 1
            if cut:
                events, lines = _parse_block(_pop_front(text, cut), line_no, last_t)
                if len(events):
                    last_t = int(events["t"][-1])
                line_no += lines
                yield events
            if eof:
                return


def _pop_front(buf: bytearray, n: int) -> bytes:
    """The first n bytes of buf, removed from it."""
    head = bytes(memoryview(buf)[:n])
    del buf[:n]
    return head


def _parse_block(block: bytes, line_no: int, last_t: int) -> tuple[np.ndarray, int]:
    """The events of a block of whole lines, numbered from line_no and
    following last_t, and its line count.

    A canonical block (only `t,x,y,p` lines of digits, each ending in a
    newline) continuing the stream is parsed as whole columns.  Any other goes
    through the line-by-line parser, which alone raises the located errors.
    """
    events = _parse_canonical(block)
    if events is not None and events["t"][0] >= last_t:
        return events, len(events)  # one event per canonical line
    decoded = io.StringIO(block.decode("ascii", "surrogateescape"), newline=None)
    lines = block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
    return _parse_lines(decoded, line_no, last_t), lines


def _uint(field: str) -> int:
    """An ASCII field of digits 0-9 and the whitespace int() skips around
    them; ValueError for anything else, such as the 1_000 or +5 int() takes."""
    if not field.strip(_INT_SPACE).isdigit():
        raise ValueError(f"not a run of digits: {field!r}")
    return int(field)


def _parse_canonical(data: bytes) -> np.ndarray | None:
    """The events of a canonical, valid block of lines, as records over the
    parsed numbers' own buffer; None for anything else."""
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
    events = values.view(EVENT_DTYPE)
    p = events["polarity"]
    if (p > 1).any() or (np.diff(events["t"]) < 0).any():
        return None
    p *= 2
    p -= 1
    return events


def _parse_lines(lines: Iterable[str], first_line: int, last_t: int) -> np.ndarray:
    """The events of `lines`, numbered from first_line and following last_t."""
    values = array("q")     # t, x, y, polarity of each event in turn
    for line_no, raw in enumerate(lines, start=first_line):
        if not raw.isascii():
            raise MalformedLineError(line_no, "non-ASCII character")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise MalformedLineError(line_no, f"expected 4 fields, got {len(fields)}")
        try:
            t, x, y, pol = (_uint(f) for f in fields)
        except ValueError:
            raise MalformedLineError(line_no, "non-integer field") from None
        if pol not in (0, 1):
            raise MalformedLineError(line_no, f"polarity must be 0 or 1, got {pol}")
        if t < last_t:
            raise NonMonotonicTimestampError(line_no)
        last_t = t
        try:
            values.extend((t, x, y, 1 if pol else -1))
        except OverflowError:
            raise MalformedLineError(line_no, "field exceeds 64 bits") from None
    return np.frombuffer(values, dtype=EVENT_DTYPE)


def write_event_stream(batches: Iterable[np.ndarray], fh: BinaryIO) -> None:
    """Write each EVENT_DTYPE array of `batches` in turn, in the canonical text
    format parse_event_stream reads, on to the end of the open binary file fh.
    An array that is not valid events raises InvalidParamsError before any of
    its lines is written."""
    for batch in batches:
        _check_events(batch)
        for lo in range(0, len(batch), EVENT_BATCH):
            fh.write(_format_rows(batch[lo : lo + EVENT_BATCH]))


def _check_events(events) -> None:
    """Raise InvalidParamsError unless events is a 1-d EVENT_DTYPE array of
    non-negative t, x and y and polarity -1 or +1."""
    if not isinstance(events, np.ndarray) or events.dtype != EVENT_DTYPE or events.ndim != 1:
        got = (f"{events.dtype} shape {events.shape}" if isinstance(events, np.ndarray)
               else type(events).__name__)
        raise InvalidParamsError(f"events must be a 1-d frames.EVENT_DTYPE array, got {got}")
    if (events["t"] < 0).any() or (events["x"] < 0).any() or (events["y"] < 0).any():
        raise InvalidParamsError("negative event field")
    if (np.abs(events["polarity"]) != 1).any():
        raise InvalidParamsError("polarity must be -1 or +1")


def _format_rows(events: np.ndarray) -> bytes:
    """One `t,x,y,p` line per event, built as one byte matrix.

    Each number is written right-aligned in a field as wide as the column's
    widest value; the leading pad bytes are 0 and are dropped at the end.
    """
    numbers = [events["t"], events["x"], events["y"]]
    widths = [len(str(int(col.max()))) for col in numbers]
    buf = np.zeros((numbers[0].size, sum(widths) + 5), dtype=np.uint8)
    start = 0
    for col, width in zip(numbers, widths):
        _put_digits(buf[:, start : start + width], col)
        buf[:, start + width] = ord(",")
        start += width + 1
    buf[:, start] = ord("0") + (events["polarity"] > 0)
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

def iter_recording(source: Union[str, Path],
                   cfg: FrameConfig | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """A recording as (first frame index, (frames, height, width) uint8
    stack) chunks of FRAME_CHUNK frames, the last one maybe shorter.

    With cfg, source is an event file accumulated into cfg's windows, and
    the empty windows of a gap come out as zero chunks.  Without, source is a
    directory of *.pbm frames read in name order, with runs of digits compared
    as numbers and ties broken by the plain name; a frame whose size differs
    from the first file's raises DimensionMismatchError naming it.
    """
    if cfg is None:
        return _pbm_chunks(Path(source))
    return _accumulate(_event_blocks(source), cfg)


def _accumulate(blocks: Iterable[np.ndarray], cfg: FrameConfig) -> Iterator[tuple[int, np.ndarray]]:
    """OR-accumulate the blocks of a non-decreasing event stream into t_f
    windows, FRAME_CHUNK at a time, up to the last event's window (below
    MAX_RECORDING_FRAMES, checked before a block yields any chunk)."""
    shape = (FRAME_CHUNK, cfg.sensor_height, cfg.sensor_width)
    t0, lo, buf = None, 0, None     # buf holds windows lo .. lo + FRAME_CHUNK - 1
    for events in blocks:
        if not len(events):
            continue
        t, x, y = events["t"], events["x"], events["y"]
        outside = (x >= cfg.sensor_width) | (y >= cfg.sensor_height)
        if outside.any():
            i = int(np.argmax(outside))
            raise OutOfBoundsError(f"event t={t[i]},x={x[i]},y={y[i]} outside "
                                   f"{cfg.sensor_width}x{cfg.sensor_height} sensor")
        t0 = int(t[0]) if t0 is None else t0
        k = (t - t0) // cfg.t_f
        if k[-1] >= MAX_RECORDING_FRAMES:
            i = int(np.argmax(k >= MAX_RECORDING_FRAMES))
            raise InvalidParamsError(f"event t={t[i]} falls in window {k[i]}, past the "
                                     f"{MAX_RECORDING_FRAMES}-frame limit of a recording")
        edges = [0, *(np.flatnonzero(np.diff(k // FRAME_CHUNK)) + 1).tolist(), len(k)]
        for a, b in zip(edges, edges[1:]):
            while lo + FRAME_CHUNK <= k[a]:  # the chunk at lo is complete
                yield lo, np.zeros(shape, dtype=np.uint8) if buf is None else buf
                lo, buf = lo + FRAME_CHUNK, None
            buf = np.zeros(shape, dtype=np.uint8) if buf is None else buf
            buf[k[a:b] - lo, y[a:b], x[a:b]] = 1
        last = int(k[-1])
    if buf is not None:
        yield lo, buf[: last - lo + 1]


def aggregate_frames(events: np.ndarray, cfg: FrameConfig) -> list[BinaryFrame]:
    """OR-accumulate an EVENT_DTYPE array into t_f windows anchored at the
    first event.

    Both polarities mark the pixel.  An event exactly on a window boundary
    belongs to the later window.  Raises InvalidParamsError if the array is
    not valid events, NonMonotonicTimestampError, naming the 1-based event
    index, if a timestamp decreases, and OutOfBoundsError if an event lies
    outside the configured sensor.
    """
    _check_events(events)
    decreasing = events["t"][1:] < events["t"][:-1]
    if decreasing.any():
        raise NonMonotonicTimestampError(int(np.argmax(decreasing)) + 2, "event")
    return [BinaryFrame(px) for _, chunk in _accumulate([events], cfg) for px in chunk]


# ---------------------------------------------------------------------------
# PBM (P4) i/o
# ---------------------------------------------------------------------------

def write_pbm(frame: BinaryFrame, path: Union[str, Path]) -> None:
    header = f"P4\n{frame.width} {frame.height}\n".encode("ascii")
    packed = np.packbits(frame.pixels, axis=1)  # MSB-first, rows byte-padded
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def _pbm_header(fh: BinaryIO, path: Union[str, Path]) -> list[bytes]:
    """Up to three header tokens (magic, width, height), read through the one
    whitespace byte after the last; '#' starts a comment through end of line.
    A token is at most 20 bytes, more digits than any int64 has."""
    tokens, token = [], bytearray()
    while len(tokens) < 3:
        c = fh.read(1)
        if c == b"#" and not token:
            while (line := fh.readline(4096)) and line[-1:] != b"\n":
                pass
        elif c and not c.isspace():
            token += c
            if len(token) > 20:
                raise InvalidParamsError(f"PBM header field longer than 20 bytes in {path}")
        elif token:  # whitespace or the end of the file ends a token
            tokens.append(bytes(token))
            token = bytearray()
        elif not c:
            break
    return tokens


def read_pbm(path: Union[str, Path]) -> BinaryFrame:
    """A P4 frame.  Reads the header, then exactly the body that it declares;
    a shorter body or any byte after it is an error."""
    with open(path, "rb") as fh:
        tokens = _pbm_header(fh, path)
        if len(tokens) != 3 or tokens[0] != b"P4":
            raise InvalidParamsError(f"not a binary PBM file: {path}")
        if not (tokens[1].isdigit() and tokens[2].isdigit()):
            raise InvalidParamsError(f"PBM width and height must be integers in {path}")
        width, height = int(tokens[1]), int(tokens[2])
        if width < 1 or height < 1:
            raise InvalidParamsError(f"PBM frame {width}x{height} is empty in {path}")
        row_bytes = (width + 7) // 8
        need, left = height * row_bytes, os.fstat(fh.fileno()).st_size - fh.tell()
        if left < need:
            raise InvalidParamsError(
                f"truncated PBM body in {path}: {width}x{height} needs {need} bytes, got {left}")
        if left > need:
            raise InvalidParamsError(
                f"{left - need} trailing bytes in {path}: {width}x{height} needs {need} bytes")
        raw = np.frombuffer(fh.read(need), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
    return BinaryFrame(bits)


def _pbm_chunks(directory: Path) -> Iterator[tuple[int, np.ndarray]]:
    paths = sorted(directory.glob("*.pbm"), key=lambda p: (  # frame_100000 after frame_99999
        [int(s) if i % 2 else s for i, s in enumerate(re.split(r"(\d+)", p.name))], p.name))
    if not paths:
        raise InvalidParamsError(f"no .pbm frames under {directory}")
    shape = None
    for lo in range(0, len(paths), FRAME_CHUNK):
        names = paths[lo : lo + FRAME_CHUNK]
        for i, path in enumerate(names):
            px = read_pbm(path).pixels
            shape = shape or px.shape
            if i == 0:
                chunk = np.empty((len(names), *shape), dtype=np.uint8)
            if px.shape != shape:
                raise DimensionMismatchError(
                    f"frame {px.shape[1]}x{px.shape[0]} in {path} differs from "
                    f"{shape[1]}x{shape[0]} in {paths[0]}"
                )
            chunk[i] = px
        yield lo, chunk
