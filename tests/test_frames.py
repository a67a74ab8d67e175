import io
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import event_array, random_frame
from imfsim import frames as frames_module
from imfsim.errors import (
    DimensionMismatchError,
    InvalidParamsError,
    MalformedLineError,
    NonMonotonicTimestampError,
    OutOfBoundsError,
)
from imfsim.frames import (
    EVENT_DTYPE,
    FRAME_CHUNK,
    BinaryFrame,
    FrameConfig,
    aggregate_frames,
    iter_recording,
    parse_event_stream,
    read_pbm,
    write_event_stream,
    write_pbm,
)

INT64_MAX = 2**63 - 1


def events(*rows):
    """An EVENT_DTYPE array from (t, x, y, polarity) rows."""
    return np.array(list(rows), dtype=EVENT_DTYPE)


def parse_lines(path):
    """The line-by-line parser alone over the whole file at path, as
    _parse_block runs it on a block that is not canonical."""
    with open(path, encoding="ascii", errors="surrogateescape", newline=None) as fh:
        return frames_module._parse_lines(fh, 1, -1)


def outcome(path, parse=parse_event_stream):
    """What `parse` makes of the file at path: its events as (t, x, y,
    polarity) tuples, or the located error."""
    try:
        return parse(path).tolist()
    except (MalformedLineError, NonMonotonicTimestampError) as exc:
        return type(exc), exc.line_no


def parse_text(tmp_path, text):
    """parse_event_stream of a file holding `text`."""
    path = tmp_path / "events.txt"
    path.write_bytes(text.encode("ascii"))
    return parse_event_stream(path)


def write_events(stream, path):
    """Write one EVENT_DTYPE array as a new event file at path."""
    with open(path, "wb") as fh:
        write_event_stream([stream], fh)


# ---------------------------------------------------------------------------
# event parsing
# ---------------------------------------------------------------------------

def test_parse_single_line(tmp_path):
    parsed = parse_text(tmp_path, "1000,5,7,1")
    assert parsed.dtype == EVENT_DTYPE and np.array_equal(parsed, events((1000, 5, 7, 1)))


def test_parse_polarity_zero_maps_to_minus_one(tmp_path):
    assert parse_text(tmp_path, "42,1,2,0\n")["polarity"][0] == -1


def test_parse_skips_comments_and_blanks_but_counts_physical_lines(tmp_path):
    text = "# header\n\n1000,1,1,1\nbroken\n"
    with pytest.raises(MalformedLineError) as exc:
        parse_text(tmp_path, text)
    assert exc.value.line_no == 4
    assert "line 4" in str(exc.value)


def test_parse_non_monotonic_names_offending_line(tmp_path):
    with pytest.raises(NonMonotonicTimestampError) as exc:
        parse_text(tmp_path, "1000,5,7,1\n999,0,0,0\n")
    assert exc.value.line_no == 2


def test_fields_keep_the_whitespace_int_skips(tmp_path):
    assert np.array_equal(parse_text(tmp_path, " 5 ,\t0,0\x0b, 1\x0c\r\n"), events((5, 0, 0, 1)))


def test_parse_equal_timestamps_allowed(tmp_path):
    assert len(parse_text(tmp_path, "5,0,0,1\n5,1,0,1\n")) == 2


@pytest.mark.parametrize(
    "line",
    ["1,2,3", "1,2,3,4,5", "a,2,3,1", "1.5,2,3,1", "-1,2,3,1", "1,-2,3,1", "1,2,3,2",
     "1_000,2,3,1", "+5,2,3,1", "1,2,3,+1", "1,2, -3,1", "1,\x1c2,3,1"],
)
def test_parse_rejects_malformed(tmp_path, line):
    with pytest.raises(MalformedLineError) as exc:
        parse_text(tmp_path, line)
    assert exc.value.line_no == 1


def test_event_validation():
    # the two entry points that take events from a caller check them first
    entries = (lambda ev: write_event_stream([ev], io.BytesIO()),
               lambda ev: aggregate_frames(ev, FrameConfig()))
    narrow = np.dtype([(f, np.int32) for f in EVENT_DTYPE.names])
    bad = [(events((-1, 0, 0, 1)), "negative event field"),
           (events((0, -1, 0, 1)), "negative event field"),
           (events((0, 0, -1, 1)), "negative event field"),
           (events((0, 0, 0, 1), (1, 0, 0, 0)), "polarity must be -1 or +1"),
           (np.array([[0, 0, 0, 1]]), "1-d frames.EVENT_DTYPE array, got int64 shape (1, 4)"),
           (events((0, 0, 0, 1))[None], f"EVENT_DTYPE array, got {EVENT_DTYPE} shape (1, 1)"),
           (events((0, 0, 0, 1)).astype(narrow), f"EVENT_DTYPE array, got {narrow} shape (1,)")]
    for entry in entries:
        for ev, message in bad:
            with pytest.raises(InvalidParamsError, match=re.escape(message)):
                entry(ev)
        entry(events())
    with pytest.raises(InvalidParamsError, match="EVENT_DTYPE array, got list$"):
        aggregate_frames([(0, 0, 0, 1)], FrameConfig())
    dest = io.BytesIO()
    with pytest.raises(InvalidParamsError, match=re.escape("polarity must be -1 or +1")):
        write_event_stream([events((0, 1, 2, 1), (3, 4, 5, 2))], dest)
    assert dest.getvalue() == b""   # checked before any line is written


def test_aggregate_refuses_a_negative_x_rather_than_wrap_it_to_the_far_column():
    cfg = FrameConfig(t_f=100, sensor_width=4, sensor_height=4)
    with pytest.raises(InvalidParamsError, match="negative event field"):
        aggregate_frames(events((0, 1, 1, 1), (10, -1, 2, 1)), cfg)


def test_event_stream_round_trip_10k(tmp_path):
    rng = np.random.default_rng(99)
    n = 10_000
    stream = event_array(
        np.cumsum(rng.integers(0, 50, size=n)),
        rng.integers(0, 240, size=n),
        rng.integers(0, 180, size=n),
        np.where(rng.random(n) < 0.5, 1, -1),
    )
    path = tmp_path / "events.txt"
    write_events(stream, path)
    assert np.array_equal(parse_event_stream(path), stream)


def test_canonical_file_is_parsed_as_columns(tmp_path, monkeypatch):
    path = tmp_path / "events.txt"
    path.write_bytes(b"0,1,2,1\n0,3,4,0\n0070,5,6,01\n")
    want = events((0, 1, 2, 1), (0, 3, 4, -1), (70, 5, 6, 1))

    def no_line_loop(lines):
        raise AssertionError("canonical file went through the line loop")

    with monkeypatch.context() as m:
        m.setattr(frames_module, "_parse_lines", no_line_loop)
        parsed = parse_event_stream(path)
        assert parsed.dtype == EVENT_DTYPE and np.array_equal(parsed, want)
    path.write_bytes(b"# comment\n0,1,2,1\n0,3,4,0\n70,5,6,1\n")
    assert np.array_equal(parse_event_stream(path), want)


def test_path_and_lines_agree_on_errors(tmp_path):
    path = tmp_path / "events.txt"
    for text, err, line_no in (
        # two different errors in one file: the first line wins
        ("5,0,0,1\n6,0,0,1\n4,0,0,1\n7,x,0,1\n", NonMonotonicTimestampError, 3),
        ("5,0,0,1\n6,0,0,2\n4,0,0,1\n", MalformedLineError, 2),
        ("5,0,0,1\n6,0,0\n4,0,0,1\n7,0,0,1\n", MalformedLineError, 2),
        # one error in an otherwise canonical file
        ("5,0,0,1\n6,0,0,2\n", MalformedLineError, 2),
        ("5,0,0,1\n4,0,0,1\n", NonMonotonicTimestampError, 2),
        ("5,0,0,1\n6,,0,1\n", MalformedLineError, 2),
        (",0,0,1\n", MalformedLineError, 1),
    ):
        path.write_text(text)
        assert outcome(path) == (err, line_no)
        assert outcome(path, parse_lines) == (err, line_no)


def test_non_ascii_byte_is_a_located_error(tmp_path):
    path = tmp_path / "events.txt"
    path.write_bytes(b"1000,1,1,1\n2000,\xe9,1,1\n")
    with pytest.raises(MalformedLineError) as exc:
        parse_event_stream(path)
    assert exc.value.line_no == 2
    path.write_bytes(b"# caf\xc3\xa9\n1000,1,1,1\n")
    with pytest.raises(MalformedLineError) as exc:
        parse_event_stream(path)
    assert exc.value.line_no == 1


def test_int64_range_of_event_fields(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text(f"0,0,0,1\n{INT64_MAX},1,2,0\n")
    assert np.array_equal(parse_event_stream(path), events((0, 0, 0, 1), (INT64_MAX, 1, 2, -1)))
    path.write_text(f"0,0,0,1\n{INT64_MAX + 1},1,2,0\n")
    assert outcome(path) == (MalformedLineError, 2)


_CANONICAL_LINES = {  # digits, commas and a newline: the column parser's input
    "event": "{t},3,4,1\n", "older": "{t_1},0,0,1\n", "polarity 2": "{t},0,0,2\n",
    "empty field": "{t},,0,1\n", "five fields": "{t},0,0,1,1\n",
}
_OTHER_LINES = {  # anything else: legal or not, it goes through the line loop
    "comment": "# note\n", "blank": "\n", "crlf": "{t},1,1,0\r\n",
    "spaced": " {t}, 1,1 ,0\n", "three fields": "{t},0,0\n", "letter": "{t},y,0,1\n",
    "plus sign": "+{t},0,0,1\n", "no newline": "{t},2,2,1",
}
_LINES = {**_CANONICAL_LINES, **_OTHER_LINES}


@given(
    st.one_of(
        st.lists(st.tuples(st.sampled_from(["event"] * 6 + sorted(_CANONICAL_LINES)),
                           st.integers(0, 3)), max_size=12),
        st.lists(st.tuples(st.sampled_from(["event"] * 6 + sorted(_LINES)),
                           st.integers(0, 3)), max_size=12),
    )
)
def test_path_and_lines_agree_on_any_file(lines):
    t, text = 1, ""
    for kind, step in lines:
        t += step
        text += _LINES[kind].format(t=t, t_1=t - 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        path.write_bytes(text.encode("ascii"))
        assert outcome(path) == outcome(path, parse_lines)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 10**6), st.integers(0, INT64_MAX)),
            st.one_of(st.integers(0, 320), st.integers(0, INT64_MAX)),
            st.integers(0, 240),
            st.sampled_from([-1, 1]),
        ),
        max_size=40,
    )
)
def test_write_event_stream_matches_naive_writer(rows):
    rows.sort(key=lambda r: r[0])
    stream = events(*rows)
    with tempfile.TemporaryDirectory() as tmp:
        fast, naive = Path(tmp) / "fast.txt", Path(tmp) / "naive.txt"
        write_events(stream, fast)
        oracles.write_events_naive(
            *(stream[f].tolist() for f in EVENT_DTYPE.names), naive)
        assert fast.read_bytes() == naive.read_bytes()
        assert outcome(fast) == outcome(fast, parse_lines)
        assert np.array_equal(parse_event_stream(fast), stream)


# ---------------------------------------------------------------------------
# frames and accumulation
# ---------------------------------------------------------------------------

def test_frame_config_validation():
    with pytest.raises(InvalidParamsError):
        FrameConfig(t_f=0)
    with pytest.raises(InvalidParamsError):
        FrameConfig(sensor_width=321)
    with pytest.raises(InvalidParamsError):
        FrameConfig(sensor_height=241)
    with pytest.raises(InvalidParamsError):
        FrameConfig(sensor_width=0)


def test_binary_frame_validation():
    with pytest.raises(InvalidParamsError):
        BinaryFrame(np.array([[0, 2]], dtype=np.uint8))
    with pytest.raises(InvalidParamsError):
        BinaryFrame(np.array([0, 1], dtype=np.uint8))  # 1-d
    with pytest.raises(InvalidParamsError):
        BinaryFrame(np.zeros((241, 10), dtype=np.uint8))
    fr = BinaryFrame(np.array([[True, False]]))
    assert fr.pixels.dtype == np.uint8 and fr.width == 2 and fr.height == 1
    assert BinaryFrame.zeros(4, 3).popcount() == 0
    other = BinaryFrame(fr.pixels.copy())
    assert other == fr
    other.pixels[0, 1] = 1
    assert other != fr and other.popcount() == 2


def test_aggregate_empty_stream():
    assert aggregate_frames(events(), FrameConfig()) == []


def test_aggregate_or_merges_both_polarities():
    cfg = FrameConfig(t_f=1000, sensor_width=8, sensor_height=8)
    frames = aggregate_frames(events((0, 3, 4, 1), (10, 3, 4, -1)), cfg)
    assert len(frames) == 1
    assert frames[0].popcount() == 1
    assert frames[0].pixels[4, 3] == 1  # row y, column x


def test_aggregate_boundary_event_goes_to_later_window():
    cfg = FrameConfig(t_f=1000, sensor_width=4, sensor_height=4)
    frames = aggregate_frames(events((100, 0, 0, 1), (1100, 1, 1, 1)), cfg)
    assert len(frames) == 2
    assert frames[0].popcount() == 1 and frames[1].pixels[1, 1] == 1


def test_aggregate_emits_empty_intermediate_frames():
    cfg = FrameConfig(t_f=100, sensor_width=4, sensor_height=4)
    frames = aggregate_frames(events((0, 0, 0, 1), (350, 1, 1, 1)), cfg)
    assert len(frames) == 4
    assert frames[1].popcount() == frames[2].popcount() == 0


def test_aggregate_out_of_bounds_event():
    cfg = FrameConfig(t_f=100, sensor_width=4, sensor_height=4)
    with pytest.raises(OutOfBoundsError):
        aggregate_frames(events((0, 4, 0, 1)), cfg)
    with pytest.raises(OutOfBoundsError):
        aggregate_frames(events((0, 0, 4, 1)), cfg)
    with pytest.raises(OutOfBoundsError, match="t=20,x=1,y=9 outside 4x4"):
        aggregate_frames(events((10, 0, 0, 1), (20, 1, 9, 1), (30, 9, 1, 1)), cfg)


def test_aggregate_rejects_decreasing_timestamps():
    cfg = FrameConfig(t_f=100, sensor_width=4, sensor_height=4)
    # t = 0 after t = 100 would land in a wrapped-around window
    with pytest.raises(NonMonotonicTimestampError, match="at event 2$") as err:
        aggregate_frames(events((100, 0, 0, 1), (0, 1, 1, 1), (250, 2, 2, 1)), cfg)
    assert err.value.line_no == 2
    # a last event before the first would size the stack to zero frames
    with pytest.raises(NonMonotonicTimestampError) as err:
        aggregate_frames(events((10, 0, 0, 1), (0, 1, 1, 1)), cfg)
    assert err.value.line_no == 2
    assert len(aggregate_frames(events((10, 0, 0, 1), (10, 1, 1, 1)), cfg)) == 1


def test_aggregate_matches_scatter_oracle():
    rng = np.random.default_rng(5)
    cfg = FrameConfig(t_f=700, sensor_width=32, sensor_height=24)
    n = 1000
    ts = np.sort(rng.integers(50, 50 + 3 * 700 - 1, size=n))
    xs, ys = rng.integers(0, 32, size=n), rng.integers(0, 24, size=n)
    frames = aggregate_frames(event_array(ts, xs, ys, np.ones(n, dtype=np.int64)), cfg)
    ref = oracles.aggregate_naive(ts, xs, ys, cfg.t_f, 32, 24)
    assert len(frames) == len(ref)
    for got, want in zip(frames, ref):
        assert np.array_equal(got.pixels, want)


@given(st.lists(st.integers(0, 5000), min_size=1, max_size=60), st.integers(1, 300))
def test_aggregate_frame_count_and_window_popcounts(offsets, t_f):
    ts = np.cumsum(np.asarray(offsets, dtype=np.int64))
    idx = np.arange(len(ts))
    stream = event_array(ts, (idx * 7) % 16, (idx * 3) % 12, np.ones_like(idx))
    cfg = FrameConfig(t_f=t_f, sensor_width=16, sensor_height=12)
    frames = aggregate_frames(stream, cfg)
    span = int(ts[-1] - ts[0]) + 1
    assert len(frames) == -(-span // t_f)  # ceil(span / t_f)
    per_window = {}
    for t, x, y, _ in stream.tolist():
        per_window.setdefault((t - int(ts[0])) // t_f, set()).add((x, y))
    for k, fr in enumerate(frames):
        assert fr.popcount() == len(per_window.get(k, ()))


def test_aggregate_idempotent_under_duplicate_events():
    cfg = FrameConfig(t_f=100, sensor_width=4, sensor_height=4)
    once = aggregate_frames(events((0, 1, 1, 1)), cfg)
    thrice = aggregate_frames(events(*[(0, 1, 1, 1)] * 3), cfg)
    assert once == thrice


# ---------------------------------------------------------------------------
# PBM i/o
# ---------------------------------------------------------------------------

def test_pbm_golden_bytes(tmp_path):
    fr = BinaryFrame(np.array([[1, 0], [1, 1]], dtype=np.uint8))
    path = tmp_path / "f.pbm"
    write_pbm(fr, path)
    assert path.read_bytes() == b"P4\n2 2\n\x80\xc0"


def test_pbm_rows_packed_msb_first_and_byte_padded(tmp_path):
    row = np.array([[1, 0, 1, 0, 1, 0, 1, 0, 1]], dtype=np.uint8)
    path = tmp_path / "f.pbm"
    write_pbm(BinaryFrame(row), path)
    assert path.read_bytes() == b"P4\n9 1\n\xaa\x80"


def test_pbm_round_trip_random_sizes(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(20):
        w = int(rng.integers(1, 321))
        h = int(rng.integers(1, 241))
        fr = random_frame(rng, w, h, p=float(rng.random()))
        path = tmp_path / f"{i}.pbm"
        write_pbm(fr, path)
        assert read_pbm(path) == fr


def test_pbm_header_comments(tmp_path):
    path = tmp_path / "c.pbm"
    path.write_bytes(b"P4\n# comment\n2 # another\n2\n\x80\xc0")
    assert np.array_equal(read_pbm(path).pixels, [[1, 0], [1, 1]])


def test_pbm_rejects_other_magic(tmp_path):
    path = tmp_path / "bad.pbm"
    path.write_bytes(b"P1\n2 2\n0 1 1 0")
    with pytest.raises(InvalidParamsError):
        read_pbm(path)


@pytest.mark.parametrize(
    "data",
    [
        b"P4\n16 4\n\x80\xc0\x01",        # body shorter than 4 rows of 2 bytes
        b"P4\n16 4\n",                      # no body at all
        b"P4\n16 4",                         # header cut before the separator byte
        b"P4\nwide 4\n\x80",                # non-numeric width
        b"P4\n2 -1\n\x80",                  # signed height
        b"P4\n0 4\n",                       # zero width
        b"P4\n8 0\n",                       # zero height
        b"P4\n8 1\n\xff\xff",               # a byte after the body
    ],
)
def test_pbm_rejects_bad_size_or_body(tmp_path, data):
    path = tmp_path / "bad.pbm"
    path.write_bytes(data)
    with pytest.raises(InvalidParamsError, match="bad.pbm"):
        read_pbm(path)


def test_read_pbm_reads_no_more_than_the_header_declares(tmp_path):
    path = tmp_path / "long.pbm"
    path.write_bytes(b"P4\n8 1\n")
    with open(path, "r+b") as fh:  # an 8x1 header over a 32 MiB body
        fh.truncate(7 + (32 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParamsError, match="trailing bytes in .*long.pbm"):
            read_pbm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_iter_recording_reads_pbm_frames_in_name_order(tmp_path, rng):
    frames = [random_frame(rng, 13, 7) for _ in range(2 * FRAME_CHUNK + 3)]
    order = rng.permutation(len(frames))
    for i, fr in zip(order, frames):
        write_pbm(fr, tmp_path / f"frame_{i:05d}.pbm")
    (tmp_path / "notes.txt").write_text("not a frame")
    chunks = list(iter_recording(tmp_path))
    assert [(first, chunk.shape) for first, chunk in chunks] == [
        (0, (FRAME_CHUNK, 7, 13)), (FRAME_CHUNK, (FRAME_CHUNK, 7, 13)),
        (2 * FRAME_CHUNK, (3, 7, 13))]
    by_name = [frames[j] for j in np.argsort(order)]
    for px, fr in zip(np.concatenate([c for _, c in chunks]), by_name):
        assert px.dtype == np.uint8 and np.array_equal(px, fr.pixels)


def test_iter_recording_rejects_mixed_pbm_sizes_naming_the_first_odd_file(tmp_path):
    for i, (w, h) in enumerate([(8, 6), (8, 6), (9, 6), (8, 5)]):
        write_pbm(BinaryFrame.zeros(w, h), tmp_path / f"frame_{i:05d}.pbm")
    with pytest.raises(DimensionMismatchError, match="frame_00002.pbm") as err:
        list(iter_recording(tmp_path))
    assert "9x6" in str(err.value) and "8x6" in str(err.value)
    with pytest.raises(InvalidParamsError, match="no .pbm frames"):
        list(iter_recording(tmp_path / "missing"))


def test_iter_recording_rejects_a_mixed_size_in_a_later_chunk(tmp_path):
    for i in range(FRAME_CHUNK + 2):
        write_pbm(BinaryFrame.zeros(8, 5 if i == FRAME_CHUNK + 1 else 6),
                  tmp_path / f"frame_{i:05d}.pbm")
    chunks = iter_recording(tmp_path)
    assert next(chunks)[1].shape == (FRAME_CHUNK, 6, 8)
    with pytest.raises(DimensionMismatchError, match=f"frame_{FRAME_CHUNK + 1:05d}.pbm"):
        next(chunks)


# ---------------------------------------------------------------------------
# streamed event recordings
# ---------------------------------------------------------------------------

_SENSOR = FrameConfig(t_f=1, sensor_width=5, sensor_height=4)
_LEGAL_LINES = {  # every form a legal line may take
    "event": "{t},{x},{y},1\n", "off event": "{t},{x},{y},0\n", "comment": "# note\n",
    "blank": "\n", "crlf": "{t},{x},{y},0\r\n", "cr": "{t},{x},{y},1\r",
    "spaced": " {t}, {x},{y} ,0\n",
}
_BAD_LINES = {"older": "{t_1},0,0,1\n", "letter": "{t},y,0,1\n", "three fields": "{t},0,0\n",
              "polarity 2": "{t},0,0,2\n", "non-ascii": "{t},\xe9,0,1\n"}


def _event_text(lines, final_newline=True):
    t, text = 0, ""
    for kind, step, x, y in lines:
        t += step
        text += (_LEGAL_LINES | _BAD_LINES)[kind].format(t=t, t_1=t - 1, x=x, y=y)
    return text if final_newline else text.rstrip("\r\n")


def _streamed(path, cfg, block, chunk):
    """With small read blocks and chunks: iter_recording(path, cfg) as
    (first, chunk) pairs or the located error, and what parse_event_stream
    makes of the path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(frames_module, "_READ_BLOCK", block)
        m.setattr(frames_module, "FRAME_CHUNK", chunk)
        parsed = outcome(path)
        try:
            return list(iter_recording(path, cfg)), parsed
        except (MalformedLineError, NonMonotonicTimestampError) as exc:
            return (type(exc), str(exc)), parsed


def _whole(path, cfg):
    """The whole-file line parser and the per-event oracle, or the located error."""
    try:
        ev = parse_lines(path)
    except (MalformedLineError, NonMonotonicTimestampError) as exc:
        return type(exc), str(exc)
    return oracles.aggregate_naive(ev["t"], ev["x"], ev["y"], cfg.t_f, cfg.sensor_width,
                                   cfg.sensor_height)


_event_lines = st.tuples(st.sampled_from(["event"] * 4 + sorted(_LEGAL_LINES)),
                         st.integers(0, 40), st.integers(0, 4), st.integers(0, 3))


@given(
    st.one_of(
        st.lists(st.tuples(st.just("event"), st.integers(0, 40), st.integers(0, 4),
                           st.integers(0, 3)), max_size=30),
        st.lists(_event_lines, max_size=30),
        st.lists(st.one_of(_event_lines, st.tuples(st.sampled_from(sorted(_BAD_LINES)),
                                                   st.integers(0, 3), st.just(0), st.just(0))),
                 max_size=30),
    ),
    st.booleans(), st.integers(1, 40), st.sampled_from([1, 3, 64]), st.integers(1, 30),
)
def test_streamed_recording_equals_the_whole_file(lines, final_newline, block, chunk, t_f):
    cfg = FrameConfig(t_f=t_f, sensor_width=5, sensor_height=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        path.write_bytes(_event_text(lines, final_newline).encode("latin-1"))
        want = _whole(path, cfg)
        got, parsed = _streamed(path, cfg, block, chunk)
        assert parsed == outcome(path, parse_lines)
        if isinstance(want, tuple):
            assert got == want
            return
        assert [first for first, _ in got] == list(range(0, len(want), chunk))
        assert all(len(c) == chunk for _, c in got[:-1])
        stream = np.concatenate([c for _, c in got]) if got else np.zeros((0, 4, 5))
        assert np.array_equal(stream, np.array(want).reshape(-1, 4, 5))
        whole = aggregate_frames(parse_event_stream(path), cfg)
        assert np.array_equal(stream, np.array([f.pixels for f in whole]).reshape(-1, 4, 5))


def test_late_bad_line_is_located_as_in_the_whole_file(tmp_path, monkeypatch):
    n = 30_000
    stream = event_array(np.arange(n) // 7, np.arange(n) % 5, np.arange(n) % 4, np.ones(n, int))
    good = tmp_path / "good.txt"
    write_events(stream, good)
    lines = good.read_bytes().splitlines(True)
    monkeypatch.setattr(frames_module, "_READ_BLOCK", 1 << 12)
    assert sum(map(len, lines[:25_000])) > 50 * frames_module._READ_BLOCK
    for bad, err in ((b"x,0,0,1\n", MalformedLineError),
                     (b"0,0,0,1\n", NonMonotonicTimestampError)):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"".join(lines[:25_000] + [bad] + lines[25_000:]))
        with pytest.raises(err) as whole:
            parse_lines(path)
        assert whole.value.line_no == 25_001
        with pytest.raises(err) as streamed:
            list(iter_recording(path, _SENSOR))
        assert str(streamed.value) == str(whole.value)


def test_decrease_across_a_block_boundary_is_located(tmp_path, monkeypatch):
    path = tmp_path / "events.txt"
    path.write_bytes(b"# head\r\n5,0,0,1\r6,0,0,1\n4,0,0,1\n7,0,0,1\n")
    for block in range(1, 40):
        monkeypatch.setattr(frames_module, "_READ_BLOCK", block)
        with pytest.raises(NonMonotonicTimestampError, match="event line 4$"):
            list(iter_recording(path, _SENSOR))
    # canonical blocks: the block that starts with the decrease is otherwise valid
    path.write_bytes(b"5,0,0,1\n6,0,0,1\n4,0,0,1\n7,0,0,1\n")
    monkeypatch.setattr(frames_module, "_READ_BLOCK", 16)
    with pytest.raises(NonMonotonicTimestampError, match="event line 3$"):
        list(iter_recording(path, _SENSOR))


def test_out_of_bounds_event_in_a_late_block(tmp_path, monkeypatch):
    path = tmp_path / "events.txt"
    path.write_bytes(b"0,0,0,1\n" * 10 + b"70,0,0,1\n" + b"200,5,1,1\n" + b"210,0,0,1\n")
    monkeypatch.setattr(frames_module, "_READ_BLOCK", 1)  # a block per line
    chunks = iter_recording(path, _SENSOR)
    assert next(chunks)[0] == 0
    with pytest.raises(OutOfBoundsError, match="t=200,x=5,y=1 outside 5x4"):
        list(chunks)


def test_a_gap_is_streamed_as_zero_chunks_in_bounded_memory(tmp_path):
    def peak(gap):
        path = tmp_path / f"gap{gap}.txt"
        path.write_text(f"0,1,1,1\n{gap},2,2,1\n")
        cfg = FrameConfig(t_f=1, sensor_width=16, sensor_height=16)
        tracemalloc.start()
        try:
            count = ones = 0
            for first, chunk in iter_recording(path, cfg):
                assert first == count
                count, ones = count + len(chunk), ones + int(chunk.sum())
            return count, ones, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    count_500, ones_500, peak_500 = peak(500)
    count_5000, ones_5000, peak_5000 = peak(5000)
    assert (count_500, count_5000, ones_500, ones_5000) == (501, 5001, 2, 2)
    # a stack of the 5001 windows alone would take 1.28 MB
    assert peak_5000 <= peak_500 + 4096


def test_event_blocks_peak_does_not_grow_with_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(frames_module, "_READ_BLOCK", 1 << 14)

    def peak(n):
        path = tmp_path / f"events{n}.txt"
        write_events(event_array(np.arange(n) // 7, np.arange(n) % 240,
                                 np.arange(n) % 180, np.ones(n, int)), path)
        tracemalloc.start()
        try:
            count = sum(len(block) for block in frames_module._event_blocks(path))
            return count, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (count_small, peak_small), (count_large, peak_large) = peak(20_000), peak(80_000)
    assert (count_small, count_large) == (20_000, 80_000)  # 16 and 64 blocks of text
    assert peak_large <= peak_small + 4096
    # a block's bytes, its parsed columns and the previous block's columns
    assert peak_large <= 11 * frames_module._READ_BLOCK


def test_pbm_directory_is_read_with_digit_runs_as_numbers(tmp_path):
    # f01 and f1 tie as numbers, so the plain names order them
    for ones, name in enumerate(("f01", "f1", "f2", "f10", "g"), 1):
        px = np.zeros((2, 3), dtype=np.uint8)
        px.flat[:ones] = 1
        write_pbm(BinaryFrame(px), tmp_path / f"{name}.pbm")
    ((first, chunk),) = iter_recording(tmp_path)
    assert first == 0 and chunk.sum(axis=(1, 2)).tolist() == [1, 2, 3, 4, 5]


def test_empty_event_file_is_an_empty_recording(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("# nothing\n\n")
    assert list(iter_recording(path, _SENSOR)) == []
    assert len(parse_event_stream(path)) == 0
