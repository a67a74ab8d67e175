import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import random_frame
from imfsim import frames as frames_module
from imfsim.errors import (
    InvalidParamsError,
    MalformedLineError,
    NonMonotonicTimestampError,
    OutOfBoundsError,
)
from imfsim.frames import (
    BinaryFrame,
    EventArray,
    FrameConfig,
    aggregate_frames,
    is_empty,
    parse_event_stream,
    read_pbm,
    write_event_stream,
    write_pbm,
)

INT64_MAX = 2**63 - 1


def events(*rows):
    """EventArray from (t, x, y, polarity) rows."""
    return EventArray(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def outcome(source):
    """What parse_event_stream makes of a source: its events, or the located error."""
    try:
        return parse_event_stream(source)
    except (MalformedLineError, NonMonotonicTimestampError) as exc:
        return type(exc), exc.line_no


# ---------------------------------------------------------------------------
# event parsing
# ---------------------------------------------------------------------------

def test_parse_single_line():
    assert parse_event_stream(["1000,5,7,1"]) == events((1000, 5, 7, 1))


def test_parse_polarity_zero_maps_to_minus_one():
    assert parse_event_stream(["42,1,2,0"]).polarity[0] == -1


def test_parse_skips_comments_and_blanks_but_counts_physical_lines():
    text = "# header\n\n1000,1,1,1\nbroken\n"
    with pytest.raises(MalformedLineError) as exc:
        parse_event_stream(io.StringIO(text))
    assert exc.value.line_no == 4
    assert "line 4" in str(exc.value)


def test_parse_non_monotonic_names_offending_line():
    with pytest.raises(NonMonotonicTimestampError) as exc:
        parse_event_stream(["1000,5,7,1", "999,0,0,0"])
    assert exc.value.line_no == 2


def test_parse_equal_timestamps_allowed():
    assert len(parse_event_stream(["5,0,0,1", "5,1,0,1"])) == 2


@pytest.mark.parametrize(
    "line",
    ["1,2,3", "1,2,3,4,5", "a,2,3,1", "1.5,2,3,1", "-1,2,3,1", "1,-2,3,1", "1,2,3,2"],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(MalformedLineError) as exc:
        parse_event_stream([line])
    assert exc.value.line_no == 1


def test_event_validation():
    with pytest.raises(InvalidParamsError):
        events((-1, 0, 0, 1))
    with pytest.raises(InvalidParamsError):
        events((0, 0, 0, 0))
    with pytest.raises(InvalidParamsError):
        EventArray([0, 1], [0], [0], [1])  # columns of different lengths
    with pytest.raises(InvalidParamsError):
        EventArray([0.5], [0], [0], [1])  # not integers
    assert len(EventArray([], [], [], [])) == 0


def test_event_stream_round_trip_10k(tmp_path):
    rng = np.random.default_rng(99)
    n = 10_000
    stream = EventArray(
        np.cumsum(rng.integers(0, 50, size=n)),
        rng.integers(0, 240, size=n),
        rng.integers(0, 180, size=n),
        np.where(rng.random(n) < 0.5, 1, -1),
    )
    path = tmp_path / "events.txt"
    write_event_stream(stream, path)
    assert parse_event_stream(path) == stream


def test_canonical_file_is_parsed_as_columns(tmp_path, monkeypatch):
    path = tmp_path / "events.txt"
    path.write_bytes(b"0,1,2,1\n0,3,4,0\n0070,5,6,01\n")
    want = events((0, 1, 2, 1), (0, 3, 4, -1), (70, 5, 6, 1))

    def no_line_loop(lines):
        raise AssertionError("canonical file went through the line loop")

    with monkeypatch.context() as m:
        m.setattr(frames_module, "_parse_lines", no_line_loop)
        assert parse_event_stream(path) == want
    path.write_bytes(b"# comment\n0,1,2,1\n0,3,4,0\n70,5,6,1\n")
    assert parse_event_stream(path) == want


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
        assert outcome(path.read_text().splitlines(True)) == (err, line_no)


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
    assert parse_event_stream(path) == events((0, 0, 0, 1), (INT64_MAX, 1, 2, -1))
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
        assert outcome(path) == outcome(path.read_text().splitlines(True))


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
        write_event_stream(stream, fast)
        oracles.write_events_naive(
            stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.polarity.tolist(),
            naive,
        )
        assert fast.read_bytes() == naive.read_bytes()
        assert parse_event_stream(fast) == parse_event_stream(fast.read_text().splitlines(True))
        assert parse_event_stream(fast) == stream


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
    assert is_empty(BinaryFrame.zeros(4, 3))
    other = fr.copy()
    assert other == fr
    other.pixels[0, 1] = 1
    assert other != fr and not is_empty(other)


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
    assert is_empty(frames[1]) and is_empty(frames[2])


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
    frames = aggregate_frames(EventArray(ts, xs, ys, np.ones(n, dtype=np.int64)), cfg)
    ref = oracles.aggregate_naive(ts, xs, ys, cfg.t_f, 32, 24)
    assert len(frames) == len(ref)
    for got, want in zip(frames, ref):
        assert np.array_equal(got.pixels, want)


@given(st.lists(st.integers(0, 5000), min_size=1, max_size=60), st.integers(1, 300))
def test_aggregate_frame_count_and_window_popcounts(offsets, t_f):
    ts = np.cumsum(np.asarray(offsets, dtype=np.int64))
    idx = np.arange(len(ts))
    stream = EventArray(ts, (idx * 7) % 16, (idx * 3) % 12, np.ones_like(idx))
    cfg = FrameConfig(t_f=t_f, sensor_width=16, sensor_height=12)
    frames = aggregate_frames(stream, cfg)
    span = int(ts[-1] - ts[0]) + 1
    assert len(frames) == -(-span // t_f)  # ceil(span / t_f)
    per_window = {}
    for t, x, y in zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist()):
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
    ],
)
def test_pbm_rejects_bad_size_or_body(tmp_path, data):
    path = tmp_path / "bad.pbm"
    path.write_bytes(data)
    with pytest.raises(InvalidParamsError, match="bad.pbm"):
        read_pbm(path)
