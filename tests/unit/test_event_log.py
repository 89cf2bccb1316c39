"""Unit tests for the durable JSONL event log (repro.events.log)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import (
    Event,
    EventLogError,
    EventLogReader,
    EventLogWriter,
    EventStream,
    event_from_record,
    event_to_record,
    read_event_log,
    write_event_log,
)
from repro.events.log import LOG_FORMAT, LOG_VERSION


def make_events():
    return [
        Event("A", 1, {"entity": 7, "value": 2.5}, 0),
        Event("B", 1, {"entity": 7, "label": "x"}, 1),
        Event("A", 3, {"flag": True, "missing": None}, 2),
    ]


class TestEventCodec:
    def test_record_has_fixed_field_order(self):
        record = event_to_record(Event("A", 5, {"b": 1, "a": 2}, 9))
        assert list(record) == ["t", "type", "id", "attrs"]
        assert list(record["attrs"]) == ["a", "b"]

    def test_round_trip_preserves_event(self):
        for event in make_events():
            back = event_from_record(event_to_record(event))
            assert back.event_type == event.event_type
            assert back.timestamp == event.timestamp
            assert back.event_id == event.event_id
            assert back.attributes == event.attributes

    def test_encoding_is_canonical(self):
        # Attribute insertion order must not leak into the bytes.
        a = event_to_record(Event("A", 1, {"x": 1, "y": 2}, 0))
        b = event_to_record(Event("A", 1, {"y": 2, "x": 1}, 0))
        assert json.dumps(a) == json.dumps(b)

    def test_non_scalar_attribute_is_rejected(self):
        with pytest.raises(EventLogError, match="non-scalar"):
            event_to_record(Event("A", 1, {"bad": (1, 2)}, 0))
        with pytest.raises(EventLogError, match="non-scalar"):
            event_to_record(Event("A", 1, {"bad": {"nested": 1}}, 0))


class TestWriterReader:
    def test_write_then_read_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = make_events()
        written = write_event_log(events, path, stream_name="s")
        assert written == len(events)
        reader = EventLogReader(path)
        assert reader.stream_name == "s"
        assert [e.event_id for e in reader] == [0, 1, 2]
        assert reader.count_events() == len(events)

    def test_stream_round_trip_preserves_name_and_order(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stream = EventStream(make_events(), name="taxi")
        write_event_log(stream, path)
        back = read_event_log(path)
        assert back.name == "taxi"
        assert list(back) == list(stream)

    def test_header_line_is_first_and_validated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_event_log(make_events(), path, stream_name="s")
        first = path.read_text(encoding="utf-8").splitlines()[0]
        header = json.loads(first)
        assert header == {"format": LOG_FORMAT, "version": LOG_VERSION, "stream": "s"}

    def test_log_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_event_log(make_events(), a, stream_name="s")
        write_event_log(make_events(), b, stream_name="s")
        assert a.read_bytes() == b.read_bytes()

    def test_events_from_seeks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [Event("A", i, {"n": i}, i) for i in range(10)]
        write_event_log(events, path)
        reader = EventLogReader(path)
        assert [e.event_id for e in reader.events_from(7)] == [7, 8, 9]
        assert list(reader.events_from(10)) == []
        with pytest.raises(ValueError):
            list(reader.events_from(-1))

    def test_writer_append_and_context_manager(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLogWriter(path, stream_name="s", fsync_every=2) as writer:
            for event in make_events():
                writer.append(event)
            assert writer.events_written == 3
        # close() is idempotent and a closed writer refuses appends.
        writer.close()
        with pytest.raises(EventLogError, match="closed"):
            writer.append(Event("A", 9, event_id=99))
        assert EventLogReader(path).count_events() == 3

    def test_writer_rejects_negative_fsync_batch(self, tmp_path):
        with pytest.raises(ValueError):
            EventLogWriter(tmp_path / "x.jsonl", fsync_every=-1)

    def test_reader_rejects_missing_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EventLogError, match="header"):
            EventLogReader(path)

    def test_reader_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"not": "a log"}\n', encoding="utf-8")
        with pytest.raises(EventLogError, match=LOG_FORMAT):
            EventLogReader(path)

    def test_reader_rejects_version_skew(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"format": LOG_FORMAT, "version": LOG_VERSION + 1, "stream": "s"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(EventLogError, match="version"):
            EventLogReader(path)

    def test_reader_rejects_unparseable_header(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(EventLogError, match="unparseable"):
            EventLogReader(path)

    def test_reader_names_the_torn_last_line(self, tmp_path):
        """A crash mid-append leaves a partial last line; reading it must raise
        EventLogError naming the file and line, not a raw JSONDecodeError."""
        path = tmp_path / "torn.jsonl"
        events = [Event("A", t, {"value": t}, event_id=t) for t in range(20)]
        write_event_log(events, path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        reader = EventLogReader(path)
        replayed = []
        with pytest.raises(EventLogError, match=r"torn\.jsonl line 21 is not a complete"):
            for event in reader:
                replayed.append(event)
        assert replayed == events[:19]

    def test_reader_names_a_corrupt_middle_line(self, tmp_path):
        """The events before a corrupt line are delivered; the error names it."""
        path = tmp_path / "corrupt.jsonl"
        events = [Event("A", t, {"value": t}, event_id=t) for t in range(20)]
        write_event_log(events, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[6] = lines[6][: len(lines[6]) // 2] + "\n"  # event 5, file line 7
        path.write_text("".join(lines), encoding="utf-8")
        replayed = []
        with pytest.raises(EventLogError, match=r"corrupt\.jsonl line 7 is not a complete"):
            for event in EventLogReader(path):
                replayed.append(event)
        assert replayed == events[:5]

    def test_resumed_read_reports_the_torn_line_too(self, tmp_path):
        """Reading from an offset parses the torn tail and names its line."""
        path = tmp_path / "torn.jsonl"
        events = [Event("A", t, {"value": t}, event_id=t) for t in range(20)]
        write_event_log(events, path)
        path.write_bytes(path.read_bytes()[:-9])
        replayed = []
        with pytest.raises(EventLogError, match=r"torn\.jsonl line 21"):
            for event in EventLogReader(path).events_from(15):
                replayed.append(event)
        assert replayed == events[15:19]


# -- property tests -----------------------------------------------------------

attr_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)

events_strategy = st.lists(
    st.builds(
        lambda ts, etype, attrs: (ts, etype, attrs),
        st.integers(min_value=0, max_value=50),
        st.sampled_from(["A", "B", "C"]),
        st.dictionaries(st.text(min_size=1, max_size=6), attr_values, max_size=4),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=events_strategy)
def test_log_round_trip_property(rows, tmp_path_factory):
    """Any scalar-attributed stream round-trips through the log exactly."""
    events = [Event(etype, ts, attrs, event_id) for event_id, (ts, etype, attrs) in enumerate(rows)]
    stream = EventStream(events, name="prop")
    path = tmp_path_factory.mktemp("log") / "events.jsonl"
    write_event_log(stream, path)
    back = read_event_log(path)
    assert len(back) == len(stream)
    for original, restored in zip(stream, back):
        assert restored.event_type == original.event_type
        assert restored.timestamp == original.timestamp
        assert restored.event_id == original.event_id
        assert restored.attributes == original.attributes


@settings(max_examples=60, deadline=None)
@given(rows=events_strategy)
def test_event_codec_round_trip_property(rows):
    """event_to_record/event_from_record are exact inverses on scalar attrs."""
    for event_id, (ts, etype, attrs) in enumerate(rows):
        event = Event(etype, ts, attrs, event_id)
        restored = event_from_record(json.loads(json.dumps(event_to_record(event))))
        assert restored.attributes == event.attributes
        assert (restored.event_type, restored.timestamp, restored.event_id) == (
            event.event_type,
            event.timestamp,
            event.event_id,
        )
