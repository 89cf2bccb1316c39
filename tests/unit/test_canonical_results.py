"""The cached results encoding is byte-identical to a full sort-and-dump.

Sessions keep their results listing sorted and encoded across exports
(:class:`~repro.executor.results.CanonicalResults`).  The reference here is
the encoding every export used to redo from scratch: sort all results by
``repr(key)`` and dump each as a row.  Randomized runs interleave emission,
same-key replacement, exports, checkpoint writes and loads, restores and
churn detaches (whose partial results land mid-run), and compare the
``export_state()`` dict, its canonical JSON text, the checkpoint file bytes
and the state hash with the reference at every step.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

import repro.executor.results as results_module
from repro.core import SharingCandidate, SharingPlan
from repro.events import Event, EventStream, SlidingWindow, write_event_log
from repro.executor import StreamingEngine
from repro.executor.churn import ChurnOp
from repro.executor.results import QueryResult
from repro.queries import AggregateSpec, Pattern, Query, Workload
from repro.replay import (
    Checkpoint,
    ReplayRunner,
    ReplayTrace,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
    state_hash,
)

#: Attribute values: SUM over these exercises signed zeros and long reprs.
VALUES = (-0.0, 0.0, 0.1, -2.5, 3.0, 1e-300, 7)
#: Group values of mixed types, ordered only by ``repr``.
GROUPS = ("u", "v", 7, 12)


def reference_rows(results) -> list:
    """The full sort-and-dump every export used to run."""
    return [
        [result.query_name, [result.window.start, result.window.end], list(result.group), result.value]
        for result in sorted(results, key=lambda result: repr(result.key))
    ]


def reference_state(session) -> dict:
    state = session.export_state()
    state["results"] = reference_rows(session.results)
    return state


def reference_hash(session) -> str:
    return hashlib.sha256(canonical_json(reference_state(session)).encode("utf-8")).hexdigest()


def make_workload() -> Workload:
    window = SlidingWindow(size=10, slide=5)
    queries = [
        Query(Pattern(["A", "B"]), window, AggregateSpec("SUM", "B", "x"), group_by=("g",), name="q1"),
        Query(Pattern(["A", "B", "C"]), window, AggregateSpec("SUM", "C", "x"), group_by=("g",), name="q2"),
        Query(Pattern(["A", "B"]), window, AggregateSpec("COUNT(*)"), group_by=("g",), name="q3"),
        Query(Pattern(["B", "C"]), window, AggregateSpec("MAX", "C", "x"), group_by=("g",), name="q4"),
    ]
    return Workload(queries)


def make_events(rng: random.Random, duration: int) -> list[Event]:
    events = []
    for timestamp in range(duration):
        for _ in range(rng.randint(0, 3)):
            attrs = {"x": rng.choice(VALUES), "g": rng.choice(GROUPS)}
            events.append(Event(rng.choice("ABC"), timestamp, attrs, len(events)))
    return events


def checkpoint_header(timestamp: int, engine_state) -> Checkpoint:
    return Checkpoint(
        events_consumed=timestamp,
        last_timestamp=timestamp,
        workload_fingerprint="f" * 64,
        engine_config={"mode": "test"},
        engine_state=engine_state,
    )


def assert_matches_reference(session) -> None:
    reference = reference_state(session)
    assert session.export_state() == reference
    assert session.state_json() == canonical_json(reference)
    assert state_hash(session) == reference_hash(session)


def assert_checkpoint_bytes(session, timestamp: int, tmp_path) -> Checkpoint:
    """Spliced, dict and reference checkpoint files agree byte for byte."""
    expected = canonical_json(checkpoint_header(timestamp, reference_state(session)).as_payload()) + "\n"
    spliced = save_checkpoint(
        checkpoint_header(timestamp, None), tmp_path / "spliced.json", session.state_json()
    )
    plain = save_checkpoint(checkpoint_header(timestamp, session.export_state()), tmp_path / "plain.json")
    assert spliced.read_text(encoding="utf-8") == expected
    assert plain.read_bytes() == spliced.read_bytes()
    loaded = load_checkpoint(spliced)
    # Scope states export tuples, which load back as lists: compare as text.
    assert canonical_json(loaded.engine_state) == canonical_json(reference_state(session))
    return loaded


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("panes", (False, True), ids=("instances", "panes"))
def test_listing_matches_the_full_sort_and_dump(seed, panes, tmp_path):
    rng = random.Random(seed)
    workload = make_workload()
    plan = SharingPlan([SharingCandidate(Pattern(["A", "B"]), ("q1", "q3"), 1.0)])
    engine = StreamingEngine(workload, plan=plan, panes=panes)
    session = engine.new_session()
    events = make_events(rng, duration=120)
    detaches = sorted(rng.sample(range(10, 110), 2))
    loaded = None
    replaced = 0

    def detach_due(timestamp: int) -> None:
        nonlocal loaded
        while detaches and detaches[0] <= timestamp:
            detaches.pop(0)
            session.detach_query(rng.choice(session.engine.workload.query_names()), at=timestamp)
            loaded = None  # earlier checkpoints carry the previous churn history
            assert_matches_reference(session)

    routed = engine.routed_batches(iter(events), session.collector, before_batch=detach_due)
    for timestamp, _, groups in routed:
        session.step(timestamp, groups)
        roll = rng.random()
        if roll < 0.1 and len(session.results):
            # Same-key replacement, including a signed zero value.
            old = rng.choice(list(session.results))
            session.results.add(QueryResult(old.query_name, old.window, old.group, rng.choice(VALUES)))
            replaced += 1
        elif roll < 0.2:
            loaded = assert_checkpoint_bytes(session, timestamp, tmp_path)
        elif roll < 0.28 and loaded is not None:
            session.restore_state(loaded.engine_state)
        if rng.random() < 0.5:
            assert_matches_reference(session)
    assert not detaches
    session.finish()
    assert_matches_reference(session)
    assert_checkpoint_bytes(session, events[-1].timestamp, tmp_path)
    assert replaced > 0
    assert len(session.results) > 20


class ReferenceCheckingTrace(ReplayTrace):
    """A replay trace that also records the reference encoder's hash."""

    def __init__(self) -> None:
        super().__init__()
        self.reference: list[str] = []

    def record(self, timestamp, events_consumed, session):
        entry = super().record(timestamp, events_consumed, session)
        self.reference.append(reference_hash(session))
        return entry


def test_replay_encodes_each_result_once(monkeypatch, tmp_path):
    """A churned, checkpointed, traced replay encodes every result once."""
    rng = random.Random(5)
    workload = make_workload()
    events = make_events(rng, duration=200)
    log = tmp_path / "events.jsonl"
    write_event_log(EventStream(events), log, fsync_every=0)
    extra = Query(
        Pattern(["C", "A"]), SlidingWindow(size=10, slide=5), AggregateSpec("SUM", "A", "x"),
        group_by=("g",), name="q5",
    )
    churn = [
        ChurnOp("detach", at=40, query_name="q2"),
        ChurnOp("attach", at=90, query=extra),
        ChurnOp("detach", at=150, query_name="q4"),
    ]
    encoded: Counter = Counter()
    encode_row = results_module._encode_row

    def counting(result):
        encoded[result.key] += 1
        return encode_row(result)

    monkeypatch.setattr(results_module, "_encode_row", counting)
    trace = ReferenceCheckingTrace()
    replay = ReplayRunner(workload, churn=churn).run(
        log, checkpoint_every=25, checkpoint_dir=tmp_path / "ckpt", trace=trace
    )
    assert len(replay.checkpoints) >= 5
    assert replay.results.replacements == 0
    assert set(encoded) == {result.key for result in replay.results}
    assert set(encoded.values()) == {1}
    assert len(trace) == replay.batches
    assert [entry.state_hash for entry in trace] == trace.reference
