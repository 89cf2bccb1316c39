"""Property-based checks on mixed-aggregate workloads with float values.

The executor property suite draws COUNT(*) workloads only.  Here every query
draws its aggregate from COUNT(*), COUNT(E), SUM, MIN, MAX and AVG, and
events carry float values including signed zeros and fractions, so the
state columns and state pane matrices are exercised too.  Values are dyadic
(exact in binary64 at these magnitudes), so every summation order agrees
exactly and results are compared without float slack.

1. Every corner of the columnar × panes × compaction toggle cube returns the
   A-Seq reference's results.
2. A replay resumed from any of its checkpoints reaches the uninterrupted
   replay's state hash, which covers results, metric counters and all
   residual engine state.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Event, EventStream, SlidingWindow
from repro.executor import ASeqExecutor, SharonExecutor
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import ReplayRunner

from ..conftest import random_maximal_plan

EVENT_TYPES = ["A", "B", "C", "D"]

#: Signed zeros, ties and fractions; all exact in binary64.
VALUES = [0.0, -0.0, 1.5, -1.5, 0.25, 0.75, 7.25, -3.0, 3.0]


def _aggregate_for(draw, target_type):
    kind = draw(st.sampled_from(["star", "count", "sum", "min", "max", "avg"]))
    if kind == "star":
        return AggregateSpec.count_star()
    if kind == "count":
        return AggregateSpec.count(target_type)
    return getattr(AggregateSpec, kind)(target_type, "value")


@st.composite
def workloads(draw):
    """Small workloads mixing every aggregate kind over types A-D."""
    window_size = draw(st.sampled_from([6, 8, 12]))
    slide = min(draw(st.sampled_from([3, 4, window_size])), window_size)
    window = SlidingWindow(size=window_size, slide=slide)
    predicates = PredicateSet.same("entity") if draw(st.booleans()) else PredicateSet()
    queries = []
    for index in range(draw(st.integers(min_value=2, max_value=4))):
        length = draw(st.integers(min_value=2, max_value=3))
        types = draw(
            st.lists(st.sampled_from(EVENT_TYPES), min_size=length, max_size=length, unique=True)
        )
        queries.append(
            Query(
                pattern=Pattern(types),
                window=window,
                aggregate=_aggregate_for(draw, draw(st.sampled_from(types))),
                predicates=predicates,
                name=f"mq{index}",
            )
        )
    return Workload(queries)


@st.composite
def streams(draw):
    """Short timestamp-ordered streams with float values and two entities."""
    length = draw(st.integers(min_value=5, max_value=40))
    timestamps = sorted(
        draw(st.lists(st.integers(min_value=0, max_value=25), min_size=length, max_size=length))
    )
    events = []
    for event_id, timestamp in enumerate(timestamps):
        attrs = {"entity": draw(st.integers(min_value=0, max_value=1))}
        if draw(st.booleans()):
            attrs["value"] = draw(st.sampled_from(VALUES))
        events.append(Event(draw(st.sampled_from(EVENT_TYPES)), timestamp, attrs, event_id))
    return EventStream(events)


@settings(max_examples=25, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_toggle_cube_matches_aseq_on_mixed_aggregates(workload, stream, plan_seed):
    """Every columnar × panes × compaction corner returns A-Seq's results."""
    plan = random_maximal_plan(workload, plan_seed)
    reference = ASeqExecutor(workload).run(stream).results
    for columnar in (False, True):
        for panes in (False, True):
            for compaction in (False, True):
                results = (
                    SharonExecutor(
                        workload,
                        plan=plan,
                        columnar=columnar,
                        panes=panes,
                        compaction=compaction,
                    )
                    .run(stream)
                    .results
                )
                assert results.matches(reference, tolerance=0.0), (
                    (columnar, panes, compaction),
                    results.differences(reference, tolerance=0.0)[:5],
                )


@settings(max_examples=15, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_resumed_replay_reaches_the_uninterrupted_state_hash(workload, stream, plan_seed):
    """Resuming from any checkpoint ends in the full replay's exact state."""
    plan = random_maximal_plan(workload, plan_seed)
    events = list(stream)
    for panes in (False, True):
        full = ReplayRunner(workload, plan=plan, panes=panes).run(iter(events))
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            checkpointed = ReplayRunner(workload, plan=plan, panes=panes).run(
                iter(events), checkpoint_every=2, checkpoint_dir=checkpoint_dir
            )
            assert checkpointed.state_hash == full.state_hash
            for checkpoint_path in checkpointed.checkpoints:
                resumed = ReplayRunner(workload, plan=plan, panes=panes).run(
                    iter(events), resume_from=checkpoint_path
                )
                assert resumed.state_hash == full.state_hash, (
                    f"panes={panes}: resume from {checkpoint_path.name} diverged"
                )
