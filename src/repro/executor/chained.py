"""Chained per-query aggregation over a sharing plan (Section 3.3).

Under a sharing plan each query's pattern is decomposed into segments
(:class:`~repro.core.plan.QueryDecomposition`).  At runtime the query becomes
a *chain* of segment runners evaluated in stream order:

* a private segment runs its own flat prefix aggregation
  (:class:`~repro.executor.prefix_agg.PrivateSegmentState`), seeding its first
  position from the chain value of the upstream segments;
* a shared segment is backed by a scope-wide
  :class:`~repro.executor.prefix_agg.SharedSegmentState` computed once for all
  sharing queries; the per-query :class:`SharedSegmentRunner` merely records,
  for every anchor cohort (START events of the shared pattern sharing one
  timestamp), the upstream chain value at the cohort's arrival time and folds
  the cohort's completion deltas into a running combined total — the
  count-combination step of the Shared method (Figure 7, Example 3),
  performed incrementally so every read is O(1).

The chain value after the last segment is the query's aggregate for the
scope.
"""

from __future__ import annotations

from typing import Sequence

from ..core.plan import QueryDecomposition
from ..events.event import Event
from ..queries.aggregates import AggregateSpec, AggregateState
from ..queries.query import Query
from .prefix_agg import CarryProvider, PrivateSegmentState, SharedSegmentState

__all__ = ["SharedSegmentRunner", "QueryChainState", "stage_event_types"]

_ZERO = AggregateState.zero()


def stage_event_types(decomposition: QueryDecomposition) -> frozenset[str]:
    """Event types whose arrival requires staging the query's chain.

    A private segment must observe all of its pattern's types; a shared
    runner only acts when a new anchor cohort appears, i.e. when the shared
    pattern's START type arrives (completions of later positions reach it
    through the delta subscription).  This is the single source of truth for
    the engine's type-indexed chain dispatch.
    """
    types: set[str] = set()
    for segment in decomposition.segments:
        if segment.is_shared:
            types.add(segment.pattern.event_types[0])
        else:
            types.update(segment.pattern.event_types)
    return frozenset(types)


class SharedSegmentRunner:
    """Per-query combination of a shared segment's anchored aggregates.

    The runner subscribes to its :class:`SharedSegmentState`: whenever a
    cohort's completed aggregate grows by some delta, the shared state calls
    :meth:`absorb_completed` and the runner merges ``carry ⊗ delta`` into its
    running total.  Carries are frozen at anchor creation (the paper's
    semantics), so the total is exact and :meth:`chain_value` never rescans
    the anchors.
    """

    __slots__ = ("shared", "spec", "carries", "_staged_carries", "_total", "combinations")

    def __init__(self, shared: SharedSegmentState, spec: AggregateSpec) -> None:
        if spec not in shared.specs:
            raise ValueError(f"shared segment {shared.pattern!r} does not track {spec!r}")
        self.shared = shared
        self.spec = spec
        #: Upstream chain value snapshot per anchor cohort, parallel to the
        #: shared state's cohort arrays.
        self.carries: list[AggregateState] = []
        self._staged_carries: list[AggregateState] = []
        #: Running Σ carry_i ⊗ completed_i over all cohorts.
        self._total: AggregateState = _ZERO
        #: Number of carry × anchor combinations, counted once at finalization
        #: (the cost model's combination step, Section 5).
        self.combinations = 0
        shared.register(self)

    def stage_batch(self, events: Sequence[Event], carry: CarryProvider) -> None:
        """Record the upstream snapshot for the cohort created in this batch.

        The shared state must have been staged for the same batch already;
        all START events of a batch form one cohort and share one carry
        (the upstream value as of the beginning of the batch).
        """
        if self.shared.staged_new_anchors:
            self._staged_carries.append(carry())

    def commit(self) -> None:
        """Publish the carries staged for this batch's new anchor cohorts."""
        if self._staged_carries:
            self.carries.extend(self._staged_carries)
            self._staged_carries.clear()

    def absorb_completed(self, cohort: int, delta: AggregateState) -> None:
        """Fold one cohort's completion delta into the running total."""
        if cohort < len(self.carries):
            carry = self.carries[cohort]
        else:
            carry = self._staged_carries[cohort - len(self.carries)]
        if carry.count == 0:
            return
        self._total = self._total.merge(carry.combine(delta))

    def chain_value(self) -> AggregateState:
        """Aggregate over completed matches of the chain up to this segment."""
        return self._total

    def count_combinations(self) -> int:
        """Count the carry × anchor combinations of this scope (cost model).

        Called once at scope finalization: one combination per cohort whose
        carry and completed aggregate are both non-empty, matching the
        paper's per-window combination step instead of inflating the counter
        on every intermediate read.
        """
        performed = sum(
            1
            for carry, completed in zip(self.carries, self.shared.completed_column(self.spec))
            if carry.count != 0 and completed.count != 0
        )
        self.combinations += performed
        return performed

    def compact_to(self, representatives: Sequence[int]) -> None:
        """Shrink the carry array to the compacted cohort set.

        Called by :meth:`SharedSegmentState.compact` between batches with one
        representative (old) cohort index per surviving cohort.  All members
        of a merged group carry the same value by the compaction criterion,
        so keeping the representative's carry is exact.  The running total is
        untouched — it is a sum over absorbed deltas, not over cohorts.
        """
        if self._staged_carries:
            raise RuntimeError("cannot compact a runner with staged carries")
        carries = self.carries
        self.carries = [carries[index] for index in representatives]

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot carries, running total and combination count (JSON-safe)."""
        if self._staged_carries:
            raise RuntimeError("export_state() must be called between batches")
        return {
            "carries": [carry.as_tuple() for carry in self.carries],
            "total": self._total.as_tuple(),
            "combinations": self.combinations,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.carries[:] = [AggregateState.from_tuple(carry) for carry in state["carries"]]
        self._staged_carries.clear()
        self._total = AggregateState.from_tuple(state["total"])
        self.combinations = state["combinations"]

    def reset(self) -> None:
        """Clear per-scope state so the runner can serve a new scope."""
        self.carries.clear()
        self._staged_carries.clear()
        self._total = _ZERO
        self.combinations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedSegmentRunner({self.shared.pattern!r}, anchors={len(self.carries)})"


#: A chain runner is either a private state or a shared runner.
ChainRunner = "PrivateSegmentState | SharedSegmentRunner"


class QueryChainState:
    """The full evaluation chain of one query inside one scope."""

    __slots__ = ("query", "runners")

    def __init__(
        self,
        query: Query,
        decomposition: QueryDecomposition,
        shared_states: dict,
    ) -> None:
        self.query = query
        self.runners: list = []
        for segment in decomposition.segments:
            if segment.is_shared:
                shared_state = shared_states[segment.pattern]
                self.runners.append(SharedSegmentRunner(shared_state, query.aggregate))
            else:
                self.runners.append(PrivateSegmentState(segment.pattern, query.aggregate))

    def _carry_provider(self, index: int) -> CarryProvider:
        if index == 0:
            return AggregateState.unit
        upstream = self.runners[index - 1]
        return upstream.chain_value

    def stage_batch(self, events: Sequence[Event]) -> None:
        """Stage one same-timestamp batch through every segment runner.

        All carry reads observe committed (pre-batch) upstream values, so the
        chain never links events sharing a timestamp.
        """
        for index, runner in enumerate(self.runners):
            runner.stage_batch(events, self._carry_provider(index))

    def commit(self) -> None:
        """Commit every runner's staged carries (end of the batch's reads)."""
        for runner in self.runners:
            runner.commit()

    def final_state(self) -> AggregateState:
        """The aggregate state over complete matches of the whole query pattern."""
        return self.runners[-1].chain_value()

    def final_value(self):
        """The query's result value for this scope (RETURN clause applied)."""
        return self.query.aggregate.finalize(self.final_state())

    def finalize_value(self):
        """Result value plus cost accounting, called once at scope finalization."""
        for runner in self.runners:
            if isinstance(runner, SharedSegmentRunner):
                runner.count_combinations()
        return self.final_value()

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> list:
        """Snapshot every segment runner, in chain order (JSON-safe)."""
        return [runner.export_state() for runner in self.runners]

    def restore_state(self, states: Sequence) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if len(states) != len(self.runners):
            raise ValueError(
                f"snapshot has {len(states)} segments, chain has {len(self.runners)}"
            )
        for runner, state in zip(self.runners, states):
            runner.restore_state(state)

    def reset(self) -> None:
        """Clear every runner so the chain can serve a new scope."""
        for runner in self.runners:
            runner.reset()

    @property
    def update_count(self) -> int:
        """Total number of private-segment aggregate updates (cost accounting)."""
        return sum(r.updates for r in self.runners if isinstance(r, PrivateSegmentState))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = [
            "shared" if isinstance(r, SharedSegmentRunner) else "private" for r in self.runners
        ]
        return f"QueryChainState({self.query.name}: {' -> '.join(kinds)})"
