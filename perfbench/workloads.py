"""Seeded input generation for the three benchmark workloads.

Each workload fixes its query set (the shape of one of the repository's
evaluation scenarios, built once from that scenario's own seed) and derives
everything the engine is fed from ``--seed``: the event stream, the rate
catalog estimated from it, and on ``durable-churn`` the attach/detach
schedule.  Seeds therefore vary the data and the churn, not the sharing
plan, so run-to-run spread measures the engine rather than plan changes.

The inputs are plain event lists; the runner hands them to the program as
one-shot iterators or as a recorded event log, never as a cached
``EventStream``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datasets.synthetic import ChainConfig, chain_event_types, chain_stream, chain_workload
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.windows import SlidingWindow
from repro.executor.churn import ChurnOp, ChurnSchedule
from repro.queries.aggregates import AggregateSpec
from repro.queries.pattern import Pattern
from repro.queries.predicates import PredicateSet
from repro.queries.query import Query
from repro.queries.workload import Workload
from repro.utils.rates import RateCatalog

#: Benchmark sizes: ``full`` is the measured size, ``tiny`` runs the same code
#: path in about a second per workload (the benchmark's own tests use it).
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: its shape, paced input rate and latency limit."""

    name: str
    #: Fixed input rate of the paced (open-loop) pass, in events per second.
    rate_eps: float
    #: Latency limit of a window's emission in the paced pass; a result whose
    #: window closed later than this counts as failed.
    limit_ms: float
    #: Checkpoint cadence in timestamp batches (``durable-churn`` only).
    checkpoint_every: int = 0


@dataclass
class Inputs:
    """Everything generated from one seed for one workload."""

    spec: WorkloadSpec
    seed: int
    size: str
    workload: Workload
    events: list[Event]
    rates: RateCatalog
    events_per_unit: int
    churn: ChurnSchedule = field(default_factory=ChurnSchedule)

    @property
    def groups(self) -> int:
        """Distinct entities (the workloads' group keys) in the stream."""
        return len({_entity(event) for event in self.events})

    @property
    def duration(self) -> int:
        """Stream length in time units."""
        return self.events[-1].timestamp - self.events[0].timestamp + 1

    def fingerprint(self) -> tuple:
        """A hashable digest of the generated inputs (seed-determinism tests)."""
        return (
            tuple((e.event_type, e.timestamp, tuple(sorted(e.attributes.items()))) for e in self.events),
            tuple(repr(q) for q in self.workload),
            tuple((op.kind, op.at, op.query_name, repr(op.query)) for op in self.churn),
        )


def _entity(event: Event):
    attributes = event.attributes
    return attributes.get("entity", attributes.get("customer"))


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("dense-share", rate_eps=4500.0, limit_ms=500.0),
        WorkloadSpec("deep-overlap", rate_eps=450.0, limit_ms=500.0),
        WorkloadSpec("durable-churn", rate_eps=2500.0, limit_ms=500.0, checkpoint_every=105),
    )
}


def _stream_seed(seed: int, salt: int) -> int:
    """Derive a per-workload stream seed from the benchmark seed."""
    return random.Random(seed * 1_000_003 + salt).randrange(2**31)


def dense_share(seed: int, size: str) -> Inputs:
    """The fig13-dense shape: 24 COUNT(*) queries over length-5 chain slices.

    Window 40/20 and one event per entity per time unit; 12 entities and a
    stream long enough that the paced pass sees over 100 window closes.
    """
    config = ChainConfig(num_event_types=10)
    workload = chain_workload(
        24, 5, config=config, window=SlidingWindow(size=40, slide=20), seed=47, offset_pool_size=2
    )
    entities = 12
    duration = 2140 if size == "full" else 200
    stream = chain_stream(
        duration=duration,
        events_per_second=entities,
        config=config,
        num_entities=entities,
        seed=_stream_seed(seed, 1),
        name="dense-share",
    )
    return _inputs("dense-share", seed, size, workload, stream, entities)


def deep_overlap(seed: int, size: str) -> Inputs:
    """The small-slide shape: 6 queries of length 4, window 40/2.

    Every event falls into 20 window instances, so fan-out across instances
    and window finalization dominate.
    """
    config = ChainConfig(num_event_types=8)
    workload = chain_workload(
        6, 4, config=config, window=SlidingWindow(size=40, slide=2), seed=53, offset_pool_size=2
    )
    entities = 8
    duration = 250 if size == "full" else 60
    stream = chain_stream(
        duration=duration,
        events_per_second=entities,
        config=config,
        num_entities=entities,
        seed=_stream_seed(seed, 2),
        name="deep-overlap",
    )
    return _inputs("deep-overlap", seed, size, workload, stream, entities)


def durable_churn(seed: int, size: str) -> Inputs:
    """About 20 overlapping e-commerce queries (length 5, 40 item types) with churn.

    The ``ec_scenario`` shape; the seed also draws six attach/detach ops
    spread over the stream, so the replay's late checkpoint has churn both
    behind it (re-applied on resume) and ahead of it.
    """
    config = ChainConfig(num_event_types=40, type_prefix="Item", entity_attribute="customer")
    window = SlidingWindow(size=40, slide=20)
    num_queries = 20 if size == "full" else 8
    workload = chain_workload(
        num_queries,
        5,
        config=config,
        window=window,
        seed=301,
        offset_pool_size=max(2, num_queries // 4),
    )
    customers = 10
    events_per_unit = 5
    duration = 2140 if size == "full" else 200
    stream = chain_stream(
        duration=duration,
        events_per_second=events_per_unit,
        config=config,
        num_entities=customers,
        advance_probability=0.85,
        seed=_stream_seed(seed, 3),
        name="durable-churn",
    )
    churn = _churn_schedule(random.Random(_stream_seed(seed, 4)), workload, config, window, duration)
    return _inputs("durable-churn", seed, size, workload, stream, events_per_unit, churn)


def _churn_schedule(
    rng: random.Random, workload: Workload, config: ChainConfig, window: SlidingWindow, duration: int
) -> ChurnSchedule:
    """Three attaches and three detaches, alternating, at seeded times."""
    types = chain_event_types(config)
    detached = rng.sample([query.name for query in workload], 3)
    predicates = PredicateSet.same(config.entity_attribute)
    ops = []
    for index, fraction in enumerate((0.15, 0.3, 0.45, 0.6, 0.8, 0.9)):
        at = int(duration * fraction) + rng.randrange(-duration // 40, duration // 40 + 1)
        if index % 2 == 0:
            offset = rng.randrange(len(types) - 5 + 1)
            query = Query(
                pattern=Pattern(types[offset : offset + 5]),
                window=window,
                aggregate=AggregateSpec.count_star(),
                predicates=predicates,
                name=f"churn{index // 2 + 1}",
            )
            ops.append(ChurnOp("attach", at, query=query))
        else:
            ops.append(ChurnOp("detach", at, query_name=detached[index // 2]))
    return ChurnSchedule(ops)


def _inputs(name, seed, size, workload, stream: EventStream, events_per_unit, churn=None) -> Inputs:
    return Inputs(
        spec=SPECS[name],
        seed=seed,
        size=size,
        workload=workload,
        events=list(stream),
        rates=RateCatalog.from_stream(stream, per="time-unit"),
        events_per_unit=events_per_unit,
        churn=churn if churn is not None else ChurnSchedule(),
    )


GENERATORS = {
    "dense-share": dense_share,
    "deep-overlap": deep_overlap,
    "durable-churn": durable_churn,
}


def generate(name: str, seed: int, size: str = "full") -> Inputs:
    """Generate the inputs of workload ``name`` from ``seed``."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return GENERATORS[name](seed, size)
