"""The benchmark's passes over one workload's inputs, and what they measure.

Every pass builds a fresh executor or runner: a churned ``SharonExecutor``
or ``ReplayRunner`` keeps the churned workload on its engine after a run, so
running it a second time fails (see ``NOTES.md``, known defects).

* :func:`setup_times` — building the executor or runner from the workload
  and rates (optimizer plus compilation), repeated.
* :func:`live_pass` / :func:`replay_pass` — closed-loop passes: the next
  event is handed over as soon as the engine asks for it.  A
  :class:`HostGauge` runs beside the engine and scales the pass's time to
  the reference host speed.
* :func:`paced_pass` — the open-loop pass: a :class:`Pacer` releases each
  timestamp at its scheduled wall time however far the engine lags.
* :func:`resume_pass` — ``ReplayRunner.run(resume_from=...)`` from a late
  checkpoint, timed to its first batch.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from repro.events.log import EventLogReader, write_event_log
from repro.executor.aseq import ASeqExecutor
from repro.executor.engine import StreamingEngine
from repro.executor.results import ResultSet
from repro.executor.shared import SharonExecutor
from repro.replay import ReplayRunner

from .workloads import Inputs

#: The pacer sleeps until this long before a timestamp is due, then spins.
_SPIN_S = 0.002
#: Gauge snippets per closed-loop pass, and around each set-up build.
_GAUGE_SAMPLES = 200
_GAUGE_AROUND_BUILD = 4
#: Least time before a timestamp is due for the pacer to run a gauge snippet.
_GAUGE_SLACK_S = 0.0005
#: Seconds one gauge snippet takes at the reference host speed: the
#: fastest it ran on the 2-vCPU development host (Python 3.11.7).
GAUGE_NOMINAL_S = 40e-6


def settle() -> None:
    """Collect garbage, then freeze every live object, before a measured pass.

    What the benchmark itself keeps alive (the inputs, the reference
    results, the first pass's results) would otherwise be rescanned by every
    full collection the engine triggers, a cost a process running only the
    engine does not pay.  ``bench.run`` unfreezes at the end.
    """
    gc.collect()
    gc.freeze()


def heap_peak(run):
    """Call ``run()`` with ``tracemalloc`` on; return its result and the heap peak in MB.

    The peak is the most Python-heap memory allocated during the call and
    held at once.  Unlike the process's RSS it does not depend on how much
    freed memory earlier work left for the allocator to reuse.
    """
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """90th percentile (linear interpolation between closest ranks)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def gauge_snippet() -> None:
    """Fixed pure-Python work: build and drop small objects, tuples and dicts.

    It allocates and frees like the engine does, which makes it track the
    engine's slowdowns far better than arithmetic alone.  The collector is
    paused meanwhile, so the snippet never runs (or pays for) a collection
    of the engine's objects; it frees all it allocated, so the collector's
    counts are as before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(4):
            table = {}
            for index in range(32):
                probe = _Probe(index & 7, (index, index + 1))
                table[index] = probe
                table.get(probe.key)
            del table
    finally:
        if enabled:
            gc.enable()


class HostGauge:
    """Gauges the host's speed while a pass runs.

    Other tenants of a shared host slow every instruction of this process
    alike, by up to 2x, in phases shorter than a pass (NOTES.md).  The gauge
    times :func:`gauge_snippet` at even points of the pass, between the
    engine's steps, so it sees the same slowdowns as the engine.  ``speed``
    is the snippet's nominal time over its measured time.
    """

    def __init__(self, ticks: int = 1) -> None:
        self.every = max(1, ticks // _GAUGE_SAMPLES)
        self.count = 0
        self.runs = 0
        self.spent_s = 0.0

    def measure(self, times: int = 1) -> None:
        """Run and time the snippet ``times`` times."""
        for _ in range(times):
            started = time.perf_counter()
            gauge_snippet()
            self.spent_s += time.perf_counter() - started
        self.runs += times

    def tick(self) -> None:
        """Count one batch; measure every ``every`` of them."""
        self.count += 1
        if self.count % self.every == 0:
            self.measure()

    def timed(self, events):
        """Yield ``events``, measuring after every ``every`` of them."""
        every = self.every
        for index, event in enumerate(events, 1):
            yield event
            if index % every == 0:
                self.measure()

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (below 1: slower).

        1 when the snippet never ran: a paced pass that was behind schedule
        throughout leaves its latencies unscaled.
        """
        if not self.runs:
            return 1.0
        return GAUGE_NOMINAL_S * self.runs / self.spent_s


@dataclass
class PassResult:
    """What one pass produced."""

    wall_s: float
    results: ResultSet
    events: int
    state_hash: "str | None" = None
    checkpoints: list[Path] = field(default_factory=list)
    #: Seconds of ``wall_s`` the host gauge took, and the speed it read.
    gauge_s: float = 0.0
    speed: float = 1.0

    @property
    def engine_s(self) -> float:
        """Wall seconds spent in the program (the gauge's share removed)."""
        return self.wall_s - self.gauge_s

    @property
    def reference_s(self) -> float:
        """``engine_s`` scaled to the reference host speed."""
        return self.engine_s * self.speed

    @property
    def throughput_eps(self) -> float:
        """Events per second at the reference host speed."""
        return self.events / self.reference_s


def setup_times(inputs: Inputs, repeats: int):
    """Build the workload's executor (or replay runner) ``repeats`` times.

    Returns the build times, scaled to the reference host speed by a host
    gauge read just before and just after each build, and the sharing plan
    the builds chose.
    """
    samples = []
    for _ in range(repeats):
        built = None  # let settle() collect the previous build
        settle()
        gauge = HostGauge()
        gauge.measure(_GAUGE_AROUND_BUILD)
        started = time.perf_counter()
        if inputs.spec.checkpoint_every:
            built = ReplayRunner(inputs.workload, rates=inputs.rates, churn=inputs.churn)
        else:
            built = SharonExecutor(inputs.workload, rates=inputs.rates)
        build_s = time.perf_counter() - started
        gauge.measure(_GAUGE_AROUND_BUILD)
        samples.append(build_s * gauge.speed)
    return samples, built.plan


def reference_pass(inputs: Inputs) -> PassResult:
    """The A-Seq run the Sharon passes are checked against (same churn)."""
    executor = ASeqExecutor(inputs.workload, churn=inputs.churn)
    settle()
    started = time.perf_counter()
    report = executor.run(iter(inputs.events))
    return PassResult(time.perf_counter() - started, report.results, len(inputs.events))


def live_pass(inputs: Inputs, plan) -> PassResult:
    """One closed-loop ``SharonExecutor.run`` over a one-shot iterator."""
    executor = SharonExecutor(inputs.workload, plan=plan, churn=inputs.churn)
    gauge = HostGauge(len(inputs.events))
    settle()
    started = time.perf_counter()
    report = executor.run(gauge.timed(inputs.events))
    wall = time.perf_counter() - started
    return PassResult(
        wall, report.results, len(inputs.events), gauge_s=gauge.spent_s, speed=gauge.speed
    )


def record_log(inputs: Inputs, path: Path) -> Path:
    """Record the stream once to a JSONL event log."""
    write_event_log(inputs.events, path, stream_name=inputs.spec.name, fsync_every=0)
    return path


def replay_pass(inputs: Inputs, plan, log_path: Path, checkpoint_dir: Path) -> PassResult:
    """One closed-loop ``ReplayRunner.run`` over the log, checkpointing."""
    runner = ReplayRunner(inputs.workload, plan=plan, churn=inputs.churn)
    gauge = HostGauge(inputs.duration)
    settle()
    started = time.perf_counter()
    replay = runner.run(
        log_path,
        checkpoint_every=inputs.spec.checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        on_batch=lambda timestamp, batch: gauge.tick(),
    )
    wall = time.perf_counter() - started
    return PassResult(
        wall,
        replay.results,
        replay.events_replayed,
        replay.state_hash,
        list(replay.checkpoints),
        gauge_s=gauge.spent_s,
        speed=gauge.speed,
    )


def closed_pass(inputs, plan, log_path, checkpoint_dir) -> PassResult:
    """The workload's closed-loop pass: replay on ``durable-churn``, live elsewhere."""
    if inputs.spec.checkpoint_every:
        return replay_pass(inputs, plan, log_path, checkpoint_dir)
    return live_pass(inputs, plan)


class Pacer:
    """Open-loop source: releases timestamp ``t`` at ``origin + t * unit_s``.

    The schedule is absolute, so when the engine lags the pacer does not
    wait: the backlog is handed over at once and the lag is recorded as how
    late each timestamp's first event was handed to the engine.

    Every ``gauge.every`` timestamps the pacer runs one gauge snippet while
    it waits for a timestamp to fall due (never when it is behind schedule),
    so the gauge sees the host's speed at the moments the engine runs
    without delaying the engine.
    """

    def __init__(self, unit_s: float, gauge: HostGauge) -> None:
        self.unit_s = unit_s
        self.gauge = gauge
        #: Wall time (``perf_counter``) at which the first timestamp is due;
        #: set when the engine asks for the first event.
        self.origin: "float | None" = None
        self.first_timestamp = 0
        #: Per timestamp: hand-over time of its first event minus its due time.
        self.lags: list[float] = []

    def due(self, timestamp: int) -> float:
        return self.origin + (timestamp - self.first_timestamp) * self.unit_s

    def feed(self, events):
        current = None
        gauge = self.gauge
        timestamps = 0
        owed = False
        for event in events:
            if event.timestamp != current:
                current = event.timestamp
                if self.origin is None:
                    self.origin = time.perf_counter()
                    self.first_timestamp = current
                due = self.due(current)
                now = time.perf_counter()
                if due - now > _SPIN_S:
                    time.sleep(due - now - _SPIN_S)
                    now = time.perf_counter()
                timestamps += 1
                owed = owed or timestamps % gauge.every == 0
                if owed and due - now > _GAUGE_SLACK_S:
                    gauge.measure()
                    owed = False
                    now = time.perf_counter()
                # Spin the last stretch: a late wake-up from sleep would
                # otherwise show up as emit latency.
                while now < due:
                    now = time.perf_counter()
                self.lags.append(now - due)
            yield event


@dataclass
class PacedResult:
    """The paced pass: its results plus one emit latency per window close."""

    result: PassResult
    pacer: Pacer
    #: ``(window, latency_s, wait_s)`` per window closed by a step of the
    #: pass; ``wait_s`` is the part of the latency the schedule alone
    #: imposes: until the next timestamp is due and completes the batch.
    latencies: list

    def latencies_ms(self) -> list[float]:
        """Wall-clock emit latencies."""
        return [latency * 1000.0 for _, latency, _ in self.latencies]

    def reference_latencies_ms(self) -> list[float]:
        """Emit latencies with the program's part scaled to the reference host speed.

        The schedule's wait is wall time whatever the host does; the rest
        (queue wait behind earlier steps, and the emitting step) is the
        program's time, scaled like a closed-loop pass's.
        """
        speed = self.pacer.gauge.speed
        return [
            (wait + max(latency - wait, 0.0) * speed) * 1000.0
            for _, latency, wait in self.latencies
        ]


def paced_pass(inputs: Inputs, plan, reference: ResultSet, log_path=None) -> PacedResult:
    """Feed the inputs at the workload's fixed rate and time every window close.

    A window ``[s, e)`` closes in the step of the first batch at or after
    ``e``; its latency runs from the scheduled time of timestamp ``e`` to
    the moment that step returns (the ``on_batch`` hook fires right after
    it).  The windows are those the reference emitted.

    With a ``log_path`` the pass replays the log, with churn but without
    checkpoints: a checkpoint stalls the replay for up to a few hundred
    milliseconds, and how many window closes such a stall hits depends on
    the host's speed at that moment, so with checkpoints the latency
    percentiles do not repeat from run to run.  Checkpoint cost shows in
    the closed-loop throughput and in the traced ``replay.ckpt_s``.
    """
    pacer = Pacer(inputs.events_per_unit / inputs.spec.rate_eps, HostGauge(inputs.duration))
    step_done: list[tuple[int, float]] = []

    def on_batch(timestamp, batch):
        step_done.append((timestamp, time.perf_counter()))

    settle()
    if log_path is not None:
        runner = ReplayRunner(inputs.workload, plan=plan, churn=inputs.churn)
        source = pacer.feed(iter(EventLogReader(log_path)))
        started = time.perf_counter()
        replay = runner.run(source, on_batch=on_batch)
        result = PassResult(
            time.perf_counter() - started, replay.results, replay.events_replayed, replay.state_hash
        )
    else:
        engine = StreamingEngine(inputs.workload, plan=plan, name=SharonExecutor.name)
        started = time.perf_counter()
        report = engine.run(pacer.feed(iter(inputs.events)), on_batch=on_batch)
        result = PassResult(time.perf_counter() - started, report.results, len(inputs.events))
    return PacedResult(result, pacer, window_latencies(step_done, pacer, closed_windows(inputs, reference)))


def closed_windows(inputs: Inputs, reference: ResultSet) -> list:
    """Reference windows that a step closes (those ending by the last timestamp)."""
    last = inputs.events[-1].timestamp
    return sorted({result.window for result in reference if result.window.end <= last})


def window_latencies(step_done, pacer: Pacer, windows) -> list:
    """Pair every closed window with its emit latency and the schedule's wait in it.

    The step that emits window ``[s, e)`` processes the batch at or after
    ``e``, which is complete once the next batch's timestamp is due (or,
    for the last batch, once the stream ends after its own).
    """
    timestamps = [timestamp for timestamp, _ in step_done]
    latencies = []
    for window in windows:
        index = bisect.bisect_left(timestamps, window.end)
        released = timestamps[min(index + 1, len(timestamps) - 1)]
        due = pacer.due(window.end)
        latencies.append((window, step_done[index][1] - due, pacer.due(released) - due))
    return latencies


def resume_pass(inputs: Inputs, plan, log_path: Path, checkpoint: Path, checkpoint_dir: Path):
    """Resume from ``checkpoint``; returns the pass and the time to its first batch."""
    runner = ReplayRunner(inputs.workload, plan=plan, churn=inputs.churn)
    first_batch: list[float] = []

    def on_batch(timestamp, batch):
        if not first_batch:
            first_batch.append(time.perf_counter())

    settle()
    started = time.perf_counter()
    replay = runner.run(
        log_path,
        checkpoint_every=inputs.spec.checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=checkpoint,
        on_batch=on_batch,
    )
    wall = time.perf_counter() - started
    result = PassResult(wall, replay.results, replay.events_replayed, replay.state_hash)
    return result, first_batch[0] - started


def late_checkpoint(checkpoints: list[Path], total_events: int) -> Path:
    """The checkpoint nearest three quarters of the log."""
    return min(checkpoints, key=lambda path: abs(events_consumed(path) - 0.75 * total_events))


def events_consumed(path: Path) -> int:
    return int(path.stem.rsplit("-", 1)[1])
