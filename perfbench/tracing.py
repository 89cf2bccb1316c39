"""The traced run: spans around the public calls into each layer.

All spans are recorded from the benchmark's own files.  The traced pass
drives the engine step by step through its public session surface
(``new_session``, ``routed_batches``, ``step``, ``finish``,
``apply_churn_op``, ``export_state`` + ``save_checkpoint``) and wraps
``WindowGroupScope.process_batch``/``finalize`` for the time of the pass.
Spans (name, start, end, parent, run id) stay in memory and are written
out once at the end; a layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from repro.events.log import EventLogReader
from repro.executor.engine import WindowGroupScope
from repro.replay import Checkpoint, canonical_json, load_checkpoint, save_checkpoint, state_hash

from .passes import PassResult, settle
from .workloads import Inputs

#: Sampled ``export_state`` calls per traced pass (``executor.state_bytes``).
STATE_SAMPLES = 10


class Tracer:
    """In-memory span recorder with explicit begin/end (cheap enough per event).

    ``run_id`` tags the spans recorded from now on; set it per pass so one
    pass's spans can be summed apart from another's.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent index, run id]`` per span, in start order.
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def each(self, name: str, iterable):
        """Yield from ``iterable``, one span per item fetched."""
        iterator = iter(iterable)
        while True:
            self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end()
            yield item

    def totals(self, run_ids=None) -> dict[str, dict]:
        """Per span name: count, total (inclusive) seconds and self seconds.

        Only spans of ``run_ids`` count, when given.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        for index, (name, start, end, parent, run) in enumerate(self.spans):
            if run_ids is not None and run not in run_ids:
                continue
            entry = totals.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, then the per-name totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )
            for run in dict.fromkeys(span[4] for span in self.spans):
                handle.write(json.dumps({"run": run, "totals": self.totals({run})}) + "\n")


@contextmanager
def scope_spans(tracer: Tracer):
    """Wrap ``WindowGroupScope.process_batch``/``finalize`` in spans for a while."""
    process_batch = WindowGroupScope.process_batch
    finalize = WindowGroupScope.finalize

    def traced_process_batch(scope, events):
        tracer.begin("executor.process_batch")
        try:
            return process_batch(scope, events)
        finally:
            tracer.end()

    def traced_finalize(scope):
        tracer.begin("executor.finalize")
        try:
            return finalize(scope)
        finally:
            tracer.end()

    WindowGroupScope.process_batch = traced_process_batch
    WindowGroupScope.finalize = traced_finalize
    try:
        yield
    finally:
        WindowGroupScope.process_batch = process_batch
        WindowGroupScope.finalize = finalize


@dataclass
class TracedPass:
    """A traced pass's outcome plus the counts measured alongside its spans."""

    result: PassResult
    metrics: object
    routed_pairs: int
    state_bytes: int
    checkpoint_bytes: list[int]


def traced_pass(
    inputs: Inputs,
    engine,
    tracer: Tracer,
    runner=None,
    log_path: "Path | None" = None,
    checkpoint_dir: "Path | None" = None,
    resume_from: "Path | None" = None,
) -> TracedPass:
    """Run the inputs through ``engine`` step by step, recording spans.

    With a ``runner`` (``durable-churn``) the pass replays ``log_path``
    the way ``ReplayRunner.run`` does — churn ops before routing their
    trigger batch, a checkpoint every ``checkpoint_every`` batches — and,
    with ``resume_from``, first restores that checkpoint: loading it and
    re-applying its churn prefix (``replay.resume_load``), then skipping
    the consumed log prefix up to the first event to replay
    (``replay.resume_skip``).
    """
    settle()
    session = engine.new_session()
    ops = inputs.churn.ops
    op_index = 0
    consumed = 0
    if resume_from is not None:
        with tracer.span("replay.resume_load"):
            checkpoint = load_checkpoint(resume_from)
            checkpoint.validate_against(runner.fingerprint, runner.engine_config)
            history = (checkpoint.engine_state.get("churn") or {}).get("history", [])
            for op in ops[: len(history)]:
                session.apply_churn_op(op)
            op_index = len(history)
            session.restore_state(checkpoint.engine_state)
        consumed = checkpoint.events_consumed
    if log_path is not None:
        events = EventLogReader(log_path).events_from(consumed)
        if resume_from is not None:
            with tracer.span("replay.resume_skip"):
                events = chain([next(events)], events)
        source = tracer.each("events.log_decode", events)
    else:
        source = tracer.each("events.source", inputs.events)

    def apply_due_churn(timestamp: int) -> None:
        nonlocal op_index
        while op_index < len(ops) and ops[op_index].at <= timestamp:
            with tracer.span("executor.churn"):
                session.apply_churn_op(ops[op_index])
            op_index += 1

    collector = session.collector
    every = inputs.spec.checkpoint_every
    if every:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    sample_every = max(1, inputs.duration // STATE_SAMPLES)
    routed_pairs = batches = state_bytes = 0
    checkpoint_bytes: list[int] = []
    with scope_spans(tracer):
        started = time.perf_counter()
        collector.start()
        routed = engine.routed_batches(source, collector, before_batch=apply_due_churn if ops else None)
        while True:
            tracer.begin("events.route")
            item = next(routed, None)
            tracer.end()
            if item is None:
                break
            timestamp, batch, groups = item
            tracer.begin("executor.step")
            session.step(timestamp, groups)
            tracer.end()
            consumed += len(batch)
            batches += 1
            routed_pairs += len(groups) if groups else 0
            if every and batches % every == 0:
                collector.stop()
                with tracer.span("replay.checkpoint"):
                    path = checkpoint_dir / f"checkpoint-{consumed:09d}.json"
                    save_checkpoint(
                        Checkpoint(
                            events_consumed=consumed,
                            last_timestamp=timestamp,
                            workload_fingerprint=runner.fingerprint,
                            engine_config=runner.engine_config,
                            engine_state=session.export_state(),
                        ),
                        path,
                    )
                checkpoint_bytes.append(path.stat().st_size)
                collector.start()
            if batches % sample_every == 0:
                collector.stop()
                with tracer.span("trace.sample_state"):
                    state_bytes = max(state_bytes, len(canonical_json(session.export_state())))
                collector.start()
        while op_index < len(ops):
            with tracer.span("executor.churn"):
                session.apply_churn_op(ops[op_index])
            op_index += 1
        with tracer.span("executor.finish"):
            report = session.finish()
        wall = time.perf_counter() - started
    final_hash = state_hash(session) if runner is not None else None
    return TracedPass(
        PassResult(wall, report.results, report.metrics.total_events, final_hash),
        report.metrics,
        routed_pairs,
        state_bytes,
        checkpoint_bytes,
    )
