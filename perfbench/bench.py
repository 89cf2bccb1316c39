"""One benchmark run: generate a workload from a seed, measure, check, report.

``run(workload, seed, seconds, trace)`` returns an :class:`Outcome`.  With
tracing off it measures the end-to-end metrics (:data:`END_TO_END`); with
tracing on it makes the separate traced run and reports the per-layer
metrics (:data:`PER_LAYER`).  Either way every pass's results are checked
against an ``ASeqExecutor`` reference on the same input (with the same churn
schedule), and on ``durable-churn`` the replayed, live and resumed runs are
checked against each other.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import platform
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.optimizer import SharonOptimizer
from repro.executor.engine import StreamingEngine
from repro.executor.results import ResultSet
from repro.executor.shared import SharonExecutor
from repro.replay import ReplayRunner

from . import passes
from .passes import PassResult, median, p90
from .tracing import Tracer, traced_pass
from .workloads import Inputs, generate

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "throughput_eps": "ev/s",
    "emit_p50_ms": "ms",
    "emit_p90_ms": "ms",
    "setup_s": "s",
    "mem_peak_mb": "MB",
}

#: Per-layer metrics (tracing on) and their units.
PER_LAYER = {
    "core.optimize_s": "s",
    "core.plan_finder_s": "s",
    "core.plans_considered": "count",
    "core.reduction_pruned_frac": "frac",
    "core.plan_gain": "x",
    "executor.compile_s": "s",
    "events.route_s": "s",
    "events.relevant_frac": "frac",
    "events.log_decode_s": "s",
    "events.lag_p90_ms": "ms",
    "executor.step_s": "s",
    "executor.process_s": "s",
    "executor.finalize_s": "s",
    "executor.fanout": "x",
    "executor.updates_per_event": "count",
    "executor.cohort_merge_frac": "frac",
    "executor.panes_created": "count",
    "executor.state_bytes": "bytes",
    "executor.finish_s": "s",
    "executor.churn_s": "s",
    "executor.churn_ops": "count",
    "replay.ckpt_s": "s",
    "replay.ckpt_count": "count",
    "replay.ckpt_bytes": "bytes",
    "replay.resume_load_s": "s",
    "replay.resume_skip_s": "s",
    "replay.recover_s": "s",
    "trace.overhead": "x",
}

#: Set-up builds per run (the median is reported).  A live workload's build
#: takes milliseconds and is noisy, so it is repeated often; the optimizer
#: makes one ``durable-churn`` build take seconds.
SETUP_REPEATS = {"dense-share": 25, "deep-overlap": 25, "durable-churn": 3}
#: Fewest closed-loop timed passes per run, whatever ``--seconds`` says.
MIN_TIMED_PASSES = 3
#: Fewest paced passes per untraced run, whatever ``--seconds`` says.
MIN_PACED_PASSES = 2
#: Paced seconds per closed-loop second within ``--seconds``: one gauged
#: closed-loop pass already reads steadily, a paced pass's percentiles less so.
PACED_PER_CLOSED = 2.0
#: Untraced closed-loop passes in a traced run (the median is the overhead base).
UNTRACED_PASSES_IN_TRACE = 3
#: Fewest window closes a full-size paced pass must see (p90 needs ten beyond it).
MIN_CLOSES = 100


class Checks:
    """Correctness bookkeeping: every expected result of every checked pass."""

    def __init__(self, reference: ResultSet) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def results(self, label: str, results: ResultSet, late_windows=frozenset()) -> None:
        """Compare one pass with the reference; late windows' results fail too."""
        self.attempted += len(self.reference)
        wrong = {key for key, _, _ in results.differences(self.reference)}
        late = {result.key for result in self.reference if result.window in late_windows}
        self.failed += len(wrong | late)
        if wrong:
            self.problems.append(f"{label}: {len(wrong)} results differ from the A-Seq reference")
        if late:
            self.problems.append(f"{label}: {len(late)} results emitted after the latency limit")

    def same(self, label: str, first, second) -> None:
        """One comparison that must hold (state hashes, traced vs untraced)."""
        self.attempted += 1
        if first != second:
            self.failed += 1
            self.problems.append(f"{label}: {first!r} != {second!r}")


@dataclass
class Outcome:
    """Everything one run reports."""

    workload: str
    trace: bool
    metrics: dict[str, float]
    checks: Checks
    record: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.checks.failed == 0

    @property
    def failed_frac(self) -> float:
        return self.checks.failed / max(self.checks.attempted, 1)

    def result_line(self) -> dict:
        """The result object: the last line the benchmark prints."""
        units = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": self.correct,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit} for name, unit in units.items()
            },
        }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Outcome:
    """Generate ``workload`` from ``seed`` and make one untraced or traced run."""
    inputs = generate(workload, seed, size)
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return _traced_run(inputs, work)
        return _untraced_run(inputs, seconds, work)
    finally:
        gc.unfreeze()  # undo passes.settle()
        shutil.rmtree(work, ignore_errors=True)


def _log_path(inputs: Inputs, work: Path) -> "Path | None":
    if not inputs.spec.checkpoint_every:
        return None
    return passes.record_log(inputs, work / "events.jsonl")


def _paced(inputs, plan, reference, checks, log_path) -> passes.PacedResult:
    """The paced pass, checked: results, lateness, and enough window closes."""
    paced = passes.paced_pass(inputs, plan, reference.results, log_path)
    limit_s = inputs.spec.limit_ms / 1000.0
    late = frozenset(window for window, latency, _ in paced.latencies if latency > limit_s)
    checks.results("paced pass", paced.result.results, late)
    if inputs.size == "full":
        checks.same("paced pass window closes >= 100", len(paced.latencies) >= MIN_CLOSES, True)
    return paced


def _durable_checks(inputs, plan, checks, log_path, uninterrupted: PassResult, work):
    """Live run ≡ replay, and resume from a late checkpoint ≡ uninterrupted."""
    live = passes.live_pass(inputs, plan)
    checks.results("live run", live.results)
    checks.same("live run vs replay", live.results.matches(uninterrupted.results), True)
    checkpoint = passes.late_checkpoint(uninterrupted.checkpoints, len(inputs.events))
    resumed, recover_s = passes.resume_pass(inputs, plan, log_path, checkpoint, work / "ckpt-resume")
    checks.results("resumed replay", resumed.results)
    checks.same("resumed state_hash", resumed.state_hash, uninterrupted.state_hash)
    return live, checkpoint, recover_s


def _untraced_run(inputs: Inputs, seconds: float, work: Path) -> Outcome:
    setup_samples, plan = passes.setup_times(inputs, SETUP_REPEATS[inputs.spec.name])
    log_path = _log_path(inputs, work)

    # The first closed-loop pass warms up and measures memory, right after
    # set-up as in a user's process; its checkpoints (durable-churn) serve
    # the resume check.
    first, mem_peak_mb = passes.heap_peak(
        lambda: passes.closed_pass(inputs, plan, log_path, work / "ckpt-0")
    )
    reference = passes.reference_pass(inputs)
    checks = Checks(reference.results)
    checks.results("memory pass", first.results)

    # Closed-loop and paced passes alternate over the whole ``--seconds``, so
    # both kinds see the host's slow and fast phases alike.
    timed: list[float] = []  # per-pass throughput at the reference host speed
    walls: list[float] = []
    speeds: list[float] = []
    paced_walls: list[float] = []
    paced_speeds: list[float] = []
    paced_p50: list[float] = []
    paced_p90: list[float] = []
    closes = 0
    budget_started = time.perf_counter()
    while (
        len(timed) < MIN_TIMED_PASSES
        or len(paced_p50) < MIN_PACED_PASSES
        or time.perf_counter() - budget_started < seconds
    ):
        closed_due = len(timed) < MIN_TIMED_PASSES and len(paced_p50) >= MIN_PACED_PASSES
        paced_due = len(paced_p50) < MIN_PACED_PASSES and len(timed) >= MIN_TIMED_PASSES
        if paced_due or (not closed_due and sum(paced_walls) < PACED_PER_CLOSED * sum(walls)):
            paced = _paced(inputs, plan, reference, checks, log_path)
            checks.same("paced pass state_hash", paced.result.state_hash, first.state_hash)
            paced_walls.append(paced.result.wall_s)
            paced_speeds.append(paced.pacer.gauge.speed)
            latencies = paced.reference_latencies_ms()
            paced_p50.append(median(latencies))
            paced_p90.append(p90(latencies))
            closes = len(latencies)
            del paced
            continue
        label = f"timed pass {len(timed) + 1}"
        checkpoint_dir = work / f"ckpt-{len(timed) + 1}"
        current = passes.closed_pass(inputs, plan, log_path, checkpoint_dir)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        checks.results(label, current.results)
        checks.same(f"{label} state_hash", current.state_hash, first.state_hash)
        timed.append(current.throughput_eps)
        walls.append(current.wall_s)
        speeds.append(current.speed)
        del current

    metrics = {
        "throughput_eps": median(timed),
        "emit_p50_ms": median(paced_p50),
        "emit_p90_ms": median(paced_p90),
        "setup_s": median(setup_samples),
        "mem_peak_mb": mem_peak_mb,
    }
    extra = {
        "emit_samples_per_pass": closes,
        "paced_p50_ms": paced_p50,
        "paced_p90_ms": paced_p90,
        "throughput_per_pass_eps": timed,
        "host_speed_per_pass": speeds,
        "host_speed_per_paced_pass": paced_speeds,
    }
    if log_path is not None:
        _, checkpoint, recover_s = _durable_checks(inputs, plan, checks, log_path, first, work)
        extra["recover_s"] = recover_s
        extra["resume_checkpoint_events"] = passes.events_consumed(checkpoint)
    outcome = Outcome(inputs.spec.name, False, metrics, checks)
    extra["failed_frac"] = outcome.failed_frac
    outcome.record = _record(
        inputs,
        outcome,
        extra,
        closes=closes,
        passes={
            "setup_s": setup_samples,
            "memory_pass_s": first.wall_s,
            "timed_pass_s": walls,
            "paced_pass_s": paced_walls,
            "reference_pass_s": reference.wall_s,
        },
    )
    return outcome


def _traced_run(inputs: Inputs, work: Path) -> Outcome:
    run_id = f"{inputs.spec.name}-seed{inputs.seed}-{os.getpid()}"
    tracer = Tracer(f"{run_id}-setup")
    durable = bool(inputs.spec.checkpoint_every)
    with tracer.span("core.optimize"):
        optimized = SharonOptimizer(inputs.rates).optimize(inputs.workload)
    plan = optimized.plan
    runner = None
    with tracer.span("executor.compile"):
        if durable:
            runner = ReplayRunner(inputs.workload, plan=plan, churn=inputs.churn)
            engine = runner.engine
        else:
            engine = StreamingEngine(inputs.workload, plan=plan, name=SharonExecutor.name)

    reference = passes.reference_pass(inputs)
    checks = Checks(reference.results)
    log_path = _log_path(inputs, work)
    untraced = []
    for index in range(UNTRACED_PASSES_IN_TRACE):
        checkpoint_dir = work / f"ckpt-{index}"
        current = passes.closed_pass(inputs, plan, log_path, checkpoint_dir)
        checks.results(f"untraced pass {index}", current.results)
        if index:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
            checks.same(f"untraced pass {index} state_hash", current.state_hash, untraced[0].state_hash)
        untraced.append(current)
    live_wall = median([p.engine_s for p in untraced])
    recover_s = 0.0
    if durable:
        live, checkpoint, recover_s = _durable_checks(
            inputs, plan, checks, log_path, untraced[0], work
        )
        live_wall = live.engine_s

    tracer.run_id = f"{run_id}-pass"
    traced = traced_pass(inputs, engine, tracer, runner, log_path, work / "ckpt-traced")
    checks.results("traced pass", traced.result.results)
    checks.same("traced vs untraced results", traced.result.results.matches(untraced[0].results), True)
    if durable:
        checks.same("traced state_hash", traced.result.state_hash, untraced[0].state_hash)
        fresh = ReplayRunner(inputs.workload, plan=plan, churn=inputs.churn)
        tracer.run_id = f"{run_id}-resume"
        resumed = traced_pass(
            inputs, fresh.engine, tracer, fresh, log_path, work / "ckpt-traced-resume", checkpoint
        )
        checks.results("traced resume", resumed.result.results)
        checks.same("traced resume state_hash", resumed.result.state_hash, untraced[0].state_hash)

    paced = _paced(inputs, plan, reference, checks, log_path)
    tracer.write(ROOT / ".perfbench_out" / f"spans-{inputs.spec.name}.jsonl")

    totals = tracer.totals({f"{run_id}-setup", f"{run_id}-pass"})
    resume = tracer.totals({f"{run_id}-resume"})

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0.0)

    run_metrics = traced.metrics
    process_calls = totals.get("executor.process_batch", {}).get("count", 0)
    metrics = {
        "core.optimize_s": total("core.optimize"),
        "core.plan_finder_s": optimized.phase_seconds.get("plan finder", 0.0),
        "core.plans_considered": optimized.plans_considered,
        "core.reduction_pruned_frac": (
            1.0 - optimized.candidates_after_reduction / optimized.candidates_total
            if optimized.candidates_total
            else 0.0
        ),
        "core.plan_gain": reference.wall_s / live_wall,
        "executor.compile_s": total("executor.compile"),
        "events.route_s": total("events.route", "self_s"),
        "events.relevant_frac": run_metrics.relevant_events / max(run_metrics.total_events, 1),
        "events.log_decode_s": total("events.log_decode"),
        "events.lag_p90_ms": p90(paced.pacer.lags) * 1000.0,
        "executor.step_s": total("executor.step", "self_s"),
        "executor.process_s": total("executor.process_batch"),
        "executor.finalize_s": total("executor.finalize"),
        "executor.fanout": process_calls / max(traced.routed_pairs, 1),
        "executor.updates_per_event": run_metrics.state_updates / max(run_metrics.relevant_events, 1),
        "executor.cohort_merge_frac": run_metrics.cohorts_merged / max(run_metrics.cohorts_created, 1),
        "executor.panes_created": run_metrics.panes_created,
        "executor.state_bytes": traced.state_bytes,
        "executor.finish_s": total("executor.finish", "self_s"),
        "executor.churn_s": total("executor.churn"),
        "executor.churn_ops": totals.get("executor.churn", {}).get("count", 0),
        "replay.ckpt_s": total("replay.checkpoint"),
        "replay.ckpt_count": len(traced.checkpoint_bytes),
        "replay.ckpt_bytes": (
            sum(traced.checkpoint_bytes) / len(traced.checkpoint_bytes)
            if traced.checkpoint_bytes
            else 0.0
        ),
        "replay.resume_load_s": resume.get("replay.resume_load", {}).get("total_s", 0.0),
        "replay.resume_skip_s": resume.get("replay.resume_skip", {}).get("total_s", 0.0),
        "replay.recover_s": recover_s,
        # State sampling is extra work of the traced run, not tracing cost.
        "trace.overhead": (traced.result.wall_s - total("trace.sample_state"))
        / median([p.engine_s for p in untraced]),
    }
    outcome = Outcome(inputs.spec.name, True, metrics, checks)
    outcome.record = _record(
        inputs,
        outcome,
        {"failed_frac": outcome.failed_frac, "self_seconds": {k: v["self_s"] for k, v in totals.items()}},
        closes=len(paced.latencies),
        passes={
            "untraced_pass_s": [p.engine_s for p in untraced],
            "traced_pass_s": traced.result.wall_s,
            "paced_pass_s": paced.result.wall_s,
            "reference_pass_s": reference.wall_s,
        },
    )
    return outcome


def _record(inputs: Inputs, outcome: Outcome, extra: dict, closes: int, passes: dict) -> dict:
    """The run's full record: environment stamp, input size, every figure."""
    return {
        "workload": inputs.spec.name,
        "trace": outcome.trace,
        "seed": inputs.seed,
        "size": inputs.size,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "git_commit": git_commit(),
        "input": {
            "events": len(inputs.events),
            "time_units": inputs.duration,
            "window_closes": closes,
            "groups": inputs.groups,
            "queries": len(inputs.workload),
            "churn_ops": len(inputs.churn),
            "paced_rate_eps": inputs.spec.rate_eps,
            "latency_limit_ms": inputs.spec.limit_ms,
        },
        "passes": passes,
        "metrics": dict(outcome.metrics),
        **extra,
        "problems": outcome.checks.problems,
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
