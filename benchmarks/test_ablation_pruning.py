"""Ablation: the effect of Sharon's pruning principles (Sections 3.4, 5, 6).

The paper motivates three pruning principles — non-beneficial candidates,
conflict-ridden candidates, conflict-free candidates (graph reduction), and
invalid-branch pruning inside the plan finder — and reports that on average
36 % of the candidates are pruned, which removes ~99 % of the plan-finder
search space.  This ablation quantifies each principle on the paper's running
example and on generated workloads:

* how many candidates each pruning step removes;
* how many plans (search nodes) the branch-and-bound plan finder considers
  with and without the graph reduction;
* that the optimal plan's score is identical in all configurations
  (pruning never sacrifices optimality).
"""

from __future__ import annotations

import pytest

from repro.core import (
    PlanSearchStatistics,
    build_candidates,
    build_sharon_graph,
    find_optimal_plan,
    reduce_sharon_graph,
    reduction_search_space_savings,
)
from repro.datasets import traffic_workload
from repro.utils import RateCatalog

from .harness import ec_scenario, paper_benefit, record_series


def _paper_graph():
    return build_sharon_graph(
        traffic_workload(), RateCatalog(default_rate=1.0), benefit_override=paper_benefit
    )


def test_ablation_reduction_on_running_example(benchmark):
    """Candidate and search-space reduction on the Figure 4 graph."""

    def run_once():
        graph = _paper_graph()
        with_stats = PlanSearchStatistics()
        without_stats = PlanSearchStatistics()

        reduction = reduce_sharon_graph(graph)
        reduced_plan = find_optimal_plan(
            reduction.reduced_graph, reduction.conflict_free, with_stats
        )
        unreduced_plan = find_optimal_plan(graph, statistics=without_stats)

        assert reduced_plan.score == pytest.approx(unreduced_plan.score)
        return {
            "candidates": len(graph),
            "candidates_after_reduction": len(reduction.reduced_graph),
            "conflict_free": len(reduction.conflict_free),
            "conflict_ridden": len(reduction.conflict_ridden),
            "space_savings": round(
                reduction_search_space_savings(len(graph), len(reduction.reduced_graph)), 4
            ),
            "plans_considered_with_reduction": with_stats.plans_considered,
            "plans_considered_without_reduction": without_stats.plans_considered,
            "optimal_score": reduced_plan.score,
        }

    summary = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert summary["plans_considered_with_reduction"] <= summary[
        "plans_considered_without_reduction"
    ]
    record_series(benchmark, figure="ablation-pruning-example", summary=summary)


def test_ablation_non_beneficial_pruning(benchmark):
    """Non-beneficial pruning (Section 3.4) on a generated EC workload."""
    workload, stream = ec_scenario(
        num_queries=12, pattern_length=5, events_per_second=15.0, duration=60, seed=171
    )
    rates = RateCatalog.from_stream(stream, per="time-unit")

    def run_once():
        all_candidates = build_candidates(workload)
        graph = build_sharon_graph(workload, rates)
        return {
            "sharable_patterns": len(all_candidates),
            "beneficial_candidates": len(graph),
            "pruned_as_non_beneficial": len(all_candidates) - len(graph),
        }

    summary = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert summary["beneficial_candidates"] <= summary["sharable_patterns"]
    record_series(benchmark, figure="ablation-non-beneficial", summary=summary)


def test_ablation_invalid_branch_pruning(benchmark):
    """The plan finder touches only valid plans (invalid-branch pruning).

    Compared against the 2^n subsets an exhaustive sweep would inspect, the
    plans the finder visits are a small fraction: every search node is a
    valid plan (each branch drops the added candidate's conflicts, Lemma 4),
    and the bound cuts most of the valid space too (Example 10 finds 7.87 %
    valid plans for the running example).
    """

    def run_once():
        graph = _paper_graph()
        stats = PlanSearchStatistics()
        find_optimal_plan(graph, statistics=stats)
        total_plans = 2 ** len(graph)
        return {
            "candidates": len(graph),
            "plans_in_full_space": total_plans,
            "valid_plans_considered": stats.plans_considered,
            "fraction_of_space_visited": round(stats.plans_considered / total_plans, 4),
        }

    summary = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert summary["valid_plans_considered"] < summary["plans_in_full_space"]
    record_series(benchmark, figure="ablation-invalid-branch", summary=summary)
