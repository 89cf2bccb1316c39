"""Unit tests for the optimizer front-ends (Greedy, Exhaustive, Sharon)."""

from __future__ import annotations

import pytest

from repro.core import (
    ConflictDetector,
    ExhaustiveOptimizer,
    GreedyOptimizer,
    SharonOptimizer,
)
from repro.core.optimizer import PLAN_FINDER_NODES_PER_SECOND, OptimizationResult
from repro.datasets import chain_workload, traffic_workload
from repro.events import SlidingWindow
from repro.experiments.scenarios import ec_scenario
from repro.utils import RateCatalog, deep_sizeof

from ..conftest import paper_benefit


@pytest.fixture
def placeholder_rates():
    return RateCatalog(default_rate=1.0)


class TestGreedyOptimizer:
    def test_produces_valid_plan_and_phases(self, traffic, placeholder_rates):
        result = GreedyOptimizer(placeholder_rates, benefit_override=paper_benefit).optimize(
            traffic
        )
        assert result.plan.is_valid(ConflictDetector(traffic))
        assert result.plan.score == pytest.approx(43.0)  # Example 12
        assert set(result.phase_seconds) == {"graph construction", "GWMIN"}
        assert result.candidates_total == 7
        assert result.total_seconds > 0
        assert result.peak_bytes > 0

    def test_works_with_real_benefit_model(self, traffic):
        rates = RateCatalog.uniform(traffic.event_types(), 1.0)
        result = GreedyOptimizer(rates).optimize(traffic)
        assert result.plan.is_valid(ConflictDetector(traffic))


class TestSharonOptimizer:
    def test_finds_optimal_plan_on_paper_example(self, traffic, placeholder_rates):
        result = SharonOptimizer(placeholder_rates, benefit_override=paper_benefit).optimize(
            traffic
        )
        assert result.plan.score == pytest.approx(50.0)  # Example 12
        assert result.plan.is_valid(ConflictDetector(traffic))
        assert result.candidates_total == 7
        assert result.candidates_after_reduction <= 5
        assert not result.used_fallback
        assert "graph reduction" in result.phase_seconds
        assert "plan finder" in result.phase_seconds

    def test_beats_or_matches_greedy(self, traffic, placeholder_rates):
        greedy = GreedyOptimizer(placeholder_rates, benefit_override=paper_benefit).optimize(
            traffic
        )
        sharon = SharonOptimizer(placeholder_rates, benefit_override=paper_benefit).optimize(
            traffic
        )
        assert sharon.plan.score >= greedy.plan.score

    def test_expansion_phase_recorded_when_enabled(self, traffic, placeholder_rates):
        result = SharonOptimizer(
            placeholder_rates, expand=True, benefit_override=paper_benefit
        ).optimize(traffic)
        assert "graph expansion" in result.phase_seconds
        assert result.candidates_after_expansion >= result.candidates_total
        assert result.plan.score >= 50.0

    def test_time_budget_falls_back_to_greedy(self):
        workload = chain_workload(24, 8, seed=2)
        rates = RateCatalog.uniform(workload.event_types(), 1.0)
        result = SharonOptimizer(rates, time_budget_seconds=1e-9).optimize(workload)
        assert result.used_fallback
        assert result.plan.is_valid(ConflictDetector(workload))

    def test_time_budget_is_a_node_cap_the_finder_fits_in(self):
        """20 EC queries (39 candidates, none reduced away) under a 2 s budget.

        The budget is a cap of 2 s × ``PLAN_FINDER_NODES_PER_SECOND`` search
        nodes, which the branch-and-bound search stays far below here, so it
        proves the optimum instead of settling for the greedy plan.
        """
        workload, stream = ec_scenario(
            num_queries=20,
            pattern_length=5,
            events_per_second=15.0,
            duration=60,
            num_items=40,
            window=SlidingWindow(size=40, slide=20),
            seed=151,
        )
        rates = RateCatalog.from_stream(stream, per="time-unit")
        budgeted = SharonOptimizer(rates, time_budget_seconds=2.0).optimize(workload)
        unbounded = SharonOptimizer(rates).optimize(workload)
        greedy = GreedyOptimizer(rates).optimize(workload)
        assert budgeted.candidates_after_reduction == 39
        assert not budgeted.used_fallback
        assert budgeted.plans_considered < 2.0 * PLAN_FINDER_NODES_PER_SECOND
        assert budgeted.plan == unbounded.plan
        assert budgeted.plan.score > greedy.plan.score

    def test_durable_churn_plan_is_pinned(self):
        """The benchmark's ``durable-churn`` workload (seed 1) keeps its plan.

        These five candidates are the level-wise finder's choice over the
        46-candidate graph; the branch-and-bound search must return the very
        same plan, so results, state hashes and checkpoints do not move.
        """
        from perfbench.workloads import generate

        inputs = generate("durable-churn", 1)
        result = SharonOptimizer(inputs.rates).optimize(inputs.workload)
        assert result.candidates_after_reduction == 46
        assert [(c.pattern.event_types, c.query_names) for c in result.plan] == [
            (tuple(f"Item{i}" for i in range(15, 20)), ("q1", "q5", "q9", "q14", "q18")),
            (tuple(f"Item{i}" for i in range(25, 30)), ("q3", "q7", "q11", "q20")),
            (tuple(f"Item{i}" for i in range(29, 34)), ("q8", "q16", "q19")),
            (tuple(f"Item{i}" for i in range(31, 36)), ("q4", "q6", "q12", "q17")),
            (tuple(f"Item{i}" for i in range(34, 39)), ("q2", "q10", "q13", "q15")),
        ]
        assert not result.used_fallback

    def test_empty_plan_for_workload_without_sharing(self, uniform_query_factory):
        from repro.queries import Workload

        workload = Workload(
            [uniform_query_factory(["A", "B"], "q1"), uniform_query_factory(["C", "D"], "q2")]
        )
        rates = RateCatalog.uniform(["A", "B", "C", "D"], 1.0)
        result = SharonOptimizer(rates).optimize(workload)
        assert result.plan.is_empty


class TestExhaustiveOptimizer:
    def test_matches_sharon_on_paper_example(self, traffic, placeholder_rates):
        exhaustive = ExhaustiveOptimizer(
            placeholder_rates, benefit_override=paper_benefit
        ).optimize(traffic)
        sharon = SharonOptimizer(placeholder_rates, benefit_override=paper_benefit).optimize(
            traffic
        )
        assert exhaustive.plan.score == pytest.approx(sharon.plan.score)
        assert exhaustive.plans_considered == 2 ** 7

    def test_refuses_oversized_search(self, placeholder_rates):
        workload = chain_workload(30, 6, seed=4)
        rates = RateCatalog.uniform(workload.event_types(), 1.0)
        optimizer = ExhaustiveOptimizer(rates, max_candidates=10)
        with pytest.raises(RuntimeError, match="would not terminate"):
            optimizer.optimize(workload)


class TestPhaseBytes:
    @pytest.mark.parametrize("expand", (False, True))
    @pytest.mark.parametrize("num_queries", (4, 8, 12))
    def test_lazy_sizes_equal_eager_sizes(self, monkeypatch, num_queries, expand):
        """Sizes taken on first read equal sizes taken right after each phase.

        Figure 15's configurations (``run_figure15``), with expansion on and
        off: equality shows that no phase mutates an earlier phase's output.
        """
        workload, stream = ec_scenario(
            num_queries=num_queries, pattern_length=5, events_per_second=15.0,
            duration=60, num_items=40, seed=151,
        )
        rates = RateCatalog.from_stream(stream, per="time-unit")
        eager: dict[int, dict[str, int]] = {}
        keep = OptimizationResult.keep_phase_output

        def keep_and_size(result, phase, output):
            eager.setdefault(id(result), {})[phase] = deep_sizeof(output)
            keep(result, phase, output)

        monkeypatch.setattr(OptimizationResult, "keep_phase_output", keep_and_size)
        optimizers = (
            GreedyOptimizer(rates),
            SharonOptimizer(rates, expand=expand, time_budget_seconds=10.0),
            ExhaustiveOptimizer(rates, expand=expand, max_candidates=22),
        )
        measured = 0
        for optimizer in optimizers:
            try:
                result = optimizer.optimize(workload)
            except RuntimeError:
                continue  # the exhaustive sweep refuses graphs over 22 candidates
            assert result.phase_bytes == eager[id(result)]
            assert result.peak_bytes == max(eager[id(result)].values())
            measured += 1
        assert measured >= 2
