"""Optimizer front-ends: Greedy, Exhaustive, and Sharon (Section 8.3 setup).

All three consume a workload plus a rate catalog (or an explicit benefit
model) and produce a :class:`~repro.core.plan.SharingPlan` together with
phase-by-phase statistics, so the optimizer benchmarks (Figure 15) can report
latency and memory per phase exactly like the paper's stacked bars:

* **GreedyOptimizer** — Sharon graph construction, then the GWMIN plan
  finder.  Polynomial, but the plan may be far from optimal (Example 12).
* **ExhaustiveOptimizer** — graph construction, graph expansion (Section 7.1),
  then a brute-force sweep over *all* candidate subsets.  Exponential; the
  paper reports it failing beyond 20 queries.
* **SharonOptimizer** — graph construction, expansion, reduction
  (Section 5), and the sharing plan finder (Section 6), an exact
  branch-and-bound search seeded with the GWMIN plan.  Returns an optimal
  plan over the (expanded) graph while pruning most of the space.  An
  optional time budget caps the search; a capped search returns its best
  plan so far, never below the GWMIN plan, mirroring the escape hatch
  discussed at the end of Section 6.

See ``docs/optimizer.md`` for the phases, the bound and the tie rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..queries.pattern import Pattern
from ..queries.workload import Workload
from ..utils.memory import deep_sizeof
from ..utils.rates import RateCatalog
from .benefit import BenefitModel
from .candidates import SharingCandidate
from .expansion import expand_sharon_graph
from .graph import SharonGraph, build_sharon_graph
from .gwmin import gwmin_plan
from .plan import SharingPlan
from .planner import PlanSearchStatistics, find_optimal_plan
from .reduction import reduce_sharon_graph

__all__ = [
    "OptimizationResult",
    "GreedyOptimizer",
    "ExhaustiveOptimizer",
    "SharonOptimizer",
]

#: Search nodes per second assumed when ``SharonOptimizer`` turns its time
#: budget into a node cap.  The plan finder visits 6,000–20,000 nodes/s on
#: graphs of 25–106 candidates (CPython 3.11, one core of a 2-vCPU x86-64
#: host); the cap takes the low end so that a capped search stays within its
#: budget.
PLAN_FINDER_NODES_PER_SECOND = 5_000


@dataclass
class OptimizationResult:
    """A sharing plan plus the measurements the evaluation section reports."""

    plan: SharingPlan
    phase_seconds: dict[str, float] = field(default_factory=dict)
    candidates_total: int = 0
    candidates_after_expansion: int = 0
    candidates_after_reduction: int = 0
    plans_considered: int = 0
    used_fallback: bool = False
    #: Each phase's output (graph or plan), sized only when read.
    _phase_outputs: dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _phase_bytes: "dict[str, int] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def keep_phase_output(self, phase: str, output: object) -> None:
        """Record what ``phase`` produced, for :attr:`phase_bytes`."""
        self._phase_outputs[phase] = output
        self._phase_bytes = None

    @property
    def phase_bytes(self) -> dict[str, int]:
        """``deep_sizeof`` of each phase's output (Figure 15's memory bars).

        Measured on first read rather than after every phase: executors never
        read it, and no phase mutates an earlier phase's output, so the sizes
        are those an eager measurement would give.
        """
        if self._phase_bytes is None:
            self._phase_bytes = {
                phase: deep_sizeof(output) for phase, output in self._phase_outputs.items()
            }
        return self._phase_bytes

    @property
    def total_seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))

    @property
    def peak_bytes(self) -> int:
        return max(self.phase_bytes.values(), default=0)

    @property
    def score(self) -> float:
        return self.plan.score


class _BaseOptimizer:
    """Shared plumbing: benefit model resolution and graph construction."""

    def __init__(
        self,
        rates: "RateCatalog | BenefitModel",
        benefit_override: Callable[[SharingCandidate], float] | None = None,
    ) -> None:
        self.model = rates if isinstance(rates, BenefitModel) else BenefitModel(rates)
        self.benefit_override = benefit_override

    def build_graph(
        self,
        workload: Workload,
        result: OptimizationResult,
        sharable: Mapping[Pattern, tuple[str, ...]] | None = None,
    ) -> SharonGraph:
        started = time.perf_counter()
        graph = build_sharon_graph(
            workload, self.model, sharable=sharable, benefit_override=self.benefit_override
        )
        result.phase_seconds["graph construction"] = time.perf_counter() - started
        result.keep_phase_output("graph construction", graph)
        result.candidates_total = len(graph)
        return graph

    def _benefit_function(self, workload: Workload) -> Callable[[SharingCandidate], float]:
        if self.benefit_override is not None:
            return self.benefit_override

        def benefit_of(candidate: SharingCandidate) -> float:
            queries = [workload[name] for name in candidate.query_names]
            return self.model.benefit(candidate.pattern, queries)

        return benefit_of


class GreedyOptimizer(_BaseOptimizer):
    """Graph construction followed by the GWMIN greedy plan finder."""

    def optimize(self, workload: Workload) -> OptimizationResult:
        result = OptimizationResult(plan=SharingPlan())
        graph = self.build_graph(workload, result)

        started = time.perf_counter()
        plan = gwmin_plan(graph)
        result.phase_seconds["GWMIN"] = time.perf_counter() - started
        result.keep_phase_output("GWMIN", plan)
        result.plan = plan
        result.candidates_after_expansion = len(graph)
        result.candidates_after_reduction = len(graph)
        result.plans_considered = len(plan)
        return result


class ExhaustiveOptimizer(_BaseOptimizer):
    """Graph construction, expansion, and a full sweep of all subsets."""

    def __init__(
        self,
        rates: "RateCatalog | BenefitModel",
        benefit_override: Callable[[SharingCandidate], float] | None = None,
        expand: bool = False,
        max_candidates: int = 22,
    ) -> None:
        super().__init__(rates, benefit_override)
        self.expand = expand
        self.max_candidates = max_candidates

    def optimize(self, workload: Workload) -> OptimizationResult:
        result = OptimizationResult(plan=SharingPlan())
        graph = self.build_graph(workload, result)

        if self.expand:
            started = time.perf_counter()
            graph = expand_sharon_graph(
                graph, workload, model=self.model, benefit_of=self._maybe_override(workload)
            )
            result.phase_seconds["graph expansion"] = time.perf_counter() - started
            result.keep_phase_output("graph expansion", graph)
        result.candidates_after_expansion = len(graph)
        result.candidates_after_reduction = len(graph)

        if len(graph) > self.max_candidates:
            raise RuntimeError(
                f"exhaustive search over {len(graph)} candidates "
                f"(> {self.max_candidates}) would not terminate in reasonable time; "
                "this mirrors the paper's observation that the exhaustive optimizer "
                "fails beyond 20 queries"
            )

        started = time.perf_counter()
        vertices = graph.vertices
        best: tuple[SharingCandidate, ...] = ()
        best_score = 0.0
        explored = 0
        for mask in range(1 << len(vertices)):
            subset = tuple(vertices[i] for i in range(len(vertices)) if mask >> i & 1)
            explored += 1
            if not graph.is_independent_set(subset):
                continue
            score = sum(c.benefit for c in subset)
            if score > best_score:
                best, best_score = subset, score
        result.phase_seconds["exhaustive search"] = time.perf_counter() - started
        result.keep_phase_output("exhaustive search", best)
        result.plans_considered = explored
        result.plan = SharingPlan(best)
        return result

    def _maybe_override(self, workload: Workload):
        return self.benefit_override if self.benefit_override is not None else None


class SharonOptimizer(_BaseOptimizer):
    """The full Sharon optimizer pipeline (Sections 4–7).

    Parameters
    ----------
    rates:
        Rate catalog or benefit model for candidate weighing.
    expand:
        Whether to apply sharing-conflict resolution (Section 7.1) before the
        search.  The paper's executor experiments use the expanded graph;
        expansion is worst-case exponential in the number of conflicts
        (Equation 14), so it is off by default and should be enabled for
        workloads of moderate candidate counts (as in Figure 15).
    time_budget_seconds:
        Optional cap on the plan-finder phase, turned into a cap of
        ``time_budget_seconds * PLAN_FINDER_NODES_PER_SECOND`` search nodes
        so that the chosen plan does not depend on the machine's speed.  A
        search that reaches the cap returns its incumbent, which is never
        below the GWMIN plan of the reduced graph, and flags
        ``used_fallback`` — the escape hatch sketched at the end of
        Section 6.
    benefit_override:
        Optional replacement of the benefit model (test fixtures).
    """

    def __init__(
        self,
        rates: "RateCatalog | BenefitModel",
        expand: bool = False,
        time_budget_seconds: float | None = None,
        benefit_override: Callable[[SharingCandidate], float] | None = None,
        max_options_per_candidate: int = 32,
    ) -> None:
        super().__init__(rates, benefit_override)
        self.expand = expand
        self.time_budget_seconds = time_budget_seconds
        self.max_options_per_candidate = max_options_per_candidate

    def optimize(self, workload: Workload) -> OptimizationResult:
        result = OptimizationResult(plan=SharingPlan())
        graph = self.build_graph(workload, result)

        if self.expand:
            started = time.perf_counter()
            graph = expand_sharon_graph(
                graph,
                workload,
                model=self.model,
                benefit_of=self.benefit_override,
                max_options_per_candidate=self.max_options_per_candidate,
            )
            result.phase_seconds["graph expansion"] = time.perf_counter() - started
            result.keep_phase_output("graph expansion", graph)
        result.candidates_after_expansion = len(graph)

        started = time.perf_counter()
        reduction = reduce_sharon_graph(graph)
        result.phase_seconds["graph reduction"] = time.perf_counter() - started
        result.keep_phase_output("graph reduction", reduction.reduced_graph)
        result.candidates_after_reduction = len(reduction.reduced_graph)

        started = time.perf_counter()
        statistics = PlanSearchStatistics()
        node_limit = (
            None
            if self.time_budget_seconds is None
            else int(self.time_budget_seconds * PLAN_FINDER_NODES_PER_SECOND)
        )
        plan = find_optimal_plan(
            reduction.reduced_graph, reduction.conflict_free, statistics, node_limit=node_limit
        )
        result.used_fallback = statistics.truncated
        result.phase_seconds["plan finder"] = time.perf_counter() - started
        result.keep_phase_output("plan finder", plan)
        result.plans_considered = statistics.plans_considered
        result.plan = plan
        return result
