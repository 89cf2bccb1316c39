"""Unit tests for the sharing plan finder (Algorithms 3 and 4)."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import (
    PlanSearchStatistics,
    SharingCandidate,
    SharonGraph,
    enumerate_valid_plans,
    find_optimal_plan,
    generate_next_level,
)
from repro.queries import Pattern


def candidate(index, benefit, queries=("q1", "q2")):
    return SharingCandidate(Pattern([f"A{index}", f"B{index}"]), tuple(queries), benefit)


def build_graph(weights, edges):
    vertices = [candidate(i, w) for i, w in enumerate(weights)]
    graph = SharonGraph(vertices)
    for i, j in edges:
        graph.add_edge(vertices[i], vertices[j])
    return graph, vertices


def brute_force_optimum(graph: SharonGraph) -> float:
    best = 0.0
    vertices = graph.vertices
    for size in range(len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            if graph.is_independent_set(subset):
                best = max(best, sum(v.benefit for v in subset))
    return best


class TestLevelGeneration:
    def test_base_case_pairs_of_non_adjacent_vertices(self):
        graph, vertices = build_graph([1.0, 2.0, 3.0], [(0, 1)])
        level_one = [(v,) for v in graph.vertices]
        level_two = generate_next_level(graph, level_one)
        pairs = {frozenset(plan) for plan in level_two}
        expected_allowed = {
            frozenset((vertices[0], vertices[2])),
            frozenset((vertices[1], vertices[2])),
        }
        assert pairs == expected_allowed

    def test_inductive_case_requires_shared_prefix(self):
        graph, vertices = build_graph([1.0, 2.0, 3.0, 4.0], [])
        level_one = [(v,) for v in graph.vertices]
        level_two = generate_next_level(graph, level_one)
        level_three = generate_next_level(graph, level_two)
        assert {frozenset(p) for p in level_three} == {
            frozenset(c) for c in itertools.combinations(vertices, 3)
        }

    def test_lemma_6_join_rejects_conflicting_last_candidates(self):
        graph, vertices = build_graph([1.0, 2.0, 3.0], [(1, 2)])
        level_one = [(v,) for v in graph.vertices]
        level_two = generate_next_level(graph, level_one)
        level_three = generate_next_level(graph, level_two)
        assert level_three == []  # {v0, v1, v2} would need the conflicting pair (v1, v2)

    def test_every_generated_plan_is_valid(self):
        rng = random.Random(1)
        weights = [float(i + 1) for i in range(7)]
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.3]
        graph, _ = build_graph(weights, edges)
        level = [(v,) for v in graph.vertices]
        while level:
            for plan in level:
                assert graph.is_independent_set(plan)
            level = generate_next_level(graph, level)


class TestFindOptimalPlan:
    def test_empty_graph_returns_conflict_free_only(self):
        free = [candidate(99, 7.0)]
        plan = find_optimal_plan(SharonGraph(), free)
        assert plan.score == 7.0
        assert len(plan) == 1

    def test_matches_brute_force_on_small_graphs(self):
        rng = random.Random(7)
        for trial in range(12):
            size = rng.randint(2, 7)
            weights = [round(rng.uniform(1, 20), 1) for _ in range(size)]
            edges = [
                (i, j)
                for i in range(size)
                for j in range(i + 1, size)
                if rng.random() < 0.4
            ]
            graph, _ = build_graph(weights, edges)
            plan = find_optimal_plan(graph)
            assert plan.score == pytest.approx(brute_force_optimum(graph)), (
                f"trial {trial}: weights={weights} edges={edges}"
            )

    def test_statistics_populated(self):
        """The search's counters, traced by hand on a three-candidate graph.

        GWMIN seeds the incumbent {v1, v2} (score 5).  The root (empty plan)
        has cover bound 3 + 2 = 5, so it branches on the heaviest candidate
        v2; node {v2} branches on v1; node {v1, v2} has nothing left.  Back
        at {v2} the remaining bound (v0: 3 + 1) and at the root the remaining
        bound (v0, v1 in one clique: 2) fall below 5, so both stop.
        """
        graph, _ = build_graph([1.0, 2.0, 3.0], [(0, 1)])
        stats = PlanSearchStatistics()
        find_optimal_plan(graph, statistics=stats)
        assert stats.candidates == 3
        assert stats.plans_considered == 3  # {}, {v2}, {v1, v2}
        assert stats.levels == 2  # the deepest plan visited, {v1, v2}
        assert stats.peak_level_width == 1  # no node expanded two children
        assert not stats.truncated

    def test_statistics_on_a_graph_that_branches_twice(self):
        """Path v0 - v1 - v2 of weights 2, 3.5, 2: GWMIN picks {v1} (score 3.5).

        The root's cover bound is 3.5 + 2 = 5.5, so it expands v1 (a leaf: its
        neighbours are gone) and then, with v1 excluded, the bound 2 + 2 = 4
        still passes, so it expands v0, whose child {v0, v2} scores 4.  The
        root's third turn has only v2 left (bound 2 < 4) and stops.
        """
        graph, vertices = build_graph([2.0, 3.5, 2.0], [(0, 1), (1, 2)])
        stats = PlanSearchStatistics()
        plan = find_optimal_plan(graph, statistics=stats)
        assert set(plan) == {vertices[0], vertices[2]}
        assert stats.plans_considered == 4  # {}, {v1}, {v0}, {v0, v2}
        assert stats.levels == 2
        assert stats.peak_level_width == 2  # the root expanded v1 and v0
        assert not stats.truncated

    def test_node_limit_returns_the_gwmin_incumbent(self):
        graph, vertices = build_graph([2.0, 3.5, 2.0], [(0, 1), (1, 2)])
        stats = PlanSearchStatistics()
        plan = find_optimal_plan(graph, statistics=stats, node_limit=2)
        assert stats.truncated
        assert stats.plans_considered == 2
        assert set(plan) == {vertices[1]}  # GWMIN's plan, not the optimum
        unlimited = PlanSearchStatistics()
        find_optimal_plan(graph, statistics=unlimited, node_limit=4)
        assert not unlimited.truncated

    def test_node_limit_spares_a_search_with_nothing_to_branch_on(self):
        """The root is always visited: an empty graph is solved, not truncated."""
        stats = PlanSearchStatistics()
        free = [candidate(99, 7.0)]
        plan = find_optimal_plan(SharonGraph(), free, stats, node_limit=0)
        assert set(plan) == set(free)
        assert stats.plans_considered == 1
        assert not stats.truncated

    def test_ties_resolve_as_the_level_wise_traversal_does(self):
        """Equal scores: fewest candidates first, then the smallest in key order."""
        graph, vertices = build_graph([2.0, 1.0, 1.0, 2.0], [(0, 1), (0, 2), (0, 3)])
        # {v0} and {v3} score 2, {v1, v2} scores 2 too, {v1, v2, v3} scores 4.
        assert set(find_optimal_plan(graph)) == {vertices[1], vertices[2], vertices[3]}
        graph, vertices = build_graph(
            [2.0, 1.0, 1.0, 2.0], [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
        )
        # Maximal score 2 is reached by {v0}, {v3} and {v1, v2}: {v0} wins.
        assert set(find_optimal_plan(graph)) == {vertices[0]}

    def test_conflict_free_candidates_added_to_result(self):
        graph, vertices = build_graph([5.0, 4.0], [(0, 1)])
        free = [candidate(50, 9.0, queries=("q8", "q9"))]
        plan = find_optimal_plan(graph, free)
        assert plan.score == pytest.approx(14.0)
        assert free[0] in plan

    def test_paper_example_optimal_plan(self, paper_graph):
        """Example 10/12: the optimal plan is {p2, p4, p6, p7} with score 50."""
        from repro.core import reduce_sharon_graph

        reduction = reduce_sharon_graph(paper_graph)
        plan = find_optimal_plan(reduction.reduced_graph, reduction.conflict_free)
        chosen = {c.pattern.event_types for c in plan}
        assert chosen == {
            ("ParkAve", "OakSt"),
            ("MainSt", "WestSt"),
            ("MainSt", "StateSt"),
            ("ElmSt", "ParkAve"),
        }
        assert plan.score == pytest.approx(50.0)


class TestEnumerateValidPlans:
    def test_counts_on_paper_example(self, paper_graph):
        """Example 10: the valid space of the running example has 10 non-empty plans
        over the reduced graph (plus the empty plan)."""
        from repro.core import reduce_sharon_graph

        reduction = reduce_sharon_graph(paper_graph)
        plans = enumerate_valid_plans(reduction.reduced_graph)
        non_empty = [p for p in plans if len(p) > 0]
        assert len(non_empty) == 10

    def test_all_enumerated_plans_are_valid_and_unique(self):
        graph, _ = build_graph([1.0, 2.0, 3.0, 4.0], [(0, 1), (2, 3)])
        plans = enumerate_valid_plans(graph)
        assert len({frozenset(p.candidates) for p in plans}) == len(plans)
        for plan in plans:
            assert graph.is_independent_set(plan.candidates)
