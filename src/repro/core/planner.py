"""The sharing plan finder (Section 6).

The search space of sharing plans over ``n`` candidates is the lattice of all
``2^n`` subsets (Equation 13), of which only the *valid* plans (independent
sets of the Sharon graph) matter.  :func:`find_optimal_plan` searches that
valid space depth-first with branch and bound: a branch adds one candidate
and drops its conflicts, so invalid branches are cut at their roots
(Lemma 4); the incumbent starts as the GWMIN plan, whose guaranteed weight
the paper uses to prune without losing optimality; and a subtree is cut once
a greedy weighted clique cover proves it cannot beat the incumbent.  The
result is the plan of maximal score, with ties resolved exactly as the
level-wise traversal of Algorithm 4 resolves them.

The paper's level-wise Apriori generation (Algorithm 3, Lemma 6) stays here as
:func:`generate_next_level`, and :func:`enumerate_valid_plans` walks it level
by level to list every valid plan (Lemma 7): the reference enumerator of the
tests and of the search-space statistics of Example 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from .candidates import SharingCandidate
from .graph import SharonGraph
from .gwmin import gwmin_independent_set
from .plan import SharingPlan

__all__ = ["PlanSearchStatistics", "generate_next_level", "find_optimal_plan"]


@dataclass
class PlanSearchStatistics:
    """Counters describing one run of the plan finder.

    ``plans_considered`` counts the search nodes visited; every node is one
    valid plan whose score was evaluated, the root being the empty plan.
    ``levels`` is the size of the largest plan visited (the search depth);
    ``peak_level_width`` is the largest number of children expanded below one
    node.  ``truncated`` is set when the search stopped at its node limit and
    returned its incumbent rather than a proven optimum.
    """

    plans_considered: int = 0
    levels: int = 0
    peak_level_width: int = 0
    candidates: int = 0
    truncated: bool = False


#: Relative slack of the bound test: a subtree is cut only when its bound is
#: below the incumbent by more than this share of the incumbent's score.
_SLACK = 1e-9


class _NodeLimitReached(Exception):
    """Raised inside the search when it reaches its node limit."""


#: Internal plan representation during the search: a tuple of candidates in
#: canonical (sorted) order, so that two plans share a prefix exactly when
#: they agree on their first elements.
_PlanTuple = tuple[SharingCandidate, ...]


def generate_next_level(
    graph: SharonGraph, parents: list[_PlanTuple]
) -> list[_PlanTuple]:
    """Algorithm 3: generate all valid plans of size ``s+1`` from level ``s``.

    Parents must be valid plans of equal size in canonical candidate order.
    In the base case (size-1 parents) the children are all non-adjacent vertex
    pairs; in the inductive case two parents sharing their first ``s-1``
    candidates are joined if their distinct last candidates are not in
    conflict (Lemma 6 guarantees the join is valid).
    """
    children: list[_PlanTuple] = []
    count = len(parents)
    for i in range(count):
        left = parents[i]
        for j in range(i + 1, count):
            right = parents[j]
            if left[:-1] != right[:-1]:
                # Parents are sorted lexicographically, so once prefixes
                # diverge no later parent can match either.
                break
            if not graph.has_edge(left[-1], right[-1]):
                children.append(left + (right[-1],))
    return children


def find_optimal_plan(
    graph: SharonGraph,
    conflict_free: "list[SharingCandidate] | tuple[SharingCandidate, ...]" = (),
    statistics: PlanSearchStatistics | None = None,
    *,
    node_limit: int | None = None,
) -> SharingPlan:
    """Exact depth-first branch-and-bound over the valid plan space.

    Candidates are bit positions in canonical (``SharingCandidate.key``)
    order and each candidate's conflicts are an ``int`` bitmask.  A search
    node is a valid plan plus the candidates still allowed next to it; each
    child adds the heaviest allowed candidate and drops its conflicts, so
    invalid plans are never generated (Lemma 4) and every valid plan lies in
    exactly one subtree.  The incumbent starts as the GWMIN plan of the graph
    (Equation 10's guarantee, as in reduction).  A node's subtree is cut once
    its score plus a greedy weighted clique-cover bound of the allowed
    candidates falls below the incumbent: no two members of a clique can
    share a plan, so a cover formed heaviest-first and counted at each
    clique's heaviest member bounds every plan below the node.

    The result is the plan the level-wise traversal of Algorithm 4 returns:
    maximal score, then fewest candidates, then lexicographically smallest in
    canonical order.  Scores are summed left to right in canonical order, as
    that traversal sums them, and pruning keeps a relative slack of
    ``1e-9`` so that bound rounding never cuts a tying branch.

    Parameters
    ----------
    graph:
        The (reduced) Sharon graph to search.
    conflict_free:
        Candidates already committed by the reduction step; they are united
        with the best plan found (they conflict with nothing, so the union
        stays valid).
    statistics:
        Optional mutable statistics collector.
    node_limit:
        Optional cap on the search nodes visited (the root, the empty plan,
        is always visited).  A search that still has a branch to explore at
        the cap stops there, returns its incumbent (never below the GWMIN
        plan) and sets ``statistics.truncated``.

    Returns
    -------
    SharingPlan
        A valid plan of maximal score over the graph's candidates, united
        with ``conflict_free``.
    """
    stats = statistics if statistics is not None else PlanSearchStatistics()
    vertices = graph.vertices
    stats.candidates = len(vertices)
    position = {vertex: bit for bit, vertex in enumerate(vertices)}
    weights = [vertex.benefit for vertex in vertices]
    conflicts = [
        sum(1 << position[neighbour] for neighbour in graph.neighbours(vertex))
        for vertex in vertices
    ]
    # Branching and cover order: heaviest first, canonical order on ties.  A
    # candidate of non-positive benefit never improves a plan, so it is left
    # out of the search.
    heaviest_first = sorted(
        (bit for bit in range(len(vertices)) if weights[bit] > 0),
        key=lambda bit: (-weights[bit], bit),
    )

    best_bits: tuple[int, ...] = ()
    best_score = 0.0
    threshold = 0.0

    def offer(bits: tuple[int, ...]) -> None:
        """Make ``bits`` (sorted) the incumbent if it wins under the tie rule."""
        nonlocal best_bits, best_score, threshold
        score = sum(weights[bit] for bit in bits)
        if score > best_score or (
            score == best_score
            and (len(bits), bits) < (len(best_bits), best_bits)
        ):
            best_bits, best_score = bits, score
            threshold = score - _SLACK * abs(score)

    def cover_bound(allowed: int) -> float:
        bound = 0.0
        cliques: list[int] = []  # per clique: the candidates adjacent to all members
        for bit in heaviest_first:
            if allowed >> bit & 1:
                for index, common in enumerate(cliques):
                    if common >> bit & 1:
                        cliques[index] = common & conflicts[bit]
                        break
                else:
                    cliques.append(conflicts[bit])
                    bound += weights[bit]
        return bound

    def visit(chosen: list[int], score: float, allowed: int) -> None:
        stats.plans_considered += 1
        stats.levels = max(stats.levels, len(chosen))
        if score >= threshold:
            offer(tuple(sorted(chosen)))
        children = 0
        while allowed and score + cover_bound(allowed) >= threshold:
            if node_limit is not None and stats.plans_considered >= node_limit:
                raise _NodeLimitReached
            bit = next(b for b in heaviest_first if allowed >> b & 1)
            allowed &= ~(1 << bit)
            children += 1
            chosen.append(bit)
            visit(chosen, score + weights[bit], allowed & ~conflicts[bit])
            chosen.pop()
        stats.peak_level_width = max(stats.peak_level_width, children)

    offer(tuple(sorted(position[vertex] for vertex in gwmin_independent_set(graph))))
    try:
        visit([], 0.0, sum(1 << bit for bit in heaviest_first))
    except _NodeLimitReached:
        stats.truncated = True

    best = tuple(vertices[bit] for bit in best_bits)
    return SharingPlan(best).union(SharingPlan(tuple(conflict_free)))


def enumerate_valid_plans(graph: SharonGraph) -> list[SharingPlan]:
    """Enumerate *all* valid plans of a graph (test and analysis helper).

    The empty plan is included.  This is exponential by nature and intended
    for small graphs only (reference oracle for the plan finder and for the
    search-space statistics of Example 10).
    """
    plans: list[SharingPlan] = [SharingPlan()]
    level: list[_PlanTuple] = [(vertex,) for vertex in graph.vertices]
    while level:
        plans.extend(SharingPlan(plan) for plan in level)
        level = generate_next_level(graph, level)
    return plans
