"""Randomized join-order search under any LEC objective.

Section 1 of the paper: dynamic programming handles the plan-space
explosion, "although randomized algorithms have also been proposed
[Swa89, IK90].  As we shall see, they apply in our approach too."  This
module makes good on that: iterative improvement and simulated annealing
over left-deep plans, generic over an *objective function* — a point
cost, an expected cost, a Markov objective, a risk score — so every
uncertainty model in the library scales past the DP's exponential
subset table.

Moves (the classic set):

* ``swap`` — exchange two relations in the join order;
* ``cycle`` — rotate three positions;
* ``method`` — change one join's physical method.

Orders that would require a cross product are rejected during move
generation (unless allowed), keeping the walk inside the connected
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..costmodel.model import DEFAULT_METHODS
from ..plans.nodes import Join, Plan, PlanNode, Scan, Sort
from ..plans.properties import JoinMethod
from ..plans.query import JoinQuery
from ..plans.space import PlanSpace
from ..plans.spju import UnionQuery
from .result import PlanChoice

__all__ = ["RandomizedResult", "iterative_improvement", "simulated_annealing"]

Objective = Callable[[Plan], float]


@dataclass
class _State:
    """Search state: a join tree plus a method per internal node.

    ``tree`` is ``None`` for the classic left-deep search (the order +
    method vector is the whole state, preserving the historical RNG
    stream exactly); for enlarged spaces it is a nested
    ``(left, right)``-tuple over relation names and ``order`` caches the
    leaf sequence for the swap/cycle moves.
    """

    order: List[str]
    methods: List[JoinMethod]
    tree: Optional[tuple] = None


@dataclass
class RandomizedResult:
    """Outcome of a randomized search."""

    best: PlanChoice
    evaluations: int
    restarts: int

    @property
    def plan(self) -> Plan:
        """Shortcut to the chosen plan."""
        return self.best.plan

    @property
    def objective(self) -> float:
        """Shortcut to the chosen plan's objective value."""
        return self.best.objective


def _build_plan(state: _State, query: JoinQuery) -> Optional[Plan]:
    """Left-deep plan from an order + method vector; None if disconnected."""
    node: PlanNode = Scan(table=state.order[0])
    group = frozenset((state.order[0],))
    for rel, method in zip(state.order[1:], state.methods):
        preds = query.predicates_between(group, rel)
        if not preds:
            return None
        node = Join(
            left=node,
            right=Scan(table=rel),
            method=method,
            predicate_label=preds[0].label,
            order_label=preds[0].order_label,
        )
        group = group | {rel}
    if query.required_order is not None and node.order != query.required_order:
        node = Sort(child=node, sort_order=query.required_order)
    return Plan(node)


def _tree_leaves(tree) -> List[str]:
    if isinstance(tree, str):
        return [tree]
    return _tree_leaves(tree[0]) + _tree_leaves(tree[1])


def _tree_with_leaves(tree, leaves: List[str]):
    """Rebuild ``tree``'s structure over a new leaf sequence (same length)."""
    it = iter(leaves)

    def go(node):
        if isinstance(node, str):
            return next(it)
        return (go(node[0]), go(node[1]))

    return go(tree)


def _tree_mutate_shape(tree, rng: np.random.Generator):
    """One random structural move: rotate at, or flip, an internal node."""
    internals: List[tuple] = []

    def collect(node):
        if isinstance(node, str):
            return
        internals.append(node)
        collect(node[0])
        collect(node[1])

    collect(tree)
    target = internals[int(rng.integers(len(internals)))]
    move = int(rng.integers(3))

    def rewrite(node):
        if isinstance(node, str):
            return node
        if node is target:
            left, right = node
            if move == 0 and not isinstance(right, str):
                return ((left, right[0]), right[1])  # left rotation
            if move == 1 and not isinstance(left, str):
                return (left[0], (left[1], right))  # right rotation
            return (right, left)  # child flip
        return (rewrite(node[0]), rewrite(node[1]))

    return rewrite(tree)


def _plan_from_tree(state: _State, query: JoinQuery, space: PlanSpace) -> Optional[Plan]:
    """Plan from a tree state; None when a split lacks a crossing predicate
    or the tree falls outside ``space``."""
    method_iter = iter(state.methods)

    def build(node) -> Optional[PlanNode]:
        if isinstance(node, str):
            return Scan(table=node)
        left = build(node[0])
        right = build(node[1])
        if left is None or right is None:
            return None
        left_rels = frozenset(_tree_leaves(node[0]))
        subset = left_rels | frozenset(_tree_leaves(node[1]))
        preds = [
            p
            for p in query.predicates_within(subset)
            if (p.left in left_rels) != (p.right in left_rels)
        ]
        if not preds:
            return None
        try:
            return space.join(
                left=left,
                right=right,
                method=next(method_iter),
                predicate_label=preds[0].label,
                order_label=preds[0].order_label,
            )
        except ValueError:  # PlanShapeError: outside the space
            return None

    node = build(state.tree)
    if node is None:
        return None
    if query.required_order is not None and node.order != query.required_order:
        node = Sort(child=node, sort_order=query.required_order)
    return Plan(node)


def _random_tree_state(
    query: JoinQuery,
    methods: Sequence[JoinMethod],
    rng: np.random.Generator,
    space: PlanSpace,
) -> _State:
    """A random valid tree state: connected left-deep start + random
    shape mutations (kept only while the tree stays valid)."""
    base = _random_state(query, methods, rng)
    tree = base.order[0]
    for name in base.order[1:]:
        tree = (tree, name)
    state = _State(order=list(base.order), methods=base.methods, tree=tree)
    if space.shape == "left-deep":
        return state
    for _ in range(2 * len(base.order)):
        cand = _State(
            order=state.order,
            methods=state.methods,
            tree=_tree_mutate_shape(state.tree, rng),
        )
        if _plan_from_tree(cand, query, space) is not None:
            state = cand
    return state


def _tree_neighbours(
    state: _State,
    methods: Sequence[JoinMethod],
    rng: np.random.Generator,
    n_samples: int,
) -> List[_State]:
    """Random neighbour tree states: leaf swap / shape move / method move."""
    leaves = _tree_leaves(state.tree)
    n = len(leaves)
    out: List[_State] = []
    for _ in range(n_samples):
        kind = int(rng.integers(3))
        tree = state.tree
        method_vec = list(state.methods)
        if kind == 0 and n >= 2:  # leaf swap
            i, j = rng.choice(n, size=2, replace=False)
            swapped = list(leaves)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            tree = _tree_with_leaves(tree, swapped)
        elif kind == 1:  # shape move
            tree = _tree_mutate_shape(tree, rng)
        else:  # method change
            if not method_vec:
                continue
            pos = int(rng.integers(len(method_vec)))
            method_vec[pos] = methods[int(rng.integers(len(methods)))]
        out.append(
            _State(order=_tree_leaves(tree), methods=method_vec, tree=tree)
        )
    return out


def _random_state(
    query: JoinQuery, methods: Sequence[JoinMethod], rng: np.random.Generator
) -> _State:
    """A uniformly random *connected* left-deep order."""
    names = query.relation_names()
    order = [names[int(rng.integers(len(names)))]]
    remaining = set(names) - set(order)
    while remaining:
        group = frozenset(order)
        candidates = [
            r for r in remaining if query.predicates_between(group, r)
        ]
        if not candidates:
            # Disconnected graph: give up gracefully (caller validates).
            candidates = sorted(remaining)
        pick = candidates[int(rng.integers(len(candidates)))]
        order.append(pick)
        remaining.discard(pick)
    method_vec = [
        methods[int(rng.integers(len(methods)))] for _ in range(len(names) - 1)
    ]
    return _State(order=order, methods=method_vec)


def _neighbours(
    state: _State,
    query: JoinQuery,
    methods: Sequence[JoinMethod],
    rng: np.random.Generator,
    n_samples: int,
) -> List[_State]:
    """Sample random neighbour states via swap / cycle / method moves."""
    n = len(state.order)
    out: List[_State] = []
    for _ in range(n_samples):
        kind = rng.integers(3)
        order = list(state.order)
        method_vec = list(state.methods)
        if kind == 0 and n >= 2:  # swap
            i, j = rng.choice(n, size=2, replace=False)
            order[i], order[j] = order[j], order[i]
        elif kind == 1 and n >= 3:  # 3-cycle
            i, j, k = rng.choice(n, size=3, replace=False)
            order[i], order[j], order[k] = order[j], order[k], order[i]
        else:  # method change
            if not method_vec:
                continue
            pos = int(rng.integers(len(method_vec)))
            method_vec[pos] = methods[int(rng.integers(len(methods)))]
        out.append(_State(order=order, methods=method_vec))
    return out


def _space_hooks(
    query: JoinQuery,
    methods: Sequence[JoinMethod],
    rng: np.random.Generator,
    plan_space,
):
    """(make_state, build_plan, neighbours) for the requested plan space.

    The left-deep hooks are the historical ones (identical RNG stream);
    the enlarged spaces use join-tree states.  Union blocks are not
    searchable — their arms are independent, so optimize each arm
    separately instead.
    """
    space = PlanSpace.parse(plan_space)
    if isinstance(query, UnionQuery):
        raise ValueError(
            "randomized search does not support union queries; "
            "optimize each arm separately"
        )
    if space.shape == "left-deep":
        return (
            lambda: _random_state(query, methods, rng),
            lambda s: _build_plan(s, query),
            lambda s, k: _neighbours(s, query, methods, rng, k),
        )
    return (
        lambda: _random_tree_state(query, methods, rng, space),
        lambda s: _plan_from_tree(s, query, space),
        lambda s, k: _tree_neighbours(s, methods, rng, k),
    )


def iterative_improvement(
    query: JoinQuery,
    objective: Objective,
    rng: np.random.Generator,
    methods: Sequence[JoinMethod] = DEFAULT_METHODS,
    n_restarts: int = 8,
    moves_per_step: Optional[int] = None,
    max_steps: int = 200,
    plan_space="left-deep",
) -> RandomizedResult:
    """Multi-start hill climbing over plans in ``plan_space``.

    From each random start, repeatedly samples neighbour moves and takes
    the first strict improvement; a state is declared a local minimum
    only after ``moves_per_step`` sampled moves (default ``8·n``, scaling
    with the neighbourhood size) fail to improve it.  The cheapest local
    minimum across restarts wins.  ``objective`` maps a plan to the
    scalar to minimise (e.g. ``lambda p: cm.plan_expected_cost(p, q, mem)``).

    The default ``"left-deep"`` search reproduces the historical RNG
    stream exactly; ``"zig-zag"``/``"bushy"`` switch to join-tree states
    with structural (rotation / child-flip) moves added.
    """
    make_state, build, neigh = _space_hooks(query, methods, rng, plan_space)
    if not query.is_connected():
        raise ValueError("randomized search requires a connected join graph")
    if moves_per_step is None:
        moves_per_step = 8 * query.n_relations
    best_plan: Optional[Plan] = None
    best_cost = math.inf
    evaluations = 0
    for _ in range(max(1, n_restarts)):
        state = make_state()
        plan = build(state)
        if plan is None:
            continue
        cost = objective(plan)
        evaluations += 1
        for _ in range(max_steps):
            improved = False
            for cand in neigh(state, moves_per_step):
                cand_plan = build(cand)
                if cand_plan is None:
                    continue
                cand_cost = objective(cand_plan)
                evaluations += 1
                if cand_cost < cost:
                    state, plan, cost = cand, cand_plan, cand_cost
                    improved = True
                    break
            if not improved:
                break
        if cost < best_cost:
            best_cost, best_plan = cost, plan
    if best_plan is None:
        raise ValueError("no valid plan found")
    return RandomizedResult(
        best=PlanChoice(plan=best_plan, objective=best_cost),
        evaluations=evaluations,
        restarts=n_restarts,
    )


def simulated_annealing(
    query: JoinQuery,
    objective: Objective,
    rng: np.random.Generator,
    methods: Sequence[JoinMethod] = DEFAULT_METHODS,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.92,
    steps_per_temperature: int = 30,
    min_temperature_ratio: float = 1e-3,
    plan_space="left-deep",
) -> RandomizedResult:
    """Simulated annealing ([IK90]-style) over plans in ``plan_space``.

    Accepts uphill moves with probability ``exp(-delta / T)``; the
    temperature starts at the initial plan's cost (unless given) and
    decays geometrically.  Tracks and returns the best plan ever seen.
    Plan spaces behave as in :func:`iterative_improvement`.
    """
    make_state, build, neigh = _space_hooks(query, methods, rng, plan_space)
    if not query.is_connected():
        raise ValueError("randomized search requires a connected join graph")
    if not 0.0 < cooling < 1.0:
        raise ValueError("cooling must be in (0, 1)")
    state = make_state()
    plan = build(state)
    if plan is None:
        raise ValueError("no valid starting plan")
    cost = objective(plan)
    evaluations = 1
    best_plan, best_cost = plan, cost
    temperature = initial_temperature if initial_temperature else max(cost, 1.0)
    floor = temperature * min_temperature_ratio
    while temperature > floor:
        for _ in range(steps_per_temperature):
            cands = neigh(state, 1)
            if not cands:
                continue
            cand_plan = build(cands[0])
            if cand_plan is None:
                continue
            cand_cost = objective(cand_plan)
            evaluations += 1
            delta = cand_cost - cost
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                state, plan, cost = cands[0], cand_plan, cand_cost
                if cost < best_cost:
                    best_plan, best_cost = plan, cost
        temperature *= cooling
    return RandomizedResult(
        best=PlanChoice(plan=best_plan, objective=best_cost),
        evaluations=evaluations,
        restarts=1,
    )
