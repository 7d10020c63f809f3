"""Vectorized kernels for the §5 special-form pipeline — its one production path.

The per-node oracle (:func:`repro.oracle.special_form_solve`, built on
:mod:`repro.algo.upper_bound`) walks object graphs: one alternating tree per
agent, a ~35-step bisection through a dict-based recursion per tree, one
networkx BFS per agent for the smoothing step and per-node dict lookups in
the ``g±`` recursion.  These kernels compute the same quantities over the
int-indexed CSR arrays of a :class:`~repro.core.compiled.CompiledInstance`:

* :func:`build_batched_trees` constructs *all* alternating trees ``A_u``
  simultaneously as flat per-level arrays (the frontier expansion is a
  vectorized gather, not an object BFS), down to paper level ``4r − 1``:
  the leaves below it are constant in ``ω`` (Eq. 5), so they are folded
  into one capacity sum per parent and one minimum per tree;
* :func:`batched_upper_bounds` finds ``t_u`` for every tree at once, as
  §5.2 has each agent compute it from its own tree: a safeguarded bracketed
  search (secant and chord steps on the concave, piecewise-linear recursion
  margin, midpoint fallback) with per-tree numpy brackets, one
  level-ordered ``f±`` sweep per iteration, in about half the sweeps of a
  bisection;
* :func:`smooth_bounds_kernel` replaces the ``n`` per-agent BFS calls with
  ``2r + 1`` rounds of synchronous neighbour-min propagation over the
  agent-level adjacency (one round per *pair* of communication-graph edges,
  so the radius covered is exactly the paper's ``4r + 2``), ``O((n+m)·r)``
  total;
* :func:`g_recursion_kernel` / :func:`output_kernel` evaluate Eqs. 12–14 and
  Eq. 18 as whole-vector operations.

Floating-point parity: every segmented reduction runs in the same canonical
adjacency order as the oracle's Python loops.  Both ``t_u`` searches return a
feasible ``ω`` within ``tol`` (:data:`DEFAULT_BISECTION_TOL`, defined here
for both) of the same maximum, so the two agree
to within that tolerance (the equivalence property tests in
``tests/test_kernels.py`` pin this at 1e-9).

The trees grow geometrically in ``r``, so :func:`build_batched_trees` refuses
(with :class:`~repro.exceptions.SolverError`) a build that would hold more
than :data:`MAX_TREE_NODES` nodes, folded leaves included, before it
allocates the level that would pass the limit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.compiled import CompiledInstance, _segment_gather
from ..exceptions import SolverError

__all__ = [
    "DEFAULT_BISECTION_TOL",
    "MAX_BISECTION_ITERATIONS",
    "MAX_TREE_NODES",
    "BatchedTrees",
    "agent_hop_balls",
    "build_batched_trees",
    "batched_upper_bounds",
    "smooth_bounds_kernel",
    "smooth_bounds_confined",
    "g_recursion_kernel",
    "g_recursion_confined",
    "output_kernel",
    "safe_fallback_confined",
]

#: Default final bracket width of every ``t_u`` search: this module's
#: bracketed search and the oracles' bisections.
DEFAULT_BISECTION_TOL = 1e-10

#: Hard cap on ``t_u`` search iterations — ``f±`` sweeps here, per-tree
#: bisection steps in the oracles (2^-60 relative precision is far below
#: every other tolerance in the library).
MAX_BISECTION_ITERATIONS = 200

#: Most tree nodes one :func:`build_batched_trees` call may hold, summed over
#: every level of every tree in the build, folded leaves included (a stacked
#: batch is one build).  A full solve peaks at about 36 bytes per node (RSS at
#: 8.2 million nodes), so 2**25 nodes is about 1.2 GB.
MAX_TREE_NODES = 2**25

#: Level kinds of the batched tree layout (see :class:`TreeLevel`).
_MINUS = "minus"
_PLUS = "plus"


class TreeLevel:
    """One agent level of the batched alternating-tree layout.

    Level ``j`` holds the agent nodes of *every* tree at tree level
    ``2j − 1`` (``j = 0`` is the root level, paper level ``−1``); each
    tree's nodes form a contiguous block.  ``j`` odd ⇒ ``f⁺`` nodes
    (paper levels ``≡ 1 (mod 4)``), ``j`` even ⇒ ``f⁻`` nodes.  A build
    holds levels ``0 … 2r``; the ``f⁺`` leaves of level ``2r + 1`` are
    folded into :class:`BatchedTrees`' leaf arrays.

    Attributes
    ----------
    nodes:
        Instance-agent position of each tree node.
    kind:
        ``"plus"`` or ``"minus"`` — which half of the ``f±`` recursion
        applies at this level.
    root_indptr:
        Per-tree segment boundaries into ``nodes`` (length ``T + 1``).
    tree_of_node:
        Tree index of each node (for broadcasting per-tree ``ω``).
    child_indptr:
        Per-node boundaries into the *next* level's nodes (absent on the
        deepest built level, whose children are folded).
    a_self, a_partner:
        For levels entered via constraint expansion (``kind == "minus"``,
        ``j ≥ 2``): the edge coefficients ``a_iv`` / ``a_{i,n(v,i)}`` of the
        constraint between each node and its parent, aligned with ``nodes``.
    """

    __slots__ = ("nodes", "kind", "root_indptr", "tree_of_node", "child_indptr", "a_self", "a_partner")

    def __init__(self, nodes: np.ndarray, kind: str, root_counts: np.ndarray) -> None:
        self.nodes = nodes
        self.kind = kind
        self.root_indptr = np.zeros(len(root_counts) + 1, dtype=np.int64)
        np.cumsum(root_counts, out=self.root_indptr[1:])
        self.tree_of_node = np.repeat(np.arange(len(root_counts), dtype=np.int64), root_counts)
        self.child_indptr: Optional[np.ndarray] = None
        self.a_self: Optional[np.ndarray] = None
        self.a_partner: Optional[np.ndarray] = None

    @property
    def root_counts(self) -> np.ndarray:
        return np.diff(self.root_indptr)


class BatchedTrees:
    """All alternating trees of one instance, concatenated level by level.

    ``levels`` stops at level ``2r`` (paper level ``4r − 1``): the leaves
    below it have their capacity as ``f⁺`` at every ``ω`` (Eq. 5), so they
    are folded into ``leaf_sums``, each deepest node's sum of its children's
    capacities in canonical child order, and ``leaf_min``, each tree's
    minimum leaf capacity.
    """

    __slots__ = ("comp", "r", "roots", "levels", "leaf_sums", "leaf_min")

    def __init__(
        self, comp: CompiledInstance, r: int, roots: np.ndarray, levels: List[TreeLevel],
        leaf_sums: np.ndarray, leaf_min: np.ndarray,
    ) -> None:
        self.comp = comp
        self.r = r
        self.roots = roots
        self.levels = levels
        self.leaf_sums = leaf_sums
        self.leaf_min = leaf_min

    @property
    def num_trees(self) -> int:
        return len(self.roots)

    def total_nodes(self) -> int:
        """Agent nodes of every tree, folded leaves included."""
        comp = self.comp
        leaves = np.diff(comp.oagents_indptr)[comp.obj_of_agent[self.levels[-1].nodes]] - 1
        return sum(len(level.nodes) for level in self.levels) + int(leaves.sum())

    def select(self, tree_indices: np.ndarray) -> "BatchedTrees":
        """A new :class:`BatchedTrees` restricted to the given trees."""
        levels: List[TreeLevel] = []
        for level in self.levels:
            counts = level.root_counts[tree_indices]
            idx = _segment_gather(level.root_indptr[:-1][tree_indices], counts)
            new = TreeLevel(level.nodes[idx], level.kind, counts)
            if level.child_indptr is not None:
                child_counts = np.diff(level.child_indptr)[idx]
                new.child_indptr = np.zeros(len(idx) + 1, dtype=np.int64)
                np.cumsum(child_counts, out=new.child_indptr[1:])
            if level.a_self is not None:
                new.a_self = level.a_self[idx]
                new.a_partner = level.a_partner[idx]
            levels.append(new)
        # ``idx`` now indexes the deepest level, which ``leaf_sums`` follows.
        return BatchedTrees(
            self.comp, self.r, self.roots[tree_indices], levels,
            self.leaf_sums[idx], self.leaf_min[tree_indices],
        )


def build_batched_trees(
    comp: CompiledInstance,
    r: int,
    targets: Optional[np.ndarray] = None,
) -> BatchedTrees:
    """Construct the alternating trees of all ``targets`` (default: all agents).

    The expansion mirrors :func:`repro.algo.alternating_tree.build_alternating_tree`
    exactly — same child order, same non-backtracking rule — but processes the
    whole frontier of every tree at once with CSR gathers.  Only the agent
    nodes are materialised (constraint and objective nodes carry no recursion
    state; their coefficients are folded into the edge arrays), and the level
    ``−2`` leaf constraints are represented by the root capacity alone.
    Objective expansions read the sibling slots of ``comp.smoothing_adjacency``;
    the agent leaves (paper level ``4r + 1``) are gathered once and folded.

    Raises :class:`~repro.exceptions.SolverError` before gathering a level
    (the folded one too) that would take the build past :data:`MAX_TREE_NODES`.
    """
    if r < 0:
        raise SolverError(f"alternating tree parameter r must be >= 0, got {r}")
    roots = (
        np.arange(comp.num_agents, dtype=np.int64)
        if targets is None
        else np.asarray(targets, dtype=np.int64)
    )
    T = len(roots)
    con_deg = np.diff(comp.con_indptr)
    # Each agent's smoothing-adjacency row ends with its objective siblings.
    adj_indptr, adj_indices = comp.smoothing_adjacency
    sib_start = adj_indptr[:-1] + con_deg
    sib_deg = adj_indptr[1:] - sib_start

    levels: List[TreeLevel] = []
    root_level = TreeLevel(roots, _MINUS, np.ones(T, dtype=np.int64))
    levels.append(root_level)
    total = T

    cur = root_level
    for j in range(1, 2 * r + 2):
        if cur.kind == _MINUS:
            # Objective expansion: children are the siblings of each node in
            # its unique objective, in canonical row order (self excluded).
            counts = sib_deg[cur.nodes]
            total = _count_tree_nodes(total, counts, r, j)
            children = adj_indices[_segment_gather(sib_start[cur.nodes], counts)]
            if j == 2 * r + 1:
                break
            nxt = TreeLevel(children, _PLUS, np.add.reduceat(counts, cur.root_indptr[:-1]))
        else:
            # Constraint expansion: one child (the partner agent) per
            # constraint edge of each node, in canonical adjacency order.
            deg = con_deg[cur.nodes]
            counts = deg
            total = _count_tree_nodes(total, counts, r, j)
            flat = _segment_gather(comp.con_indptr[cur.nodes], deg)
            children = comp.con_partner[flat]
            nxt = TreeLevel(children, _MINUS, np.add.reduceat(counts, cur.root_indptr[:-1]))
            nxt.a_self = comp.con_coeff[flat]
            nxt.a_partner = comp.con_partner_coeff[flat]
        cur.child_indptr = np.zeros(len(cur.nodes) + 1, dtype=np.int64)
        np.cumsum(counts, out=cur.child_indptr[1:])
        levels.append(nxt)
        cur = nxt

    # Fold the leaves (``children`` of the deepest level): Eq. 6 needs only
    # their capacity sum per parent, Eq. 8 only their minimum per tree.
    caps = comp.capacity[children]
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    leaf_sums = np.add.reduceat(caps, starts)
    leaf_min = np.minimum.reduceat(caps, starts[cur.root_indptr[:-1]])
    return BatchedTrees(comp, r, roots, levels, leaf_sums, leaf_min)


def _count_tree_nodes(total: int, counts: np.ndarray, r: int, j: int) -> int:
    """``total`` plus the size of level ``j``, or :class:`SolverError` past the limit."""
    size = int(counts.sum())
    if total + size > MAX_TREE_NODES:
        raise SolverError(
            f"alternating trees for R={r + 2} exceed the limit of {MAX_TREE_NODES} "
            f"tree nodes: {total} nodes built, and tree level {2 * j - 1} would add "
            f"{size} more; use a smaller R"
        )
    return total + size


def _recursion_margins(bt: BatchedTrees, omega: np.ndarray) -> np.ndarray:
    """Per-tree feasibility margin of the ``f±`` recursion at per-tree ``ω``.

    Equals :func:`repro.algo.tree_recursion.recursion_margin` of every tree:
    the minimum of all ``f⁺`` values (Eq. 8) and of the root slack
    ``cap(u) − f⁻_{u,u,r}`` (Eq. 9).  One bottom-up sweep over the level
    arrays, all trees in lockstep, from the folded leaves up: their ``f⁺``
    are capacities (Eq. 5), so the deepest level reads only ``leaf_sums``.
    """
    deepest = bt.levels[-1]
    vals = np.maximum(0.0, omega[deepest.tree_of_node] - bt.leaf_sums)
    min_fp = bt.leaf_min

    for j in range(len(bt.levels) - 2, -1, -1):
        level = bt.levels[j]
        child = bt.levels[j + 1]
        if level.kind == _MINUS:
            # Eq. 6: f⁻ = max(0, ω − Σ f⁺ of the objective's other agents).
            sums = np.add.reduceat(vals, level.child_indptr[:-1])
            vals = np.maximum(0.0, omega[level.tree_of_node] - sums)
        else:
            # Eq. 7: f⁺ = min over constraint edges of (1 − a_partner f⁻)/a_self.
            cand = (1.0 - child.a_partner * vals) / child.a_self
            vals = np.minimum.reduceat(cand, level.child_indptr[:-1])
            min_fp = np.minimum(min_fp, np.minimum.reduceat(vals, level.root_indptr[:-1]))

    # vals now holds f⁻ at the root (one node per tree).
    root_slack = bt.comp.capacity[bt.levels[0].nodes] - vals
    return np.minimum(min_fp, root_slack)


#: Active-set compaction policy for :func:`_bracketed_search`: once the
#: still-unconverged trees are at most this fraction of the current working
#: set (and at least ``_COMPACT_MIN_DROP`` trees would be shed), the working
#: set is physically compacted with :meth:`BatchedTrees.select` so each
#: remaining ``f±`` sweep only touches live trees.  Converged trees would
#: otherwise be swept until the *slowest* tree of the whole batch finishes —
#: the reason stacked multi-instance dispatch used to lose at medium ``n``.
_COMPACT_FRACTION = 0.5
_COMPACT_MIN_DROP = 16


def _bracketed_search(bt: BatchedTrees, tol: float) -> np.ndarray:
    """``t_u`` for every tree in the batch via a safeguarded bracketed search.

    ``t_u`` is the largest ``ω`` with a nonnegative :func:`_recursion_margins`
    (Lemma 3).  Level by level ``f⁻`` is convex and ``f⁺`` concave in ``ω``,
    so the margin is concave, nonincreasing and piecewise linear, and a
    Brent-style search (*Algorithms for Minimization without Derivatives*,
    ch. 4) lands on its active linear piece in a few sweeps.  Each tree keeps
    a feasible ``lo`` and an infeasible ``hi`` with their margins and probes:

    * after a probe that raised ``lo``, the root of the chord through the two
      latest infeasible points — extrapolated below them, a chord of a
      concave function lies above it, so the probe lands infeasible;
    * otherwise the root of the secant of ``(lo, hi)`` — interpolated, the
      chord lies below the function, so the probe lands feasible;
    * the midpoint when the bracket has not halved in two sweeps or the
      chord has no root;

    every probe clamped to ``[lo + tol/2, hi − tol/2]``.  The search stops
    on bisection's rule, ``hi − lo ≤ tol``, and returns ``lo``: a ``t_u``
    with ``margin(t_u) ≥ 0`` within ``tol`` of the maximum, in about half the
    sweeps of a bisection.  ``hi0`` (the root objective's capacity sum, cf.
    :func:`~repro.algo.upper_bound.tree_optimum_binary_search`) is returned
    as is when feasible.

    One ``f±`` sweep per iteration serves all trees.  Each tree's trajectory
    reads only its own margins, so its ``t`` is bitwise identical whatever
    batch it runs in, and the working set shrinks mid-run (see
    :data:`_COMPACT_FRACTION`) without changing any ``t``.
    """
    comp = bt.comp
    T = bt.num_trees
    if T == 0:
        return np.zeros(0, dtype=np.float64)

    # Upper search limit: the root objective's value can never exceed the sum
    # of its agents' individual capacities (cf. _search_upper_limit).
    root_caps = comp.capacity[bt.levels[0].nodes]
    if bt.r == 0:  # the root's siblings are the folded leaves
        hi0 = root_caps + bt.leaf_sums
    else:
        lvl1 = bt.levels[1]
        hi0 = root_caps + np.add.reduceat(comp.capacity[lvl1.nodes], lvl1.root_indptr[:-1])
    if np.isinf(hi0).any():
        bad = bt.roots[int(np.argmax(np.isinf(hi0)))]
        raise SolverError(
            f"agent {comp.agents[bad]!r} has no constraint; "
            "run preprocessing before the local algorithm"
        )

    t = np.zeros(T, dtype=np.float64)
    positive = hi0 > 0.0
    m_lo = m_hi = np.zeros(T, dtype=np.float64)
    if positive.any():
        m_lo = _recursion_margins(bt, np.zeros(T, dtype=np.float64))
        m_hi = _recursion_margins(bt, hi0)
    feasible_at_hi = m_hi >= 0.0
    t[positive & feasible_at_hi] = hi0[positive & feasible_at_hi]
    searched = positive & ~feasible_at_hi
    lo_full = np.zeros(T, dtype=np.float64)

    # Working-set state, one entry per working tree: the bracket and its
    # margins, the previous infeasible point, the bracket widths one and two
    # sweeps back, and whether the last probe raised ``lo``.  ``origin`` maps
    # working positions back to batch positions; converged brackets are
    # scattered into ``lo_full`` before any compaction drops them.
    cur = bt
    origin = np.arange(T, dtype=np.int64)
    active = searched.copy()
    lo = np.zeros(T, dtype=np.float64)
    hi = hi0.copy()
    hi_prev = np.full(T, np.nan)
    m_hi_prev = np.full(T, np.nan)
    width_1 = np.full(T, np.inf)
    width_2 = np.full(T, np.inf)
    raised = np.zeros(T, dtype=bool)
    iterations = 0
    tree_iterations = 0
    compactions = 0
    while iterations < MAX_BISECTION_ITERATIONS:
        width = hi - lo
        active &= width > tol
        n_active = int(active.sum())
        if n_active == 0:
            break
        if (
            len(active) - n_active >= _COMPACT_MIN_DROP
            and n_active <= _COMPACT_FRACTION * len(active)
        ):
            lo_full[origin] = lo
            keep = np.flatnonzero(active)
            cur = cur.select(keep)
            state = (origin, lo, m_lo, hi, m_hi, hi_prev, m_hi_prev, width, width_1, width_2, raised)
            origin, lo, m_lo, hi, m_hi, hi_prev, m_hi_prev, width, width_1, width_2, raised = (
                a[keep] for a in state
            )
            active = np.ones(len(keep), dtype=bool)
            compactions += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = lo + m_lo * (width / (m_lo - m_hi))
            chord = hi - m_hi * ((hi_prev - hi) / (m_hi_prev - m_hi))
        probe = np.where(raised, chord, secant)
        bisect = (width > 0.5 * width_2) | ~np.isfinite(probe)
        probe = np.where(bisect, 0.5 * (lo + hi), probe)
        probe = np.minimum(np.maximum(probe, lo + 0.5 * tol), hi - 0.5 * tol)
        margins = _recursion_margins(cur, probe)
        # Converged trees are still swept until compaction drops them; the
        # masks keep their brackets (only ``lo`` is read back) unchanged.
        take = active & (margins >= 0.0)
        drop = active & ~take
        lo = np.where(take, probe, lo)
        m_lo = np.where(take, margins, m_lo)
        hi_prev = np.where(drop, hi, hi_prev)
        m_hi_prev = np.where(drop, m_hi, m_hi_prev)
        hi = np.where(drop, probe, hi)
        m_hi = np.where(drop, margins, m_hi)
        width_2, width_1 = width_1, width
        raised = take
        iterations += 1
        tree_iterations += n_active

    obs.count("kernels.bisection_sweeps", iterations)
    obs.count("kernels.bisection_iterations", tree_iterations)
    obs.count("kernels.bisection_compactions", compactions)
    lo_full[origin] = lo
    t[searched] = lo_full[searched]
    return t


def batched_upper_bounds(
    comp: CompiledInstance,
    r: int,
    *,
    tol: float = DEFAULT_BISECTION_TOL,
    targets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``t_u`` per agent (positions ``targets``, default all) — batched.

    Builds the alternating trees of all targets at once and runs the
    simultaneous bracketed search over every one of them; ``tol`` is the
    width of the final ``t_u`` bracket.  Each tree's search reads only its
    own margins, so equal trees get bitwise-equal ``t_u`` wherever they
    occur, by determinism rather than by sharing one search.
    """
    with obs.span("kernels.build_trees"):
        bt = build_batched_trees(comp, r, targets)
    if bt.num_trees == 0:
        return np.zeros(0, dtype=np.float64)
    obs.count("kernels.trees_total", bt.num_trees)
    obs.count("kernels.tree_nodes", sum(len(level.nodes) for level in bt.levels))
    with obs.span("kernels.tu_search"):
        return _bracketed_search(bt, tol)


def smooth_bounds_kernel(comp: CompiledInstance, t: np.ndarray, r: int) -> np.ndarray:
    """Smoothed bounds ``s_v = min { t_u : dist_G(u, v) ≤ 4r + 2 }`` — batched.

    ``2r + 1`` synchronous rounds of neighbour-min propagation over the
    agent-level adjacency (constraint partners ∪ objective siblings = the
    agents at graph distance exactly 2), so round ``p`` covers graph radius
    ``2p``; total work ``O((n + m)·r)`` instead of ``n`` BFS traversals.
    Converged propagation stops early (small-diameter components).
    """
    s = np.array(t, dtype=np.float64, copy=True)
    if comp.num_agents == 0:
        return s
    indptr, indices = comp.smoothing_adjacency
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if len(nonempty) == 0:
        return s
    rounds = 0
    for _ in range(2 * r + 1):
        rounds += 1
        neighbour_min = np.minimum.reduceat(s[indices], indptr[nonempty])
        updated = np.minimum(s[nonempty], neighbour_min)
        if np.array_equal(updated, s[nonempty]):
            break
        s[nonempty] = updated
    obs.count("kernels.smoothing_rounds", rounds)
    return s


def g_recursion_kernel(
    comp: CompiledInstance, smoothed: np.ndarray, r: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``g±`` recursion (Eqs. 12–14) as ``(r+1) × n`` arrays — batched.

    Row ``d`` of the returned ``(g_plus, g_minus)`` pair holds the depth-``d``
    values for every agent; each depth is two whole-vector operations (a
    segmented min over constraint edges and a sibling-sum via per-objective
    bincount).
    """
    n = comp.num_agents
    g_plus = np.empty((r + 1, n), dtype=np.float64)
    g_minus = np.empty((r + 1, n), dtype=np.float64)
    if n == 0:
        return g_plus, g_minus
    g_plus[0] = comp.capacity
    for d in range(r + 1):
        if d >= 1:
            gm_prev = g_minus[d - 1]
            cand = (1.0 - comp.con_partner_coeff * gm_prev[comp.con_partner]) / comp.con_coeff
            g_plus[d] = np.minimum.reduceat(cand, comp.con_indptr[:-1])
        g_minus[d] = np.maximum(0.0, smoothed - comp.sibling_sums(g_plus[d]))
    return g_plus, g_minus


def output_kernel(g_plus: np.ndarray, g_minus: np.ndarray, R: int) -> np.ndarray:
    """Eq. 18: ``x_v = (1/2R) Σ_d (g⁺_{v,d} + g⁻_{v,d})`` — batched."""
    return (g_plus.sum(axis=0) + g_minus.sum(axis=0)) / (2.0 * R)


# ----------------------------------------------------------------------
# Confined (dirty-region) re-runs for the incremental solver
# ----------------------------------------------------------------------
def agent_hop_balls(
    comp: CompiledInstance, seeds: np.ndarray, radii: List[int]
) -> List[np.ndarray]:
    """Balls around ``seeds`` in the agent-level smoothing adjacency — one BFS.

    One hop of the smoothing adjacency (constraint partners ∪ objective
    siblings) equals two communication-graph edges, so a ball of hop radius
    ``h`` is the paper's graph-radius-``2h`` neighbourhood.  ``radii`` must be
    non-decreasing; the return value holds one sorted agent-position array
    per requested radius (each a superset of the previous — snapshots of a
    single breadth-first expansion).  This is the locality machinery of the
    incremental solver: §1.3's observation that an agent's output depends
    only on its radius-O(R) neighbourhood, applied in reverse to bound which
    outputs an edit can reach.
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise SolverError(f"agent_hop_balls radii must be non-decreasing, got {radii}")
    n = comp.num_agents
    visited = np.zeros(n, dtype=bool)
    visited[seeds] = True
    out: List[np.ndarray] = []
    if not radii:
        return out
    indptr, indices = comp.smoothing_adjacency
    deg = np.diff(indptr)
    frontier = seeds
    hop = 0
    for radius in radii:
        while hop < radius and len(frontier):
            neigh = indices[_segment_gather(indptr[frontier], deg[frontier])]
            frontier = np.unique(neigh[~visited[neigh]])
            visited[frontier] = True
            hop += 1
        out.append(np.flatnonzero(visited))
    return out


def safe_fallback_confined(comp: CompiledInstance, positions: np.ndarray) -> np.ndarray:
    """Plain §1.3 safe shares for the given agent rows only.

    ``x_v = min_{i ∈ I_v} 1 / (|V_i| · a_iv)``, evaluated over just the
    requested rows — the degradation fallback of the resilient runtime,
    sized to the fault ball rather than the instance.  The per-edge terms
    are the exact floats the safe protocol computes, so a ball agent's
    fallback value bitwise-matches what a full safe run would give it.
    Unconstrained rows come back ``+inf`` (the caller decides what a free
    variable degrades to).
    """
    positions = np.asarray(positions, dtype=np.int64)
    obs.count("kernels.confined_safe_rows", len(positions))
    out = np.full(len(positions), np.inf)
    if len(positions) == 0:
        return out
    deg = np.diff(comp.con_indptr)[positions]
    has = deg > 0
    if not has.any():
        return out
    adeg = deg[has]
    flat = _segment_gather(comp.con_indptr[positions[has]], adeg)
    terms = 1.0 / (
        comp.constraint_degrees[comp.con_indices[flat]].astype(np.float64)
        * comp.con_coeff[flat]
    )
    seg = np.zeros(len(adeg), dtype=np.int64)
    np.cumsum(adeg[:-1], out=seg[1:])
    out[has] = np.minimum.reduceat(terms, seg)
    return out


def smooth_bounds_confined(
    comp: CompiledInstance, t: np.ndarray, r: int, work: np.ndarray
) -> np.ndarray:
    """:func:`smooth_bounds_kernel` with propagation confined to ``work`` rows.

    Returns a full-length array equal to ``t`` outside the active rows; the
    caller splices only the positions whose 2r+1-hop ball lies inside
    ``work`` (for splice set ``S`` that means ``work ⊇ ball(S, 2r+1)`` —
    then every shortest path from a spliced agent to any ``t`` in its ball
    stays within active rows and the confined min equals the global min).
    ``s`` values are exact mins of ``t`` values, so any propagation schedule
    that covers the ball yields the bitwise-identical float.
    """
    s = np.array(t, dtype=np.float64, copy=True)
    if comp.num_agents == 0 or len(work) == 0:
        return s
    indptr, indices = comp.smoothing_adjacency
    deg = np.diff(indptr)
    active = work[deg[work] > 0]
    if len(active) == 0:
        return s
    adeg = deg[active]
    nb = indices[_segment_gather(indptr[active], adeg)]
    seg = np.zeros(len(active), dtype=np.int64)
    np.cumsum(adeg[:-1], out=seg[1:])
    rounds = 0
    for _ in range(2 * r + 1):
        rounds += 1
        neighbour_min = np.minimum.reduceat(s[nb], seg)
        updated = np.minimum(s[active], neighbour_min)
        if np.array_equal(updated, s[active]):
            break
        s[active] = updated
    obs.count("kernels.smoothing_rounds", rounds)
    obs.count("kernels.confined_smooth_rows", len(active))
    return s


def g_recursion_confined(
    comp: CompiledInstance,
    smoothed: np.ndarray,
    r: int,
    g_plus: np.ndarray,
    g_minus: np.ndarray,
    out: np.ndarray,
) -> None:
    """:func:`g_recursion_kernel` restricted to the ``out`` columns, in place.

    Rewrites ``g_plus[:, out]`` / ``g_minus[:, out]`` for all depths, reading
    retained values for partners / siblings outside ``out``.  Correct (and
    bitwise identical to a full re-run) when the true ``g`` changes are
    confined to ``out``'s interior: reads reach one hop outside ``out``,
    where retained values equal a fresh solve's by assumption.  The sibling
    sums accumulate via per-objective :func:`numpy.bincount` over the
    *compacted* member edges of the objectives touching ``out`` — bincount
    adds strictly in input (canonical member) order, so each per-objective
    sum is the bitwise-identical float the full kernel's global bincount
    produces (``np.add.reduceat`` would not be: pairwise association).
    """
    if len(out) == 0:
        return
    con_deg = np.diff(comp.con_indptr)[out]
    flat = _segment_gather(comp.con_indptr[out], con_deg)
    partner = comp.con_partner[flat]
    p_coeff = comp.con_partner_coeff[flat]
    s_coeff = comp.con_coeff[flat]
    seg = np.zeros(len(out), dtype=np.int64)
    np.cumsum(con_deg[:-1], out=seg[1:])

    objs = np.unique(comp.obj_of_agent[out])
    odeg = np.diff(comp.oagents_indptr)[objs]
    omem = comp.oagents_indices[_segment_gather(comp.oagents_indptr[objs], odeg)]
    oowner = np.repeat(np.arange(len(objs), dtype=np.int64), odeg)
    obj_pos = np.searchsorted(objs, comp.obj_of_agent[out])

    g_plus[0][out] = comp.capacity[out]
    for d in range(r + 1):
        if d >= 1:
            gm_prev = g_minus[d - 1]
            cand = (1.0 - p_coeff * gm_prev[partner]) / s_coeff
            g_plus[d][out] = np.minimum.reduceat(cand, seg)
        vals = g_plus[d]
        per_objective = np.bincount(oowner, weights=vals[omem], minlength=len(objs))
        sib = per_objective[obj_pos] - vals[out]
        g_minus[d][out] = np.maximum(0.0, smoothed[out] - sib)
    obs.count("kernels.confined_g_columns", len(out))
