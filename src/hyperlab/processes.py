"""Component search, the two-type branching process, and their coupling.

The search explores one j-component of a hypergraph with a breadth-first
`hypergraph.walk`, as `coupled_run` does to size it: popping a j-set looks
its edges up with `hypergraph.jset_lookup`, popping a k-set activates its
undiscovered j-subsets.  The lookup's sorted keys are built once per
(hypergraph, j) and kept on the hypergraph, so searches and coupled runs
from many starts on one hypergraph sort its j-subsets once.  The branching
process mirrors the search but never skips: every type-j vertex queries all
C(n-j, k-j) candidate k-sets independently with probability p, and each
spawned type-k vertex attaches c0 = C(k,j) - 1 fresh type-j children
(labels may repeat across the tree).

`coupled_run` drives both from shared randomness: the first query of any
k-set (by either process) is answered by the hypergraph's membership
indicator, repeat queries by the branching process draw fresh Bernoulli(p)
outcomes.  Every k-set the search discovers is in the hypergraph, so its
first query created a branching vertex with that label; distinct labels
give distinct vertices, hence branching size >= component size on every
run, not merely in expectation.

`branching_with_rate` and `coupled_run` grow their trees in one
breadth-first loop; they differ only in the rule that turns one pop's
Bernoulli hits into spawned k-sets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .combinatorics import TheoryParams, rank_subset, unrank_subset
from .errors import ResourceLimitError, ValidationError
from .hypergraph import Hypergraph, _check_subsets, jset_lookup, walk
from .rng import make_generator

DEFAULT_CAP = 1_000_000
# Largest C(n-j, k-j), the uniforms one popped type-j vertex draws (32 MiB
# of doubles); the workloads and tests draw at most C(59, 2) = 1,711.
MAX_DRAWS = 1 << 22


@dataclass
class SearchTrace:
    """Breadth-first exploration record of one j-component.

    `pops` logs the FIFO queue discipline: ("J" | "K", label) per pop.
    `size` counts discovered k-sets, `order` discovered j-sets.
    """

    start: tuple[int, ...]
    pops: list[tuple[str, tuple[int, ...]]]
    size: int
    order: int
    discovered_jsets: frozenset[tuple[int, ...]]
    discovered_ksets: frozenset[tuple[int, ...]]


@dataclass
class TwoTypeTree:
    """Rooted labelled two-type tree produced by the branching process.

    Vertex 0 is the root (type "j").  Every type-k vertex has exactly c0
    type-j children, so a tree of size s (its count of type-k vertices) has
    1 + c0*s type-j vertices.
    """

    n: int
    k: int
    j: int
    types: list[str] = field(default_factory=list)
    labels: list[tuple[int, ...]] = field(default_factory=list)
    parents: list[Optional[int]] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)
    truncated: bool = False
    size: int = field(default=0, init=False)

    def add(self, kind: str, label: tuple[int, ...], parent: Optional[int]) -> int:
        idx = len(self.types)
        if kind == "k":
            self.size += 1
        self.types.append(kind)
        self.labels.append(label)
        self.parents.append(parent)
        self.children.append([])
        if parent is not None:
            self.children[parent].append(idx)
        return idx

    def count_type_j(self) -> int:
        return len(self.types) - self.size


def _validate_jset(start, n: int, j: int) -> tuple[int, ...]:
    s = tuple(start)
    if len(s) != j:
        raise ValidationError(f"start must have exactly {j} vertices, got {s}")
    rank_subset(s, n)  # validates sortedness, distinctness, range
    return s


def search_component(h: Hypergraph, j: int, start) -> SearchTrace:
    """Explore the full j-component of `start` breadth-first.

    The edges of a popped j-set are pushed in colex order, that of their
    (k-j)-vertex complements; component size and order do not depend on
    that order, traces do.
    """
    start = _validate_jset(start, h.n, j)
    edges_of = jset_lookup(h, j)
    parent: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}
    pops = [("J" if len(u) == j else "K", u)
            for u, v in walk(edges_of, j, start, parent) if v is None]
    ksets = frozenset(u for u in parent if len(u) != j)
    return SearchTrace(start=start, pops=pops, size=len(ksets), order=len(parent) - len(ksets),
                       discovered_jsets=frozenset(parent.keys() - ksets), discovered_ksets=ksets)


def format_trace(trace: SearchTrace) -> list[str]:
    """Stable dump format: one `STEP <idx> POP <J|K> <label>` line per pop."""
    return [
        f"STEP {i} POP {kind} {','.join(str(v) for v in label)}"
        for i, (kind, label) in enumerate(trace.pops)
    ]


def _branch(n: int, k: int, j: int, p: float, root: tuple[int, ...], seed: int, cap: int,
            spawn) -> TwoTypeTree:
    # The two-type process, breadth-first.  Each popped type-j vertex draws
    # one uniform per candidate k-set, C(n-j, k-j) of them in colex order,
    # and `spawn(jlabel, hits)` turns the k-sets hit with probability p into
    # the k-labels that join the tree, still in colex order.
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    # C(n-j, k-j) >= 2^min(k-j, n-k), so from 22 on the cap is passed without it
    if min(k - j, n - k) >= 22 or math.comb(n - j, k - j) > MAX_DRAWS:
        raise ResourceLimitError(
            f"each popped j-set would draw C(n-j, k-j) uniforms, more than {MAX_DRAWS}")
    rng = make_generator(seed)
    n_candidates = math.comb(n - j, k - j)
    tree = TwoTypeTree(n=n, k=k, j=j)
    tree.add("j", root, None)
    queue: deque[int] = deque([0])
    while queue:
        u_idx = queue.popleft()
        jlabel = tree.labels[u_idx]
        hits = []
        for i in np.flatnonzero(rng.random(n_candidates) < p).tolist():
            # colex rank i among the n - j vertices outside jlabel: the v-th
            # of them is v stepped past each label vertex at or below it
            added = []
            for v in unrank_subset(i, k - j, n - j):
                for a in jlabel:
                    v += a <= v
                added.append(v)
            hits.append(tuple(sorted(jlabel + tuple(added))))
        for klabel in spawn(jlabel, hits):
            if tree.size >= cap:
                tree.truncated = True
                return tree
            k_idx = tree.add("k", klabel, u_idx)
            for sub in combinations(klabel, j):
                if sub != jlabel:
                    queue.append(tree.add("j", sub, k_idx))
    return tree


def branching_with_rate(
    n: int,
    k: int,
    j: int,
    p: float,
    root_label,
    seed: int,
    cap: int = DEFAULT_CAP,
) -> TwoTypeTree:
    """Run the two-type branching process with an explicit edge probability."""
    _check_subsets(n, k, j)  # every k-vertex gets C(k, j) - 1 children
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    root = _validate_jset(root_label, n, j)
    return _branch(n, k, j, p, root, seed, cap, lambda jlabel, hits: hits)


def coupled_run(
    h: Hypergraph,
    params: TheoryParams,
    start,
    seed: int,
    cap: int = DEFAULT_CAP,
) -> tuple[int, int]:
    """Couple one component search on `h` with one branching process.

    Returns (component_size, branching_size); the construction guarantees
    branching_size >= component_size exactly (unless the branching run is
    truncated at `cap`, which cannot shrink it below the cap).

    A k-set has been queried before iff one of its j-subsets was already
    expanded, so the first-query bookkeeping tracks expanded labels only.
    """
    j = params.j
    start = _validate_jset(start, h.n, j)
    if (h.n, h.k) != (params.n, params.k):
        raise ValidationError("hypergraph and params disagree on (n, k)")
    edges_of = jset_lookup(h, j)
    expanded: set[tuple[int, ...]] = set()

    def queried_before(klabel: tuple[int, ...]) -> bool:
        return any(sub in expanded for sub in combinations(klabel, j))

    def first_query_rule(jlabel, hits):
        # A first query is answered by membership: present edges never queried
        # spawn, and absent k-sets do not, whatever their draw.  A repeat query
        # keeps its Bernoulli(p) hit.  Both lists hold k-sets containing
        # jlabel, whose colex order is that of the reversed tuples.
        fresh = [e for e in edges_of(jlabel) if not queried_before(e)]
        repeats = [e for e in hits if queried_before(e)]
        expanded.add(jlabel)
        return sorted(fresh + repeats, key=lambda e: e[::-1])

    tree = _branch(params.n, params.k, j, params.p, start, seed, cap, first_query_rule)
    component_size = sum(len(u) != j for u, v in walk(edges_of, j, start, {}) if v is None)
    return component_size, tree.size
