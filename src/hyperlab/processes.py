"""Component search, the two-type branching process, and their coupling.

The search explores one j-component of a hypergraph with a breadth-first
`hypergraph.walk`, as `coupled_run` does to size it: popping a j-set looks
its edges up with `hypergraph.jset_lookup`, popping a k-set activates its
undiscovered j-subsets.  The lookup reads the sorted keys kept on the
hypergraph, so runs from many starts, and a decomposition before them, share
one sort.  The branching process mirrors the search but never skips: every
type-j vertex queries all C(n-j, k-j) candidate k-sets independently with
probability p, and each spawned type-k vertex attaches c0 = C(k,j) - 1
fresh type-j children (labels may repeat across the tree).

`coupled_run` drives both from shared randomness: the first query of any
k-set (by either process) is answered by the hypergraph's membership
indicator, repeat queries by the branching process draw fresh Bernoulli(p)
outcomes.  Every k-set the search discovers is in the hypergraph, so its
first query created a branching vertex with that label; distinct labels
give distinct vertices, hence branching size >= component size on every
run, not merely in expectation.  A run memoizes the lookup, and the walk that
sizes the component rereads the memo; "queried before" is one disjointness
test on the memo's keys, and fresh edges keep the lookup's colex order.

`branching_with_rate` and `coupled_run` grow their trees in one
breadth-first loop; they differ only in the rule that turns one pop's
Bernoulli hits into spawned k-sets.  A pop decides its Bernoulli(p) hits
on raw Philox words, one integer compare each against a threshold that
hits exactly the candidates `rng.random(N) < p` would.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .combinatorics import TheoryParams, comb_at_most, rank_subset, unrank_subset
from .errors import ResourceLimitError, ValidationError
from .hypergraph import Hypergraph, _check_subsets, jset_lookup, walk
from .rng import make_generator

DEFAULT_CAP = 1_000_000
# Largest C(n-j, k-j), the uniforms one popped type-j vertex draws: 32 MiB
# of 64-bit words, drawn afresh per pop.
MAX_DRAWS = 1 << 22


@dataclass
class SearchTrace:
    """Breadth-first exploration record of one j-component.

    `pops` logs the FIFO queue discipline: ("J" | "K", label) per pop.
    `size` counts discovered k-sets, `order` discovered j-sets; each
    discovered set is popped once, so both count pops.
    """

    pops: list[tuple[str, tuple[int, ...]]]
    size: int
    order: int


@dataclass
class TwoTypeTree:
    """Rooted labelled two-type tree produced by the branching process.

    Vertex 0 is the root (type "j"), and `parents` holds each vertex's
    parent index (None at the root).  Every type-k vertex has exactly c0
    type-j children, so a tree of size s (its count of type-k vertices) has
    1 + c0*s type-j vertices.
    """

    types: list[str] = field(default_factory=list)
    labels: list[tuple[int, ...]] = field(default_factory=list)
    parents: list[Optional[int]] = field(default_factory=list)
    truncated: bool = False
    size: int = field(default=0, init=False)

    def add(self, kind: str, label: tuple[int, ...], parent: Optional[int]) -> int:
        if kind == "k":
            self.size += 1
        self.types.append(kind)
        self.labels.append(label)
        self.parents.append(parent)
        return len(self.types) - 1


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
    pops = [("J" if len(u) == j else "K", u) for u, v in walk(edges_of, j, start, {}) if v is None]
    size = sum(kind == "K" for kind, _ in pops)
    return SearchTrace(pops=pops, size=size, order=len(pops) - size)


def _branch(n: int, k: int, j: int, p: float, root: tuple[int, ...], seed: int, cap: int,
            spawn) -> TwoTypeTree:
    # The two-type process, breadth-first.  Each popped type-j vertex draws
    # one uniform per candidate k-set, C(n-j, k-j) of them in colex order,
    # and `spawn(jlabel, hits)` turns the k-sets hit with probability p into
    # the k-labels that join the tree, still in colex order.
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    if (candidates := comb_at_most(n - j, k - j, MAX_DRAWS)) is None:
        raise ResourceLimitError(
            f"each popped j-set would draw C(n-j, k-j) uniforms, more than {MAX_DRAWS}")
    # A uniform stays its raw 64-bit Philox word w: rng.random() would make it
    # (w >> 11) * 2**-53, below p exactly when w < ceil(p * 2**53) * 2**11.
    # So a pop draws the words rng.random(N) would and hits the same
    # candidates.  At p = 1 that threshold, 2**64, is past uint64: every
    # candidate hits, with no draw.  An np.uint64 threshold keeps the compare
    # integer; a float would promote the words to float64.
    bits = make_generator(seed).bit_generator
    threshold = np.uint64(math.ceil(p * 2**53) << 11) if p < 1 else None
    tree = TwoTypeTree()
    tree.add("j", root, None)
    queue: deque[int] = deque([0])
    while queue:
        u_idx = queue.popleft()
        jlabel = tree.labels[u_idx]
        hit = range(candidates) if threshold is None else \
            (bits.random_raw(candidates) < threshold).nonzero()[0].tolist()
        hits = []
        for i in hit:
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

    `params` may be any model point: only n, k, j and p are read.
    Returns (component_size, branching_size); the construction guarantees
    branching_size >= component_size exactly (unless the branching run is
    truncated at `cap`, which cannot shrink it below the cap).

    A k-set has been queried before iff one of its j-subsets was already
    expanded: one disjointness test against the keys of a plain dict memo,
    kept for this call alone, that maps each expanded label to its edges in
    the lookup's colex order, the order fresh edges spawn in (memory of the
    order of the tree's size).  Each j-set is looked up once; the walk looks
    up only j-sets a truncated run never reached.
    """
    j = params.j
    start = _validate_jset(start, h.n, j)
    if (h.n, h.k) != (params.n, params.k):
        raise ValidationError("hypergraph and params disagree on (n, k)")
    lookup = jset_lookup(h, j)
    expanded: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def edges_of(jset: tuple[int, ...]) -> list[tuple[int, ...]]:
        return expanded[jset] if jset in expanded else lookup(jset)

    def first_query_rule(jlabel, hits):
        # A first query is answered by membership: present edges never queried
        # spawn, and absent k-sets do not, whatever their draw.  A repeat query
        # keeps its Bernoulli(p) hit.  Both lists hold k-sets containing jlabel
        # in colex order (that of the reversed tuples): only repeats need a merge.
        edges = edges_of(jlabel)
        fresh = [e for e in edges if expanded.keys().isdisjoint(combinations(e, j))]
        repeats = [e for e in hits if not expanded.keys().isdisjoint(combinations(e, j))]
        expanded[jlabel] = edges
        return sorted(fresh + repeats, key=lambda e: e[::-1]) if repeats else fresh

    tree = _branch(params.n, params.k, j, params.p, start, seed, cap, first_query_rule)
    component_size = sum(len(u) != j for u, v in walk(edges_of, j, start, {}) if v is None)
    return component_size, tree.size
