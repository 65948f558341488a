"""Random k-uniform hypergraphs and their j-connected components.

Two hyperedges lie in the same j-component when they are joined by a walk
of hyperedges whose consecutive intersections have at least j vertices,
that is, whose consecutive edges share a j-set.

Edges have one representation, the (m, k) integer array `Hypergraph.array`
in colex order, checked one column at a time (ascent, then colex order
from the top column down); tuples appear only at the boundary
(`Hypergraph.edges`, built on each access, and witnesses).
`sample` draws its uniforms in blocks, turns them into geometric gaps and
cumulative colex ranks, and unranks them all at once (`unrank_array`).
One helper ranks every j-subset of every edge from the edge columns
(`rank_array`, with no gathered copy of the subsets), packs each rank with
the subset's row into one key, rank * count + row, and sorts the keys by
value; being unique, they fall in the stable order of the ranks.  Equal
neighbouring ranks link two edges through a shared j-set, and `_decompose`
finds the components of that edge graph by hook-and-shortcut, reading a
key's edge only at the links, and returns the sorted keys with their run
starts; it keeps none of them, since its callers drop the hypergraph right
after.  `jset_lookup` maps a j-set to its edges by bisecting the sorted keys
in place (object keys, past int64, as a list).  It sorts them once per
(hypergraph, j) and keeps them on the hypergraph, 8 bytes per j-subset, so
that repeated searches and couplings on one hypergraph sort once.
Over that map one traversal, `walk`, serves the component search, coupling
and the wheel search, `find_wheel`, a depth-first walk from any edge or
j-set of a component.  The one witness routine, `_witnesses`, walks from
each non-hypertree component's first edge over one lookup of the keys whose
rows lie in such components.  `j_components` adds its summaries and a j-set
map from the keys' run starts on top; `components` prints from the columns,
counting the isolated j-sets as C(n, j) minus the sum of the orders.

A component of size s (edges) and order t (distinct j-sets) is a hypertree
iff t = 1 + (C(k,j) - 1) * s; the unique obstruction is a wheel, a cyclic
alternating sequence of distinct edges and distinct j-sets.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .combinatorics import (check_domain, colex_dtype, rank_array, rank_subset, show_int,
                            unrank_array)
from .errors import ResourceLimitError, ValidationError
from .rng import make_generator


class Hypergraph:
    """A k-uniform hypergraph on [1, n] with edges stored in colex order.

    `edges` is a sequence of vertex tuples or an (m, k) integer numpy array
    (an unsigned one is read as Python ints).  Either way the hypergraph
    keeps only one validated, read-only (m, k) array, `array` (int64, or
    object when a vertex passes the int64 range); `edges` builds the same
    edges as tuples on each access.  `jset_lookup` keeps the sorted j-subset
    keys of each j it is asked for on the hypergraph; equality and `repr`
    ignore them, and a pickle carries them.
    """

    def __init__(self, n: int, k: int, edges) -> None:
        self.n, self.k = n, k
        # j -> `_sorted_keys(self, j)`, filled by `jset_lookup`
        self._jset_keys: dict[int, tuple[np.ndarray, int]] = {}
        if isinstance(edges, np.ndarray) and edges.dtype.kind == "u":
            edges = edges.tolist()  # Python ints: uint64 past int64 takes the object path
        if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.dtype.kind == "i":
            # a view, so that making it read-only leaves the caller's array writeable
            self.array = edges.astype(np.int64, copy=False).view()
        else:
            try:
                self.array = tuple(map(tuple, edges))
            except TypeError as exc:  # a 1-D array, or a flat list of vertices
                raise ValidationError(
                    "edges must be vertex sequences or a 2-D integer array") from exc
        self.__post_init__()

    def __post_init__(self) -> None:
        check_domain(self.n, self.k)
        given = self.array
        bad, self.array = _first_invalid_edge(given, self.n, self.k)
        if bad < len(given):
            e = tuple(given[bad].tolist() if isinstance(given, np.ndarray) else given[bad])
            if len(e) != self.k:
                raise ValidationError(f"edge {e} does not have arity {self.k}")
            rank_subset(e, self.n)  # raises for a non-integer, unsorted or out-of-range element
            raise ValidationError(f"edges must be distinct and sorted by colex rank near {e}")
        self.array.flags.writeable = False

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, edges={self.edges!r})"

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build from edges in any order; sorts canonically and rejects duplicates."""
        canon = [tuple(sorted(e)) for e in edges]
        canon.sort(key=lambda e: rank_subset(e, n))
        return cls(n, k, tuple(canon))


@dataclass(frozen=True)
class Wheel:
    """A cyclic pair of sequences: distinct edges K_1..K_l and distinct
    j-sets J_1..J_l with jsets[i] contained in edges[i] & edges[i+1 mod l].

    Wheels differing only by rotation or order reversal compare equal.
    """

    edges: tuple[tuple[int, ...], ...]
    jsets: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    def validate(self) -> None:
        ell = len(self.edges)
        if ell < 2 or len(self.jsets) != ell:
            raise ValidationError("wheel needs >= 2 edges and as many j-sets")
        if len(set(self.edges)) != ell or len(set(self.jsets)) != ell:
            raise ValidationError("wheel edges and j-sets must be distinct")
        for i in range(ell):
            a, b = set(self.edges[i]), set(self.edges[(i + 1) % ell])
            if not set(self.jsets[i]) <= (a & b):
                raise ValidationError(f"j-set {self.jsets[i]} not in consecutive intersection")

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Lexicographically least interleaved listing over rotations/reversals."""
        seq = [x for pair in zip(self.edges, self.jsets, strict=True) for x in pair]
        rev = seq[-2::-1] + seq[-1:]  # reversed, realigned so a K occupies position 0
        return min(tuple(base[t:] + base[:t]) for base in (seq, rev) for t in range(0, len(seq), 2))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wheel):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


@dataclass(frozen=True)
class ComponentSummary:
    """One j-component: size counts hyperedges, order counts distinct j-sets."""

    id: int
    size: int
    order: int
    is_hypertree: bool
    wheel_witness: Optional[Wheel] = None


# Uniform draws per block of the gap sampler: the blocks keep memory at
# O(edges) however large C(n, k) * p is.
_BLOCK = 1 << 16
# Largest n * k for which `sample` builds its colex tables (32 MiB of int64).
MAX_TABLE_CELLS = 1 << 22
# Largest j-subset template of one k-set, C(k, j) subsets of j cells; the
# C(k, j) ranks per edge of a hypergraph are bounded by the edge budget.
# The template is built as Python objects, about 600 B per subset (at j = 1,
# C(k, 1) = 2^18 subsets peak at 190 MiB RSS), so the cap keeps it near
# 70 MiB; the largest template in use is 60 cells, at (k, j) = (6, 3).
MAX_TEMPLATE_CELLS = 1 << 16


def sample(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Sample H^k(n, p): each k-set is an edge independently with probability p.

    Iterates edge colex ranks directly via geometric gap skipping (the gap G
    to the next present edge has P(G = g) = (1-p)^(g-1) * p), so absent
    edges are never touched.  The uniforms are drawn a block at a time, the
    ranks are their cumulative gaps, and all ranks are unranked at once by
    `unrank_array`.  Identical (n, k, p, seed) give identical hypergraphs,
    bit for bit.
    """
    check_domain(n, k)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return Hypergraph(n, k, ())
    if n * k > MAX_TABLE_CELLS:
        try:
            cells = str(n * k)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            cells = "n * k"
        raise ResourceLimitError(
            f"sampling needs colex tables of {cells} entries, more than {MAX_TABLE_CELLS}"
        )
    total = math.comb(n, k)
    dtype = colex_dtype(n, k)
    if p == 1.0:
        ranks = np.arange(total, dtype=dtype)
    else:
        ranks = _edge_ranks(total, p, make_generator(seed), dtype)
    return Hypergraph(n, k, unrank_array(ranks, k, n))


def _edge_ranks(total: int, p: float, rng: np.random.Generator, dtype: type) -> np.ndarray:
    # The gap after rank r is 1 + floor(log1p(-u) / log1p(-p)) for the next
    # uniform u.  rng.random(size) yields the same doubles as size scalar
    # draws, so the ranks do not depend on the block size.
    log1mp = math.log1p(-p)
    cap = 2.0**62 if dtype is np.int64 else sys.float_info.max
    blocks = []
    last = -1
    while True:
        # the block size sets how many draws come at once, never the ranks
        expect = min(total - 1 - last, 2**1000) * p
        u = rng.random(min(_BLOCK, int(expect + 4 * math.sqrt(expect)) + 16))
        with np.errstate(over="ignore", invalid="ignore"):  # inf for subnormal p, capped below
            q = np.log1p(-u) / log1mp
            # np.log1p can differ from math.log1p in the last ulp; recompute
            # every quotient close enough to an integer for that to move its floor
            near = np.flatnonzero(np.abs(q - np.rint(q)) <= 1e-9 * q)
        q[near] = [math.log1p(-x) / log1mp for x in u[near].tolist()]
        # below the cap the int64 gaps are exact, and a capped gap passes total
        q = np.minimum(q, cap)
        gaps = (q.astype(np.int64) if dtype is np.int64 else np.floor(q.astype(object))) + 1
        # int64 sums may wrap only after they pass total, and are cut there
        ranks = last + np.cumsum(gaps)
        past = np.flatnonzero(ranks >= total)
        if past.size:
            blocks.append(ranks[:past[0]])
            return np.concatenate(blocks)
        blocks.append(ranks)
        last = ranks[-1]


def _first_invalid_edge(edges, n: int, k: int) -> tuple[int, np.ndarray]:
    # Index of the first edge that breaks arity k, integer elements, strict
    # ascent within [1, n] or strictly increasing colex order (len(edges)
    # when none does), and the edges as an (m, k) array when none does.
    # `edges` is a tuple of tuples or a 2-D int64 array.  Each check runs on
    # the prefix the previous one passed.
    if not len(edges):
        # numpy has no (0, k) array for k past its dimension range, and no
        # decomposition reads the columns of one past MAX_TEMPLATE_CELLS
        return 0, np.empty((0, min(k, MAX_TEMPLATE_CELLS)), np.int64)
    if isinstance(edges, np.ndarray):
        if edges.shape[1] != k:
            return 0, None
        e = edges
    else:
        end = _first_false(np.fromiter(map(len, edges), np.intp, len(edges)) == k)
        if not end:  # also keeps a k past numpy's dimension range out of the shapes below
            return 0, None
        flat = list(chain.from_iterable(edges[:end]))
        is_int = np.fromiter(map(isinstance, flat, repeat(int)), bool, len(flat))
        end = _first_false(is_int.reshape(end, k).all(axis=1))
        try:
            e = np.fromiter(flat[:end * k], np.int64, end * k).reshape(end, k)
        except OverflowError:  # beyond int64: compare as Python ints
            e = np.array(flat[:end * k], dtype=object).reshape(end, k)
    ok = e[:, 0] >= 1
    for c in range(1, k):
        ok &= e[:, c] > e[:, c - 1]
    ok &= e[:, -1] <= n
    end = _first_false(ok)
    # colex order: at the highest position where consecutive edges differ,
    # the later edge holds the larger vertex; `tied` marks the pairs equal
    # on every column above c
    a, b = e[:end][:-1], e[:end][1:]
    later, tied = np.zeros(len(a), bool), np.ones(len(a), bool)
    for c in range(k - 1, -1, -1):
        later |= tied & (b[:, c] > a[:, c])
        tied &= b[:, c] == a[:, c]
    return min(end, 1 + _first_false(later)), e


def _first_false(flags: np.ndarray) -> int:
    return int(np.argmin(flags)) if not flags.all() else len(flags)


def _check_subsets(n: int, k: int, j: int) -> None:
    check_domain(n, k, j)
    # C(k, j) >= 2^min(j, k-j), so from 16 on the cap is passed without C(k, j)
    if min(j, k - j) >= 16 or math.comb(k, j) * j > MAX_TEMPLATE_CELLS:
        raise ResourceLimitError(
            f"the j-subsets of one k-set at (k, j) = ({show_int(k)}, {show_int(j)}) exceed "
            f"{MAX_TEMPLATE_CELLS} cells"
        )


def _sorted_keys(h: Hypergraph, j: int) -> tuple[np.ndarray, int]:
    # Every edge's j-subsets as keys rank * count + row, sorted by value, and
    # count, the number of rows: row e*C(k,j) + i is edge e's i-th j-subset
    # in `combinations` order.  The keys are unique, so their value order is
    # the stable order of the ranks: key // count is the sorted rank and
    # key % count the row it sat in.  int64 while every key fits, else object.
    _check_subsets(h.n, h.k, j)
    keys = rank_array(h.array, h.n, list(combinations(range(h.k), j)))
    count, fan = keys.size, keys.shape[1]
    if keys.dtype != object and math.comb(h.n, j) * count >= 2**63:
        keys = keys.astype(object)
    # in place, the rows broadcast from an m-long and a C(k,j)-long range:
    # one more array of keys would raise the peak
    keys *= count
    keys += np.arange(0, count, fan, dtype=keys.dtype)[:, None]
    keys += np.arange(fan, dtype=keys.dtype)
    keys = keys.reshape(-1)
    keys.sort()
    return keys, count


def jset_lookup(h: Hypergraph, j: int) -> Callable[[tuple], list[tuple[int, ...]]]:
    """Return a function from a j-set (a sorted tuple) to the edges of `h`
    containing it, as tuples in colex order.  It ranks the j-set exactly and
    bisects the sorted keys rank * count + row of every edge's j-subsets
    (count rows, C(k,j) per edge) in place, for the run
    [rank * count, (rank + 1) * count); key % count // C(k,j) is the edge.
    The keys are sorted once per (h, j) and kept on `h`, 8 bytes per
    j-subset (object keys, past int64, are bisected as a list).
    """
    if j not in h._jset_keys:
        h._jset_keys[j] = _sorted_keys(h, j)
    keys, count = h._jset_keys[j]
    return _edges_of(h.array, keys, count, math.comb(h.k, j))


def _edges_of(array: np.ndarray, keys: np.ndarray, count: int, fan: int) -> Callable:
    # `edges_of` over sorted keys rank * count + row of `array`'s j-subsets,
    # fan rows per edge, or over any sorted subsequence holding a j-set's run.
    # An int64 array is bisected through a memoryview, whose items are Python
    # ints; an object array exports no such buffer.
    keys = keys.tolist() if keys.dtype == object else memoryview(keys)

    def edges_of(jset: tuple) -> list[tuple[int, ...]]:
        low = count * sum(math.comb(v - 1, i) for i, v in enumerate(jset, start=1))
        lo = bisect_left(keys, low)
        return [tuple(array[key % count // fan].tolist())
                for key in keys[lo:bisect_left(keys, low + count, lo)]]

    return edges_of


def walk(edges_of: Callable, j: int, start: tuple, parent: dict, lifo: bool = False) -> Iterator:
    """Traverse the incidence graph from `start`, a j-set or an edge.

    A j-set's neighbours are its edges, `edges_of(jset)` from `jset_lookup`,
    an edge's its j-subsets.  Nodes are marked when pushed, and `parent`
    maps each to the node that pushed it (`start` to None).  Yields (u, None)
    per pop, in pop order, and (u, v) per arc to a marked v other than
    parent[u], closing a cycle.  The frontier is a queue, or with `lifo` a stack.
    """
    parent[start] = None
    frontier = deque([start])
    pop = frontier.pop if lifo else frontier.popleft
    while frontier:
        u = pop()
        yield u, None
        for v in (edges_of(u) if len(u) == j else combinations(u, j)):
            if v not in parent:
                parent[v] = u
                frontier.append(v)
            elif v != parent[u]:
                yield u, v


def j_components(
    h: Hypergraph, j: int
) -> tuple[list[ComponentSummary], dict[int, int]]:
    """Decompose into j-components (those containing at least one edge).

    Returns the component summaries, ordered by first appearance along the
    colex edge order, and a map from the colex rank of every j-set touched
    by an edge to its component id, in order of first touch along the edges.
    Isolated j-sets (order 1, size 0) are not materialized; their count is
    C(n, j) minus the sum of the orders (the map's length).  The witnesses
    come from `_witnesses`, which `components` shares to print from columns.
    """
    sizes, orders, flags, firsts, edge_cid, (keys, new) = _decompose(h, j)
    witnesses = _witnesses(h, j, flags, firsts, edge_cid, keys)
    summaries = list(map(ComponentSummary, range(len(sizes)), sizes.tolist(),
                         orders.tolist(), flags.tolist(), witnesses))
    # each distinct j-set's key, at the start of its run, and its first row
    starts = keys[new]
    first = (starts % len(keys)).astype(np.intp, copy=False)
    touch = np.argsort(first)
    jset_cid = edge_cid[first[touch] // math.comb(h.k, j)]
    return summaries, dict(zip((starts[touch] // len(keys)).tolist(), jset_cid.tolist()))


def _witnesses(h: Hypergraph, j: int, flags, firsts, edge_cid, keys) -> list[Optional[Wheel]]:
    # Per component, a wheel walked from its first edge, or None for a hypertree,
    # over one lookup of the keys whose rows lie in non-hypertree components
    count, fan = len(keys), math.comb(h.k, j)
    edge = (keys % count).astype(np.intp, copy=False) // fan
    edges_of = _edges_of(h.array, keys[~flags[edge_cid[edge]]], count, fan)
    starts = iter(map(tuple, h.array[firsts[~flags]].tolist()))
    return [None if flag else find_wheel(edges_of, j, next(starts)) for flag in flags.tolist()]


def _decompose(h: Hypergraph, j: int) -> tuple:
    # The j-components as columns: per component, in id order, its size,
    # order, hypertree flag and first edge; per edge, its component id; and
    # the sorted keys rank * count + row of every j-subset with, per key,
    # whether it starts a run of equal ranks (a new j-set).  Equal
    # neighbouring ranks are one j-set in two edges, a link, so a j-set in t
    # edges gives t - 1 links, a size-s component has order C(k,j)*s minus
    # its links, and it is a hypertree (order 1 + c0*s) iff its links number
    # s - 1.  A key's edge, key % count // C(k,j), is read only at the links.
    keys, count = _sorted_keys(h, j)
    fan = math.comb(h.k, j)
    # where each distinct rank starts; the ranks are freed before the links
    # are gathered, so that the two never share the peak
    ranks = keys // count
    new = np.empty(count, bool)
    new[:1] = True
    np.not_equal(ranks[1:], ranks[:-1], out=new[1:])
    del ranks
    link = ~new[1:]
    u = (keys[:-1][link] % count).astype(np.intp, copy=False)
    v = (keys[1:][link] % count).astype(np.intp, copy=False)
    u //= fan
    v //= fan
    # each root is its component's first edge; ids number the roots in edge order
    root = _least_connected(u, v, len(h.array))
    is_root = root == np.arange(len(root))
    edge_cid = (np.cumsum(is_root) - 1)[root]
    firsts = np.flatnonzero(is_root)
    sizes = np.bincount(edge_cid, minlength=len(firsts))
    orders = fan * sizes - np.bincount(edge_cid[u], minlength=len(sizes))
    return sizes, orders, orders == 1 + (fan - 1) * sizes, firsts, edge_cid, (keys, new)


def _least_connected(u: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    # Least edge of every edge's component in the graph on range(count)
    # whose links join edges u[i] and v[i], by hooking and shortcutting:
    # every root hooks onto the least root it shares a link with, then
    # pointer jumping flattens the trees.  Roots only ever hook onto smaller
    # roots, so the last root standing is the component's least edge.
    parent = np.arange(count)
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def find_wheel(edges_of: Callable, j: int, start: tuple) -> Optional[Wheel]:
    """Return a wheel of the j-component of `start`, or None if it is a hypertree.

    `start` is any edge or j-set of the component, and `edges_of` a
    `jset_lookup` over at least that component's edges.  A depth-first
    `walk` from `start` stops at the first arc that closes a cycle; the
    witness is arbitrary, not canonical, and reads only the component.
    """
    parent: dict[tuple, Optional[tuple]] = {}
    for u, v in walk(edges_of, j, start, parent, lifo=True):
        if v is not None:
            break
    else:
        return None
    # non-tree arc (u, v): the cycle runs from u up to the lowest common
    # ancestor, the first ancestor of v that is also one of u
    up_u = [u]
    while parent[up_u[-1]] is not None:
        up_u.append(parent[up_u[-1]])
    on_u = {x: i for i, x in enumerate(up_u)}
    up_v = [v]
    while up_v[-1] not in on_u:
        up_v.append(parent[up_v[-1]])
    path = up_u[:on_u[up_v[-1]] + 1] + up_v[-2::-1]  # u..lca + (lca..v reversed, lca dropped)
    if len(path[0]) == j:
        path = path[1:] + path[:1]
    return Wheel(edges=tuple(path[0::2]), jsets=tuple(path[1::2]))  # the cycle alternates


def brute_force_wheel_census(n: int, k: int, j: int, ell: int) -> int:
    """Count distinct wheels of length ell with vertices from [1, n].

    Exhaustive generation with canonicalization; sequences equal up to
    rotation or reversal are identified.  Cost grows like C(n, k)^ell, so a
    guard refuses n > 10 or ell > 4.
    """
    if ell < 2:
        raise ValidationError(f"wheel length must be >= 2, got {ell}")
    check_domain(n, k, j)
    if n > 10 or ell > 4:
        raise ResourceLimitError(f"census guard: need n <= 10 and ell <= 4, got n={n}, ell={ell}")

    ksets = [tuple(c) for c in combinations(range(1, n + 1), k)]
    seen: set[tuple] = set()

    def extend(edges: list[tuple[int, ...]], jsets: list[tuple[int, ...]]) -> None:
        i = len(jsets)  # about to pick J_{i+1} inside edges[i]
        if i == ell - 1:
            # last j-set must close the cycle into edges[0]
            closing = set(edges[-1]) & set(edges[0])
            for sub in combinations(sorted(closing), j):
                if sub in jsets:
                    continue
                w = Wheel(edges=tuple(edges), jsets=tuple(jsets) + (sub,))
                seen.add(w.canonical())
            return
        for sub in combinations(edges[-1], j):
            if sub in jsets:
                continue
            sub_set = set(sub)
            for cand in ksets:
                if cand in edges or not sub_set <= set(cand):
                    continue
                extend(edges + [cand], jsets + [sub])

    for first in ksets:
        extend([first], [])
    return len(seen)


# -- text format ------------------------------------------------------------
#
# First line: "n k m"; then m lines of k space-separated 1-based vertex ids,
# sorted ascending within a line, lines sorted by colex rank.


def write_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.k} {len(h.array)}"]
    lines.extend(" ".join(map(str, e)) for e in h.array.tolist())
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> Hypergraph:
    # Blank and whitespace-only lines are skipped: the header is the first
    # other line, and np.loadtxt skips them among the edges.
    lines = text.splitlines()
    top = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if top is None:
        raise ValidationError("empty hypergraph file")
    head = lines[top].split()
    if len(head) != 3:
        raise ValidationError(f"header must be 'n k m', got {lines[top]!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError as exc:
        raise ValidationError(f"non-integer header field in {lines[top]!r}") from exc
    body = lines[top + 1:]
    edges = None
    if any(map(str.strip, body)):  # else loadtxt warns that it found no data
        try:  # one conversion for the whole file; it accepts fewer spellings than int()
            edges = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
    if edges is None or len(edges) != m:
        # line by line: count the edges, word the first error, or keep ids past int64
        body = [ln for ln in body if ln.strip()]
        if len(body) != m:
            raise ValidationError(f"header declares {m} edges but file has {len(body)}")
        edges = []
        for ln in body:
            try:
                edges.append(tuple(int(x) for x in ln.split()))
            except ValueError as exc:
                raise ValidationError(f"non-integer vertex id in line {ln!r}") from exc
    return Hypergraph(n, k, edges)
