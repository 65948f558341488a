"""Random k-uniform hypergraphs and their j-connected components.

Two hyperedges lie in the same j-component when they are joined by a walk
of hyperedges whose consecutive intersections have at least j vertices,
that is, whose consecutive edges share a j-set.

Edges have one representation, the (m, k) integer array `Hypergraph.array`
in colex order; tuples appear only at the boundary (`Hypergraph.edges`,
built on each access, and witnesses).  Every array given to `Hypergraph`
or read from a file is checked one column at a time (ascent, then colex
order from the top column down).
`sample` draws its uniforms in blocks, turns them into geometric gaps and
cumulative colex ranks, and unranks them all at once (`unrank_array`);
ranks strictly ascending below C(n, k) unrank to distinct k-sets in colex
order, so its array is valid by construction and is not checked again.
One helper ranks every j-subset of every edge from the edge columns
(`rank_array`, with no gathered copy of the subsets), packs each rank with
the subset's row into one key, rank * count + row, in int32 where every key
fits (int64, then object, beyond), and sorts the keys by value; being
unique, they fall in the stable order of the ranks.  The keys are sorted
once per (hypergraph, j) and kept on the hypergraph, and one key array
serves the decomposition, the witnesses and every lookup.  Equal
neighbouring ranks link two edges through a shared j-set, and `_decompose`
finds the components of that edge graph by hook-and-shortcut
(`_least_connected`), reading a key's edge only at the links.
`jset_lookup` maps a j-set to its edges by bisecting the keys.  Over that
map one traversal, `walk`, serves the component search, coupling and the
wheel search, `find_wheel`, a depth-first walk from any edge or j-set of a
component; `_witnesses` runs it from each non-hypertree component's first
edge.  `j_components` adds its summaries and a j-set map from the keys'
run starts on top; `components` prints from the columns, counting the
isolated j-sets as C(n, j) minus the sum of the orders.

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
from functools import cache, partial
from itertools import chain, combinations, repeat
from typing import Callable, Iterator, Optional

import numpy as np

from .combinatorics import (MAX_TABLE_CELLS, check_domain, colex_dtype, comb_at_most, rank_array,
                            rank_subset, show_int, subset_masks, unrank_array)
from .errors import ResourceLimitError, ValidationError
from .rng import make_generator


class Hypergraph:
    """A k-uniform hypergraph on [1, n] with edges stored in colex order.

    `edges` is a sequence of vertex tuples or an (m, k) integer numpy array
    (an unsigned one is read as Python ints).  Either way the hypergraph
    keeps only one validated, read-only (m, k) array, `array` (int64, or
    object when a vertex passes the int64 range); `edges` builds the same
    edges as tuples on each access.  Only `sample` skips the check, through
    `_from_colex`, as it builds its array valid by construction.  The
    sorted j-subset keys of each j that is decomposed or looked up are kept
    on the hypergraph; equality and `repr` ignore them, and a pickle
    carries them.  An unpickled hypergraph's array is read-only too.
    """

    def __init__(self, n: int, k: int, edges) -> None:
        self.n, self.k = n, k
        self._jset_keys: dict[int, np.ndarray] = {}  # j -> `_sorted_keys(self, j)`
        if isinstance(edges, np.ndarray) and edges.dtype.kind == "u":
            edges = edges.tolist()  # Python ints: uint64 past int64 takes the object path
        if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.dtype.kind == "i":
            # C-contiguous for the lookup's flat view; a view, so the caller's stays writeable
            self.array = np.ascontiguousarray(edges, dtype=np.int64).view()
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

    @classmethod
    def _from_colex(cls, n: int, k: int, array: np.ndarray) -> Hypergraph:
        # `sample`'s constructor, which runs no `__post_init__`: `array` holds
        # distinct k-sets of [1, n] in colex order by construction
        h = cls.__new__(cls)
        h.n, h.k, h._jset_keys, h.array = n, k, {}, array
        array.flags.writeable = False
        return h

    def __setstate__(self, state: dict) -> None:
        # unpickling restores a writeable array; the keys come back as pickled
        self.__dict__.update(state)
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


@dataclass(frozen=True)
class Wheel:
    """A cyclic pair of sequences: distinct edges K_1..K_l and distinct
    j-sets J_1..J_l with jsets[i] contained in edges[i] & edges[i+1 mod l]."""

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
# Largest j-subset template of one k-set, C(k, j) subsets of j cells; the
# C(k, j) ranks per edge of a hypergraph are bounded by the edge budget.
# The template is built as Python objects, about 600 B per subset (at j = 1,
# C(k, 1) = 2^18 subsets peak at 190 MiB RSS), so the cap keeps it near
# 70 MiB; the largest template in use is 60 cells, at (k, j) = (6, 3).  It
# is built on each key build and dropped; only the last 8 `rank_array`
# holder maps are kept, under 30 MiB each at the cap.
MAX_TEMPLATE_CELLS = 1 << 16


def sample(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Sample H^k(n, p): each k-set is an edge independently with probability p.

    Iterates edge colex ranks directly via geometric gap skipping (the gap G
    to the next present edge has P(G = g) = (1-p)^(g-1) * p), so absent
    edges are never touched.  The uniforms are drawn a block at a time, the
    ranks are their cumulative gaps, and all ranks are unranked at once by
    `unrank_array`.  The ranks ascend strictly below C(n, k), so the rows
    are distinct k-sets of [1, n] in colex order by construction, and the
    hypergraph is built without `Hypergraph`'s check of its array.
    Identical (n, k, p, seed) give identical hypergraphs, bit for bit.
    """
    check_domain(n, k)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return Hypergraph._from_colex(n, k, _no_edges(k))
    if (k - 1) * n > MAX_TABLE_CELLS:
        raise ResourceLimitError(f"sampling needs colex tables of {show_int((k - 1) * n)} "
                                 f"entries, more than {MAX_TABLE_CELLS}")
    total = math.comb(n, k)
    dtype = colex_dtype(n, k)
    if p == 1.0:
        ranks = np.arange(total, dtype=dtype)
    else:
        ranks = _edge_ranks(total, p, make_generator(seed), dtype)
        if not len(ranks):  # no rank fell below C(n, k)
            return Hypergraph._from_colex(n, k, _no_edges(k))
    return Hypergraph._from_colex(n, k, unrank_array(ranks, k, n))


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
            q = np.negative(u)
            np.log1p(q, out=q)
            q /= log1mp
            # np.log1p can differ from math.log1p in the last ulp; recompute
            # every quotient close enough to an integer for that to move its floor
            off = np.rint(q)
            off -= q
            np.abs(off, out=off)
            near = (off <= 1e-9 * q).nonzero()[0]
        if len(near):
            q[near] = [math.log1p(-x) / log1mp for x in u[near].tolist()]
        # below the cap the int64 gaps are exact, and a capped gap passes total
        np.minimum(q, cap, out=q)
        gaps = (q.astype(np.int64) if dtype is np.int64 else np.floor(q.astype(object))) + 1
        # int64 sums may wrap only after they pass total, and are cut there
        ranks = last + gaps.cumsum()
        past = (ranks >= total).nonzero()[0]
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
        return 0, _no_edges(k)
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
    cols = e.T.copy()  # one contiguous row per column
    ok = cols[0] >= 1
    for c in range(1, k):
        ok &= cols[c] > cols[c - 1]
    ok &= cols[-1] <= n
    end = _first_false(ok)
    # colex order: at the highest position where consecutive edges differ,
    # the later edge holds the larger vertex; `tied` marks the pairs equal
    # on every column above c
    a, b = cols[:, :end][:, :-1], cols[:, 1:end]
    later, tied = np.zeros(a.shape[1], bool), np.ones(a.shape[1], bool)
    for c in range(k - 1, -1, -1):
        later |= tied & (b[c] > a[c])
        tied &= b[c] == a[c]
    return min(end, 1 + _first_false(later)), e


def _no_edges(k: int) -> np.ndarray:
    # numpy has no (0, k) array for k past its dimension range, and no
    # decomposition reads the columns of one past MAX_TEMPLATE_CELLS
    return np.empty((0, min(k, MAX_TEMPLATE_CELLS)), np.int64)


def _first_false(flags: np.ndarray) -> int:
    return int(np.argmin(flags)) if not flags.all() else len(flags)


def _check_subsets(n: int, k: int, j: int) -> None:
    check_domain(n, k, j)
    if comb_at_most(k, j, MAX_TEMPLATE_CELLS // j) is None:
        raise ResourceLimitError(
            f"the j-subsets of one k-set at (k, j) = ({show_int(k)}, {show_int(j)}) exceed "
            f"{MAX_TEMPLATE_CELLS} cells"
        )


def _sorted_keys(h: Hypergraph, j: int) -> np.ndarray:
    # Every edge's j-subsets as keys rank * count + row, sorted by value, where
    # count = len(keys) is the number of rows: row e*C(k,j) + i is edge e's
    # i-th j-subset in `combinations` order.  The keys are unique, so their
    # value order is the stable order of the ranks: key // count is the sorted
    # rank and key % count the row it sat in.  Keys lie below span =
    # C(n, j) * count: int32 for span < 2^31, int64 for span < 2^63 (if
    # `colex_dtype` is), else object.  `rank_array`'s largest product,
    # i * C(x, i) <= j * C(n, min(j, n // 2)) with i <= j and x < n, is below
    # span for j <= n/2, as count >= C(k, j) > j, and is checked beyond.
    if (keys := h._jset_keys.get(j)) is not None:
        return keys
    _check_subsets(h.n, h.k, j)
    subsets = tuple(combinations(range(h.k), j))
    count = len(h.array) * len(subsets)
    dtype = colex_dtype(h.n, j)
    if dtype is np.int64:  # else C(n, j) is too large to form cheaply
        span = math.comb(h.n, j) * count
        if max(span, math.comb(h.n, min(j, h.n // 2)) * j) < 2**31:
            dtype = np.int32
    keys = rank_array(h.array, subsets, dtype)
    if dtype is np.int64 and span >= 2**63:
        keys = keys.astype(object)
    # in place on the flat view, where row e*C(k,j) + i is the flat index;
    # the count-long range of rows stays below `_decompose`'s later peak
    keys = keys.reshape(-1)
    keys *= count
    keys += np.arange(count, dtype=keys.dtype)
    keys.sort()
    h._jset_keys[j] = keys
    return keys


def _run_starts(keys: np.ndarray) -> np.ndarray:
    # Per sorted key, whether it starts a run of equal ranks (a new j-set)
    ranks = keys // len(keys)
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(ranks[1:], ranks[:-1], out=new[1:])
    return new


def jset_lookup(h: Hypergraph, j: int) -> Callable[[tuple], list[tuple[int, ...]]]:
    """Return a function from a j-set (a sorted tuple) to the edges of `h`
    containing it, as tuples in colex order.  It ranks the j-set exactly and
    bisects the sorted keys rank * count + row of every edge's j-subsets
    (count = len(keys) rows, C(k,j) per edge) in place, for the run
    [rank * count, (rank + 1) * count); key % count // C(k,j) is the edge,
    the slice [e*k, e*k + k) of the flat C-contiguous `h.array`.  The keys
    are those `_sorted_keys` keeps on `h`, 4 or 8 bytes per j-subset (int32
    or int64, bisected through a memoryview of Python ints; object keys,
    past int64, bisect as a list).
    """
    keys = _sorted_keys(h, j)
    count, k, fan = len(keys), h.k, math.comb(h.k, j)
    keys = keys.tolist() if keys.dtype == object else memoryview(keys)
    rows, comb = h.array.reshape(-1), math.comb

    def edges_of(jset: tuple) -> list[tuple[int, ...]]:
        rank = 0
        for i, v in enumerate(jset, 1):
            rank += comb(v - 1, i)
        lo = bisect_left(keys, rank * count)
        edges = []
        for key in keys[lo:bisect_left(keys, (rank + 1) * count, lo)]:
            e = key % count // fan * k
            edges.append(tuple(rows[e:e + k].tolist()))
        return edges

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
    sizes, orders, flags, firsts, edge_cid = _decompose(h, j)
    witnesses = _witnesses(h, j, flags, firsts)
    summaries = list(map(ComponentSummary, range(len(sizes)), sizes.tolist(),
                         orders.tolist(), flags.tolist(), witnesses))
    # each distinct j-set's key, at the start of its run, and its first row
    keys = _sorted_keys(h, j)
    starts = keys[_run_starts(keys)]
    first = (starts % len(keys)).astype(np.intp, copy=False)
    touch = np.argsort(first)
    jset_cid = edge_cid[first[touch] // math.comb(h.k, j)]
    return summaries, dict(zip((starts[touch] // len(keys)).tolist(), jset_cid.tolist()))


def _witnesses(h: Hypergraph, j: int, flags, firsts) -> list[Optional[Wheel]]:
    # Per component, a wheel walked from its first edge, or None for a hypertree,
    # over one lookup: a j-set's run lies in one component
    edges_of = jset_lookup(h, j)
    starts = iter(map(tuple, h.array[firsts[~flags]].tolist()))
    return [None if flag else find_wheel(edges_of, j, next(starts)) for flag in flags.tolist()]


def _decompose(h: Hypergraph, j: int) -> tuple:
    # The j-components as columns: per component, in id order, its size,
    # order, hypertree flag and first edge; and per edge, its component id.
    # Equal neighbouring ranks of the sorted keys are one j-set in two edges,
    # a link, so a j-set in t edges gives t - 1 links, a size-s component has
    # order C(k,j)*s minus its links, and it is a hypertree (order 1 + c0*s)
    # iff its links number s - 1.  A key's edge, key % count // C(k,j), is
    # read only at the links.
    if not len(h.array):  # no component, and no keys to build past the template's check
        _check_subsets(h.n, h.k, j)
        empty = np.zeros(0, np.intp)
        return empty, empty, np.zeros(0, bool), empty, empty
    keys = _sorted_keys(h, j)
    count, fan = len(keys), math.comb(h.k, j)
    # a link joins the edges of a key that starts no run and of the key before it
    at = (~_run_starts(keys)).nonzero()[0]
    v = (keys[at] % count).astype(np.intp, copy=False) // fan
    at -= 1
    u = (keys[at] % count).astype(np.intp, copy=False) // fan
    del at
    # each root is its component's first edge; ids number the roots in edge
    # order, scattered over the roots, the only entries `root` reads
    root = _least_connected(u, v, len(h.array))
    ids = np.arange(len(root))
    firsts = (root == ids).nonzero()[0]
    ids[firsts] = np.arange(len(firsts))
    edge_cid = ids[root]
    sizes = np.bincount(edge_cid, minlength=len(firsts))
    orders = fan * sizes - np.bincount(edge_cid[u], minlength=len(sizes))
    return sizes, orders, orders == 1 + (fan - 1) * sizes, firsts, edge_cid


def _least_connected(u: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    # Least edge of every edge's component in the graph on range(count)
    # whose links join edges u[i] and v[i], by hooking and shortcutting:
    # every root hooks onto the least root it shares a link with, then
    # pointer jumping flattens the trees.  Roots only ever hook onto smaller
    # roots, so the last root standing is the component's least edge.  The
    # first round hooks each v onto its least u directly, as every node is
    # its own root and `_decompose` gives u < v (other links wait a round).
    # A link whose ends share a root stays so, and only the others hook again.
    parent = np.arange(count)
    if not len(u):
        return parent
    np.minimum.at(parent, v, u)
    while True:
        parent = _flatten(parent)
        pu, pv = parent[u], parent[v]
        apart = (pu != pv).nonzero()[0]
        if not len(apart):
            return parent
        u, v, pu, pv = u[apart], v[apart], pu[apart], pv[apart]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))


def _flatten(parent: np.ndarray) -> np.ndarray:
    # Every node's root in the forest of `parent`, which it may overwrite, by
    # pointer jumping over all nodes while over a quarter of them move, then
    # over the movers alone until each one's parent is a root.
    grand = parent[parent]
    moved = (grand != parent).nonzero()[0]
    while 4 * len(moved) > len(parent):
        parent = grand
        grand = parent[parent]
        moved = (grand != parent).nonzero()[0]
    up = grand[moved]
    while len(moved):
        parent[moved] = up
        grand = parent[up]
        still = grand != up
        moved, up = moved[still], grand[still]
    return parent


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

    Counts the sequences (K_1, J_1, ..., K_ell, J_ell) from K_1 = {1..k} and
    J_1 = {1..j}, each K_(i+1) built as J_i plus k - j vertices and the last
    j-set counted, not listed.  A wheel's edges are distinct, so no rotation
    or reversal fixes a sequence and each wheel is 2 * ell of them; Sym([n])
    maps wheels to wheels and is transitive on (k-set, j-subset) pairs, so
    the census is C(n, k) C(k, j) rooted / (2 ell), and a remainder raises.
    Up to (C(n-j, k-j) C(k, j))^(ell-1) edges are visited; a guard refuses
    n > 10 or ell > 4.
    """
    if ell < 2:
        raise ValidationError(f"wheel length must be >= 2, got {ell}")
    check_domain(n, k, j)
    if n > 10 or ell > 4:
        raise ResourceLimitError(f"census guard: need n <= 10 and ell <= 4, got n={n}, ell={ell}")

    masks = cache(partial(subset_masks, n))  # for this call alone

    def extend(edges: list[int], jsets: list[int]) -> int:
        # rooted sequences going on from edges[-1] through jsets[-1]
        nexts = [e for rest in masks(~jsets[-1], k - j) if (e := jsets[-1] | rest) not in edges]
        if len(edges) == ell - 1:  # the last j-set: a j-subset of e & K_1 not taken yet
            return sum(math.comb((e & edges[0]).bit_count(), j)
                       - sum(s & e & edges[0] == s for s in jsets) for e in nexts)
        return sum(extend(edges + [e], jsets + [s]) for e in nexts for s in masks(e, j) if s not in jsets)

    rooted = extend([(1 << k) - 1], [(1 << j) - 1])
    wheels, rest = divmod(math.comb(n, k) * math.comb(k, j) * rooted, 2 * ell)
    if rest:
        raise ArithmeticError(f"{rooted} rooted sequences do not split into wheels of {2 * ell}")
    return wheels


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
