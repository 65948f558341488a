import math
import pickle
import tracemalloc
from collections import deque
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperlab import hypergraph
from hyperlab.combinatorics import TheoryParams, colex_dtype, rank_subset
from hyperlab.errors import ResourceLimitError, ValidationError
from hyperlab.hypergraph import (
    MAX_TABLE_CELLS,
    Hypergraph,
    Wheel,
    brute_force_wheel_census,
    find_wheel,
    j_components,
    jset_lookup,
    read_hypergraph,
    sample,
    walk,
    write_hypergraph,
)
from hyperlab.rng import trial_seed


def graph_components_bfs(n, edges):
    """Plain adjacency-list BFS over vertices: the k=2, j=1 oracle."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    comps = []
    for v0 in sorted(adj):
        if v0 in seen:
            continue
        queue = deque([v0])
        seen.add(v0)
        comp = {v0}
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


class TestSampling:
    def test_p_zero_empty(self):
        assert sample(10, 3, 0.0, 123).edges == ()

    def test_p_one_complete(self):
        h = sample(5, 3, 1.0, 7)
        assert len(h.edges) == 10
        assert [rank_subset(e, 5) for e in h.edges] == list(range(10))

    def test_determinism_bit_for_bit(self):
        a = sample(60, 3, 0.01, 999)
        b = sample(60, 3, 0.01, 999)
        assert a.edges == b.edges
        c = sample(60, 3, 0.01, 1000)
        assert a.edges != c.edges

    def test_mean_edge_count_binomial(self):
        n, k, p = 100, 3, 1 / 196
        total = math.comb(n, k)
        counts = [len(sample(n, k, p, seed).edges) for seed in range(1000)]
        mean = sum(counts) / len(counts)
        sigma_mean = math.sqrt(total * p * (1 - p) / len(counts))
        assert abs(mean - total * p) <= 5 * sigma_mean

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            sample(3, 4, 0.5, 0)
        with pytest.raises(ValidationError):
            sample(10, 3, 1.5, 0)

    def test_refuses_tables_beyond_the_cap(self):
        with pytest.raises(ResourceLimitError, match=f"tables of {MAX_TABLE_CELLS + 2} entries"):
            sample(MAX_TABLE_CELLS // 2 + 1, 2, 1e-15, 0)
        with pytest.raises(ResourceLimitError, match=r"tables of n \* k entries"):
            sample(10**2200, 10**2200, 1e-15, 0)  # n * k is past the digit limit
        with pytest.raises(ResourceLimitError, match=r"tables of n \* k entries"):
            sample(10**5000, 3, 0.5, 0)  # so is n itself


class TestHypergraphType:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValidationError):
            Hypergraph(5, 3, ((1, 2, 3), (1, 2, 3)))

    def test_unsorted_edge_rejected(self):
        with pytest.raises(ValidationError):
            Hypergraph(5, 3, ((2, 1, 3),))

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValidationError):
            Hypergraph(5, 3, ((1, 2, 9),))

    def test_arity_past_numpy_dimensions(self):
        big = 10**2200
        assert Hypergraph(big, big, ()).edges == ()
        with pytest.raises(ValidationError, match="arity"):
            Hypergraph(big, big, ((1, 2, 3),))

    @pytest.mark.parametrize("edges", [np.array([1, 2, 3]), [1, 2, 3], np.array(3)])
    def test_flat_edges_rejected(self, edges):
        with pytest.raises(ValidationError, match="vertex sequences or a 2-D integer array"):
            Hypergraph(5, 3, edges)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
    def test_unsigned_arrays_accepted(self, dtype):
        edges = np.array([[1, 2, 3], [1, 2, 4]], dtype=dtype)
        h = Hypergraph(5, 3, edges)
        assert h.edges == ((1, 2, 3), (1, 2, 4)) and h.array.dtype == np.int64
        with pytest.raises(ValidationError, match="exceeds n=3"):
            Hypergraph(3, 3, edges)

    def test_uint64_past_int64_takes_python_ints(self):
        n = 2**64
        h = Hypergraph(n, 3, np.array([[1, 2, 3], [1, 2, n - 1]], dtype=np.uint64))
        assert h.array.dtype == object and h.edges == ((1, 2, 3), (1, 2, n - 1))
        assert [c.size for c in j_components(h, 2)[0]] == [2]

    def test_from_edges_sorts_by_rank(self):
        h = Hypergraph.from_edges(5, 3, [[1, 3, 4], [3, 2, 1]])
        assert h.edges == ((1, 2, 3), (1, 3, 4))

    def test_roundtrip_exact(self):
        h = sample(30, 3, 0.01, 4)
        assert read_hypergraph(write_hypergraph(h)) == h

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "5 3\n",
            "5 3 2\n1 2 3\n",            # wrong edge count
            "5 3 1\n1 2\n",              # wrong arity
            "5 3 1\n1 2 x\n",            # non-integer
            "5 3 2\n1 2 4\n1 2 3\n",     # not colex sorted
        ],
    )
    def test_malformed_files(self, text):
        with pytest.raises(ValidationError):
            read_hypergraph(text)


def per_edge_validate(n, k, edges):
    """The per-edge edge-list check that `Hypergraph` ran before it checked
    whole arrays; kept as the oracle for the array validator."""
    prev_rank = -1
    for e in edges:
        if len(e) != k:
            raise ValidationError(f"edge {e} does not have arity {k}")
        r = rank_subset(e, n)  # also validates sortedness and range
        if r <= prev_rank:
            raise ValidationError(f"edges must be distinct and sorted by colex rank near {e}")
        prev_rank = r


def odd_element(n):
    return st.one_of(
        st.integers(-2, n + 2),
        st.booleans(),
        st.floats(0, n + 1),
        st.integers(0, n + 1).map(np.int64),
        st.integers(2**63 - 2, 2**70),
    )


@st.composite
def edge_lists(draw):
    """A colex-sorted valid edge list, then up to three corruptions."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, min(n, 6)))
    pool = list(combinations(range(1, n + 1), k))
    edges = [list(e) for e in sorted(draw(st.sets(st.sampled_from(pool), max_size=8)),
                                     key=lambda e: rank_subset(e, n))]
    for _ in range(draw(st.integers(0, 3))):
        if not edges:
            break
        i = draw(st.integers(0, len(edges) - 1))
        kind = draw(st.sampled_from(["element", "swap", "duplicate", "shorten", "lengthen",
                                     "reorder", "tie"]))
        e = edges[i]
        if kind == "element" and e:
            e[draw(st.integers(0, len(e) - 1))] = draw(odd_element(n))
        elif kind == "swap" and len(e) > 1:
            a = draw(st.integers(0, len(e) - 2))
            e[a], e[a + 1] = e[a + 1], e[a]
        elif kind == "duplicate":
            edges.insert(i, list(e))
        elif kind == "shorten" and e:
            e.pop()
        elif kind == "lengthen":
            e.append(draw(odd_element(n)))
        elif kind == "reorder":
            edges.insert(draw(st.integers(0, len(edges))), edges.pop(i))
        elif kind == "tie" and i and e:
            # the previous edge's top columns, so that the colex check meets ties
            top = draw(st.integers(1, len(e)))
            e[-top:] = edges[i - 1][-top:]
    return n, k, tuple(tuple(e) for e in edges)


def outcome(check, n, k, edges):
    try:
        check(n, k, edges)
    except ValidationError as exc:
        return str(exc)
    return None


class TestArrayValidation:
    @settings(max_examples=600, deadline=None)
    @given(edge_lists())
    def test_matches_per_edge_oracle(self, case):
        n, k, edges = case
        assert outcome(Hypergraph, n, k, edges) == outcome(per_edge_validate, n, k, edges)

    def test_rejects_each_fault_with_its_message(self):
        cases = [
            (((1, 2),), "edge (1, 2) does not have arity 3"),
            (((1, 2, 3.0),), "subset elements must be integers, got 3.0"),
            (((1, np.int64(2), 3),), f"subset elements must be integers, got {np.int64(2)!r}"),
            (((1, 3, 2),), "subset must be sorted ascending without duplicates: [1, 3, 2]"),
            (((1, 2, 2**64),), f"subset element {2**64} exceeds n=5"),
            (((1, 2, 4), (1, 2, 3)), "edges must be distinct and sorted by colex rank near (1, 2, 3)"),
        ]
        for edges, message in cases:
            with pytest.raises(ValidationError) as info:
                Hypergraph(5, 3, edges)
            assert str(info.value) == message


def as_array(edges, k):
    """The (m, k) int64 array of the same edges; None when there is none
    (ragged rows, or an element that is not a plain int within int64)."""
    if len({len(e) for e in edges}) > 1 or any(type(v) is not int for e in edges for v in e):
        return None
    try:
        return np.array(edges, dtype=np.int64).reshape(len(edges), len(edges[0]) if edges else k)
    except OverflowError:
        return None


def read_outcome(text):
    try:
        h = read_hypergraph(text)
    except ValidationError as exc:
        return str(exc)
    return h, h.edges


# tokens int() reads (some of which np.loadtxt refuses) and tokens int() refuses
TOKENS = ["1", "2", "3", "4", "5", "6", "007", "+3", "-1", "0", "1_0", "\u0663", "3.0", "x",
          "9" * 20, "#"]


@st.composite
def edge_files(draw):
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4), max_size=5))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    rows = [f"9 3 {len(lines)}"] + [sep.join(line) for line in lines]
    # blank and whitespace-only lines anywhere, before the header too
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", " ", "\t", "\xa0"])))
    return "".join(row + "\n" for row in rows)


class TestOneRepresentation:
    @settings(max_examples=600, deadline=None)
    @given(edge_lists())
    def test_tuples_and_array_agree(self, case):
        n, k, edges = case
        array = as_array(edges, k)
        assume(array is not None)
        assert outcome(Hypergraph, n, k, array) == outcome(Hypergraph, n, k, edges)
        if outcome(Hypergraph, n, k, edges) is None:
            a, b = Hypergraph(n, k, edges), Hypergraph(n, k, array)
            assert a == b
            assert a.edges == b.edges == edges
            assert a.array.dtype == b.array.dtype == np.int64
            assert np.array_equal(a.array, array) and not a.array.flags.writeable
            for h in (a, b):
                back = read_hypergraph(write_hypergraph(h))
                assert back == a and back.edges == edges

    def test_keeps_only_the_array(self):
        edges = ((1, 2, 3), (1, 2, 4))
        given = np.array(edges, dtype=np.int64)
        for h in (Hypergraph(5, 3, edges), Hypergraph(5, 3, given)):
            assert vars(h).keys() == {"n", "k", "array", "_jset_keys"}
            assert h._jset_keys == {}
            assert h.edges == edges
        assert given.flags.writeable

    @settings(max_examples=400, deadline=None)
    @given(edge_files())
    def test_whole_file_parse_matches_the_per_line_loop(self, text):
        with mock.patch.object(np, "loadtxt", side_effect=ValueError):
            expected = read_outcome(text)
        assert read_outcome(text) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, outcome", [
        ("\n \n5 3 2\n\n1 2 3\n \t\n1 2 4\n\n", ((1, 2, 3), (1, 2, 4))),
        ("5 3 2\n \n\t\n", "header declares 2 edges but file has 0"),
        ("5 3 0\n\n1 2 3\n", "header declares 0 edges but file has 1"),
        ("5 3 1\n\n1 2 3\n1 2 x\n", "header declares 1 edges but file has 2"),
    ])
    def test_blank_lines_are_skipped(self, text, outcome):
        got = read_outcome(text)
        assert (got if isinstance(got, str) else got[1]) == outcome


class TestJComponents:
    def test_disjoint_pair_k3_j2(self):
        h = Hypergraph.from_edges(5, 3, [[1, 2, 3], [3, 4, 5]])
        comps, _ = j_components(h, 2)
        assert [(c.size, c.order, c.is_hypertree) for c in comps] == [(1, 3, True), (1, 3, True)]

    def test_shared_vertex_k3_j1(self):
        h = Hypergraph.from_edges(5, 3, [[1, 2, 3], [3, 4, 5]])
        comps, _ = j_components(h, 1)
        assert [(c.size, c.order, c.is_hypertree) for c in comps] == [(2, 5, True)]

    def test_triple_with_wheel(self):
        h = Hypergraph.from_edges(4, 3, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])
        comps, _ = j_components(h, 2)
        (c,) = comps
        assert (c.size, c.order, c.is_hypertree) == (3, 6, False)
        assert c.wheel_witness is not None and c.wheel_witness.length == 3
        c.wheel_witness.validate()

    def test_jset_map_and_isolated_count(self):
        h = Hypergraph.from_edges(5, 3, [[1, 2, 3]])
        comps, jmap = j_components(h, 2)
        assert set(jmap) == {rank_subset(s, 5) for s in [(1, 2), (1, 3), (2, 3)]}
        assert all(cid == 0 for cid in jmap.values())
        assert math.comb(5, 2) - len(jmap) == 7  # isolated j-sets

    def test_rejects_bad_j(self):
        h = Hypergraph.from_edges(5, 3, [[1, 2, 3]])
        with pytest.raises(ValidationError):
            j_components(h, 3)

    def test_refuses_subset_templates_beyond_the_cap(self):
        # C(2000, 1000) j-subsets per edge, and C(10**15, 3) of them
        for h, j in [(Hypergraph(3000, 2000, ()), 1000), (Hypergraph(10**15, 10**15, ()), 3)]:
            with pytest.raises(ResourceLimitError):
                j_components(h, j)

    def test_cap_is_per_edge_not_per_sample(self, monkeypatch):
        # the edge budget bounds m: a template of C(4, 3) * 3 = 12 cells
        # passes a cap of 12 however many edges share it
        h = sample(12, 4, 1.0, 0)
        monkeypatch.setattr(hypergraph, "MAX_TEMPLATE_CELLS", 12)
        comps, _ = j_components(h, 3)
        assert [c.size for c in comps] == [495]
        monkeypatch.setattr(hypergraph, "MAX_TEMPLATE_CELLS", 11)
        with pytest.raises(ResourceLimitError):
            j_components(h, 3)

    def test_sizes_partition_edges(self):
        params = TheoryParams(40, 3, 2, 0.3)
        for seed in range(20):
            h = sample(params.n, params.k, params.p, trial_seed(3, seed))
            comps, jmap = j_components(h, 2)
            assert sum(c.size for c in comps) == len(h.edges)
            # each edge belongs to exactly one component
            for e in h.edges:
                cids = {jmap[rank_subset(sub, 40)] for sub in combinations(e, 2)}
                assert len(cids) == 1

    def test_graph_case_matches_bfs_oracle(self):
        n = 50
        for p in (0.5 / n, 0.9 / n):
            for seed in range(50):
                h = sample(n, 2, p, trial_seed(11, seed))
                comps, jmap = j_components(h, 1)
                expected = graph_components_bfs(n, h.edges)
                got = {}
                for r, cid in jmap.items():
                    got.setdefault(cid, set()).add(r + 1)  # rank of 1-set {v} is v-1
                assert sorted(map(frozenset, got.values()), key=sorted) == sorted(
                    expected, key=sorted
                )
                by_vertexset = {frozenset(vs): cid for cid, vs in got.items()}
                for comp_vertices in expected:
                    cid = by_vertexset[comp_vertices]
                    size = sum(1 for e in h.edges if set(e) <= comp_vertices)
                    assert comps[cid].size == size
                    assert comps[cid].order == len(comp_vertices)


KJ_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]


@st.composite
def hypergraphs_and_j(draw):
    k, j = draw(st.sampled_from(KJ_PAIRS))
    n = draw(st.integers(k, 8))
    ksets = list(combinations(range(1, n + 1), k))
    picked = draw(st.lists(st.sampled_from(ksets), unique=True, max_size=20))
    return Hypergraph.from_edges(n, k, picked), j


def jset_bfs_oracle(h, j):
    """Plain BFS over j-sets, by scanning the edges: per component (in order
    of its first edge) its size, order and hypertree flag, and the j-set map
    as (rank, component id) pairs in first-touch order."""
    edges = list(h.edges)
    c0 = math.comb(h.k, j) - 1
    cid_of = {}
    comps = []
    for e0 in edges:
        if e0 in cid_of:
            continue
        cid = len(comps)
        cid_of[e0] = cid
        queue, jsets = deque([e0]), set()
        while queue:
            for s in combinations(queue.popleft(), j):
                jsets.add(s)
                for e in edges:
                    if e not in cid_of and set(s) <= set(e):
                        cid_of[e] = cid
                        queue.append(e)
        size = sum(c == cid for c in cid_of.values())
        comps.append((size, len(jsets), len(jsets) == 1 + c0 * size))
    touched = {}
    for e in edges:
        for s in combinations(e, j):
            touched.setdefault(rank_subset(s, h.n), cid_of[e])
    return comps, list(touched.items())


@st.composite
def crowded_hypergraphs(draw):
    # n close to k and many edges, so that most j-sets lie in several edges
    k, j = draw(st.sampled_from(KJ_PAIRS))
    n = draw(st.integers(k, k + 3))
    ksets = list(combinations(range(1, n + 1), k))
    picked = draw(st.lists(st.sampled_from(ksets), unique=True, max_size=len(ksets)))
    return Hypergraph.from_edges(n, k, picked), j


class TestDecompositionOracle:
    @staticmethod
    def assert_matches_oracle(h, j):
        comps, jmap = j_components(h, j)
        expected, touched = jset_bfs_oracle(h, j)
        assert [(c.size, c.order, c.is_hypertree) for c in comps] == expected
        assert list(jmap.items()) == touched

    @settings(max_examples=300, deadline=None)
    @given(crowded_hypergraphs())
    def test_matches_a_bfs_over_jsets(self, case):
        self.assert_matches_oracle(*case)

    @pytest.mark.parametrize("k, j", KJ_PAIRS)
    def test_no_edge_and_one_edge(self, k, j):
        self.assert_matches_oracle(Hypergraph(k + 2, k, ()), j)
        self.assert_matches_oracle(Hypergraph(k + 2, k, [tuple(range(2, k + 2))]), j)

    def test_object_dtype_ranks(self):
        n = 10**10
        assert colex_dtype(n, 2) is object
        h = Hypergraph.from_edges(n, 3, [(1, 2, n), (2, n - 1, n), (1, 2, 3), (3, 5 * 10**9, n),
                                         (2, 5 * 10**9, n - 1), (1, 3, n), (1, 2, n - 1)])
        for j in (1, 2):
            self.assert_matches_oracle(h, j)


ALL_KJ = [(k, j) for k in (2, 3, 4, 5, 6) for j in range(1, k)]


class TestSortedKeys:
    @staticmethod
    def assert_matches_stable_argsort(h, j):
        keys, count = hypergraph._sorted_keys(h, j)
        # exact scalar ranks, in object arrays so that no rank can wrap
        ranks = np.array([rank_subset(s, h.n) for e in h.edges for s in combinations(e, j)],
                         dtype=object)
        order = np.argsort(ranks, kind="stable")
        assert count == len(ranks)
        assert [key // count for key in keys.tolist()] == ranks[order].tolist()
        assert [key % count for key in keys.tolist()] == order.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_KJ), st.data())
    def test_matches_a_stable_argsort(self, kj, data):
        k, j = kj
        n = data.draw(st.integers(k, 9))
        ksets = list(combinations(range(1, n + 1), k))
        picked = data.draw(st.lists(st.sampled_from(ksets), unique=True, max_size=len(ksets)))
        self.assert_matches_stable_argsort(Hypergraph.from_edges(n, k, picked), j)

    @pytest.mark.parametrize("k, j", ALL_KJ)
    def test_empty_hypergraph(self, k, j):
        self.assert_matches_stable_argsort(Hypergraph(k + 2, k, ()), j)

    def test_object_dtype_ranks(self):
        n = 10**10
        assert colex_dtype(n, 2) is object
        h = Hypergraph.from_edges(n, 3, [(1, 2, n), (2, n - 1, n), (1, 2, 3), (3, 5 * 10**9, n),
                                         (2, 5 * 10**9, n - 1), (1, 3, n), (1, 2, n - 1)])
        for j in (1, 2):
            self.assert_matches_stable_argsort(h, j)
        assert hypergraph._sorted_keys(h, 2)[0].dtype == object

    def test_int64_ranks_whose_keys_pass_int64(self):
        # C(n, 2) ranks fit int64, but C(n, 2) * 6 keys do not
        n = 2**31 - 1
        assert colex_dtype(n, 2) is np.int64 and math.comb(n, 2) * 6 >= 2**63
        h = Hypergraph(n, 3, [(1, 2, 3), (1, 2, n)])
        assert hypergraph._sorted_keys(h, 2)[0].dtype == object
        self.assert_matches_stable_argsort(h, 2)
        comps, jmap = j_components(h, 2)
        assert [(c.size, c.order, c.is_hypertree) for c in comps] == [(2, 5, True)]
        assert list(jmap) == [0, 1, 2, rank_subset((1, n), n), rank_subset((2, n), n)]
        assert jset_lookup(h, 2)((1, 2)) == [(1, 2, 3), (1, 2, n)]
        assert jset_lookup(h, 2)((2, n)) == [(1, 2, n)]
        assert jset_lookup(h, 2)((3, n)) == []


class TestDecompositionMemory:
    @pytest.mark.parametrize("n, k, j", [(1000, 3, 2), (200, 4, 3)])
    def test_peak_stays_within_three_and_a_half_key_arrays(self, n, k, j):
        # the sorted keys and their run starts, with no gathered copy of the
        # edges, no row column and no filtered j-set map columns
        h = sample(n, k, TheoryParams(n, k, j, 0.3).p, trial_seed(5, 0))
        keys, _ = hypergraph._sorted_keys(h, j)
        tracemalloc.start()
        try:
            hypergraph._decompose(h, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * keys.nbytes


class TestJsetLookup:
    @staticmethod
    def assert_matches_scan(h, j, jsets):
        edges_of = jset_lookup(h, j)
        for s in jsets:
            assert edges_of(s) == [e for e in h.edges if set(s) <= set(e)]

    @settings(max_examples=300, deadline=None)
    @given(hypergraphs_and_j())
    def test_matches_a_scan_of_the_edges(self, case):
        h, j = case
        # every j-set of [n]: the touched ones and the untouched ones
        self.assert_matches_scan(h, j, combinations(range(1, h.n + 1), j))

    def test_object_dtype_ranks(self):
        n = 10**10
        assert colex_dtype(n, 2) is object
        h = Hypergraph.from_edges(n, 3, [(1, 2, n), (2, n - 1, n), (1, 2, 3), (3, 5 * 10**9, n),
                                         (2, 5 * 10**9, n - 1)])
        touched = {s for e in h.edges for s in combinations(e, 2)}
        untouched = [(1, n - 1), (4, n), (n - 2, n - 1)]
        self.assert_matches_scan(h, 2, sorted(touched) + untouched)

    def test_sorts_once_per_j(self):
        h = sample(30, 3, 0.02, 8)
        with mock.patch.object(hypergraph, "_sorted_keys", wraps=hypergraph._sorted_keys) as sorts:
            self.assert_matches_scan(h, 2, combinations(range(1, 31), 2))
            self.assert_matches_scan(h, 2, combinations(range(1, 31), 2))
            assert sorts.call_count == 1
            # a second j sorts its own keys, and the first j's stay as they were
            self.assert_matches_scan(h, 1, combinations(range(1, 31), 1))
            self.assert_matches_scan(h, 2, combinations(range(1, 31), 2))
            assert sorts.call_count == 2
        assert h._jset_keys.keys() == {1, 2}

    def test_decomposition_stores_no_keys(self):
        h = sample(30, 3, 0.02, 8)
        j_components(h, 2)
        assert h._jset_keys == {}

    def test_stored_keys_leave_equality_repr_and_pickle(self):
        h = sample(30, 3, 0.02, 8)
        jset_lookup(h, 2)
        fresh = Hypergraph(h.n, h.k, h.array)
        assert h == fresh and repr(h) == repr(fresh)
        back = pickle.loads(pickle.dumps(h))
        assert back == h and repr(back) == repr(h)
        self.assert_matches_scan(back, 2, combinations(range(1, 31), 2))

    @pytest.mark.parametrize("n", [30, 2**64, 2**31 - 1])  # int64 keys, object vertices, object keys
    def test_vertices_are_python_ints(self, n):
        # (1,2,3), (1,2,n) and (1,3,n) close a wheel through (1,2), (1,n) and (1,3)
        h = Hypergraph(n, 3, [(1, 2, 3), (1, 2, n), (1, 3, n)])
        edges_of = jset_lookup(h, 2)
        found = [f for e in h.edges for s in combinations(e, 2) for f in edges_of(s)]
        (comp,), _ = j_components(h, 2)
        witness = comp.wheel_witness.edges + comp.wheel_witness.jsets
        assert len(found) == 15 and len(witness) == 6
        assert all(type(v) is int for e in found + list(witness) for v in e)


class TestWalk:
    WHEEL = Hypergraph(6, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])  # every two edges share a 2-set

    def test_breadth_first_pops_parents_and_cycle_arcs(self):
        parent = {}
        events = list(walk(jset_lookup(self.WHEEL, 2), 2, (1, 2), parent))
        assert [u for u, v in events if v is None] == [
            (1, 2), (1, 2, 3), (1, 2, 4), (1, 3), (2, 3), (1, 4), (2, 4), (1, 3, 4), (3, 4)]
        # (1, 3, 4) was pushed from (1, 3), so its arcs to (1, 4) close the cycle
        assert [(u, v) for u, v in events if v is not None] == [
            ((1, 4), (1, 3, 4)), ((1, 3, 4), (1, 4))]
        assert parent[(1, 2)] is None and parent[(1, 3, 4)] == (1, 3)
        assert parent[(3, 4)] == (1, 3, 4) and len(parent) == 9

    def test_depth_first_from_an_edge(self):
        events = list(walk(jset_lookup(self.WHEEL, 2), 2, (1, 2, 3), {}, lifo=True))
        assert [u for u, v in events if v is None] == [
            (1, 2, 3), (2, 3), (1, 3), (1, 3, 4), (3, 4), (1, 4), (1, 2, 4), (2, 4), (1, 2)]
        assert next((u, v) for u, v in events if v is not None) == ((1, 2, 4), (1, 2))

    def test_hypertree_has_no_cycle_arc(self):
        h = Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        for lifo in (False, True):
            parent = {}
            events = list(walk(jset_lookup(h, 2), 2, (2, 3), parent, lifo=lifo))
            assert all(v is None for _, v in events) and len(events) == len(parent) == 10

    def test_unindexed_jset_is_popped_alone(self):
        assert list(walk(jset_lookup(self.WHEEL, 2), 2, (5, 6), {})) == [((5, 6), None)]


class TestWheels:
    def test_two_edge_hypertree_has_no_wheel(self):
        h = Hypergraph.from_edges(4, 3, [[1, 2, 3], [2, 3, 4]])
        assert find_wheel(jset_lookup(h, 2), 2, h.edges[0]) is None

    def test_single_edge_has_no_wheel(self):
        h = Hypergraph.from_edges(4, 3, [[1, 2, 3]])
        assert find_wheel(jset_lookup(h, 2), 2, h.edges[0]) is None

    def test_known_wheel_found(self):
        h = Hypergraph.from_edges(4, 3, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])
        w = find_wheel(jset_lookup(h, 2), 2, h.edges[0])
        assert w is not None and w.length == 3
        w.validate()
        expected = Wheel(
            edges=((1, 2, 3), (1, 2, 4), (1, 3, 4)),
            jsets=((1, 2), (1, 4), (1, 3)),
        )
        expected.validate()
        assert w == expected

    def test_canonical_rotation_reflection_equality(self):
        w = Wheel(
            edges=((1, 2, 3), (1, 2, 4), (1, 3, 4)),
            jsets=((1, 2), (1, 4), (1, 3)),
        )
        rotated = Wheel(
            edges=((1, 2, 4), (1, 3, 4), (1, 2, 3)),
            jsets=((1, 4), (1, 3), (1, 2)),
        )
        reflected = Wheel(
            edges=((1, 3, 4), (1, 2, 4), (1, 2, 3)),
            jsets=((1, 4), (1, 2), (1, 3)),
        )
        reflected.validate()
        assert w == rotated == reflected
        assert len({w, rotated, reflected}) == 1

    def test_invalid_wheel_rejected(self):
        with pytest.raises(ValidationError):
            Wheel(edges=((1, 2, 3), (1, 4, 5)), jsets=((1, 2), (1, 4))).validate()

    def test_hypertree_iff_no_wheel_on_samples(self):
        # densities beyond critical so wheels actually occur
        cases = []
        for k, j in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
            c0 = math.comb(k, j) - 1
            for n in (16, 24):
                p0 = 1 / (c0 * math.comb(n - j, k - j))
                for mult in (0.5, 1.5, 3.0):
                    cases.append((n, k, j, min(1.0, mult * p0)))
        count = 0
        for n, k, j, p in cases:
            for seed in range(8):
                h = sample(n, k, p, trial_seed(17, 1000 * count + seed))
                comps, jmap = j_components(h, j)
                edges_of = jset_lookup(h, j)
                c0 = math.comb(k, j) - 1
                groups = {}
                for e in h.edges:
                    cid = jmap[rank_subset(next(iter(combinations(e, j))), n)]
                    groups.setdefault(cid, []).append(e)
                for c in comps:
                    wheel = find_wheel(edges_of, j, groups[c.id][0])
                    assert c.is_hypertree == (c.order == 1 + c0 * c.size)
                    assert c.is_hypertree == (wheel is None)
                    if wheel is not None:
                        wheel.validate()
            count += 1
        assert count == len(cases)


class TestFindWheel:
    @staticmethod
    def raw(w):
        return None if w is None else (w.edges, w.jsets)

    def test_every_start_gives_a_wheel_of_its_component(self):
        n, k, j = 16, 3, 2
        p = 3 / (2 * math.comb(n - j, k - j))
        witnesses = 0
        for seed in range(20):
            h = sample(n, k, p, trial_seed(19, seed))
            comps, jmap = j_components(h, j)
            edges_of = jset_lookup(h, j)
            groups = {}
            for e in h.edges:
                groups.setdefault(jmap[rank_subset(e[:j], n)], []).append(e)
            for c in comps:
                if c.is_hypertree:
                    continue
                edges = groups[c.id]
                jsets = {s for e in edges for s in combinations(e, j)}
                for start in edges + sorted(jsets):
                    w = find_wheel(edges_of, j, start)
                    w.validate()
                    assert set(w.edges) <= set(edges)
                # from the first edge, the walk is the one j_components makes
                assert self.raw(find_wheel(edges_of, j, edges[0])) == self.raw(c.wheel_witness)
                witnesses += 1
        assert witnesses > 0

    def test_a_disjoint_wheel_elsewhere_changes_nothing(self):
        wheel = [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
        h = Hypergraph.from_edges(9, 3, wheel)
        both = Hypergraph.from_edges(9, 3, wheel + [(5, 6, 7), (5, 6, 8), (5, 7, 8)])
        alone = find_wheel(jset_lookup(h, 2), 2, wheel[0])
        assert self.raw(find_wheel(jset_lookup(both, 2), 2, wheel[0])) == self.raw(alone)
        comps, _ = j_components(both, 2)
        assert [c.is_hypertree for c in comps] == [False, False]
        assert self.raw(comps[0].wheel_witness) == self.raw(alone)

    def test_j_components_builds_at_most_one_lookup(self):
        # and sorts the j-subsets once: the witnesses read the decomposition's keys
        two_wheels = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (5, 6, 7), (5, 6, 8), (5, 7, 8)]
        for edges in (two_wheels, [(1, 2, 3), (2, 3, 4)]):
            h = Hypergraph.from_edges(9, 3, edges)
            lookups = mock.patch.object(hypergraph, "jset_lookup", wraps=hypergraph.jset_lookup)
            sorts = mock.patch.object(hypergraph, "_sorted_keys", wraps=hypergraph._sorted_keys)
            with lookups as lookup_spy, sorts as sort_spy:
                comps, _ = j_components(h, 2)
            assert lookup_spy.call_count <= 1
            assert sort_spy.call_count == 1
            assert all(c.is_hypertree == (c.wheel_witness is None) for c in comps)


class TestWheelCensus:
    def test_length_two_impossible_for_k3_j2(self):
        assert brute_force_wheel_census(4, 3, 2, 2) == 0

    def test_graph_triangles(self):
        assert brute_force_wheel_census(5, 2, 1, 3) == math.comb(5, 3)

    def test_apex_family_k3_j2(self):
        # every length-3 wheel with k=3, j=2 is an apex plus three outer
        # vertices, one wheel per choice
        assert brute_force_wheel_census(8, 3, 2, 3) == 8 * math.comb(7, 3)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            brute_force_wheel_census(11, 3, 2, 3)
        with pytest.raises(ResourceLimitError):
            brute_force_wheel_census(8, 3, 2, 5)

    def test_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            brute_force_wheel_census(8, 3, 2, 1)
