import math
import tracemalloc
from unittest import mock

import pytest

from hyperlab import hypergraph, processes
from hyperlab.combinatorics import TheoryParams, rank_subset
from hyperlab.errors import ResourceLimitError, ValidationError
from hyperlab.hypergraph import Hypergraph, j_components, sample
from hyperlab.processes import (
    branching_with_rate,
    coupled_run,
    format_trace,
    search_component,
)
from hyperlab.rng import trial_seed


class TestSearch:
    def test_isolated_start(self):
        h = Hypergraph.from_edges(5, 3, [])
        tr = search_component(h, 2, (1, 2))
        assert (tr.size, tr.order) == (0, 1)

    def test_two_edge_component(self):
        h = Hypergraph.from_edges(4, 3, [[1, 2, 3], [2, 3, 4]])
        tr = search_component(h, 2, (2, 3))
        assert (tr.size, tr.order) == (2, 5)

    def test_fifo_pops_and_trace_format(self):
        h = Hypergraph.from_edges(4, 3, [[1, 2, 3], [2, 3, 4]])
        tr = search_component(h, 2, (2, 3))
        lines = format_trace(tr)
        assert lines[0] == "STEP 0 POP J 2,3"
        assert lines[1] == "STEP 1 POP K 1,2,3"
        assert lines[2] == "STEP 2 POP K 2,3,4"
        # breadth-first: both edges pop before any second-generation j-set
        kinds = [kind for kind, _ in tr.pops]
        assert kinds[:3] == ["J", "K", "K"]

    def test_every_discovered_kset_contains_discovered_jset(self):
        params = TheoryParams(30, 3, 2, 0.3)
        h = sample(params.n, params.k, params.p, 12)
        start = h.edges[0][:2]
        tr = search_component(h, 2, start)
        for e in tr.discovered_ksets:
            assert any(set(jset) <= set(e) for jset in tr.discovered_jsets)

    def test_agreement_with_union_find_oracle(self):
        params = TheoryParams(40, 3, 2, 0.3)
        for seed in range(100):
            h = sample(params.n, params.k, params.p, trial_seed(23, seed))
            if not h.edges:
                continue
            comps, jmap = j_components(h, 2)
            start = h.edges[0][:2]
            from hyperlab.combinatorics import rank_subset

            cid = jmap[rank_subset(start, 40)]
            tr = search_component(h, 2, start)
            assert (tr.size, tr.order) == (comps[cid].size, comps[cid].order)

    def test_malformed_start(self):
        h = Hypergraph.from_edges(5, 3, [])
        with pytest.raises(ValidationError):
            search_component(h, 2, (1, 2, 3))
        with pytest.raises(ValidationError):
            search_component(h, 2, (2, 1))

    def test_bad_start_is_refused_before_the_lookup(self, monkeypatch):
        lookups = []
        monkeypatch.setattr(processes, "jset_lookup", lambda *args: lookups.append(args))
        h = Hypergraph.from_edges(5, 3, [[1, 2, 3], [2, 3, 4]])
        for start in [(1, 2, 3), (2, 1), (1, 6)]:
            with pytest.raises(ValidationError):
                search_component(h, 2, start)
        assert lookups == []


class TestBranching:
    def test_p_zero_single_vertex(self):
        t = branching_with_rate(10, 3, 2, 0.0, (1, 2), seed=1)
        assert t.size == 0 and len(t.types) == 1 and not t.truncated

    def test_type_count_identity(self):
        params = TheoryParams(30, 3, 2, 0.3)
        for seed in range(200):
            t = branching_with_rate(params.n, params.k, params.j, params.p, (1, 2), seed)
            assert t.count_type_j() == 1 + params.c0 * t.size

    def test_distinct_sibling_k_labels(self):
        params = TheoryParams(20, 3, 2, 0.5)
        for seed in range(100):
            t = branching_with_rate(params.n, params.k, params.j, params.p, (1, 2), seed)
            for v, kind in enumerate(t.types):
                if kind != "j":
                    continue
                labels = [t.labels[c] for c in t.children[v]]
                assert len(labels) == len(set(labels))

    def test_k_vertex_children_are_its_other_jsets(self):
        params = TheoryParams(15, 4, 2, 0.4)
        t = branching_with_rate(params.n, params.k, params.j, params.p, (1, 2), 3)
        for v, kind in enumerate(t.types):
            if kind != "k":
                continue
            parent_label = t.labels[t.parents[v]]
            klabel = set(t.labels[v])
            assert set(parent_label) <= klabel
            child_labels = {t.labels[c] for c in t.children[v]}
            assert len(child_labels) == params.c0
            from itertools import combinations

            expected = {s for s in combinations(sorted(klabel), 2) if s != parent_label}
            assert child_labels == expected

    def test_offspring_mean_five_sigma(self):
        params = TheoryParams(30, 3, 2, 0.3)
        target = params.supersets_per_jset * params.p  # = (1 - eps) / c0
        assert target == pytest.approx((1 - 0.3) / 2)
        total_k = 0
        total_j = 0
        seed = 0
        while total_j < 100_000:
            t = branching_with_rate(params.n, params.k, params.j, params.p, (1, 2), seed)
            total_k += t.size
            total_j += t.count_type_j()
            seed += 1
        mean = total_k / total_j
        sigma = math.sqrt(target * (1 - params.p) / total_j)
        assert abs(mean - target) <= 5 * sigma

    def test_pop_memory_is_the_draws(self):
        # one pop at n = 4,000,000 draws n - 1 doubles (30.5 MiB); mapping its
        # hits to vertices must not list the n - 1 vertices outside the root
        params = TheoryParams(4_000_000, 2, 1, 0.3)
        tracemalloc.start()
        try:
            branching_with_rate(params.n, params.k, params.j, params.p, (1,), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_cap_truncates_with_flag(self):
        # p = 1 makes the process explode immediately
        t = branching_with_rate(12, 3, 2, 1.0, (1, 2), seed=0, cap=10)
        assert t.truncated and t.size == 10
        assert t.count_type_j() == 1 + 2 * t.size

    def test_cap_validation(self):
        for cap in (0, -1):
            with pytest.raises(ValidationError, match="cap must be >= 1"):
                branching_with_rate(10, 3, 2, 0.1, (1, 2), seed=0, cap=cap)

    def test_refuses_bad_n_k_j(self):
        # j >= k, j < 1, k > n and k < 2 have no process to run
        for n, k, j in [(10, 3, 3), (10, 3, 4), (10, 3, 0), (2, 3, 1), (10, 1, 1)]:
            with pytest.raises(ValidationError):
                branching_with_rate(n, k, j, 0.1, tuple(range(1, j + 1)), seed=0)


class TestFanOutRefusal:
    # At (n, k, j) = (60, 60, 30) each k-set has C(60, 30) j-subsets: one
    # branching hit, or one popped edge, would list them all.
    START = tuple(range(1, 31))
    H = Hypergraph(60, 60, [tuple(range(1, 61))])

    def test_branching(self):
        with pytest.raises(ResourceLimitError):
            branching_with_rate(60, 60, 30, 1.0, self.START, seed=0)

    def test_search(self):
        with pytest.raises(ResourceLimitError):
            search_component(self.H, 30, self.START)

    def test_coupling(self):
        with pytest.raises(ResourceLimitError):
            coupled_run(self.H, TheoryParams(60, 60, 30, 0.3), self.START, 0)

    def test_draws_per_pop(self):
        # C(10**5 - 1, 2) uniforms per popped j-set, about 37 GiB of doubles;
        # C(10**15 - 1, 2**16 - 1) is refused without being computed
        with pytest.raises(ResourceLimitError, match="uniforms"):
            branching_with_rate(10**5, 3, 1, 0.0, (1,), 0)
        with pytest.raises(ResourceLimitError, match="uniforms"):
            coupled_run(Hypergraph(10**5, 3, ()), TheoryParams(10**5, 3, 1, 0.3), (1,), 0)
        with pytest.raises(ResourceLimitError, match="uniforms"):
            branching_with_rate(10**15, 2**16, 1, 0.0, (1,), 0)


class TestCoupling:
    def test_empty_hypergraph(self):
        params = TheoryParams(30, 3, 2, 0.3)
        h = Hypergraph.from_edges(30, 3, [])
        assert coupled_run(h, params, (1, 2), 7) == (0, 0)

    def test_single_edge_component(self):
        params = TheoryParams(30, 3, 2, 0.3)
        h = Hypergraph.from_edges(30, 3, [[1, 2, 3]])
        comp, branch = coupled_run(h, params, (1, 2), 7)
        assert comp == 1
        assert branch >= comp

    def test_determinism(self):
        params = TheoryParams(40, 3, 2, 0.3)
        h = sample(params.n, params.k, params.p, 5)
        start = h.edges[0][:2] if h.edges else (1, 2)
        assert coupled_run(h, params, start, 99) == coupled_run(h, params, start, 99)

    def test_dominance_small_sweep(self):
        for kk, jj in [(2, 1), (3, 2)]:
            params = TheoryParams(40, kk, jj, 0.3)
            for s in range(200):
                h = sample(params.n, params.k, params.p, trial_seed(31, s))
                start = h.edges[0][:jj] if h.edges else tuple(range(1, jj + 1))
                comp, branch = coupled_run(h, params, start, trial_seed(37, s))
                assert branch >= comp

    def test_cap_validation(self):
        # with cap 0 the branching size would fall below the component size
        params = TheoryParams(60, 3, 2, 0.3)
        h = sample(params.n, params.k, params.p, 1)
        for cap in (0, -1):
            with pytest.raises(ValidationError, match="cap must be >= 1"):
                coupled_run(h, params, h.edges[0][:2], 0, cap=cap)

    def test_mismatched_params_rejected(self):
        params = TheoryParams(30, 3, 2, 0.3)
        h = Hypergraph.from_edges(29, 3, [])
        with pytest.raises(ValidationError):
            coupled_run(h, params, (1, 2), 0)

    def test_one_sort_across_starts(self):
        # c04's (1000, 3, 2) sample: every start after the first reuses the keys
        params = TheoryParams(1000, 3, 2, 0.3)
        h = sample(params.n, params.k, params.p, trial_seed(700, 0))
        comps, jmap = j_components(h, 2)
        edges = h.edges
        starts = [e[:2] for e in edges[::len(edges) // 25]] + [(999, 1000)]
        with mock.patch.object(hypergraph, "_sorted_keys", wraps=hypergraph._sorted_keys) as sorts:
            for i, start in enumerate(starts):
                comp, branch = coupled_run(h, params, start, trial_seed(800, i))
                cid = jmap.get(rank_subset(start, params.n))
                assert comp == (0 if cid is None else comps[cid].size) <= branch
            trace = search_component(h, 2, starts[0])
        assert trace.size == comps[jmap[rank_subset(starts[0], params.n)]].size
        assert len(starts) == 27 and sorts.call_count == 1

    def test_stored_keys_leave_results_unchanged(self):
        params = TheoryParams(40, 3, 2, 0.3)
        h = sample(params.n, params.k, params.p, trial_seed(41, 0))
        starts = [e[:2] for e in h.edges[:4]] + [(39, 40)]
        assert len(starts) == 5
        for i, start in enumerate(starts):
            fresh = Hypergraph(h.n, h.k, h.array)
            assert coupled_run(h, params, start, i) == coupled_run(fresh, params, start, i)
            assert format_trace(search_component(h, 2, start)) == format_trace(
                search_component(Hypergraph(h.n, h.k, h.array), 2, start))
