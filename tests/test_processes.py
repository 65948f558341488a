import math
import pickle
import tracemalloc
from collections import Counter, deque
from functools import partial
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from hyperlab import hypergraph, processes
from hyperlab.combinatorics import TheoryParams, rank_subset, unrank_subset
from hyperlab.errors import ResourceLimitError, ValidationError
from hyperlab.hypergraph import Hypergraph, j_components, sample
from hyperlab.processes import (
    MAX_DRAWS,
    TwoTypeTree,
    branching_with_rate,
    coupled_run,
    search_component,
)
from hyperlab.rng import make_generator, trial_seed
from tests.conftest import KS_TWO_SIDED, format_trace, hitting_time_pmf, ks_distance

PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]


def reference_branch(n, k, j, p, root, seed, cap, spawn=lambda jlabel, hits: hits):
    # The free process with one fresh rng.random(N) array per popped j-set,
    # the draw that the preallocated buffers replaced; `spawn` as in `_branch`.
    rng = make_generator(seed)
    n_candidates = math.comb(n - j, k - j)
    tree = TwoTypeTree()
    tree.add("j", root, None)
    queue = deque([0])
    while queue:
        u_idx = queue.popleft()
        jlabel = tree.labels[u_idx]
        hits = []
        for i in np.flatnonzero(rng.random(n_candidates) < p).tolist():
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


def reference_first_query_rule(edges, j, pops):
    # coupled_run's rule in full: a k-set was queried before if any of its
    # j-subsets was expanded, a popped j-set's edges are those of `edges`
    # holding it, and fresh and repeat k-sets are always sorted together
    # (colex); `pops` counts the pops with repeats and those the sort reordered
    expanded = set()

    def queried(e):
        return any(sub in expanded for sub in combinations(e, j))

    def rule(jlabel, hits):
        fresh = [e for e in edges if set(jlabel) <= set(e) and not queried(e)]
        repeats = [e for e in hits if queried(e)]
        expanded.add(jlabel)
        merged = sorted(fresh + repeats, key=lambda e: e[::-1])
        pops["repeats"] += bool(repeats)
        pops["reordered"] += merged != fresh + repeats
        return merged

    return rule


class TestSearch:
    def test_isolated_start(self):
        h = Hypergraph(5, 3, [])
        tr = search_component(h, 2, (1, 2))
        assert (tr.size, tr.order) == (0, 1)

    def test_two_edge_component(self):
        h = Hypergraph(4, 3, [[1, 2, 3], [2, 3, 4]])
        tr = search_component(h, 2, (2, 3))
        assert (tr.size, tr.order) == (2, 5)

    def test_fifo_pops_and_trace_format(self):
        h = Hypergraph(4, 3, [[1, 2, 3], [2, 3, 4]])
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
        jsets = [label for kind, label in tr.pops if kind == "J"]
        for e in (label for kind, label in tr.pops if kind == "K"):
            assert any(set(jset) <= set(e) for jset in jsets)

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
        h = Hypergraph(5, 3, [])
        with pytest.raises(ValidationError):
            search_component(h, 2, (1, 2, 3))
        with pytest.raises(ValidationError):
            search_component(h, 2, (2, 1))

    def test_bad_start_is_refused_before_the_lookup(self, monkeypatch):
        lookups = []
        monkeypatch.setattr(processes, "jset_lookup", lambda *args: lookups.append(args))
        h = Hypergraph(5, 3, [[1, 2, 3], [2, 3, 4]])
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
            assert len(t.types) - t.size == 1 + params.c0 * t.size

    def test_distinct_sibling_k_labels(self):
        params = TheoryParams(20, 3, 2, 0.5)
        for seed in range(100):
            t = branching_with_rate(params.n, params.k, params.j, params.p, (1, 2), seed)
            for v, kind in enumerate(t.types):
                if kind != "j":
                    continue
                labels = [t.labels[c] for c, u in enumerate(t.parents) if u == v]
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
            child_labels = {t.labels[c] for c, u in enumerate(t.parents) if u == v}
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
            total_j += len(t.types) - t.size
            seed += 1
        mean = total_k / total_j
        sigma = math.sqrt(target * (1 - params.p) / total_j)
        assert abs(mean - target) <= 5 * sigma

    @pytest.mark.parametrize("n, k, j", [(30, 3, 2), (14, 4, 2), (12, 4, 3), (200, 2, 1)])
    def test_size_law_ks(self, n, k, j):
        # each j-set draws Binomial(N, p) k-children, N = C(n-j, k-j): the
        # hitting-time law of `hitting_time_pmf`
        params = TheoryParams(n, k, j, 0.3)
        trees = 5_000
        sizes = [branching_with_rate(n, k, j, params.p, tuple(range(1, j + 1)), seed).size
                 for seed in range(900_000, 900_000 + trees)]
        law = partial(hitting_time_pmf, params.supersets_per_jset, params.c0, params.p)
        assert ks_distance(sizes, law) < KS_TWO_SIDED / math.sqrt(trees)

    def test_pop_memory_is_the_draws(self):
        # one pop at n = 4,000,000 draws n - 1 words (30.5 MiB); mapping its
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
        assert len(t.types) - t.size == 1 + 2 * t.size

    def test_cap_validation(self):
        for cap in (0, -1):
            with pytest.raises(ValidationError, match="cap must be >= 1"):
                branching_with_rate(10, 3, 2, 0.1, (1, 2), seed=0, cap=cap)

    @pytest.mark.parametrize("k, j", PAIRS)
    def test_draws_match_one_array_per_pop(self, k, j):
        # n = k leaves one candidate k-set per pop; p at mean offspring 3
        # grows trees past the small caps, and p = 1 - 2**-53 and 5e-324 put
        # the word threshold one step inside each end of the word range
        def p_at(n, mean):
            return min(1.0, mean / ((math.comb(k, j) - 1) * math.comb(n - j, k - j)))

        root = tuple(range(1, j + 1))
        shapes = Counter()
        for n, p, cap in [(k, p_at(k, 0.9), 40), (k, p_at(k, 3), 8), (12, p_at(12, 3), 6),
                          (12, p_at(12, 0.9), processes.DEFAULT_CAP),
                          (30, p_at(30, 0.9), processes.DEFAULT_CAP),
                          (12, 1 - 2**-53, 6), (12, 5e-324, processes.DEFAULT_CAP)]:
            for seed in range(25):
                tree = branching_with_rate(n, k, j, p, root, seed, cap)
                assert tree == reference_branch(n, k, j, p, root, seed, cap)
                shapes[tree.truncated, tree.size > 0] += 1
        assert shapes[True, True] and shapes[False, True] and shapes[False, False]

    @pytest.mark.parametrize("p", [0.0, 5e-324, 2**-53, math.nextafter(3 * 2**-53, 0), 3 * 2**-53,
                                   math.nextafter(3 * 2**-53, 1), 0.25, 1 - 2**-53, 1.0])
    def test_hits_at_the_word_threshold(self, monkeypatch, p):
        # rng.random() makes the word w the double (w >> 11) * 2**-53, so a
        # candidate hits iff w < ceil(p * 2**53) * 2**11.  Seeded words land
        # on that edge about once in 2**53, so the root draws words crafted
        # on both sides of it; every later pop draws the top word, which no
        # p < 1 hits.
        c = math.ceil(p * 2**53)
        words = sorted({w for w in (c * 2**11 - 1, c * 2**11, (c - 1) * 2**11, (c - 1) * 2**11 + 2047)
                        if 0 <= w < 2**64})
        draws = [np.array(words, np.uint64)]

        def random_raw(size):
            assert size == len(words)
            return draws.pop() if draws else np.full(size, 2**64 - 1, np.uint64)

        fake = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))
        monkeypatch.setattr(processes, "make_generator", lambda seed: fake)
        # (n, 2, 1) with root (1,): candidate i is the edge (1, i + 2)
        tree = branching_with_rate(len(words) + 1, 2, 1, p, (1,), 0, cap=len(words))
        children = [label for label, parent in zip(tree.labels, tree.parents) if parent == 0]
        assert children == [(1, i + 2) for i, w in enumerate(words) if (w >> 11) * 2**-53 < p]

    def test_over_max_draws_refused_before_any_buffer(self):
        # MAX_DRAWS + 1 candidates per pop: their words and hits would take 36 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="uniforms"):
                branching_with_rate(MAX_DRAWS + 2, 2, 1, 0.0, (1,), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
        # C(10**5 - 1, 2) uniforms per popped j-set, about 37 GiB of words;
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
        h = Hypergraph(30, 3, [])
        assert coupled_run(h, params, (1, 2), 7) == (0, 0)

    def test_single_edge_component(self):
        params = TheoryParams(30, 3, 2, 0.3)
        h = Hypergraph(30, 3, [[1, 2, 3]])
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
        h = Hypergraph(29, 3, [])
        with pytest.raises(ValidationError):
            coupled_run(h, params, (1, 2), 0)

    def test_one_sort_across_starts(self):
        # c04's (1000, 3, 2) sample: every start reuses the decomposition's keys
        params = TheoryParams(1000, 3, 2, 0.3)
        h = sample(params.n, params.k, params.p, trial_seed(700, 0))
        comps, jmap = j_components(h, 2)
        edges = h.edges
        starts = [e[:2] for e in edges[::len(edges) // 25]] + [(999, 1000)]
        with mock.patch.object(hypergraph, "rank_array", wraps=hypergraph.rank_array) as sorts:
            for i, start in enumerate(starts):
                comp, branch = coupled_run(h, params, start, trial_seed(800, i))
                cid = jmap.get(rank_subset(start, params.n))
                assert comp == (0 if cid is None else comps[cid].size) <= branch
            trace = search_component(h, 2, starts[0])
        assert trace.size == comps[jmap[rank_subset(starts[0], params.n)]].size
        assert len(starts) == 27 and sorts.call_count == 0

    @pytest.mark.parametrize("cap", [processes.DEFAULT_CAP, 5])
    def test_each_jset_looked_up_once(self, monkeypatch, cap):
        # The walk that sizes the component rereads the branching's lookups:
        # an untruncated run looks up exactly the labels its branching popped.
        lookup, branch = processes.jset_lookup, processes._branch
        asked, trees = [], []

        def counting_lookup(h, j):
            edges_of = lookup(h, j)
            return lambda jset: asked.append(jset) or edges_of(jset)

        def keeping_branch(*args):
            trees.append(branch(*args))
            return trees[-1]

        runs = Counter()
        for pi, (k, j) in enumerate(PAIRS[:4]):
            params = TheoryParams(60, k, j, 0.3)
            for s in range(8):
                h = sample(params.n, params.k, params.p, trial_seed(430 + pi, s))
                for start in [e[:j] for e in h.edges[:3]] + [tuple(range(61 - j, 61))]:
                    seed = trial_seed(530 + pi, sum(runs.values()))
                    expected = coupled_run(h, params, start, seed, cap)
                    asked.clear()
                    trees.clear()
                    with monkeypatch.context() as m:
                        m.setattr(processes, "jset_lookup", counting_lookup)
                        m.setattr(processes, "_branch", keeping_branch)
                        assert coupled_run(h, params, start, seed, cap) == expected
                    (tree,) = trees
                    assert len(asked) == len(set(asked))
                    if not tree.truncated:
                        assert set(asked) == {u for kind, u in zip(tree.types, tree.labels)
                                              if kind == "j"}
                    runs[tree.truncated, expected[0] > 1] += 1
        assert runs[False, True] and runs[cap == 5, True] and sum(runs.values()) > 100

    def test_trees_match_the_rule_written_out(self, monkeypatch):
        # every tree coupled_run grows, not only its size, on a grid where
        # repeat queries join and sort ahead of fresh edges
        branch, trees, pops = processes._branch, [], Counter()
        monkeypatch.setattr(processes, "_branch",
                            lambda *args: trees.append(branch(*args)) or trees[-1])
        for k, j in PAIRS:
            for n in (12, 30):
                params = TheoryParams(n, k, j, 0.3)
                for mult in (0.7, 2.5):
                    for s in range(4):
                        h = sample(n, k, min(1.0, mult * params.p0), trial_seed(n + 7 * k + j, s))
                        start = h.edges[0][:j] if h.edges else tuple(range(1, j + 1))
                        seed = trial_seed(53, s)
                        trees.clear()
                        coupled_run(h, params, start, seed, cap=50)
                        expected = reference_branch(n, k, j, params.p, start, seed, 50,
                                                    reference_first_query_rule(h.edges, j, pops))
                        (tree,) = trees
                        assert (tree.types, tree.labels, tree.parents, tree.truncated) == (
                            expected.types, expected.labels, expected.parents, expected.truncated)
                        pops["truncated runs"] += tree.truncated
        assert pops["repeats"] > 100 and pops["reordered"] > 10 and pops["truncated runs"] > 5

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


class TestStreamIdentity:
    # make_generator keys Philox through its own seed sequence, which skips
    # the OS entropy that Philox(key=...) draws and discards; the state, and
    # so every stream built on it, must be that of Philox(key=...)
    SEEDS = [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_and_stream_match_keyed_philox(self, seed):
        ours = make_generator(seed)
        keyed = np.random.Philox(key=seed & (2**64 - 1))
        state, expected = ours.bit_generator.state, keyed.state
        assert state.keys() == expected.keys()
        for name in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
            assert state[name] == expected[name]
        np.testing.assert_array_equal(state["buffer"], expected["buffer"])
        for name in ("counter", "key"):
            np.testing.assert_array_equal(state["state"][name], expected["state"][name])
        np.testing.assert_array_equal(ours.random(1000), np.random.Generator(keyed).random(1000))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_refuses_other_requests(self, seed):
        # a numpy that asked Philox's seed sequence for anything but its 2-word
        # key would key differently, so the request fails instead
        with pytest.raises(ValueError, match="2 uint64 words"):
            make_generator(seed).bit_generator.seed_seq.generate_state(4, np.uint32)

    def test_generator_pickles_mid_stream(self):
        rng = make_generator(2**64 - 1)
        rng.random(3)
        back = pickle.loads(pickle.dumps(rng))
        np.testing.assert_array_equal(back.random(100), rng.random(100))
