import hashlib
import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import experiments
from hyperlab.combinatorics import TheoryParams, _colex_tables, colex_dtype
from hyperlab.errors import ResourceLimitError, ValidationError
from hyperlab.experiments import (
    QUANTILES,
    ExperimentConfig,
    TrialRecord,
    compare_to_theory,
    csv_lines,
    format_summary,
    machine_block,
    parse_config_file,
    run_experiment,
    run_trial,
)
from hyperlab.hypergraph import Hypergraph, _decompose, j_components, sample
from hyperlab.rng import trial_seed

TINY = ExperimentConfig(n=40, k=3, j=2, epsilon=0.3, trials=10, m=2, base_seed=77)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, k=3, j=3, epsilon=0.3, trials=5),
            dict(n=2, k=3, j=1, epsilon=0.3, trials=5),
            dict(n=10, k=3, j=2, epsilon=0.0, trials=5),
            dict(n=10, k=3, j=2, epsilon=0.3, trials=0),
            dict(n=10, k=3, j=2, epsilon=0.3, trials=5, m=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)

    def test_parse_config_file(self):
        text = "# comment\nn = 40\nk=3\nj = 2\nepsilon = 0.3  # inline\ntrials = 10\n"
        assert parse_config_file(text) == {
            "n": "40",
            "k": "3",
            "j": "2",
            "epsilon": "0.3",
            "trials": "10",
        }

    def test_parse_config_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_config_file("n 40\n")

    def test_parse_config_rejects_a_repeated_key(self):
        with pytest.raises(ValidationError, match="config key 'n' is given twice"):
            parse_config_file("n = 40\nk = 3\nn = 50\n")


class TestRunExperiment:
    def test_determinism_and_worker_independence(self):
        rec1, sum1 = run_experiment(TINY, workers=1)
        rec2, sum2 = run_experiment(TINY, workers=2)
        assert rec1 == rec2
        assert csv_lines(rec1) == csv_lines(rec2)
        assert sum1.l_quantiles == sum2.l_quantiles
        assert sum1.hypertree_frac == sum2.hypertree_frac

    def test_ranking_descending_with_id_tiebreak(self):
        records, _ = run_experiment(TINY)
        for r in records:
            assert list(r.sizes) == sorted(r.sizes, reverse=True)

    def test_order_identity_for_hypertrees(self):
        records, _ = run_experiment(TINY)
        c0 = TINY.params().c0
        for r in records:
            for L, M, flag in zip(r.sizes, r.orders, r.hypertree):
                if flag:
                    assert M == 1 + c0 * L

    def test_recorded_sizes_sum_to_edges_when_m_covers_all(self):
        cfg = ExperimentConfig(n=40, k=3, j=2, epsilon=0.3, trials=10, m=60, base_seed=77)
        records, _ = run_experiment(cfg)
        for r in records:
            assert r.hypertree[-1] is None  # m large enough to exhaust components
            assert sum(r.sizes) == r.edges

    def test_empty_hypergraph_trial(self):
        cfg = ExperimentConfig(n=10, k=3, j=2, epsilon=0.99, trials=1, m=2, base_seed=0)
        records, summary = run_experiment(cfg)
        (rec,) = records
        assert rec.edges == 0
        assert rec.sizes == (0, 0)
        assert rec.hypertree == (None, None)
        assert summary.hypertree_frac == (None, None)
        assert "hypertree_frac_1=null" in machine_block(summary)

    def test_one_table_build_per_n_and_k(self):
        # every trial at one (n, k) unranks its edges with the same kept tables
        _colex_tables.cache_clear()
        cfg = ExperimentConfig(n=250, k=3, j=2, epsilon=0.3, trials=30)
        for hits in (29, 59):
            run_experiment(cfg)
            info = _colex_tables.cache_info()
            assert (info.misses, info.hits) == (1, hits)

    def test_edge_budget_guard(self):
        cfg = ExperimentConfig(n=400, k=3, j=2, epsilon=0.3, trials=1, cap=10)
        with pytest.raises(ResourceLimitError):
            run_experiment(cfg)

    def test_median_decreasing_in_epsilon(self):
        medians = []
        for eps in (0.2, 0.3, 0.4):
            cfg = ExperimentConfig(n=120, k=3, j=2, epsilon=eps, trials=60, m=1, base_seed=5)
            _, summary = run_experiment(cfg)
            medians.append(summary.median_L1)
        assert medians[0] > medians[1] > medians[2]


def record_from_summaries(h, j, seed, m):
    """The trial record built from the public `j_components` summaries."""
    comps, _ = j_components(h, j)
    top = sorted(comps, key=attrgetter("size"), reverse=True)[:m]
    pad = m - len(top)
    nonhyp = [c.size for c in comps if not c.is_hypertree]
    return TrialRecord(
        trial=0, seed=seed, edges=len(h.edges),
        sizes=tuple(c.size for c in top) + (0,) * pad,
        orders=tuple(c.order for c in top) + (0,) * pad,
        hypertree=tuple(c.is_hypertree for c in top) + (None,) * pad,
        nonhypertree_count=len(nonhyp),
        largest_nonhypertree=max(nonhyp, default=0),
    )


class TestColumnarTrial:
    """`run_trial` reads the columnar decomposition; its record must equal
    the one rebuilt from the `j_components` summaries of the same sample."""

    @pytest.mark.parametrize("k, j, n", [(2, 1, 80), (3, 1, 40), (3, 2, 60), (4, 2, 24), (4, 3, 20)])
    def test_sampled_trials_match_summaries(self, k, j, n):
        params = TheoryParams(n, k, j, 0.3)
        nonhypertree = 0
        for t in range(8):
            seed = trial_seed(21, t)
            h = sample(n, k, params.p, seed)
            for m in (1, 3, 100):  # m = 100 mostly passes the component count: padding
                record = run_trial(params, seed, m)
                assert record == record_from_summaries(h, j, seed, m)
            nonhypertree += record.nonhypertree_count
        assert nonhypertree > 0

    @pytest.mark.parametrize("edges, n", [
        ((), 30),                                                     # no edges
        (((1, 2, 3), (1, 2, 4), (1, 3, 4), (5, 6, 7)), 10**10),       # object-dtype ranks
        (((1, 2, 3), (1, 2, 4), (1, 3, 4), (5, 6, 2**64)), 2**70),    # object-dtype vertices
    ])
    def test_given_hypergraphs_match_summaries(self, monkeypatch, edges, n):
        h = Hypergraph(n, 3, edges)
        monkeypatch.setattr(experiments, "sample", lambda *args: h)
        params = TheoryParams(n, 3, 2, 0.3)
        if edges:
            assert colex_dtype(n, 2) is object
        for m in (1, 2, 5):
            assert run_trial(params, 7, m) == record_from_summaries(h, 2, 7, m)

    def test_supercritical_point_reads_its_sample(self):
        # epsilon = -0.5 puts p at 1.5 p0 bit for bit; on the 2,000 seeds of
        # the supercritical exact-law check, run_trial's record equals the
        # columns of the decomposition of the sample at 1.5 p0
        params = TheoryParams(5, 3, 2, -0.5)
        p = 1.5 * TheoryParams(5, 3, 2, 0.3).p0
        assert params.p == p
        for t in range(2_000):
            seed = trial_seed(517_000, t)
            sizes, _, flags, *_ = _decompose(sample(5, 3, p, seed), 2)
            top = np.argsort(-sizes, kind="stable")[:3]
            pad = 3 - len(top)
            r = run_trial(params, seed, 3)
            assert (*r.sizes, *r.hypertree, r.largest_nonhypertree) == (
                *sizes[top].tolist(), *(0,) * pad, *flags[top].tolist(), *(None,) * pad,
                int(sizes[~flags].max(initial=0)))

    # sha256 of the records below, which the exits for edgeless and linkless
    # trials must leave as the full decomposition writes them
    TINY_DIGEST = "9a9313e6f83137056f75d7aa498617330246e25b827749d004a8842ced02df77"

    def test_tiny_n_records_pinned(self):
        # run_trial's top-3 records at n = 5 and 6 for every (k, j) with k <= 4,
        # 300 trials each on seeds trial_seed(530_000 + 10 n + pair, t), which no
        # other check uses; many hold no edge or no link, so the early exits decide them
        parts, edgeless, linkless = [], 0, 0
        for n in (5, 6):
            for pair, (k, j) in enumerate([(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]):
                params = TheoryParams(n, k, j, 0.3)
                records = [run_trial(params, trial_seed(530_000 + 10 * n + pair, t), 3, t)
                           for t in range(300)]
                edgeless += sum(r.edges == 0 for r in records)
                linkless += sum(r.edges > 1 and r.sizes[0] == 1 for r in records)
                parts.append(repr(records))
        assert edgeless > 0 and linkless > 0
        assert hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest() == self.TINY_DIGEST


class TestTopIds:
    """`run_trial` keeps the m largest components by a partition; the ids
    must equal a full stable argsort's, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_a_stable_argsort(self, data):
        # few distinct values: heavy ties, all-equal sizes and no sizes at all
        values = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
        sizes = np.array(data.draw(st.lists(st.sampled_from(values), max_size=60)), dtype=np.int64)
        m = data.draw(st.integers(1, len(sizes) + 2))
        expected = np.argsort(-sizes, kind="stable")[:m]
        assert experiments._top_ids(sizes, m).tolist() == expected.tolist()

    @pytest.mark.parametrize("sizes", [[], [4] * 9, [1, 3, 3, 1, 3, 2, 3]])
    def test_every_m_on_tie_heavy_sizes(self, sizes):
        sizes = np.array(sizes, dtype=np.int64)
        for m in range(1, len(sizes) + 3):
            expected = np.argsort(-sizes, kind="stable")[:m]
            assert experiments._top_ids(sizes, m).tolist() == expected.tolist()

    def test_seeded_trial_equals_the_argsort_record(self):
        # most components are single edges, tied at size 1, and this seed
        # ties a hypertree with a non-hypertree among its largest: taking
        # tied ids larger first would change the record at every m from 2
        params = TheoryParams(60, 3, 2, 0.1)
        seed = trial_seed(18, 3)
        sizes, orders, flags, *_ = _decompose(sample(60, 3, params.p, seed), 2)
        assert np.count_nonzero(sizes == 1) > 50
        last = len(sizes) - 1
        for m in (1, 2, 3, 10, 100):
            pad = m - min(m, len(sizes))
            records = [(tuple(sizes[top].tolist()) + (0,) * pad,
                        tuple(orders[top].tolist()) + (0,) * pad,
                        tuple(flags[top].tolist()) + (None,) * pad)
                       for top in (np.argsort(-sizes, kind="stable")[:m],
                                   last - np.argsort(-sizes[::-1], kind="stable")[:m])]
            record = run_trial(params, seed, m)
            assert (record.sizes, record.orders, record.hypertree) == records[0]
            assert (records[0] != records[1]) == (m > 1)


class TestCsv:
    def test_layout(self):
        records, _ = run_experiment(TINY)
        lines = csv_lines(records).splitlines()
        assert lines[0] == "trial,seed,edges,i,L_i,M_i,hypertree"
        assert len(lines) == 1 + TINY.trials * TINY.m
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[0] == "0" and first[3] == "1"
        assert all(row.split(",")[6] in ("", "0", "1") for row in lines[1:])


class TestCompare:
    def test_requires_thirty_trials(self):
        records, summary = run_experiment(TINY)
        with pytest.raises(ValidationError):
            compare_to_theory(summary, records)

    @pytest.mark.parametrize("limits", [
        dict(spread_width=math.inf), dict(spread_width=math.nan), dict(spread_width=0.0),
        dict(spread_width=-1.0), dict(hypertree_threshold=-5.0),
        dict(hypertree_threshold=1.5), dict(hypertree_threshold=math.nan),
    ])
    def test_refuses_limits_out_of_range(self, limits):
        cfg = ExperimentConfig(n=20, k=3, j=2, epsilon=0.3, trials=30, m=1)
        records, summary = run_experiment(cfg)
        with pytest.raises(ValidationError):
            compare_to_theory(summary, records, **limits)

    def test_all_hypertree_passes(self):
        cfg = ExperimentConfig(n=60, k=3, j=2, epsilon=0.4, trials=40, m=1, base_seed=9)
        records, summary = run_experiment(cfg)
        verdict = compare_to_theory(summary, records, spread_width=1e9)
        by_name = {c.name: c for c in verdict.criteria}
        flags = [f for r in records for f in r.hypertree if f is not None]
        assert by_name["hypertree_fraction"].passed == (sum(flags) / len(flags) >= 0.95)
        assert by_name["order_identity"].passed

    def test_spread_criterion_can_fail(self):
        cfg = ExperimentConfig(n=60, k=3, j=2, epsilon=0.4, trials=40, m=1, base_seed=9)
        records, summary = run_experiment(cfg)
        verdict = compare_to_theory(summary, records, spread_width=1e-9)
        assert not verdict.passed
        assert not {c.name: c for c in verdict.criteria}["centered_spread"].passed

    def test_identity_is_exact_never_approximate(self):
        # corrupt one hypertree-flagged entry by one unit: must be flagged
        cfg = ExperimentConfig(n=60, k=3, j=2, epsilon=0.4, trials=40, m=1, base_seed=9)
        records, summary = run_experiment(cfg)
        target = next(i for i, r in enumerate(records) if r.hypertree[0])
        bad = records[target]
        from dataclasses import replace

        records[target] = replace(bad, orders=(bad.orders[0] + 1,))
        verdict = compare_to_theory(summary, records, spread_width=1e9)
        assert not {c.name: c for c in verdict.criteria}["order_identity"].passed


class TestSummaryOutput:
    def test_machine_block_keys(self):
        records, summary = run_experiment(TINY)
        block = machine_block(summary)
        for key in (
            "rng=philox4x64",
            "seed_mixer=splitmix64",
            "predicted_L1=",
            "median_L1=",
            "centered_p05=",
            "centered_p95=",
            "hypertree_frac_1=",
        ):
            assert key in block

    def test_footer_toggle(self):
        _, summary = run_experiment(TINY)
        assert "# footer: runtime_seconds=" in format_summary(summary, footer=True)
        assert "footer" not in format_summary(summary, footer=False)

    def test_summary_quantiles_monotone(self):
        _, summary = run_experiment(TINY)
        for qs in summary.l_quantiles:
            assert list(qs) == sorted(qs)
        for frac in summary.hypertree_frac:
            assert frac is None or 0.0 <= frac <= 1.0

    def test_summary_body_reproducible(self):
        _, s1 = run_experiment(TINY)
        _, s2 = run_experiment(TINY, workers=2)
        assert format_summary(s1, footer=False) == format_summary(s2, footer=False)


class TestNonHypertreeRarity:
    def test_largest_nonhypertree_below_largest_hypertree(self, accept_run):
        # at n=250 the wheel density is still high enough that the largest
        # component carries a wheel in roughly a tenth of the trials, so the
        # asymptotic >= 0.95 expectation is not met at this desk scale
        records, _, _ = accept_run
        good = sum(
            1
            for r in records
            if r.hypertree[0] and r.largest_nonhypertree < r.sizes[0]
        )
        assert good / len(records) >= 0.95


def test_summarize_handles_tiny_lambda():
    # lam <= e: prediction undefined, summary still forms with NaNs
    cfg = ExperimentConfig(n=10, k=3, j=2, epsilon=0.2, trials=2, m=1, base_seed=3)
    records, summary = run_experiment(cfg)
    assert math.isnan(summary.theory["predicted_L1"])
    assert len(records) == 2


@pytest.mark.parametrize("n, epsilon", [(40, 0.3), (12, 0.2)])  # lambda = 21.06, 0.528
@pytest.mark.parametrize("trials", [1, 31])
@pytest.mark.parametrize("m", [1, 3])
def test_summary_equals_per_rank_statistics(n, epsilon, trials, m):
    # the one (trials x m) array must give each rank what that rank's own
    # column gives; NaN centered quantiles (lambda <= e) compare equal to NaN
    cfg = ExperimentConfig(n=n, k=3, j=2, epsilon=epsilon, trials=trials, m=m, base_seed=3)
    records, summary = run_experiment(cfg)
    params = cfg.params()
    loglam = math.log(params.lam)
    target = loglam - 2.5 * math.log(loglam) if params.lam > math.e else math.nan
    for i in range(m):
        column = np.array([r.sizes[i] for r in records], dtype=np.float64)
        np.testing.assert_array_equal(summary.l_quantiles[i], np.quantile(column, QUANTILES))
        np.testing.assert_array_equal(summary.centered_quantiles[i],
                                      np.quantile(params.delta * column - target, QUANTILES))
        flags = [r.hypertree[i] for r in records if r.hypertree[i] is not None]
        assert summary.hypertree_frac[i] == (sum(flags) / len(flags) if flags else None)
    if (n, trials, m) == (12, 31, 3):  # some trials have fewer than 3 components
        assert any(r.hypertree[-1] is None for r in records)
        assert all(math.isnan(v) for v in summary.centered_quantiles[0])
