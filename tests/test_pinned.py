"""Byte pins on the outputs that depend on traversal order.

Component sizes and orders do not depend on the order in which a search
visits edges and j-sets, but search traces, wheel witnesses, component ids
and the j-set map's insertion order do.  Each test hashes one such output
on a seeded sample, so any change of visiting order shows up here.  The
grid pins at the end hold the sampler's edges and the whole decomposition
over many seeded samples, and the branching process's trees and capped
coupled runs, so that a faster or smaller implementation of any of them
must reproduce them byte for byte.
"""

import contextlib
import hashlib
import io
import math

from hyperlab.cli import main
from hyperlab.combinatorics import TheoryParams, rank_subset
from hyperlab.hypergraph import j_components, sample, write_hypergraph
from hyperlab.processes import branching_with_rate, coupled_run, search_component
from hyperlab.rng import trial_seed
from tests.conftest import format_trace

PARAMS = TheoryParams(40, 3, 2, 0.3)
DIGESTS = {
    "trace": "0bdbbc5b0d86690abaa0a185d8a62ddd59329207bf87c13db720c9a88f666528",
    "wheels": "e114c45118190b5311f44cd25d73d282ab85dfa82d8864f11c7448f9acaef3c4",
    "jset_map": "986be27e9a074aa6401660f3ba16993431559d3e888c9b28574f9046d9f1378e",
    "coupled": "05eec300aea75ec1b2a0acf0153dde633e3595f4b7fc86b30e412d3689a4498b",
}


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def subcritical():
    # seed 7 holds a 17-edge component carrying a wheel
    return sample(40, 3, PARAMS.p, 7)


def supercritical():
    return sample(40, 3, 1.5 * PARAMS.p0, 3)


def test_format_trace_pinned():
    h = subcritical()
    comps, jmap = j_components(h, 2)
    biggest = sorted(comps, key=lambda c: (-c.size, c.id))[:3]
    firsts = {}
    for e in h.edges:
        cid = jmap[rank_subset(e[:2], 40)]
        firsts.setdefault(cid, e)
    starts = [firsts[c.id][:2] for c in biggest]
    starts += [firsts[biggest[0].id][1:], (39, 40)]
    lines = []
    for start in starts:
        tr = search_component(h, 2, start)
        lines.append(f"start {start} size={tr.size} order={tr.order}")
        lines.extend(format_trace(tr))
    assert len(lines) > 60
    assert digest("\n".join(lines)) == DIGESTS["trace"]


def test_components_wheels_stdout_pinned(capsys, tmp_path):
    path = tmp_path / "dense.txt"
    path.write_text(write_hypergraph(supercritical()))
    assert main(["components", "--in", str(path), "--j", "2", "--wheels"]) == 0
    out = capsys.readouterr().out
    assert sum(ln.startswith("wheel ") for ln in out.splitlines()) >= 2
    assert digest(out) == DIGESTS["wheels"]


def test_jset_map_pinned():
    parts = []
    for h in (subcritical(), supercritical()):
        comps, jmap = j_components(h, 2)
        parts.append(repr(list(jmap.items())))
        for c in comps:
            w = c.wheel_witness
            parts.append(f"{c.id} {c.size} {c.order} {c.is_hypertree} "
                         f"{None if w is None else (w.edges, w.jsets)}")
    assert digest("\n".join(parts)) == DIGESTS["jset_map"]


def test_coupled_run_pinned():
    results = []
    for k, j in [(2, 1), (3, 2)]:
        params = TheoryParams(40, k, j, 0.3)
        for s in range(40):
            h = sample(40, k, params.p, trial_seed(41, s))
            start = h.edges[0][:j] if h.edges else tuple(range(1, j + 1))
            results.append(coupled_run(h, params, start, trial_seed(43, s)))
    assert digest(repr(results)) == DIGESTS["coupled"]


# -- sampler and decomposition over a seeded grid ------------------------------
#
# Each case is (n, k, j, p, seed).  The grid covers the five (k, j) pairs at
# half, one and three times p0, the p = 0 and p = 1 edge cases, and one
# (n, k) with C(n, k) >= 2**63, whose colex ranks do not fit in 64 bits.
GRID_PAIRS = [(3, 2), (4, 2), (2, 1), (3, 1), (4, 3)]
GRID_NS = {(3, 2): (12, 45, 120), (4, 2): (12, 40, 90), (2, 1): (12, 60, 120),
           (3, 1): (12, 45, 120), (4, 3): (12, 30, 60)}
GRID_DIGESTS = {
    "sample": "2f243c53dabdf28f579e79ad2ad4cc288934198998754f9e35d62b5036052c1d",
    "components": "ecc608c4360d21fd5f240e70426dc5c62a827fe8abb3f3992a0ebdd290afaa04",
}


def grid_cases():
    cases = []
    for k, j in GRID_PAIRS:
        for n in GRID_NS[(k, j)]:
            p0 = TheoryParams(n, k, j, 0.5).p0
            for mult in (0.5, 1.0, 3.0):
                for s in range(2):
                    cases.append((n, k, j, min(1.0, mult * p0), trial_seed(n * k + j, s)))
    cases += [(8, 3, 2, 0.0, 5), (8, 3, 2, 1.0, 5), (7, 4, 3, 1.0, 6), (6, 2, 1, 1.0, 7)]
    assert math.comb(100, 20) >= 2**63
    cases += [(100, 20, 1, 1e-19, 11), (100, 20, 1, 1e-19, 12)]
    return cases


def test_sample_grid_pinned():
    texts = [write_hypergraph(sample(n, k, p, seed)) for n, k, _, p, seed in grid_cases()]
    assert sum(t.count("\n") - 1 for t in texts[-2:]) > 40  # the >= 2**63 cases hold edges
    assert digest("\n".join(texts)) == GRID_DIGESTS["sample"]


def test_decomposition_grid_pinned():
    parts = []
    for n, k, j, p, seed in grid_cases():
        comps, jmap = j_components(sample(n, k, p, seed), j)
        parts.append(repr(list(jmap.items())))
        parts.append(repr([(c.id, c.size, c.order, c.is_hypertree) for c in comps]))
        parts.extend(repr((c.id, c.wheel_witness.edges, c.wheel_witness.jsets))
                     for c in comps if c.wheel_witness is not None)
    assert digest("\n".join(parts)) == GRID_DIGESTS["components"]


# -- branching process and coupling over a seeded grid --------------------------
#
# Trees pin the two-type process's RNG stream (one uniform per candidate k-set
# per popped type-j vertex, in breadth-first order) and the order in which
# successes join the tree.  Supercritical cases run at 2.5 * p0 under a cap,
# and p = 1 under cap = 10 truncates at once.  Coupled runs use cap = 5, which
# many of them reach.
BRANCHING_DIGESTS = {
    "trees": "f31f0f28a50ea01a9a02ab5fef7cd274c9c36ccbfd6da1c3ddc7b7ea78c46870",
    "coupled_capped": "e2e9a4e707447026be35604a32bf69a6e8180ffa843f14019939f2a14309a0b5",
}


def branching_cases():
    cases = []
    for k, j in GRID_PAIRS:
        for n in (12, 30, 60):
            p0 = TheoryParams(n, k, j, 0.3).p0
            for mult, cap in ((0.7, 1000), (2.5, 200)):
                for s in range(2):
                    root = tuple(range(s + 1, s + j + 1))
                    seed = trial_seed(n * k + j, s)
                    cases.append((n, k, j, min(1.0, mult * p0), root, seed, cap))
        cases.append((12, k, j, 1.0, tuple(range(1, j + 1)), 3, 10))
    return cases


def test_branching_grid_pinned():
    parts = []
    truncated = 0
    for n, k, j, p, root, seed, cap in branching_cases():
        t = branching_with_rate(n, k, j, p, root, seed, cap)
        truncated += t.truncated
        parts.append(repr((t.types, t.labels, t.parents, t.truncated)))
    assert truncated >= 5
    assert digest("\n".join(parts)) == BRANCHING_DIGESTS["trees"]


def test_coupled_run_capped_grid_pinned():
    results = []
    for k, j in GRID_PAIRS:
        for n in (12, 30, 60):
            params = TheoryParams(n, k, j, 0.3)
            for mult in (0.7, 2.5):
                for s in range(3):
                    h = sample(n, k, min(1.0, mult * params.p0), trial_seed(n + 7 * k + j, s))
                    start = h.edges[0][:j] if h.edges else tuple(range(1, j + 1))
                    results.append(coupled_run(h, params, start, trial_seed(53, s), cap=5))
    assert sum(branch == 5 for _, branch in results) >= 5
    assert digest(repr(results)) == BRANCHING_DIGESTS["coupled_capped"]


# -- analytic bound evaluators over a parameter grid ----------------------------
#
# Every `bounds --which unicycle|rs|cs|wheel` call of the grid below, its exit
# code and stdout, over the five (k, j) pairs, so that a rewrite of the bound
# formulas must reproduce their printed values byte for byte.
BOUNDS_DIGEST = "c626fc439d69b90d8ada5d74cd8f5b2088221a893cc7bffceeffd1c567dec003"


def bounds_grid_argv():
    calls = []
    for n in (20, 250, 3000):
        for k, j in GRID_PAIRS:
            base = ["--n", str(n), "--k", str(k), "--j", str(j)]
            for eps in ("0.1", "0.3"):
                for s in ("1024", "4096"):
                    for constant in ("1.5", "244"):
                        calls.append(["unicycle", *base, "--epsilon", eps, "--s", s,
                                      "--constant", constant])
                for s in ("1", "5", "40", "500"):
                    calls += [[which, *base, "--epsilon", eps, "--s", s] for which in ("rs", "cs")]
            calls += [["wheel", *base, "--ell", ell] for ell in ("2", "3", "5")]
    return [["bounds", "--which", *argv] for argv in calls]


def test_bounds_grid_pinned():
    parts = []
    for argv in bounds_grid_argv():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, argv
        parts.append(f"{' '.join(argv)}\n{out.getvalue()}")
    assert len(parts) == 405
    assert digest("".join(parts)) == BOUNDS_DIGEST
