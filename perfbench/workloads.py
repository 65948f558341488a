"""The benchmark's four workloads: inputs made from a seed, the calls into
hyperlab that make up one round, and the output check of every call.

Inputs are generated here with numpy's PCG64, independently of hyperlab's
own Philox sampler, so a change to the program's sampler stream never
changes what the `dense` and `coupling` workloads are fed.  `accept` is the
exception: its input is the base seed of `run_experiment`, whose sampling
is the work being measured.

A workload runs in whole rounds, and every round makes the same calls (on
`accept`, the same batch size under a fresh base seed).  So the mix of
cheap and expensive calls does not depend on where the timed phase stops,
and rounds differ in time only through the machine they ran on.

Program calls go through module attributes looked up at call time
(`experiments.run_experiment`, not a name imported once), so the traced run
sees the wrappers it installs at those bindings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

# imported by run.py after it has put the checkout's src/ first on sys.path
from hyperlab import cli, enumeration, experiments, hypergraph, processes
from hyperlab.combinatorics import TheoryParams

# seed of the fixed hypergraph structures and of the reference digests
FIXED_SEED = 20260811


@dataclass
class Call:
    """One call into the program.

    `run` returns the program's output; `check` returns how many of the
    call's `ops` failed their output check (0 when all passed).
    """

    run: Callable[[], object]
    check: Callable[[object], int]
    ops: int = 1


@dataclass
class Workload:
    sizes: dict
    round_calls: Callable[[int], list[Call]]  # the calls of round r
    digests: Callable[[], dict[str, str]] = lambda: {}
    counters: dict = field(default_factory=dict)


def _fails(ok: bool) -> int:
    return 0 if ok else 1


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def random_edges(n: int, k: int, p: float, seed: int) -> list[tuple[int, ...]]:
    """Edges of a k-uniform G(n, p) sample, in colex order (1-based vertices).

    The edge count is Binomial(C(n,k), p) and the edge set a uniform subset
    of that size; ranks are unranked with the combinatorial number system.
    """
    rng = np.random.default_rng(seed)
    total = math.comb(n, k)
    ranks = np.sort(rng.choice(total, size=rng.binomial(total, p), replace=False))
    out = np.empty((len(ranks), k), dtype=np.int64)
    rem = ranks.astype(np.int64)
    for i in range(k, 0, -1):
        table = np.array([math.comb(x, i) for x in range(n)], dtype=np.int64)
        a = np.searchsorted(table, rem, side="right") - 1
        out[:, i - 1] = a + 1
        rem = rem - table[a]
    return [tuple(int(v) for v in row) for row in out]


def relabel(edges: list[tuple[int, ...]], k: int, perm: np.ndarray) -> list[tuple[int, ...]]:
    """Vertex v becomes perm[v-1] + 1; the edges are re-sorted into colex order."""
    out = np.sort(perm[np.array(edges, dtype=np.int64).reshape(len(edges), k) - 1] + 1, axis=1)
    out = out[np.lexsort(out.T)]  # colex: the largest vertex is the primary key
    return [tuple(int(v) for v in row) for row in out]


def hypergraph_text(n: int, k: int, edges: list[tuple[int, ...]]) -> str:
    """hyperlab's text format, written here so that the bytes `dense` reads
    never depend on the program's own writer."""
    lines = [f"{n} {k} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile at q in (0, 1); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _p0(n: int, k: int, j: int) -> float:
    return 1.0 / ((math.comb(k, j) - 1) * math.comb(n - j, k - j))


# -- accept -------------------------------------------------------------------

ACCEPT = {"n": 250, "k": 3, "j": 2, "epsilon": 0.3, "m": 3, "batch_trials": 30}
ACCEPT_TINY = {"n": 40, "k": 3, "j": 2, "epsilon": 0.3, "m": 3, "batch_trials": 30}


def _experiment(cfg: dict, base_seed: int):
    config = experiments.ExperimentConfig(
        n=cfg["n"], k=cfg["k"], j=cfg["j"], epsilon=cfg["epsilon"],
        trials=cfg["batch_trials"], m=cfg["m"], base_seed=base_seed,
    )
    records, summary = experiments.run_experiment(config, workers=1)
    csv = experiments.csv_lines(records)
    text = experiments.format_summary(summary, footer=False)
    verdict = experiments.compare_to_theory(summary, records)
    return records, csv, text, verdict


def _check_experiment(cfg: dict, out) -> int:
    """Failed trials: any top-m entry breaking M <= 1 + c0*L, with equality
    exactly on the hypertree-flagged entries, or sizes out of rank order."""
    records, csv, _, verdict = out
    c0 = math.comb(cfg["k"], cfg["j"]) - 1
    failed = 0
    for r in records:
        ok = list(r.sizes) == sorted(r.sizes, reverse=True)
        for L, M, flag in zip(r.sizes, r.orders, r.hypertree):
            if L:
                ok &= M <= 1 + c0 * L and flag == (M == 1 + c0 * L)
        failed += _fails(ok)
    whole = (
        len(records) == cfg["batch_trials"]
        and csv.count("\n") == 1 + cfg["m"] * len(records)
        and {c.name: c.passed for c in verdict.criteria}.get("order_identity") is True
    )
    return failed if whole else len(records)


def accept(seed: int, tiny: bool) -> Workload:
    cfg = ACCEPT_TINY if tiny else ACCEPT

    def round_calls(r: int) -> list[Call]:
        base = _sub_seed(seed, r)
        return [Call(lambda: _experiment(cfg, base), lambda out: _check_experiment(cfg, out),
                     ops=cfg["batch_trials"])]

    def digests() -> dict[str, str]:
        _, csv, text, _ = _experiment(cfg, FIXED_SEED)
        return {"csv": _sha(csv), "summary": _sha(text)}

    return Workload(dict(cfg), round_calls, digests=digests)


# -- dense ----------------------------------------------------------------------

# Supercritical inputs, two at 1.5*p0 for each one at 3*p0, so the median
# call lies among the 1.5*p0 graphs and the 90th percentile among the 3*p0
# graphs rather than on the boundary between them.  As on `coupling`, the
# hypergraphs are fixed and the seed relabels their vertices, so that a
# seed changes the bytes read but not the component structure that sets
# the cost.
DENSE = {"n": 250, "k": 3, "j": 2, "p_over_p0": [1.5, 1.5, 3.0, 1.5, 1.5, 3.0]}
DENSE_TINY = {"n": 30, "k": 3, "j": 2, "p_over_p0": [1.5, 1.5, 3.0]}


def _components(path: str, j: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["components", "--in", path, "--j", str(j), "--wheels"])
    return code, buf.getvalue()


def _check_components(n: int, k: int, j: int, edges: frozenset, out, counters: dict) -> int:
    """The table accounts for every edge and j-set, `hypertree` is exactly
    the order identity, and every non-hypertree row has one printed wheel
    that passes Wheel.validate and uses only edges of the input."""
    code, text = out
    lines = text.splitlines()
    if code != 0 or not lines or lines[0] != "id size order hypertree":
        return 1
    c0 = math.comb(k, j) - 1
    rows = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("isolated_jsets"):
        cid, size, order, flag = lines[i].split()
        size, order = int(size), int(order)
        if order > 1 + c0 * size or (flag == "yes") != (order == 1 + c0 * size):
            return 1
        rows[int(cid)] = (size, order, flag)
        i += 1
    if i == len(lines):
        return 1
    isolated = int(lines[i].split()[1])
    if sum(s for s, _, _ in rows.values()) != len(edges):
        return 1
    if isolated != math.comb(n, j) - sum(o for _, o, _ in rows.values()):
        return 1
    wheel_ids = []
    for line in lines[i + 1:]:
        tag, cid, length, ks, js = line.split()
        w = hypergraph.Wheel(
            edges=tuple(tuple(map(int, e.split(","))) for e in ks[2:].split("|")),
            jsets=tuple(tuple(map(int, s.split(","))) for s in js[2:].split("|")),
        )
        w.validate()
        if tag != "wheel" or length != f"length={w.length}" or not set(w.edges) <= edges:
            return 1
        if any(len(s) != j for s in w.jsets):
            return 1
        wheel_ids.append(int(cid))
    counters["wheels_printed"] = counters.get("wheels_printed", 0) + len(wheel_ids)
    return _fails(sorted(wheel_ids) == sorted(c for c, r in rows.items() if r[2] == "no"))


def dense(seed: int, tiny: bool, workdir: str) -> Workload:
    cfg = DENSE_TINY if tiny else DENSE
    n, k, j = cfg["n"], cfg["k"], cfg["j"]
    p0 = _p0(n, k, j)
    counters: dict = {}
    calls = []
    for idx, mult in enumerate(cfg["p_over_p0"]):
        edges = random_edges(n, k, mult * p0, _sub_seed(FIXED_SEED, idx))
        edges = relabel(edges, k, np.random.default_rng(_sub_seed(seed, idx)).permutation(n))
        path = os.path.join(workdir, f"dense-{idx}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(hypergraph_text(n, k, edges))
        calls.append(Call(
            lambda path=path: _components(path, j),
            lambda out, edges=frozenset(edges): _check_components(n, k, j, edges, out, counters),
        ))

    def digests() -> dict[str, str]:
        edges = random_edges(n, k, 1.5 * p0, FIXED_SEED)
        path = os.path.join(workdir, "dense-reference.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(hypergraph_text(n, k, edges))
        code, text = _components(path, j)
        return {"components_stdout": _sha(text), "components_exit": str(code)}

    return Workload(dict(cfg), lambda r: calls, digests=digests, counters=counters)


# -- coupling -------------------------------------------------------------------

# The hypergraphs, starts and coupling seeds are fixed and the seed relabels
# the vertices: a coupled run costs about its component's order times the
# edge count, and that order is heavy-tailed, so fresh draws per seed made
# the op rate of one seed differ from the next by half.
#
# A round is `blocks` blocks.  Each block holds three n=60 hypergraphs for
# each (k, j) pair of the c04 grid, one start each, then one (250,3,2)
# hypergraph from four starts.  The n=250 runs are a quarter of the calls,
# so the 90th percentile falls among them and the median among the n=60
# runs.  The n=60 costs thin out just above the median, so 16 blocks keep
# the samples there dense enough for a steady median.
COUPLING = {"small_n": 60, "pairs": [[2, 1], [3, 1], [3, 2], [4, 2]], "small_per_pair": 3,
            "big": [250, 3, 2], "big_starts": 4, "epsilon": 0.3, "blocks": 16}
COUPLING_TINY = {"small_n": 16, "pairs": [[2, 1], [3, 1], [3, 2], [4, 2]], "small_per_pair": 1,
                 "big": [30, 3, 2], "big_starts": 2, "epsilon": 0.3, "blocks": 1}


def _coupling_case(n: int, k: int, j: int, eps: float, structure_seed: int, label_seed: int,
                   starts: int):
    """A hypergraph and starts inside its edges, drawn from `structure_seed`,
    then relabelled by a permutation drawn from `label_seed`."""
    params = TheoryParams(n, k, j, eps)
    edges = random_edges(n, k, params.p, structure_seed)
    rng = np.random.default_rng(structure_seed)
    picks = [tuple(int(v) for v in rng.choice(edges[int(rng.integers(len(edges)))], size=j,
                                              replace=False))
             if edges else tuple(range(1, j + 1)) for _ in range(starts)]
    perm = np.random.default_rng(label_seed).permutation(n)
    h = hypergraph.Hypergraph(n, k, tuple(relabel(edges, k, perm)))
    return h, params, [tuple(sorted(int(perm[v - 1]) + 1 for v in s)) for s in picks]


def coupling(seed: int, tiny: bool) -> Workload:
    cfg = COUPLING_TINY if tiny else COUPLING
    eps = cfg["epsilon"]
    cases = []
    for b in range(cfg["blocks"]):
        for pi, (k, j) in enumerate(cfg["pairs"]):
            for g in range(cfg["small_per_pair"]):
                cases.append(_coupling_case(cfg["small_n"], k, j, eps, _sub_seed(FIXED_SEED, b, pi, g),
                                            _sub_seed(seed, b, pi, g), 1))
        cases.append(_coupling_case(*cfg["big"], eps, _sub_seed(FIXED_SEED, b, len(cfg["pairs"])),
                                    _sub_seed(seed, b, len(cfg["pairs"])), cfg["big_starts"]))
    calls = []
    for ci, (h, params, starts) in enumerate(cases):
        least = 1 if h.edges else 0  # a start inside an edge reaches that edge
        for si, start in enumerate(starts):
            calls.append(Call(
                lambda h=h, params=params, start=start, op_seed=_sub_seed(FIXED_SEED, ci, si):
                    processes.coupled_run(h, params, start, op_seed),
                lambda out, least=least: _fails(out[1] >= out[0] >= least),
            ))
    return Workload(dict(cfg), lambda r: calls)


# -- exact ----------------------------------------------------------------------

EXACT = {
    "series": {"c0": [1, 2, 3, 5], "order": 30},
    "bracket": {"c0": [1, 2, 3, 4, 5, 6], "s_max": 200},
    "census": [[3, 2, 6, 2], [3, 2, 6, 3], [3, 2, 8, 3], [2, 1, 6, 3], [2, 1, 8, 4]],
    "laplace_a": [1, 2, 3], "laplace_s_max": 100_000,
    "brute_Bs": [[4, 2, 1, 1], [4, 2, 1, 2], [5, 2, 1, 3], [4, 2, 1, 4]],
    "rs_s": [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000], "rs_k": 3, "rs_j": 2,
}
EXACT_TINY = {
    "series": {"c0": [1, 2], "order": 6},
    "bracket": {"c0": [1, 2], "s_max": 10},
    "census": [[3, 2, 6, 2], [2, 1, 6, 3]],
    "laplace_a": [1], "laplace_s_max": 512,
    "brute_Bs": [[4, 2, 1, 1], [4, 2, 1, 2]],
    "rs_s": [1, 10, 50], "rs_k": 3, "rs_j": 2,
}
KNOWN_BS = {(4, 2, 1, 1): (12, 12), (4, 2, 1, 2): (48, 36)}


def _log_Bs(n: int, k: int, j: int, s: int) -> float:
    """log B_s in floating point, by log-sum-exp over the closed-form terms."""
    c0 = math.comb(k, j) - 1
    terms = [
        (s - r) * math.log(c0) + (s - r - 1) * math.log(s) - math.lgamma(r) - math.lgamma(s - r + 1)
        for r in range(1, s + 1)
    ]
    top = max(terms)
    log_fs = top + math.log(sum(math.exp(t - top) for t in terms))
    return math.log(math.comb(n, j)) + s * math.log(math.comb(n - j, k - j)) + log_fs


def _expected_weight(params: TheoryParams, s: int, repeat_discount: bool) -> float:
    big_n = math.comb(params.n - params.j, params.k - params.j)
    exponent = (1 + params.c0 * s) * big_n - (s * (1 + params.c0) if repeat_discount else 0)
    return (_log_Bs(params.n, params.k, params.j, s) + s * math.log(params.p)
            + exponent * math.log1p(-params.p))


def _close(value: float, logv: float) -> bool:
    return value >= 0 and math.isclose(value, math.exp(logv) if logv > -745 else 0.0,
                                       rel_tol=1e-9, abs_tol=1e-300)


def exact(seed: int, tiny: bool) -> Workload:
    cfg = EXACT_TINY if tiny else EXACT
    rng = np.random.default_rng(seed)
    # the seed moves only cost-neutral inputs: the (n, epsilon) of the B_s bounds
    rs_params = TheoryParams(int(rng.integers(200, 301)), cfg["rs_k"], cfg["rs_j"],
                             float(rng.uniform(0.2, 0.4)))
    laplace = []
    for a in cfg["laplace_a"]:
        s = (16 * a) ** 2
        while s < cfg["laplace_s_max"]:
            laplace.append((a, s))
            s *= 2
        laplace.append((a, cfg["laplace_s_max"]))

    def round_calls(r: int) -> list[Call]:
        state: dict = {}
        calls = []

        def keep(key, fn):
            def run():
                state[key] = fn()
                return state[key]
            return run

        order = cfg["series"]["order"]
        for c0 in cfg["series"]["c0"]:
            calls.append(Call(keep(("series", c0), lambda c0=c0: enumeration.tj_series_fixed_point(c0, order)),
                              lambda out: _fails(out.coefficient(0) == 0)))
            for s in range(1, order + 1):
                calls.append(Call(lambda c0=c0, s=s: enumeration.f_s(c0, s),
                                  lambda out, c0=c0, s=s: _fails(out == state[("series", c0)].coefficient(s))))
        s_max = cfg["bracket"]["s_max"]
        for c0 in cfg["bracket"]["c0"]:
            calls.append(Call(keep(("exp", c0), lambda c0=c0: enumeration.exp_reciprocal_bounds(c0, s_max + 2)),
                              lambda out: _fails(out[0] < out[1])))
            for s in range(1, s_max + 1):
                def bracket_ok(fs, c0=c0, s=s):
                    low, high = state[("exp", c0)]
                    lower = Fraction(c0 ** (s - 1) * s ** (s - 1), math.factorial(s))
                    return _fails(lower <= fs <= lower * high and fs <= lower * low)
                calls.append(Call(lambda c0=c0, s=s: enumeration.f_s(c0, s), bracket_ok))
        for k, j, n, ell in cfg["census"]:
            key = (k, j, n, ell)
            calls.append(Call(keep(("bound", key), lambda k=k, j=j, n=n, ell=ell:
                                   enumeration.wheel_bound_exact(n, k, j, ell)),
                              lambda out: _fails(out[1] > 0)))
            calls.append(Call(lambda k=k, j=j, n=n, ell=ell: hypergraph.brute_force_wheel_census(n, k, j, ell),
                              # two distinct k-sets share at most k-1 vertices, so
                              # length-2 wheels need k >= j + 2
                              lambda out, key=key: _fails(out <= state[("bound", key)][1]
                                                          and (out == 0 or key[3] > 2 or key[0] > key[1] + 1))))
        for a, s in laplace:
            calls.append(Call(lambda a=a, s=s: enumeration.laplace_sum_check(a, s),
                              lambda out: _fails(out.holds and out.lhs <= out.rhs)))
        for n, k, j, s in cfg["brute_Bs"]:
            key = (n, k, j, s)
            calls.append(Call(lambda key=key: enumeration.brute_force_Bs(*key),
                              lambda out, key=key: _fails(0 <= out[1] <= out[0] > 0
                                                          and KNOWN_BS.get(key, out) == out)))
        for s in cfg["rs_s"]:
            calls.append(Call(lambda s=s: enumeration.expected_Rs_upper(rs_params, s),
                              lambda out, s=s: _fails(_close(out, _expected_weight(rs_params, s, True)))))
            calls.append(Call(lambda s=s: enumeration.expected_Cs_lower_reference(rs_params, s),
                              lambda out, s=s: _fails(_close(out, _expected_weight(rs_params, s, False)))))
        return calls

    sizes = dict(cfg, rs_n=rs_params.n, rs_epsilon=rs_params.epsilon)
    return Workload(sizes, round_calls)


def build(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    if name == "accept":
        return accept(seed, tiny)
    if name == "dense":
        return dense(seed, tiny, workdir)
    if name == "coupling":
        return coupling(seed, tiny)
    return exact(seed, tiny)


WORKLOADS = ("accept", "dense", "coupling", "exact")
