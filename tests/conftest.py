import math
import os
from collections import Counter, defaultdict
from itertools import combinations

import pytest

from hyperlab.experiments import ExperimentConfig, csv_lines, run_experiment
from hyperlab.processes import SearchTrace

# this checkout's package source, which pytest's `pythonpath` puts on sys.path
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env(**extra: str) -> dict[str, str]:
    """The environment for a child interpreter, with `extra` set and SRC first
    on its PYTHONPATH, so that it imports the same hyperlab as the tests."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **extra, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


# the fixed desk-scale configurations used by the acceptance suite
ACCEPT_CONFIG = ExperimentConfig(
    n=250, k=3, j=2, epsilon=0.3, trials=300, m=3, base_seed=20260811
)
GRAPH_CONFIG = ExperimentConfig(
    n=5000, k=2, j=1, epsilon=0.25, trials=200, m=1, base_seed=20260811
)


@pytest.fixture(scope="session")
def accept_run():
    records, summary = run_experiment(ACCEPT_CONFIG, workers=1)
    return records, summary, csv_lines(records)


@pytest.fixture(scope="session")
def graph_run():
    records, summary = run_experiment(GRAPH_CONFIG, workers=1)
    return records, summary, csv_lines(records)


def format_trace(trace: SearchTrace) -> list[str]:
    """Stable dump format: one `STEP <idx> POP <J|K> <label>` line per pop."""
    return [
        f"STEP {i} POP {kind} {','.join(str(v) for v in label)}"
        for i, (kind, label) in enumerate(trace.pops)
    ]


# Level-0.05 critical values of the KS distance of R samples, two-sided and
# one-sided (sqrt(ln 20 / 2) = 1.224); for a discrete law the statistic is
# stochastically smaller than for a continuous one, so both are conservative.
KS_TWO_SIDED = 1.36
KS_ONE_SIDED = 1.224


def hitting_time_pmf(big_n: int, c0: int, p: float, s: int) -> float:
    """P(T = s), T the type-k count of the two-type branching process in which
    each type-j vertex draws Binomial(N, p) type-k children and each type-k
    vertex has c0 type-j children: by the hitting-time theorem,
    C(N(1+c0 s), s)/(1+c0 s) p^s (1-p)^(N(1+c0 s)-s)."""
    m = big_n * (1 + c0 * s)
    return math.exp(math.lgamma(m + 1) - math.lgamma(s + 1) - math.lgamma(m - s + 1)
                    - math.log1p(c0 * s) + s * math.log(p) + (m - s) * math.log1p(-p))


def chi2_pooled(law: dict, observed: Counter, trials: int) -> tuple[float, float]:
    """Pearson's chi^2 of `trials` observed counts against `law` (outcome ->
    probability), after merging the two least expected cells until each
    expects 5 or more, and its 0.999 quantile on (cells - 1) dof by
    Wilson-Hilferty, z = 3.0902."""
    cells = sorted((trials * prob, observed[outcome]) for outcome, prob in law.items())
    while cells[0][0] < 5:
        (e0, o0), (e1, o1) = cells[:2]
        cells = sorted([(e0 + e1, o0 + o1), *cells[2:]])
    dof = len(cells) - 1
    threshold = dof * (1 - 2 / (9 * dof) + 3.0902 * math.sqrt(2 / (9 * dof))) ** 3
    return sum((o - e) ** 2 / e for e, o in cells), threshold


def ks_distance(samples: list[int], pmf, one_sided: bool = False) -> float:
    """KS distance of non-negative integer samples against the law with
    P(T = s) = pmf(s): max_s |F_hat(s) - F(s)|, or with `one_sided` the excess
    of the samples' upper tail, P_hat(S >= s) - P(T >= s) at its largest over
    s = 1 .. max(samples) + 1 (past that it is -P(T >= s), below 0)."""
    counts = Counter(samples)
    law = observed = 0.0
    distance = -math.inf
    for s in range(max(samples) + 1):
        law += pmf(s)
        observed += counts[s] / len(samples)
        gap = law - observed  # P_hat(S > s) - P(T > s)
        distance = max(distance, gap if one_sided else abs(gap))
    return distance


def top_record_tallies(n: int, k: int, j: int, m: int = 1) -> dict[tuple, Counter]:
    """The exact law of `run_trial`'s top-m record (L1..Lm, the hypertree
    flags of ranks 1..m, the largest non-hypertree size) on H^k(n, p), as
    integer tallies: per record, a_e hypergraphs with e edges give it, over
    all 2^E edge sets, E = C(n, k), so P(record) = sum_e a_e p^e (1-p)^(E-e)
    at every p.  Ranks past the last component read size 0 and flag None.

    Components are found by BFS over shared j-sets, apart from `_decompose`.
    Edges are taken in colex order, so components come in id order (each
    one's id is its least edge) and equal sizes rank the smaller id first.
    """
    ksets = sorted(combinations(range(n), k), key=lambda e: e[::-1])
    jsets = [set(combinations(e, j)) for e in ksets]
    c0 = math.comb(k, j) - 1
    tallies = defaultdict(Counter)
    for mask in range(1 << len(ksets)):
        edges = [i for i in range(len(ksets)) if mask >> i & 1]
        seen, comps, nonhyp = set(), [], 0
        for root in edges:
            if root in seen:
                continue
            seen.add(root)
            queue, order = [root], set()
            for e in queue:
                order |= jsets[e]
                for f in edges:
                    if f not in seen and jsets[e] & jsets[f]:
                        seen.add(f)
                        queue.append(f)
            hypertree = len(order) == 1 + c0 * len(queue)
            comps.append((len(queue), hypertree))
            if not hypertree:
                nonhyp = max(nonhyp, len(queue))
        sizes, flags = zip(*(sorted(comps, key=lambda c: -c[0]) + [(0, None)] * m)[:m])
        tallies[(*sizes, *flags, nonhyp)][len(edges)] += 1
    return tallies
