"""Monte Carlo harness: sample, decompose, rank components, compare to theory.

Each trial samples one hypergraph, decomposes it into j-components, ranks
them by size (ties broken by smaller component id) and writes its own
record of the top m, trial index included.  Trial t runs on seed
splitmix64-mixed from the base seed, so it reproduces in isolation, and
one worker or many make the same `run_trial` call for it: the record list
is byte-identical whatever the worker count.

The centered statistic delta*L_i - (log lambda - 2.5 log log lambda)
should stay within a bounded band as n grows; its empirical 5-95% spread
is the operational stand-in for that bounded-in-probability claim.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .combinatorics import MAX_FLOAT_INT, TheoryParams, comb_at_most
from .enumeration import predicted_L1, predicted_M1
from .errors import ResourceLimitError, ValidationError
from .hypergraph import _decompose, sample
from .rng import RNG_ALGORITHM, SEED_MIXER, trial_seed

QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)
DEFAULT_EDGE_BUDGET = 5_000_000
# Largest trial count and top-m rank count: a run holds trials * m ranks in
# memory, and MAX_TRIALS (250, 3, 2) trials take 46-47 s on one worker, at
# the 0.46-0.47 ms per trial of `run_experiment` that perfbench's `accept`
# workload measured on two shared cores (Python 3.11, numpy 2.4).
MAX_TRIALS = 100_000
MAX_M = 100
# informational cutoff for "large" asymptotic proxies reported in summaries
REGIME_PROXY_MIN = 10.0


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    j: int
    epsilon: float
    trials: int
    m: int = 3
    base_seed: int = 1
    cap: int = DEFAULT_EDGE_BUDGET

    def __post_init__(self) -> None:
        self.params()
        for name in ("trials", "m", "cap"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.trials > MAX_TRIALS or self.m > MAX_M:
            raise ResourceLimitError(f"need trials <= {MAX_TRIALS} and m <= {MAX_M}, "
                                     f"got trials={self.trials}, m={self.m}")

    def params(self) -> TheoryParams:
        return TheoryParams.subcritical(self.n, self.k, self.j, self.epsilon)


@dataclass(frozen=True)
class TrialRecord:
    """Top-m component statistics of one sampled hypergraph."""

    trial: int
    seed: int
    edges: int
    sizes: tuple[int, ...]
    orders: tuple[int, ...]
    hypertree: tuple[Optional[bool], ...]
    nonhypertree_count: int
    largest_nonhypertree: int


@dataclass(frozen=True)
class ExperimentSummary:
    config: ExperimentConfig
    theory: dict[str, float]
    regime: dict[str, float]
    l_quantiles: tuple[tuple[float, ...], ...]
    centered_quantiles: tuple[tuple[float, ...], ...]
    hypertree_frac: tuple[Optional[float], ...]
    runtime_seconds: float

    @property
    def median_L1(self) -> float:
        return self.l_quantiles[0][2]

    @property
    def centered_p05(self) -> float:
        return self.centered_quantiles[0][0]

    @property
    def centered_p95(self) -> float:
        return self.centered_quantiles[0][4]


def run_trial(params: TheoryParams, seed: int, m: int, trial: int = 0) -> TrialRecord:
    """The top-m record of H^k(n, p) on `seed`, at any model point: only
    n, k, j and p are read, so epsilon may take either sign."""
    h = sample(params.n, params.k, params.p, seed)
    sizes, orders, flags, *_ = _decompose(h, params.j)
    top = _top_ids(sizes, m)
    pad = m - len(top)  # ranks past the last component read 0, 0, None
    nonhyp = sizes[~flags]
    return TrialRecord(
        trial=trial,
        seed=seed,
        edges=len(h.array),
        sizes=tuple(sizes[top].tolist()) + (0,) * pad,
        orders=tuple(orders[top].tolist()) + (0,) * pad,
        hypertree=tuple(flags[top].tolist()) + (None,) * pad,
        nonhypertree_count=len(nonhyp),
        largest_nonhypertree=int(nonhyp.max(initial=0)),
    )


def _top_ids(sizes: np.ndarray, m: int) -> np.ndarray:
    # The ids of the m largest of non-negative sizes, largest first, ties
    # keeping the smaller id first: `np.argsort(-sizes, kind="stable")[:m]`,
    # but sorting only the sizes at least the m-th largest, found by a partition
    kth = len(sizes) - m
    cut = np.partition(sizes, kth)[kth] if kth > 0 else 0
    cand = (sizes >= cut).nonzero()[0]
    return cand[np.argsort(-sizes[cand], kind="stable")[:m]]


def check_edge_budget(n: int, k: int, p: float, cap: int = DEFAULT_EDGE_BUDGET) -> None:
    """Refuse to sample H^k(n, p) when its expected edge count exceeds `cap`."""
    total = comb_at_most(n, k, MAX_FLOAT_INT)
    expected = math.inf if total is None else total * p
    if expected > cap:
        raise ResourceLimitError(f"expected edge count {expected:.0f} exceeds budget {cap}")


def run_experiment(
    config: ExperimentConfig, workers: int = 1
) -> tuple[list[TrialRecord], ExperimentSummary]:
    """Run all trials (optionally in parallel) and aggregate.

    Output is independent of `workers`: each trial owns a splitmix64-mixed
    seed and records are collected in trial order.  At most
    min(trials, os.cpu_count()) worker processes are started.
    """
    params = config.params()
    check_edge_budget(config.n, config.k, params.p, config.cap)
    workers = min(workers, config.trials, os.cpu_count() or 1)
    start = time.perf_counter()
    trials = range(config.trials)
    seeds = [trial_seed(config.base_seed, t) for t in trials]
    if workers <= 1:
        records = list(map(run_trial, repeat(params), seeds, repeat(config.m), trials))
    else:
        # imported here: a one-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, config.trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, repeat(params), seeds, repeat(config.m), trials,
                                    chunksize=chunk))
    runtime = time.perf_counter() - start
    return records, summarize(config, records, runtime)


def summarize(config: ExperimentConfig, records: list[TrialRecord],
              runtime: float) -> ExperimentSummary:
    params = config.params()
    loglam = math.log(params.lam) if params.lam > 0 else float("nan")
    target = loglam - 2.5 * math.log(loglam) if params.lam > math.e else float("nan")
    theory = {
        "c0": float(params.c0),
        "p0": params.p0,
        "p": params.p,
        "delta": params.delta,
        "lambda": params.lam,
        "predicted_L1": predicted_L1(params) if params.lam > math.e else float("nan"),
        "predicted_M1": predicted_M1(params) if params.lam > math.e else float("nan"),
    }
    regime = {
        "eps4_nj": config.epsilon**4 * config.n**config.j,
        "eps2_nkj_over_logn": config.epsilon**2
        * config.n ** (config.k - config.j)
        / math.log(config.n),
        "lambda": params.lam,
    }
    sizes = np.array([r.sizes for r in records], dtype=np.float64)  # trials x m
    # per rank, the QUANTILES over the trials in that column
    lq, cq = (tuple(map(tuple, np.quantile(a, QUANTILES, axis=0).T.tolist()))
              for a in (sizes, params.delta * sizes - target))
    frac = []
    for flags in zip(*(r.hypertree for r in records)):
        known = [f for f in flags if f is not None]
        frac.append(sum(known) / len(known) if known else None)
    return ExperimentSummary(
        config=config,
        theory=theory,
        regime=regime,
        l_quantiles=lq,
        centered_quantiles=cq,
        hypertree_frac=tuple(frac),
        runtime_seconds=runtime,
    )


class Criterion(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerdictReport(NamedTuple):
    criteria: list[Criterion]
    passed: bool


def check_verdict_limits(spread_width: float, hypertree_threshold: float) -> None:
    """Refuse a spread limit that is not finite and > 0, or a threshold outside [0, 1]."""
    if not 0 < spread_width < math.inf:
        raise ValidationError(f"spread width must be finite and > 0, got {spread_width}")
    if not 0 <= hypertree_threshold <= 1:
        raise ValidationError(f"hypertree threshold must lie in [0, 1], got {hypertree_threshold}")


def compare_to_theory(
    summary: ExperimentSummary,
    records: list[TrialRecord],
    spread_width: float = 6.0,
    hypertree_threshold: float = 0.95,
) -> VerdictReport:
    """Pass/fail verdicts: (a) bounded centered spread for the largest
    component, (b) hypertree fraction across the recorded top-m, (c) the
    exact order identity M = 1 + c0*L on every hypertree-flagged entry."""
    if summary.config.trials < 30:
        raise ValidationError(
            f"comparison needs >= 30 trials, got {summary.config.trials}"
        )
    check_verdict_limits(spread_width, hypertree_threshold)
    spread = summary.centered_p95 - summary.centered_p05
    crit_a = Criterion(
        name="centered_spread",
        passed=bool(spread <= spread_width),
        detail=f"p95-p05 spread of delta*L_1 - target = {spread:.4g} (limit {spread_width:g})",
    )
    flags = [f for r in records for f in r.hypertree if f is not None]
    frac = sum(flags) / len(flags) if flags else None
    crit_b = Criterion(
        name="hypertree_fraction",
        passed=frac is None or bool(frac >= hypertree_threshold),
        detail="no components recorded; fraction undefined (null)" if frac is None
        else f"top-m hypertree fraction = {frac:.4g} (threshold {hypertree_threshold:g})",
    )
    c0 = summary.config.params().c0
    violations = sum(
        1
        for r in records
        for L, M, f in zip(r.sizes, r.orders, r.hypertree)
        if f and M != 1 + c0 * L
    )
    crit_c = Criterion(
        name="order_identity",
        passed=violations == 0,
        detail=f"M = 1 + c0*L violations among hypertree entries: {violations}",
    )
    criteria = [crit_a, crit_b, crit_c]
    return VerdictReport(criteria=criteria, passed=all(c.passed for c in criteria))


# -- output formats ----------------------------------------------------------

CSV_HEADER = "trial,seed,edges,i,L_i,M_i,hypertree"


def csv_lines(records: list[TrialRecord]) -> str:
    """One row per (trial, rank); empty hypertree field for missing ranks."""
    out = [CSV_HEADER]
    for r in records:
        for i, (L, M, f) in enumerate(zip(r.sizes, r.orders, r.hypertree), start=1):
            flag = "" if f is None else ("1" if f else "0")
            out.append(f"{r.trial},{r.seed},{r.edges},{i},{L},{M},{flag}")
    return "\n".join(out) + "\n"


def _fmt(x: Optional[float]) -> str:
    return "null" if x is None else f"{x:.10g}"


def machine_block(summary: ExperimentSummary) -> str:
    lines = [
        f"rng={RNG_ALGORITHM}",
        f"seed_mixer={SEED_MIXER}",
        f"trials={summary.config.trials}",
        f"predicted_L1={_fmt(summary.theory['predicted_L1'])}",
        f"median_L1={_fmt(summary.median_L1)}",
        f"centered_p05={_fmt(summary.centered_p05)}",
        f"centered_p95={_fmt(summary.centered_p95)}",
        f"hypertree_frac_1={_fmt(summary.hypertree_frac[0])}",
    ]
    return "\n".join(lines) + "\n"


def format_summary(summary: ExperimentSummary, footer: bool = True) -> str:
    cfg = summary.config
    th = summary.theory
    lines = [
        "== experiment summary ==",
        f"config: n={cfg.n} k={cfg.k} j={cfg.j} epsilon={_fmt(cfg.epsilon)} "
        f"trials={cfg.trials} m={cfg.m} base_seed={cfg.base_seed} cap={cfg.cap}",
        f"theory: c0={th['c0']:.0f} p0={_fmt(th['p0'])} p={_fmt(th['p'])} "
        f"delta={_fmt(th['delta'])} lambda={_fmt(th['lambda'])} "
        f"predicted_L1={_fmt(th['predicted_L1'])} predicted_M1={_fmt(th['predicted_M1'])}",
        "regime proxies (informational, large means the asymptotic regime is plausible):",
    ]
    for key, val in summary.regime.items():
        ok = "yes" if val >= REGIME_PROXY_MIN else "no"
        lines.append(f"  {key}={_fmt(val)} large={ok}")
    lines.append("per-rank statistics (quantiles 5/25/50/75/95):")
    for i in range(cfg.m):
        ls = " ".join(_fmt(v) for v in summary.l_quantiles[i])
        cs = " ".join(_fmt(v) for v in summary.centered_quantiles[i])
        lines.append(f"  i={i + 1} L=[{ls}] centered=[{cs}] "
                     f"hypertree_frac={_fmt(summary.hypertree_frac[i])}")
    lines.append("machine:")
    lines.append(machine_block(summary).rstrip("\n"))
    if footer:
        lines.append(f"# footer: runtime_seconds={summary.runtime_seconds:.3f}")
    return "\n".join(lines) + "\n"


def parse_config_file(text: str) -> dict[str, str]:
    """Flat key/value config: one `key = value` per line, `#` comments."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line must be 'key = value': {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ValidationError(f"config line must be 'key = value': {raw!r}")
        if key in out:
            raise ValidationError(f"config key {key!r} is given twice")
        out[key] = val
    return out
