"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 theory-comparison failure,
3 resource guard refusal.  All output is byte-reproducible for identical
flags and seeds; the only wall-clock line is the summary footer, which
`--no-footer` suppresses.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import MISSING, fields
from fractions import Fraction
from typing import get_type_hints

from .combinatorics import TheoryParams, check_domain
from .enumeration import (
    _in_float_range,
    enum_report,
    exp_reciprocal_bounds,
    expected_Cs_lower_reference,
    expected_Rs_upper,
    laplace_sum_check,
    log_wheel_bound,
    unicycle_bound,
    wheel_bound_exact,
)
from .errors import ResourceLimitError, ValidationError
from .experiments import (
    ExperimentConfig,
    check_edge_budget,
    check_verdict_limits,
    compare_to_theory,
    csv_lines,
    format_summary,
    parse_config_file,
    run_experiment,
)
from .hypergraph import _decompose, _witnesses, read_hypergraph, sample, write_hypergraph

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPARISON = 2
EXIT_RESOURCE = 3

# Largest --s-max of `enumerate`: row s sums s big-integer terms; 700 rows take 6 s.
MAX_ENUM_S = 1000
# ExperimentConfig's fields, in the order `experiment --help` lists them: each
# is both an `experiment` flag (base_seed -> --base-seed) and a config-file key.
_CONFIG_TYPES = get_type_hints(ExperimentConfig)
_REQUIRED = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the validation exit code; an argument
    # starting as a float literal (-1e-3, -.5, -inf, -nan) is a flag's value
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        raise ValidationError(message)


def _str(x: int) -> str:
    try:
        return str(x)
    except ValueError as exc:  # longer than sys.get_int_max_str_digits()
        raise ResourceLimitError(f"exact value too long to print: {exc}") from exc


def _frac(x: Fraction) -> str:
    return f"{_str(x.numerator)}/{_str(x.denominator)}"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not ASCII text: {exc}") from exc


@functools.cache  # parsing leaves no state on the parser: one tree serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="hyperlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen, p_comp, p_enum, p_bounds, p_exp = (
        sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items())
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None, help="explicit edge probability")
    p_gen.add_argument("--epsilon", type=float, default=None,
                       help="use p = (1-epsilon)*p0 for the given j")
    p_gen.add_argument("--j", type=int, default=None,
                       help="connectivity level for --epsilon (default k-1)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_comp.add_argument("--in", dest="infile", required=True)
    p_comp.add_argument("--j", type=int, required=True)
    p_comp.add_argument("--wheels", action="store_true",
                        help="print a wheel witness per non-hypertree component")

    for flag in ("--k", "--j", "--n", "--s-max"):
        p_enum.add_argument(flag, type=int, required=True)

    p_bounds.add_argument("--which", required=True,
                          choices=["wheel", "laplace", "rs", "cs", "unicycle"])
    for name in ("n", "k", "j", "epsilon", "ell", "a", "s"):
        p_bounds.add_argument(f"--{name}", type=float if name == "epsilon" else int)
    p_bounds.add_argument("--constant", type=float, default=244.0)

    p_exp.add_argument("--config", default=None, help="flat key=value config file")
    for name, cast in _CONFIG_TYPES.items():  # one flag per config key
        p_exp.add_argument(f"--{name.replace('_', '-')}", type=cast, default=None)
    p_exp.add_argument("--csv", default=None, help="write trial records to this path")
    p_exp.add_argument("--workers", type=int, default=None,
                       help="trial parallelism (env HYPERLAB_WORKERS as fallback)")
    p_exp.add_argument("--spread-width", type=float, default=6.0)
    p_exp.add_argument("--hypertree-threshold", type=float, default=0.95)
    p_exp.add_argument("--no-footer", action="store_true")
    return parser


def _cmd_gen(args) -> int:
    if (args.p is None) == (args.epsilon is None):
        raise ValidationError("gen needs exactly one of --p or --epsilon")
    if args.p is not None:
        p = args.p
    else:
        j = args.j if args.j is not None else args.k - 1
        p = TheoryParams.subcritical(args.n, args.k, j, args.epsilon).p
    check_domain(args.n, args.k)
    if 0.0 <= p <= 1.0:  # else sample reports the bad p
        check_edge_budget(args.n, args.k, p)
    h = sample(args.n, args.k, p, args.seed)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(write_hypergraph(h))
    print(f"wrote {len(h.array)} edges to {args.out}")
    return EXIT_OK


def _cmd_components(args) -> int:
    h = read_hypergraph(_read_text(args.infile))
    check_domain(h.n, h.k, args.j)
    # C(n, j) >= (n/j)^j: refuse before the decomposition and before forming a count
    # that cannot print, with j kept an int, as it may pass the float range
    limit = sys.get_int_max_str_digits()
    if limit and math.log10(h.n) - math.log10(args.j) > (limit + 1) / args.j:
        raise ResourceLimitError(f"the isolated j-set count would print over {limit} digits")
    sizes, orders, flags, firsts, _ = _decompose(h, args.j)
    lines = ["id size order hypertree\n"]
    lines += [f"{cid} {size} {order} {'yes' if flag else 'no'}\n" for cid, (size, order, flag)
              in enumerate(zip(sizes.tolist(), orders.tolist(), flags.tolist()))]
    # every touched j-set lies in exactly one component's order
    lines.append(f"isolated_jsets {_str(math.comb(h.n, args.j) - int(orders.sum()))}\n")
    if args.wheels:
        for cid, w in enumerate(_witnesses(h, args.j, flags, firsts)):
            if w is not None:
                ks = "|".join(",".join(map(str, e)) for e in w.edges)
                js = "|".join(",".join(map(str, s)) for s in w.jsets)
                lines.append(f"wheel {cid} length={w.length} K={ks} J={js}\n")
    sys.stdout.write("".join(lines))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.s_max < 1:
        raise ValidationError(f"--s-max must be >= 1, got {args.s_max}")
    if args.s_max > MAX_ENUM_S:
        raise ResourceLimitError(f"--s-max is limited to {MAX_ENUM_S}, got {args.s_max}")
    # epsilon does not enter any printed column; any valid value carries (n, k, j)
    params = TheoryParams(args.n, args.k, args.j, 0.5)
    # Row 1's upper column is the bracket's upper end, whose denominator
    # c0^(s_max+2) divides: refuse before building a bracket that cannot print.
    limit = sys.get_int_max_str_digits()
    if limit and (args.s_max + 2) * math.log10(params.c0) > limit + 1:
        raise ResourceLimitError(f"the table would print integers over {limit} digits")
    bracket = exp_reciprocal_bounds(params.c0, args.s_max + 2)
    # Rows are formatted from the last, which carries the longest integers,
    # and printed once all are: a refusal comes early and prints nothing.
    reports = (enum_report(params, s, bracket) for s in range(args.s_max, 0, -1))
    rows = [
        f"{rep.s}\t{_frac(rep.f_s)}\t{_frac(rep.b_s)}\t{_frac(rep.lower)}"
        f"\t{_frac(rep.upper)}\t{'true' if rep.bounds_hold else 'false'}"
        for rep in reports
    ]
    print("s\tF_s\tB_s\tlower\tupper\tbounds_hold")
    print("\n".join(reversed(rows)))
    return EXIT_OK


def _require(args, names: list[str]) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValidationError(f"--which {args.which} needs {', '.join(missing)}")


def _cmd_bounds(args) -> int:
    if args.which == "wheel":
        _require(args, ["n", "k", "j", "ell"])
        n, k, j, ell = args.n, args.k, args.j, args.ell
        # refuse from the bound's log before the exact power of 1/p0 is formed;
        # near the edge float(bound) decides
        if (log_bound := log_wheel_bound(n, k, j, ell)) > math.log(sys.float_info.max) + 1:
            raise ValidationError(f"the wheel bound, e^{log_bound:.6g}, is past the float range")
        cw, bound = wheel_bound_exact(n, k, j, ell)
        lines = [f"c_w={_frac(cw)}",
                 f"wheel_bound={_in_float_range('the wheel bound', lambda: float(bound)):.10g}"]
        print("\n".join(lines))
    elif args.which == "laplace":
        _require(args, ["a", "s"])
        chk = laplace_sum_check(args.a, args.s)
        print(f"lhs={chk.lhs:.10g}")
        print(f"rhs={chk.rhs:.10g}")
        print(f"holds={'true' if chk.holds else 'false'}")
    else:
        _require(args, ["n", "k", "j", "epsilon", "s"])
        params = TheoryParams.subcritical(args.n, args.k, args.j, args.epsilon)
        if args.which == "rs":
            print(f"expected_Rs_upper={expected_Rs_upper(params, args.s):.10g}")
        elif args.which == "cs":
            print(f"expected_Cs_lower_reference={expected_Cs_lower_reference(params, args.s):.10g}")
        else:
            print(f"log_unicycle_bound={unicycle_bound(params, args.s, args.constant):.10g}")
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    values = parse_config_file(_read_text(args.config)) if args.config else {}
    for key in values:
        if key not in _CONFIG_TYPES:
            raise ValidationError(f"unknown config key {key!r} (keys: {', '.join(_CONFIG_TYPES)})")

    def pick(name):  # the flag wins over the file
        value = getattr(args, name)
        if value is None and name in values:
            try:
                return _CONFIG_TYPES[name](values[name])
            except ValueError as exc:
                raise ValidationError(f"bad config value for {name}: {values[name]!r}") from exc
        return value

    chosen = {name: v for name in _CONFIG_TYPES if (v := pick(name)) is not None}
    missing = [name for name in _REQUIRED if name not in chosen]
    if missing:
        raise ValidationError(f"experiment needs {', '.join('--' + m for m in missing)}")
    return ExperimentConfig(**chosen)


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("HYPERLAB_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"HYPERLAB_WORKERS must be an integer, got {env!r}") from exc
    return 1


def _cmd_experiment(args) -> int:
    check_verdict_limits(args.spread_width, args.hypertree_threshold)
    config = _experiment_config(args)
    records, summary = run_experiment(config, workers=_workers(args))
    if args.csv:
        with open(args.csv, "w", encoding="ascii", newline="") as fh:
            fh.write(csv_lines(records))
    sys.stdout.write(format_summary(summary, footer=not args.no_footer))
    if config.trials < 30:
        print("comparison skipped: needs >= 30 trials")
        return EXIT_OK
    verdict = compare_to_theory(summary, records, spread_width=args.spread_width,
                                hypertree_threshold=args.hypertree_threshold)
    for crit in verdict.criteria:
        print(f"criterion {crit.name}: {'PASS' if crit.passed else 'FAIL'} ({crit.detail})")
    return EXIT_OK if verdict.passed else EXIT_COMPARISON


# subcommand -> (handler, help line), in the order `hyperlab --help` lists them
_COMMANDS = {
    "gen": (_cmd_gen, "sample a hypergraph to a file"),
    "components": (_cmd_components, "decompose a hypergraph file into j-components"),
    "enumerate": (_cmd_enumerate, "exact tree counts and their two-sided bracket"),
    "bounds": (_cmd_bounds, "evaluate analytic bound expressions"),
    "experiment": (_cmd_experiment, "Monte Carlo run: CSV records plus summary"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
