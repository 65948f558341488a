import contextlib
import dataclasses
import io
import math
import re
import resource
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperlab import cli, experiments, hypergraph
from hyperlab.cli import main
from hyperlab.combinatorics import TheoryParams, unrank_subset
from hyperlab.enumeration import (brute_force_Bs, exp_reciprocal_bounds, expected_Rs_upper, f_s,
                                  laplace_sum_check, tj_series_fixed_point)
from hyperlab.errors import ResourceLimitError, ValidationError
from hyperlab.experiments import check_edge_budget
from hyperlab.hypergraph import (Hypergraph, Wheel, j_components, read_hypergraph, sample,
                                 write_hypergraph)
from hyperlab.processes import branching_with_rate
from hyperlab.rng import trial_seed
from tests.conftest import child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_complete_graph(self, capsys, tmp_path):
        out = tmp_path / "h.txt"
        code, _, _ = run_cli(capsys, "gen", "--n", "5", "--k", "3", "--p", "1.0", "--out", str(out))
        assert code == 0
        h = read_hypergraph(out.read_text())
        assert len(h.edges) == 10

    def test_epsilon_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--n", "100", "--k", "3", "--epsilon", "0.3", "--seed", "7"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n_below_k_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--n", "3", "--k", "4", "--p", "0.5", "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert "error" in err

    def test_requires_exactly_one_probability_flag(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "gen", "--n", "5", "--k", "3", "--out", str(tmp_path / "x"))
        assert code == 1
        code, _, _ = run_cli(
            capsys, "gen", "--n", "5", "--k", "3", "--p", "0.1", "--epsilon", "0.3",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_unknown_flag_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "gen", "--n", "5", "--k", "3", "--p", "1", "--frobnicate",
                             "--out", str(tmp_path / "x"))
        assert code == 1

    def test_edge_budget_guard_exits_three(self, capsys, tmp_path):
        # C(2000, 3) * 0.5 is about 6.7e8 expected edges, over the 5e6 budget
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "gen", "--n", "2000", "--k", "3", "--p", "0.5",
                               "--out", str(out))
        assert code == 3 and err.startswith("resource guard:")
        assert not out.exists()


class TestComponents:
    def write(self, tmp_path, text):
        f = tmp_path / "h.txt"
        f.write_text(text)
        return str(f)

    def test_disjoint_pair(self, capsys, tmp_path):
        path = self.write(tmp_path, "5 3 2\n1 2 3\n3 4 5\n")
        code, out, _ = run_cli(capsys, "components", "--in", path, "--j", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id size order hypertree"
        assert lines[1] == "0 1 3 yes"
        assert lines[2] == "1 1 3 yes"
        assert lines[3] == "isolated_jsets 4"

    def test_shared_vertex_j1(self, capsys, tmp_path):
        path = self.write(tmp_path, "5 3 2\n1 2 3\n3 4 5\n")
        code, out, _ = run_cli(capsys, "components", "--in", path, "--j", "1")
        assert "0 2 5 yes" in out.splitlines()

    def test_wheel_witness_output(self, capsys, tmp_path):
        path = self.write(tmp_path, "4 3 3\n1 2 3\n1 2 4\n1 3 4\n")
        code, out, _ = run_cli(capsys, "components", "--in", path, "--j", "2", "--wheels")
        assert code == 0
        assert "0 3 6 no" in out.splitlines()
        wheel_lines = [ln for ln in out.splitlines() if ln.startswith("wheel 0 ")]
        assert len(wheel_lines) == 1 and "length=3" in wheel_lines[0]

    @staticmethod
    def rendered(h, j, wheels):
        """The table, isolated count and wheel lines as rendered from the
        `j_components` summaries and j-set map."""
        comps, jmap = j_components(h, j)
        lines = ["id size order hypertree"]
        lines += [f"{c.id} {c.size} {c.order} {'yes' if c.is_hypertree else 'no'}" for c in comps]
        lines.append(f"isolated_jsets {math.comb(h.n, j) - len(jmap)}")
        for c in comps if wheels else ():
            if (w := c.wheel_witness) is not None:
                ks = "|".join(",".join(map(str, e)) for e in w.edges)
                js = "|".join(",".join(map(str, s)) for s in w.jsets)
                lines.append(f"wheel {c.id} length={w.length} K={ks} J={js}")
        return "".join(line + "\n" for line in lines)

    def test_output_equals_the_j_components_rendering(self, capsys, tmp_path):
        # c05's (k, j) pairs, below, near and past the threshold
        witnesses = 0
        for idx, (k, j) in enumerate([(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]):
            n = 24
            p0 = 1 / ((math.comb(k, j) - 1) * math.comb(n - j, k - j))
            for mult in (0.5, 1.5, 3.0):
                for seed in range(3):
                    h = sample(n, k, min(1.0, mult * p0), trial_seed(1600 + idx, seed))
                    path = self.write(tmp_path, write_hypergraph(h))
                    for wheels in (False, True):
                        flag = ["--wheels"] if wheels else []
                        code, out, _ = run_cli(capsys, "components", "--in", path, "--j", str(j),
                                               *flag)
                        assert code == 0
                        assert out == self.rendered(h, j, wheels)
                        witnesses += wheels and "\nwheel " in out
        assert witnesses > 0

    def test_prints_from_the_columns(self, capsys, tmp_path):
        # never calls j_components, builds no j-set dict and sorts the j-subsets once
        h = sample(24, 3, 3 / (2 * math.comb(22, 1)), trial_seed(1605, 0))
        path = self.write(tmp_path, write_hypergraph(h))
        sorts = mock.patch.object(hypergraph, "rank_array", wraps=hypergraph.rank_array)
        dicts = mock.patch.object(hypergraph, "dict", create=True, wraps=dict)
        whole = [mock.patch.object(module, "j_components", create=True, side_effect=AssertionError)
                 for module in (hypergraph, cli)]
        with sorts as sort_spy, dicts as dict_spy, whole[0], whole[1]:
            code, out, _ = run_cli(capsys, "components", "--in", path, "--j", "2", "--wheels")
        assert code == 0 and "\nwheel " in out
        assert sort_spy.call_count == 1
        assert dict_spy.call_count == 0
        with mock.patch.object(hypergraph, "dict", create=True, wraps=dict) as dict_spy:
            j_components(h, 2)
        assert dict_spy.call_count == 1  # the spy sees the j-set map where one is built

    def test_malformed_file_exits_one(self, capsys, tmp_path):
        path = self.write(tmp_path, "5 3 2\n1 2 3\n")
        code, _, err = run_cli(capsys, "components", "--in", path, "--j", "2")
        assert code == 1 and "error" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "components", "--in", str(tmp_path / "nope"), "--j", "2")
        assert code == 1

    def test_non_ascii_file_exits_one(self, capsys, tmp_path):
        f = tmp_path / "h.txt"
        f.write_bytes(b"5 3 1\n1 2 \xff\n")
        code, _, err = run_cli(capsys, "components", "--in", str(f), "--j", "2")
        assert code == 1 and err.startswith("error:")

    def test_read_hypergraph_equals_only_hypergraphs(self):
        h = read_hypergraph("5 3 1\n1 2 3\n")
        assert h.__eq__(((1, 2, 3),)) is NotImplemented
        assert h != ((1, 2, 3),) and h != "5 3 1\n1 2 3\n"
        assert h == Hypergraph(5, 3, [(1, 2, 3)]) != Hypergraph(6, 3, [(1, 2, 3)])


class TestEnumerate:
    def test_table_shape_and_known_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--k", "2", "--j", "1", "--n", "4", "--s-max", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s\tF_s\tB_s\tlower\tupper\tbounds_hold"
        row1 = lines[1].split("\t")
        assert row1[0] == "1" and row1[1] == "1/1" and row1[2] == "12/1"
        row2 = lines[2].split("\t")
        assert row2[1] == "3/2" and row2[2] == "54/1" and row2[5] == "true"

    def test_bad_smax(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "--k", "2", "--j", "1", "--n", "4", "--s-max", "0")
        assert code == 1

    def test_rows_beyond_digit_limit_exit_three_without_table(self, capsys):
        # row 1000's upper column has about 4,900 digits, over the 4,300-digit print limit
        code, out, err = run_cli(capsys, "enumerate", "--k", "3", "--j", "2", "--n", "100",
                                 "--s-max", "1000")
        assert code == 3 and out == "" and err.startswith("resource guard:")

    def test_huge_smax_refused_at_once(self, capsys):
        for k, j in [("2", "1"), ("3", "2")]:
            code, out, err = run_cli(capsys, "enumerate", "--k", k, "--j", j, "--n", "100",
                                     "--s-max", str(10**15))
            assert code == 3 and out == "" and err.startswith("resource guard:")


class TestBounds:
    def test_wheel(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--which", "wheel", "--n", "8", "--k", "3", "--j", "2", "--ell", "3"
        )
        assert code == 0
        assert "c_w=1/1" in out and "wheel_bound=384" in out

    def test_laplace(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--which", "laplace", "--a", "1", "--s", "256")
        assert code == 0 and "holds=true" in out

    def test_rs_cs(self, capsys):
        base = ["--n", "60", "--k", "3", "--j", "2", "--epsilon", "0.3", "--s", "5"]
        assert run_cli(capsys, "bounds", "--which", "rs", *base)[0] == 0
        assert run_cli(capsys, "bounds", "--which", "cs", *base)[0] == 0

    def test_unicycle(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--which", "unicycle", "--n", "60", "--k", "3", "--j", "2",
            "--epsilon", "0.3", "--s", "2048",
        )
        assert code == 0 and "log_unicycle_bound=" in out

    def test_unicycle_below_threshold(self, capsys):
        code, _, _ = run_cli(
            capsys, "bounds", "--which", "unicycle", "--n", "60", "--k", "3", "--j", "2",
            "--epsilon", "0.3", "--s", "100",
        )
        assert code == 1

    def test_unicycle_non_finite_constant_exits_one(self, capsys):
        for constant in ("nan", "inf"):
            code, out, err = run_cli(
                capsys, "bounds", "--which", "unicycle", "--n", "60", "--k", "3", "--j", "2",
                "--epsilon", "0.3", "--s", "2048", "--constant", constant,
            )
            assert code == 1 and out == "" and err.startswith("error:")

    def test_unicycle_forms_no_exact_constant(self, capsys):
        # the unicycle bound reads the wheel bound's summed log, not the exact c_w (0.35 s here)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bounds", "--which", "unicycle", "--n", "1000",
                                 "--k", "1000", "--j", "300", "--epsilon", "0.3", "--s", "1024")
        assert time.perf_counter() - start < 0.1
        assert (code, out, err) == (0, "log_unicycle_bound=624978.2473\n", "")

    def test_unicycle_beyond_float_range_exits_one(self, capsys):
        # C(n-j, k-j) = C(99999, 199) does not fit in a float, so p0 cannot be formed
        code, _, err = run_cli(
            capsys, "bounds", "--which", "unicycle", "--n", "100000", "--k", "200", "--j", "1",
            "--epsilon", "0.3", "--s", "2048",
        )
        assert code == 1 and err.startswith("error:")

    def test_wheel_beyond_float_range_exits_one(self, capsys):
        for ell in ("300", str(10**15)):
            code, out, err = run_cli(capsys, "bounds", "--which", "wheel", "--n", "8", "--k", "3",
                                     "--j", "2", "--ell", ell)
            assert code == 1 and out == "" and err.startswith("error:")

    def test_wheel_float_edge(self, capsys):
        # 16 * 6^(ell-1) / ell at (4,3,1): the log lets both through, and float(bound) decides
        base = ["bounds", "--which", "wheel", "--n", "4", "--k", "3", "--j", "1", "--ell"]
        code, out, err = run_cli(capsys, *base, "399")
        assert code == 1 and out == "" and err == "error: the wheel bound is past the float range\n"
        code, out, err = run_cli(capsys, *base, "398")
        assert code == 0 and err == "" and out == "c_w=1/1\nwheel_bound=3.390652739e+307\n"

    def test_wheel_huge_n_refused_before_the_binomial(self, capsys):
        # C(10^4000 - 2, 1000) has about 4 million digits; the summed log refuses first
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bounds", "--which", "wheel", "--n", str(10**4000),
                                 "--k", "1002", "--j", "2", "--ell", "2")
        assert time.perf_counter() - start < 0.1
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "past the float range" in err

    def test_wheel_past_range_refused_before_the_exact_constant(self, capsys):
        # the exact c_w at (k, j) = (1000, 300) takes about 0.35 s; the log, which sums
        # log c_w over its factors, refuses before it is formed
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bounds", "--which", "wheel", "--n", "1000",
                                 "--k", "1000", "--j", "300", "--ell", "1000")
        assert time.perf_counter() - start < 0.1
        assert code == 1 and out == ""
        assert err == "error: the wheel bound, e^608154, is past the float range\n"

    def test_rs_beyond_float_range_exits_one(self, capsys):
        # Rs lowers the (1-p) exponent by s(1 + c0); at (3,3,2) it turns negative
        for base in (["--n", "3", "--k", "3", "--j", "2", "--epsilon", "0.3", "--s", "1000"],
                     ["--n", "60", "--k", "4", "--j", "3", "--epsilon", "0.05", "--s", "100000"]):
            code, out, err = run_cli(capsys, "bounds", "--which", "rs", *base)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "past the float range" in err
            assert run_cli(capsys, "bounds", "--which", "cs", *base)[0] == 0

    def test_rs_cs_past_float_c0_s(self, capsys):
        # c0 s = 2.8e308, and the Cs exponent (1 + c0 s), pass the float range as ints
        base = ["--n", "1020", "--k", "1020", "--j", "510", "--epsilon", "0.3", "--s", "1000"]
        for which, name in (("rs", "expected_Rs_upper"), ("cs", "expected_Cs_lower_reference")):
            code, out, err = run_cli(capsys, "bounds", "--which", which, *base)
            label, value = out.strip().split("=")
            assert code == 0 and err == "" and label == name
            assert 0.0 < float(value) < math.inf

    def test_wheel_constant_too_large_exits_three(self, capsys):
        big = str(10**15)
        code, _, err = run_cli(capsys, "bounds", "--which", "wheel", "--n", big, "--k", big,
                               "--j", "3", "--ell", "2")
        assert code == 3 and err.startswith("resource guard:")
        code, _, err = run_cli(capsys, "bounds", "--which", "unicycle", "--n", big, "--k", big,
                               "--j", "3", "--epsilon", "0.3", "--s", "2048")
        assert code == 3 and err.startswith("resource guard:")

    def test_laplace_huge_s_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--which", "laplace", "--a", "1",
                               "--s", str(10**15))
        assert code == 3 and err.startswith("resource guard:")

    def test_rs_cs_take_any_s_short_of_the_float_range(self, capsys):
        base = ["--n", "60", "--k", "3", "--j", "2", "--epsilon", "0.3"]
        for which in ("rs", "cs"):
            assert run_cli(capsys, "bounds", "--which", which, *base, "--s", "100001")[0] == 0
            code, out, err = run_cli(capsys, "bounds", "--which", which, *base, "--s", str(10**400))
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error:") and "past the float range" in err

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--which", "wheel", "--n", "8")
        assert code == 1 and "needs" in err


# argparse on its own reads -inf, -nan and negative exponents as flags, and
# exits with "expected one argument"; each value reaches its domain check
NEGATIVE_FLOATS = {
    "unicycle_constant_minus_inf": (["bounds", "--which", "unicycle", "--n", "60", "--k", "3",
                                     "--j", "2", "--epsilon", "0.3", "--s", "2048",
                                     "--constant", "-inf"],
                                    "constant must be finite and > 0, got -inf"),
    "unicycle_constant_minus_nan": (["bounds", "--which", "unicycle", "--n", "60", "--k", "3",
                                     "--j", "2", "--epsilon", "0.3", "--s", "2048",
                                     "--constant", "-nan"],
                                    "constant must be finite and > 0, got nan"),
    "rs_epsilon_negative_exponent": (["bounds", "--which", "rs", "--n", "60", "--k", "3",
                                      "--j", "2", "--s", "5", "--epsilon", "-1e-3"],
                                     "epsilon must lie in (0, 1), got -0.001"),
    "gen_p_negative_exponent": (["gen", "--n", "10", "--k", "3", "--out", "{out}",
                                 "--p", "-1e-9"], "p must lie in [0, 1], got -1e-09"),
    "experiment_spread_width_minus_inf": (["experiment", "--n", "40", "--k", "3", "--j", "2",
                                           "--epsilon", "0.3", "--trials", "2",
                                           "--spread-width", "-inf"],
                                          "spread width must be finite and > 0, got -inf"),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_FLOATS))
def test_negative_float_values_reach_their_domain_checks(name, capsys, tmp_path):
    argv, message = NEGATIVE_FLOATS[name]
    out = tmp_path / "h.txt"
    code, stdout, err = run_cli(capsys, *(a.replace("{out}", str(out)) for a in argv))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


# Every command that takes --epsilon refuses it outside (0, 1) with one line
# and exit 1, and a bad (n, k) before it: n = 2 < k = 3.
EPSILON_COMMANDS = {
    "gen": ["gen", "--k", "3", "--out", "{out}"],
    "experiment": ["experiment", "--k", "3", "--j", "2", "--trials", "1"],
    "experiment_config": ["experiment", "--config", "{config}"],
    **{f"bounds_{which}": ["bounds", "--which", which, "--k", "3", "--j", "2", "--s", "2048"]
       for which in ("rs", "cs", "unicycle")},
}
EPSILONS = {"0": "0.0", "-1e-3": "-0.001", "1": "1.0", "1.5": "1.5", "nan": "nan", "-inf": "-inf"}


@pytest.mark.parametrize("n", ["10", "2"])
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("command", sorted(EPSILON_COMMANDS))
def test_epsilon_outside_zero_one_refused(command, epsilon, n, capsys, tmp_path):
    out, config = tmp_path / "h.txt", tmp_path / "run.cfg"
    config.write_text(f"n = {n}\nk = 3\nj = 2\ntrials = 1\nepsilon = {epsilon}\n")
    argv = [a.format(out=out, config=config) for a in EPSILON_COMMANDS[command]]
    if command != "experiment_config":
        argv += ["--n", n, "--epsilon", epsilon]
    message = (f"epsilon must lie in (0, 1), got {EPSILONS[epsilon]}" if n == "10"
               else "need n >= k >= 2 and 1 <= j <= k-1, got n=2, k=3, j=2")
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    assert not out.exists()


# Each flag takes a value from one pool, or is left out: negative, zero, small,
# the values that once raised (--ell 300, --s-max 1000, --s 10**15), an int
# past the float range and non-numeric.  Every value either finishes within
# about a second or meets a guard.
ARGV_POOL = ["-1", "0", "0.3", "2", "3", "8", "300", "1000", str(10**15), str(10**400), "x", None]
FLAGS = {
    "bounds": ["--n", "--k", "--j", "--epsilon", "--ell", "--a", "--s", "--constant"],
    "enumerate": ["--k", "--j", "--n", "--s-max"],
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bounds_and_enumerate_exit_cleanly(data):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    values = {flag: data.draw(st.sampled_from(ARGV_POOL)) for flag in FLAGS[command]}
    # half the draws order integer n, k, j as n >= k >= j, so that more of
    # them pass validation and reach the costly paths
    trio = [values[flag] for flag in ("--n", "--k", "--j")]
    if data.draw(st.booleans()) and all(v and v.lstrip("-").isdigit() for v in trio):
        values["--n"], values["--k"], values["--j"] = sorted(trio, key=int, reverse=True)
    argv = [command]
    if command == "bounds":
        which = ["wheel", "laplace", "rs", "cs", "unicycle"]
        argv += ["--which", data.draw(st.sampled_from(which))]
    for flag, value in values.items():
        if value is not None:
            argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:" if code == 1 else "resource guard:")


# gen, components and experiment draw every flag, and every components
# header field, from RUN_POOL or, in half the examples, from a pool of
# values of the flag's type, so that more of them pass validation.  Every
# value either finishes within a tenth of a second or meets a guard; 10**14
# and 10**15 reach binomials whose exact value once never returned, and
# 10**2200 an isolated j-set count too long to print.
HUGE_INTS = [str(10**14), str(10**15), str(10**2200)]
RUN_POOL = ["-1", "0", "0.3", "2", "3", "5", "12", *HUGE_INTS, "x", None]
TYPED_POOLS = {"--p": ["0", "0.3", "1"], "--epsilon": ["0.3", "0.9"]}
INT_POOL = ["1", "2", "3", "5", "12", *HUGE_INTS]
RUN_FLAGS = {
    "gen": ["--n", "--k", "--j", "--p", "--epsilon", "--seed"],
    "components": ["--n", "--k", "--m", "--j"],  # n, k, m form the file's header
    "experiment": ["--n", "--k", "--j", "--epsilon", "--trials", "--m", "--base-seed", "--cap"],
}


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_gen_components_and_experiment_exit_cleanly(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(RUN_FLAGS)))
    typed = data.draw(st.booleans())
    values = {
        flag: data.draw(st.sampled_from(TYPED_POOLS.get(flag, INT_POOL) if typed else RUN_POOL))
        for flag in RUN_FLAGS[command]
    }
    if typed:  # n > k > j, so that more of them reach the costly paths
        trio = data.draw(st.lists(st.sampled_from(INT_POOL), min_size=3, max_size=3, unique=True))
        values["--n"], values["--k"], values["--j"] = sorted(trio, key=int, reverse=True)
    argv = [command]
    if command == "components":
        if data.draw(st.booleans()):
            values["--m"] = "0"  # the file holds no edge lines
        header = [values.pop(flag) for flag in ("--n", "--k", "--m")]
        path = tmp_path / "h.txt"
        path.write_text(" ".join(v for v in header if v is not None) + "\n")
        argv += ["--in", str(path)] + (["--wheels"] if data.draw(st.booleans()) else [])
    elif command == "gen":
        del values[data.draw(st.sampled_from(["--p", "--epsilon"]))]  # gen takes one of them
        argv += ["--out", str(tmp_path / "out.txt")]
    for flag, value in values.items():
        if value is not None:
            argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:" if code == 1 else "resource guard:")


# Each refusal runs in a child process under a 2 GiB address-space cap, so a
# runaway exact product fails fast instead of filling memory (one BLAS or
# OpenMP thread keeps numpy's own reservation small), and the subprocess
# timeout catches a hang.  A child that runs out of memory importing hyperlab
# under the cap exits with IMPORT_FAILED and the case is skipped; any other
# import error fails the case.
IMPORT_FAILED = 99
CHILD = ("import sys\ntry:\n    from hyperlab.cli import main\n"
         f"except MemoryError:\n    sys.exit({IMPORT_FAILED})\n"
         "sys.exit(main(sys.argv[1:]))\n")
BIG, HUGE = HUGE_INTS[:2]
EXP = ["experiment", "--n", "40", "--k", "3", "--j", "2", "--epsilon", "0.3"]
# 10**400 does not convert to a float, and at 10**307 lgamma(s + 1) overflows
PAST_FLOAT, NEAR_FLOAT = str(10**400), str(10**307)
UNICYCLE = ["bounds", "--which", "unicycle", "--n", "200", "--k", "3", "--j", "2", "--epsilon", "0.3"]
REFUSALS = {
    "components_isolated_count_past_digit_limit":
        (["components", "--in", "{header}", "--j", "2"], f"{10**2200} 3 0", 3),
    "components_subset_template_past_cap": (["components", "--in", "{header}", "--j", "1000"],
                                         "3000 2000 0", 3),
    "components_subset_template_of_2_24_cells": (["components", "--in", "{header}", "--j", "1"],
                                               "16777216 16777216 0", 3),
    "gen_budget_huge_n_k": (["gen", "--n", HUGE, "--k", BIG, "--p", "0.5", "--out", "{out}"],
                            None, 3),
    "gen_epsilon_huge_n_k": (["gen", "--n", HUGE, "--k", BIG, "--j", "1", "--epsilon", "0.3",
                              "--out", "{out}"], None, 1),
    "bounds_rs_huge_n_k": (["bounds", "--which", "rs", "--n", HUGE, "--k", BIG, "--j", "1",
                            "--epsilon", "0.3", "--s", "3"], None, 1),
    "experiment_huge_n_k": (["experiment", "--n", HUGE, "--k", BIG, "--j", "1",
                             "--epsilon", "0.3", "--trials", "1"], None, 1),
    "experiment_huge_m": (EXP + ["--trials", "1", "--m", HUGE], None, 3),
    "experiment_huge_trials": (EXP + ["--trials", HUGE], None, 3),
    "bounds_wheel_ell_past_float": (["bounds", "--which", "wheel", "--n", "8", "--k", "3",
                                     "--j", "2", "--ell", PAST_FLOAT], None, 1),
    "bounds_unicycle_s_past_float": (UNICYCLE + ["--s", PAST_FLOAT], None, 1),
    "bounds_unicycle_lgamma_past_float": (UNICYCLE + ["--s", NEAR_FLOAT], None, 1),
    "bounds_wheel_constant_k_past_float": (["bounds", "--which", "wheel", "--n", PAST_FLOAT,
                                            "--k", PAST_FLOAT, "--j", "1", "--ell", "2"], None, 3),
    "components_j_past_float": (["components", "--in", "{header}", "--j", str(10**400 - 1)],
                                f"{PAST_FLOAT} {PAST_FLOAT} 0", 3),
}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_huge_arguments_refused_without_hanging(name, tmp_path):
    argv, header, expected = REFUSALS[name]
    if header is not None:
        (tmp_path / "h.txt").write_text(header + "\n")
    argv = [a.format(header=tmp_path / "h.txt", out=tmp_path / "out.txt") for a in argv]
    threads = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          timeout=30, preexec_fn=_cap_address_space, env=child_env(**threads))
    if proc.returncode == IMPORT_FAILED:
        pytest.skip("hyperlab does not import under a 2 GiB address-space cap")
    assert proc.returncode == expected and proc.stdout == ""
    assert proc.stderr.startswith("error:" if expected == 1 else "resource guard:")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# n = 10**4000 puts every binomial far past its limit while min(r, m-r) stays
# below 1024, where a guard that forms C(m, r) first takes seconds.
FLOAT_RANGE = ("C(n-j, k-j) or C(n, j) exceeds the float range; "
               "n is too large for float probabilities")
BUDGET = "expected edge count inf exceeds budget 5000000"
NKJ = ["--n", str(10**4000), "--k", "1002", "--j", "2"]
FAR_PAST_LIMITS = {
    "bounds_rs": (["bounds", "--which", "rs", *NKJ, "--epsilon", "0.3", "--s", "3"], 1),
    "bounds_unicycle": (["bounds", "--which", "unicycle", *NKJ, "--epsilon", "0.3", "--s", "3"], 1),
    "enumerate": (["enumerate", *NKJ, "--s-max", "3"], 1),
    "experiment": (["experiment", *NKJ, "--epsilon", "0.3", "--trials", "1"], 1),
    "gen_epsilon": (["gen", *NKJ, "--epsilon", "0.3", "--out", "{out}"], 1),
    "gen_p": (["gen", *NKJ[:2], "--k", "1000", "--p", "1e-300", "--out", "{out}"], 3),
}


@pytest.mark.parametrize("name", sorted(FAR_PAST_LIMITS))
def test_binomials_far_past_their_limits_refused_at_once(name, capsys, tmp_path):
    argv, expected = FAR_PAST_LIMITS[name]
    start = time.perf_counter()
    code = main([a.format(out=tmp_path / "out.txt") for a in argv])
    assert time.perf_counter() - start < 0.1
    err = f"error: {FLOAT_RANGE}\n" if expected == 1 else f"resource guard: {BUDGET}\n"
    assert (code, *capsys.readouterr()) == (expected, "", err)


@pytest.mark.parametrize("call, error, message", [
    (lambda: TheoryParams(10**4000, 1002, 2, 0.3), ValidationError, FLOAT_RANGE),
    (lambda: check_edge_budget(10**4000, 1000, 1e-300), ResourceLimitError, BUDGET),
], ids=["TheoryParams", "check_edge_budget"])
def test_guards_refuse_huge_n_at_once(call, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    assert time.perf_counter() - start < 0.1


class TestExperiment:
    ARGS = ["experiment", "--n", "40", "--k", "3", "--j", "2", "--epsilon", "0.3",
            "--trials", "5", "--m", "2", "--base-seed", "77"]

    def test_zero_trials_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "experiment", "--n", "40", "--k", "3", "--j", "2",
                             "--epsilon", "0.3", "--trials", "0")
        assert code == 1

    def test_non_ascii_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"n = 40\nk = 3 # \xff\n")
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1 and err.startswith("error:")

    def test_small_run_skips_comparison(self, capsys, tmp_path):
        csv = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--csv", str(csv))
        assert code == 0
        assert "comparison skipped" in out
        assert csv.read_text().startswith("trial,seed,edges,i,L_i,M_i,hypertree\n")

    def test_csv_byte_identical_across_worker_counts(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *self.ARGS, "--csv", str(a), "--workers", "1")[0] == 0
        assert run_cli(capsys, *self.ARGS, "--csv", str(b), "--workers", "2")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERLAB_WORKERS", "2")
        a = tmp_path / "a.csv"
        assert run_cli(capsys, *self.ARGS, "--csv", str(a))[0] == 0

    def test_workers_env_capped(self, capsys, monkeypatch):
        pools = []

        class InlinePool:  # records the pool size and runs every task in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):  # ProcessPoolExecutor.map's signature
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("HYPERLAB_WORKERS", "500")
        assert run_cli(capsys, *self.ARGS)[0] == 0  # 5 trials
        assert run_cli(capsys, *self.ARGS, "--trials", "2")[0] == 0
        assert pools == [3, 2]

    def test_stdout_reproducible_with_no_footer(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.ARGS, "--no-footer")
        code2, out2, _ = run_cli(capsys, *self.ARGS, "--no-footer")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "footer" not in out1

    def test_footer_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        assert "# footer: runtime_seconds=" in out

    def test_config_file_equivalent_to_flags(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 40\nk = 3\nj = 2\nepsilon = 0.3\ntrials = 5\nm = 2\nbase_seed = 77\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "experiment", "--config", str(cfg), "--csv", str(a))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--csv", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 40\nk = 3\nj = 2\nepsilon = 0.3\ntrials = 5\nbase_seed = 1\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "experiment", "--config", str(cfg), "--base-seed", "77",
                       "--m", "2", "--csv", str(a))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--csv", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_graph_case_passes_comparison(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "experiment", "--n", "2000", "--k", "2", "--j", "1", "--epsilon", "0.25",
            "--trials", "40", "--m", "1", "--base-seed", "11", "--csv", str(tmp_path / "g.csv"),
        )
        assert code == 0
        assert "criterion centered_spread: PASS" in out
        assert "criterion hypertree_fraction: PASS" in out
        assert "criterion order_identity: PASS" in out

    def test_comparison_failure_exits_two(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "experiment", "--n", "2000", "--k", "2", "--j", "1", "--epsilon", "0.25",
            "--trials", "40", "--m", "1", "--base-seed", "11",
            "--spread-width", "1e-9",
        )
        assert code == 2
        assert "criterion centered_spread: FAIL" in out

    def test_trials_and_m_capped(self, capsys):
        args = ["experiment", "--n", "12", "--k", "3", "--j", "2", "--epsilon", "0.3"]
        for extra in (["--trials", str(experiments.MAX_TRIALS + 1)],
                      ["--trials", "1", "--m", str(experiments.MAX_M + 1)]):
            code, out, err = run_cli(capsys, *args, *extra)
            assert code == 3 and out == "" and err.startswith("resource guard:")
        assert run_cli(capsys, *args, "--trials", "1", "--m", str(experiments.MAX_M))[0] == 0

    @pytest.mark.parametrize("extra", [
        ["--spread-width", "inf"], ["--spread-width", "nan"], ["--spread-width", "0"],
        ["--hypertree-threshold", "-5"], ["--hypertree-threshold", "1.5"],
        ["--spread-width", "inf", "--hypertree-threshold", "-5"],
    ])
    def test_verdict_limits_refused_before_sampling(self, capsys, monkeypatch, extra):
        monkeypatch.setattr(experiments, "run_trial", self.no_trial)
        for trials in ("31", "2"):
            code, out, err = run_cli(capsys, *self.ARGS, "--trials", trials, *extra)
            assert code == 1 and out == "" and err.startswith("error:")

    def test_unknown_config_key_refused_before_sampling(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "run_trial", self.no_trial)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 40\nk = 3\nj = 2\nepsilon = 0.3\ntrials = 5\nbase_sed = 77\n")
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: unknown config key 'base_sed'")

    def test_repeated_config_key_refused_before_sampling(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "run_trial", self.no_trial)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 40\nk = 3\nj = 2\nepsilon = 0.3\ntrials = 5\nn = 50\n")
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: config key 'n' is given twice")

    @staticmethod
    def no_trial(*args):
        raise AssertionError("a refused run sampled a trial")

    # (config-file value, flag value) per ExperimentConfig field, each a valid run
    FIELD_VALUES = {"n": ("12", "13"), "k": ("4", "3"), "j": ("1", "2"),
                    "epsilon": ("0.3", "0.4"), "trials": ("2", "1"), "m": ("2", "1"),
                    "base_seed": ("5", "6"), "cap": ("1000", "2000")}

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(experiments.ExperimentConfig)])
    def test_every_config_field_is_a_flag_and_a_key(self, capsys, tmp_path, name):
        file_value, flag_value = self.FIELD_VALUES[name]
        keys = {"n": "12", "k": "3", "j": "2", "epsilon": "0.3", "trials": "1", name: file_value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        flag = "--" + name.replace("_", "-")
        for extra, shown in (([], file_value), ([flag, flag_value], flag_value)):
            code, out, err = run_cli(capsys, "experiment", "--config", str(cfg), *extra)
            assert code == 0, err
            config_line = out.splitlines()[1].split()
            assert config_line[0] == "config:" and f"{name}={shown}" in config_line[1:]

    def test_resource_guard_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--n", "400", "--k", "3", "--j", "2",
                               "--epsilon", "0.3", "--trials", "1", "--cap", "10")
        assert code == 3 and "resource guard" in err


def test_successive_calls_share_no_state(capsys, tmp_path):
    assert cli._build_parser() is cli._build_parser()  # one parser per process
    path = tmp_path / "h.txt"
    path.write_text("4 3 3\n1 2 3\n1 2 4\n1 3 4\n")
    _, wheels, _ = run_cli(capsys, "components", "--in", str(path), "--j", "2", "--wheels")
    _, plain, _ = run_cli(capsys, "components", "--in", str(path), "--j", "2")
    assert "\nwheel 0 " in wheels
    assert plain == wheels[:wheels.index("wheel 0 ")]
    # a config-file run after a run with flags reads only the file's values
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 40\nk = 3\nj = 2\nepsilon = 0.3\ntrials = 5\nbase_seed = 1\n")
    runs = [("--config", str(cfg)), TestExperiment.ARGS[1:], ("--config", str(cfg))]
    csvs = []
    for i, args in enumerate(runs):
        csvs.append(tmp_path / f"{i}.csv")
        assert run_cli(capsys, "experiment", *args, "--csv", str(csvs[-1]))[0] == 0
    first, flags, again = (c.read_bytes() for c in csvs)
    assert again == first != flags


def test_module_entrypoint_smoke(tmp_path):
    out = tmp_path / "h.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "hyperlab", "gen", "--n", "5", "--k", "3", "--p", "1.0",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("5 3 10\n")


def test_module_entrypoint_refusal_prints_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "hyperlab", "bounds", "--which", "wheel"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# Public refusals that no other test reaches: the error raised, a pattern
# of its message, and the API call; or exit code 1, a pattern of the one
# `error:` line, and the (config text, environment) of an `experiment --config` run.
RUN_CONFIG = "n = 40\nk = 3\nj = 2\nepsilon = 0.3\ntrials = 1\n"
PUBLIC_REFUSALS = {
    "tj_series_s_max_0": (ValidationError, "s_max", lambda: tj_series_fixed_point(2, 0)),
    "tj_series_c0_0": (ValidationError, "c0", lambda: tj_series_fixed_point(0, 3)),
    "f_s_s_0": (ValidationError, "s must", lambda: f_s(2, 0)),
    "f_s_c0_0": (ValidationError, "c0", lambda: f_s(0, 2)),
    "exp_bounds_c0_0": (ValidationError, "c0 >= 1", lambda: exp_reciprocal_bounds(0, 5)),
    "exp_bounds_terms_0": (ValidationError, "terms >= 1", lambda: exp_reciprocal_bounds(2, 0)),
    "brute_force_Bs_s_0": (ValidationError, "s must", lambda: brute_force_Bs(4, 2, 1, 0)),
    "laplace_a_0": (ValidationError, "a must", lambda: laplace_sum_check(0, 10**4)),
    "Rs_s_0": (ValidationError, "s must",
               lambda: expected_Rs_upper(TheoryParams(10, 3, 2, 0.3), 0)),
    "branching_p_above_1": (ValidationError, "p must",
                            lambda: branching_with_rate(6, 3, 2, 1.5, (1, 2), 0)),
    "branching_p_below_0": (ValidationError, "p must",
                            lambda: branching_with_rate(6, 3, 2, -0.1, (1, 2), 0)),
    "unrank_negative_size": (ValidationError, "size", lambda: unrank_subset(0, -1, 5)),
    "wheel_one_edge": (ValidationError, ">= 2 edges",
                       lambda: Wheel(edges=((1, 2, 3),), jsets=((1, 2),)).validate()),
    "wheel_repeated_edge": (ValidationError, "distinct", lambda: Wheel(
        edges=((1, 2, 3), (1, 2, 3)), jsets=((1, 2), (2, 3))).validate()),
    "edge_budget_past_float_range": (ResourceLimitError, "inf",
                                     lambda: check_edge_budget(10**6, 1000, 1e-9)),
    "config_non_integer_value": (1, "bad config value for trials",
                                 (RUN_CONFIG.replace("trials = 1", "trials = 1.5"), {})),
    "workers_env_not_integer": (1, "HYPERLAB_WORKERS", (RUN_CONFIG, {"HYPERLAB_WORKERS": "x"})),
    "config_line_without_key": (1, "'key = value'", (RUN_CONFIG + "= 3\n", {})),
}


@pytest.mark.parametrize("name", PUBLIC_REFUSALS)
def test_public_refusals(name, capsys, monkeypatch, tmp_path):
    expected, pattern, case = PUBLIC_REFUSALS[name]
    if expected != 1:
        with pytest.raises(expected, match=pattern):
            case()
        return
    text, env = case
    monkeypatch.setattr(experiments, "run_trial", TestExperiment.no_trial)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and pattern in err


def test_trial_imports_neither_scipy_nor_networkx():
    # either would add about half a second and 30 MiB to every run's startup
    code = (
        "import sys\n"
        "from hyperlab.combinatorics import TheoryParams\n"
        "from hyperlab.experiments import run_trial\n"
        "run_trial(TheoryParams(250, 3, 2, 0.3), 1, 3)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_import_leaves_numpy_random_unloaded():
    # numpy.random slows the package's import by half or more; make_generator
    # loads it on first use, so an import alone must not.  Nor does it build
    # colex tables or their inverses: the first `unrank_array` at an (n, size)
    # builds them
    code = ("import sys\nimport hyperlab\nprint('numpy.random' in sys.modules)\n"
            "from hyperlab.combinatorics import _colex_tables\n"
            "print(_colex_tables.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n0\n"


def test_trial_imports_no_process_pool():
    # a one-worker run leaves multiprocessing unloaded, and its import time with it
    code = (
        "import sys\n"
        "from hyperlab.combinatorics import TheoryParams\n"
        "from hyperlab.experiments import run_trial\n"
        "run_trial(TheoryParams(250, 3, 2, 0.3), 1, 3)\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

