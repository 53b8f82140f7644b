import ast
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import coulombwf
from coulombwf import cli, closedform, numeval, oracle, quadpack, shellmatch
from coulombwf.closedform import QuantumNumbers, assemble_R2
from coulombwf.oracle import GOLDEN_R2
from coulombwf.ratpoly import RatPoly, ZeroDenominator

import refvals


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- coeffs ----------------------------------------------------------------------

def test_coeffs_ground_state_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "1", "--l", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["q_plus"] == {"-1": "1/2"}
    assert doc["q_ei"] == {"0": "1"}
    assert doc["ei_arg_scale"] == "-2"


def test_coeffs_csv_covers_all_powers(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "3", "--l", "2", "--format", "csv")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "power,q_plus,q_ei"
    rows = {ln.split(",")[0]: ln for ln in lines[1:]}
    assert rows["-3"] == "-3,81,"
    assert rows["-2"] == "-2,27/2,"
    assert rows["1"] == "1,2/3,"
    assert rows["2"] == "2,,4/9"


def test_coeffs_latex_mirrors_example_grouping(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "4", "--l", "3", "--format", "latex")
    assert code == 0
    assert r"\frac{11520}{r^{4}}" in out
    assert r"e^{r/4}" in out and r"e^{-r/4}" in out
    assert r"\int_{-r/2}^{\infty}" in out


def test_coeffs_rejects_invalid_quantum_numbers(capsys):
    code, _, err = run(capsys, "coeffs", "--n", "5", "--l", "5")
    assert code == 64
    assert "l=5" in err


@pytest.mark.parametrize("error", [ZeroDenominator, ArithmeticError])
def test_an_exact_layer_failure_is_a_one_line_failure(capsys, monkeypatch, error):
    # any ArithmeticError exits 1 with one line, a zero denominator or the
    # inexact P recurrence of _p2_nums among them, not a traceback
    def assemble_R2(qn):
        raise error("exact arithmetic failed")

    monkeypatch.setattr(cli, "assemble_R2", assemble_R2)
    assert run(capsys, "coeffs", "--n", "3", "--l", "1") == (1, "", "coulombwf: failure: exact arithmetic failed\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-str digit limit")
def test_coeffs_of_a_large_state_writes_numerators_past_the_digit_limit(capsys):
    # (561, 560)'s numerators are longer than Python's default 4300-digit
    # int-to-str limit, which cli.main lifts only while a command runs: the
    # limit is back after each request, and still guards the parsed argv
    limit = sys.get_int_max_str_digits
    before = limit()
    code, out, err = run(capsys, "coeffs", "--n", "561", "--l", "560", "--format", "csv")
    assert (code, err) == (0, "")
    fields = [field for line in out.splitlines()[2:] for field in line.split(",")[1:]]
    assert max(len(field.lstrip("-").split("/")[0]) for field in fields) > 4300
    assert limit() == before
    code, out, err = run(capsys, "coeffs", "--n", "1" * 5000, "--l", "0")
    assert (code, out) == (64, "") and "invalid int value" in err
    assert limit() == before
    assert run(capsys, "coeffs", "--n", "5", "--l", "5")[0] == 64
    assert limit() == before


def _states(nmax: int) -> list[QuantumNumbers]:
    return [QuantumNumbers(n, l) for n in range(1, nmax + 1) for l in range(n)]


def _assert_json_dumps_writes(capsys, *argv):
    # the templates write each document as json.dumps(doc, indent=2) writes
    # the document it parses to; the texts in it are held by the recorded
    # digests and the golden table
    code, out, _ = run(capsys, *argv)
    assert code == 0, argv
    assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_coeffs_json_bytes_match_json_dumps(capsys):
    # every state the bench's coeffs requests draw
    for qn in _states(40):
        _assert_json_dumps_writes(capsys, "coeffs", "--n", str(qn.n), "--l", str(qn.l))


@pytest.mark.parametrize("nmax", range(1, 7))
def test_table_json_bytes_match_json_dumps(capsys, nmax):
    _assert_json_dumps_writes(capsys, "table", "--nmax", str(nmax), "--format", "json")


def test_json_documents_are_what_json_dumps_writes(capsys):
    # one eval document with an infinite estimate and one shell document
    _assert_json_dumps_writes(capsys, "eval", "--n", "6", "--l", "0", "--which", "R2",
                              "--grid", "200:240:161", "--format", "json")
    _assert_json_dumps_writes(capsys, "shell", "--n", "2", "--l", "0", "--a", "1e-4",
                              "--b-range", "0.5:1.5", "--grid-points", "50")


def _count_assemble_R2(monkeypatch) -> dict:
    calls = {"assemble_R2": 0}
    original = closedform.assemble_R2

    def counted(qn):
        calls["assemble_R2"] += 1
        return original(qn)

    for module in (closedform, oracle, cli, shellmatch):
        if getattr(module, "assemble_R2", None) is original:
            monkeypatch.setattr(module, "assemble_R2", counted)
    return calls


@pytest.mark.parametrize("argv,states", [
    (["coeffs", "--n", "6", "--l", "2", "--format", "json"], 1),
    (["coeffs", "--n", "6", "--l", "2", "--format", "csv"], 1),
    (["coeffs", "--n", "6", "--l", "2", "--format", "latex"], 1),
    (["table", "--nmax", "4", "--format", "json"], 10),
    (["table", "--nmax", "4", "--format", "csv"], 10),
    (["table", "--nmax", "4", "--format", "latex"], 10),
])
def test_coefficient_documents_assemble_each_R2_once(capsys, monkeypatch, argv, states):
    # and reduce each printed polynomial once: R2's P, and its L, which the
    # table also prints as R1's r1_q_minus
    calls = _count_assemble_R2(monkeypatch)
    calls["ratio_terms"] = 0
    ratio_terms = RatPoly.ratio_terms

    def counted(self, c=1):
        calls["ratio_terms"] += 1
        return ratio_terms(self, c)

    monkeypatch.setattr(RatPoly, "ratio_terms", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == {"assemble_R2": states, "ratio_terms": 2 * states}


# -- eval -------------------------------------------------------------------------

def test_eval_regular_row(capsys):
    code, out, _ = run(capsys, "eval", "--n", "1", "--l", "0", "--which", "R1",
                       "--grid", "1:1:1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["r"] == 1.0
    assert row["value"] == pytest.approx(0.36787944117144233, rel=1e-15)


def test_eval_irregular_row(capsys):
    code, out, _ = run(capsys, "eval", "--n", "1", "--l", "0", "--which", "R2",
                       "--grid", "1:1:1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["value"] == pytest.approx(-0.46342005208881317, rel=1e-12)
    assert row["est_rel_error"] > 0


def test_eval_empty_grid(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--l", "1", "--grid", "1:2:0")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines == ["r,value,est_rel_error"]


# an empty grid (count 0) is checked too: 1:2:0 and 0.5:2:0 are valid
@pytest.mark.parametrize("grid", ["0:2:5", "-1:-5:0", "5:1:0"])
def test_eval_rejects_nonpositive_grid(capsys, grid):
    code, _, err = run(capsys, "eval", "--n", "1", "--l", "0", f"--grid={grid}")
    assert code == 64
    assert "positive" in err


def test_eval_rejects_malformed_grid(capsys):
    code, _, _ = run(capsys, "eval", "--n", "1", "--l", "0", "--grid", "nope")
    assert code == 64


@pytest.mark.parametrize("grid, reason", [
    ("1:1e308:3", "grid points overflow double precision"),  # the last point is inf
    ("1:inf:3", "grid start and stop must be finite"),
    ("nan:2:3", "grid start and stop must be finite"),
])
def test_eval_rejects_nonfinite_grid(capsys, grid, reason):
    code, out, err = run(capsys, "eval", "--n", "2", "--l", "0", "--which", "R1",
                         "--grid", grid)
    assert code == 64
    assert out == ""
    assert err == f"coulombwf: error: {reason}, got {grid!r}\n"


def test_eval_rejects_a_grid_count_beyond_double_range(capsys):
    # a 400-digit count passes every other check, but span / (count - 1)
    # cannot be formed: a usage error, not a failure
    code, out, err = run(capsys, "eval", "--n", "2", "--l", "0", "--grid", "1:2:" + "1" * 400)
    assert (code, out) == (64, "")
    assert err == "coulombwf: error: grid count overflows double precision\n"


def _grid_points_per_point(start: float, stop: float, count: int) -> list[float]:
    # the grid as first written, stop - start and count - 1 formed per point
    return [start + i * (stop - start) / (count - 1) for i in range(count)]


def test_parse_grid_is_the_per_point_comprehension_bit_for_bit():
    rng = random.Random(35)
    cases = [(5e-324, 5e-324, 4), (5e-324, 1e-310, 7), (1e-320, 2.2250738585072014e-308, 9),
             (1e308, 1.7976931348623157e308, 5), (1.0, 1e308, 2), (1.0, 1e308, 3)]
    # random grids from subnormal to near overflow: one point repeated, a
    # narrow span and a wide one
    for _ in range(300):
        start = math.exp(rng.uniform(math.log(5e-324), math.log(1.7e308)))
        stop = rng.choice([start, min(start * rng.uniform(1.0, 10.0), 1.79e308),
                           math.exp(rng.uniform(math.log(start), math.log(1.79e308)))])
        cases.append((start, stop, rng.randrange(2, 300)))
    for start, stop, count in cases:
        want = _grid_points_per_point(start, stop, count)
        grid = f"{start!r}:{stop!r}:{count}"
        if all(map(math.isfinite, want)):
            assert repr(cli._parse_grid(grid)) == repr(want), grid
        else:
            with pytest.raises(ValueError, match="grid points overflow double precision"):
                cli._parse_grid(grid)


@pytest.mark.parametrize("n, l, which, grid", [
    (6, 0, "R2", "200:240:161"),  # R2 cancels to 0.0 at r = 218.25: an infinite estimate
    (3, 1, "R1", "0.5:2:0"),
    (3, 1, "R2", "0.5:2:1"),
    (6, 0, "R2", "200:240:513"),  # three runs of rows, the last of one row
])
def test_eval_json_bytes_match_json_dumps(capsys, n, l, which, grid):
    code, out, _ = run(capsys, "eval", "--n", str(n), "--l", str(l), "--which", which,
                       "--grid", grid, "--format", "json")
    assert code == 0
    qn = QuantumNumbers(n, l)
    form = closedform.assemble_R1(qn) if which == "R1" else assemble_R2(qn)
    rs = cli._parse_grid(grid)
    rows = numeval.eval_grid(form, rs)
    # the values are the per-point reference's, bit for bit
    assert [repr(v) for _, v, _ in rows] == [repr(refvals.eval_form(form, r)[0]) for r in rs]
    doc = {"n": n, "l": l, "which": which,
           "rows": [{"r": r, "value": v, "est_rel_error": e} for r, v, e in rows]}
    assert out == json.dumps(doc, indent=2) + "\n"
    if grid == "200:240:161":
        assert '"est_rel_error": Infinity' in out


def test_eval_prepares_its_form_once(capsys, monkeypatch):
    # every coefficient is converted to a float once per request, and the
    # whole grid is one kernel call
    calls = {"laurent_run": 0, "eval_grid": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(numeval, "eval_grid")
    counted(numeval, "laurent_run")
    code, _, _ = run(capsys, "eval", "--n", "7", "--l", "2", "--which", "R2",
                     "--grid", "0.5:60:2000", "--format", "csv")
    assert code == 0
    # R2 has two polynomials, P and L
    assert calls == {"laurent_run": 2, "eval_grid": 1}


def test_eval_ei_overflow_is_a_one_line_failure(capsys):
    # 2 kappa r = 711.02 at the grid point r = 355.5: Ei(1, -x) ~ -e^x/x is
    # beyond double range
    code, out, err = run(capsys, "eval", "--n", "1", "--l", "0", "--which", "R2",
                         "--grid", "1:600:50")
    assert code == 1
    assert out == ""
    assert err == "coulombwf: failure: Ei(1, -x) overflows double precision at x=711.0204081632653\n"


def test_eval_coefficients_beyond_double_range_is_a_one_line_failure(capsys):
    code, out, err = run(capsys, "eval", "--n", "70", "--l", "69", "--which", "R2",
                         "--grid", "1:2:3")
    assert code == 1
    assert out == ""
    assert err == "coulombwf: failure: the q_plus coefficients exceed double precision\n"
    # the grid is checked before the form is prepared
    code, out, err = run(capsys, "eval", "--n", "70", "--l", "69", "--which", "R2",
                         "--grid", "nope")
    assert code == 64
    assert err.startswith("coulombwf: error: grid must be start:stop:count")


def test_coefficient_overflow_limits_of_eval_and_shell(capsys):
    # R2's P in r leaves double range from (65, 64) on; shell converts R2''s
    # P as well, whose coefficients leave it one state earlier, and names it
    overflow = "coulombwf: failure: the q_plus coefficients exceed double precision\n"
    code, out, err = run(capsys, "eval", "--n", "64", "--l", "63", "--which", "R2", "--grid", "1:2:3")
    assert (code, err) == (0, "") and out
    code, out, err = run(capsys, "eval", "--n", "65", "--l", "64", "--which", "R2", "--grid", "1:2:3")
    assert (code, out, err) == (1, "", overflow)
    code, out, err = run(capsys, "shell", "--n", "64", "--l", "63", "--a", "1", "--b-range", "2:3")
    assert (code, out, err) == (
        1, "", "coulombwf: failure: the q_plus coefficients of R2' exceed double precision\n")
    code, out, err = run(capsys, "shell", "--n", "65", "--l", "64", "--a", "1", "--b-range", "2:3")
    assert (code, out, err) == (1, "", overflow)


@pytest.mark.parametrize("argv, r", [
    # L's envelope and Ei overflow at both points, and at 1e200 e^{kappa r}
    # too; eval's R2 and the shell guard a point in one order, the envelope
    # probe first, so at each point both commands print the same text
    ("eval --n 71 --l 0 --which R2 --grid 27000:27001:2", "27000.0"),
    ("eval --n 3 --l 0 --which R2 --grid 1e200:1e201:2", "1e+200"),
    ("shell --n 71 --l 0 --a 1 --b-range 2:27000", "27000.0"),
    ("shell --n 3 --l 0 --a 1 --b-range 2:1e200", "1e+200"),
])
def test_eval_and_shell_guard_their_points_in_one_order(capsys, argv, r):
    message = f"conditioning envelope overflows double precision at r = {r}"
    assert run(capsys, *argv.split()) == (1, "", f"coulombwf: failure: {message}\n")


# -- table ------------------------------------------------------------------------

def test_table_json_enumerates(capsys):
    code, out, _ = run(capsys, "table", "--nmax", "2")
    assert code == 0
    docs = json.loads(out)
    assert [(d["n"], d["l"]) for d in docs] == [(1, 0), (2, 0), (2, 1)]
    assert all("r1_q_minus" in d for d in docs)


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_table_rejects_bad_nmax(capsys, nmax):
    code, out, err = run(capsys, "table", "--nmax", nmax)
    assert code == 64
    assert out == ""
    assert err == "coulombwf: error: n_max must be >= 1\n"


def test_table_latex_lists_all(capsys):
    code, out, _ = run(capsys, "table", "--nmax", "4", "--format", "latex")
    assert code == 0
    body = [ln for ln in out.splitlines() if ln.startswith("R_2")]
    assert len(body) == 10


# -- verify ------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--nmax", "3", "--checks", "ode,wronskian,golden")
    assert code == 0
    reports = [json.loads(ln) for ln in out.splitlines()]
    assert all(rep["passed"] for rep in reports)
    assert "passed" in err


def test_verify_assembles_each_form_once_per_case(capsys, monkeypatch):
    # nmax 3 has 6 cases; the ODE and Wronskian checks share one build of R2,
    # R1 is read as its L, and R1's polynomial is built once
    calls = {"assemble_R1": 0, "assemble_R2": 0, "laguerre_L1": 0}
    for name in calls:
        original = getattr(closedform, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in (closedform, oracle, cli, shellmatch):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "verify", "--nmax", "3", "--checks", "ode,wronskian")
    assert code == 0
    assert calls == {"assemble_R1": 0, "assemble_R2": 6, "laguerre_L1": 6}


def test_verify_runs_the_operator_once_per_state(capsys, monkeypatch):
    # nmax 6 has 21 states; the operator runs on R2 alone, and R1's residual
    # is its e^{-x/2} bucket
    seen = []
    original = oracle.apply_radial_operator

    def counted(f):
        seen.append((f.qn, f.P is not None))
        return original(f)

    monkeypatch.setattr(oracle, "apply_radial_operator", counted)
    code, _, _ = run(capsys, "verify", "--nmax", "6", "--checks", "ode,wronskian")
    assert code == 0
    assert seen == [(QuantumNumbers(n, l), True) for n in range(1, 7) for l in range(n)]


def test_verify_exact_checks_differentiate_and_multiply_nothing(capsys, monkeypatch):
    # the residuals and r^2 W are written from the buckets' coefficients
    calls = {"derivative": 0, "mul": 0}
    derivative, decay, mul = closedform.derivative, closedform.decay_derivative, RatPoly.__mul__

    def counted_derivative(*args):
        calls["derivative"] += 1
        return derivative(*args)

    def counted_decay(q):
        calls["derivative"] += 1
        return decay(q)

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    for module in (closedform, shellmatch):
        monkeypatch.setattr(module, "derivative", counted_derivative)
    for module in (closedform, oracle):
        monkeypatch.setattr(module, "decay_derivative", counted_decay)
    monkeypatch.setattr(RatPoly, "__mul__", counted_mul)
    monkeypatch.setattr(RatPoly, "__rmul__", counted_mul)
    code, _, _ = run(capsys, "verify", "--nmax", "3", "--checks", "ode,wronskian")
    assert code == 0
    assert calls == {"derivative": 0, "mul": 0}


@pytest.mark.parametrize("argv", [["verify", "--nmax", "3", "--checks", "ode,wronskian"],
                                  ["verify", "--checks", "pv,split"],
                                  ["verify"],
                                  *[[*cmd, "--format", fmt] for cmd in (["coeffs", "--n", "6", "--l", "2"],
                                                                         ["table", "--nmax", "4"])
                                    for fmt in ("json", "csv", "latex")]])
def test_verify_exact_and_pv_checks_substitute_nothing(capsys, monkeypatch, argv):
    # the records hold L and P in x = 2 kappa r, where the operator, the
    # Wronskian and the confluent parts of the pv checks are all read; the
    # one substitution x -> 2 kappa r, RatPoly.ratio_terms(2 kappa), runs only
    # where a record is printed or compared in r: on R2's P and L once each
    # per state of a coefficient document or of the golden check
    scales = []
    ratio_terms = RatPoly.ratio_terms

    def counted(self, c=1):
        if c != 1:
            scales.append(c)
        return ratio_terms(self, c)

    monkeypatch.setattr(RatPoly, "ratio_terms", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    states = {"coeffs": [QuantumNumbers(6, 2)], "table": _states(4)}.get(
        argv[0], [QuantumNumbers(*k) for k in GOLDEN_R2] if argv == ["verify"] else [])
    # at n = 2 the scale 2 kappa is 1: x = r
    assert sorted(scales) == sorted(2 * qn.kappa for qn in states for _ in "LP" if qn.n != 2)


@pytest.mark.parametrize("argv,builds", [
    (["verify", "--nmax", "30", "--checks", "ode,wronskian"], 465),
    (["table", "--nmax", "6"], 21),
    # golden (10 states), ode and wronskian (10) and pv (8 samples)
    (["verify"], 28),
    (["shell", "--n", "2", "--l", "0", "--a", "1e-4", "--b-range", "0.5:1.5", "--grid-points", "50"], 1),
    (["coeffs", "--n", "6", "--l", "2"], 1),
    (["eval", "--n", "6", "--l", "2", "--which", "R1", "--grid", "1:2:3"], 1),
    (["eval", "--n", "6", "--l", "2", "--which", "R2", "--grid", "1:2:3"], 1),
])
def test_commands_build_the_regular_polynomial_once_per_state(capsys, monkeypatch, argv, builds):
    # R2's Ei bucket is R1's polynomial, so a state that needs both builds it once
    calls = []
    original = closedform.laguerre_L1

    def counted(n_r, m):
        calls.append((n_r, m))
        return original(n_r, m)

    monkeypatch.setattr(closedform, "laguerre_L1", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == builds


def test_verify_runs_only_the_selected_checks(capsys, monkeypatch):
    _, both, _ = run(capsys, "verify", "--nmax", "4", "--checks", "ode,wronskian")
    _, wronskian, _ = run(capsys, "verify", "--nmax", "4", "--checks", "wronskian")

    def forbidden(*args, **kwargs):
        raise AssertionError("wronskian_symbolic ran under --checks ode")

    monkeypatch.setattr(oracle, "wronskian_symbolic", forbidden)
    code, ode, _ = run(capsys, "verify", "--nmax", "4", "--checks", "ode")
    assert code == 0
    lines = both.splitlines()
    assert len(lines) == 30
    assert ode.splitlines() == [ln for ln in lines if '"ode_residual_' in ln]
    assert wronskian.splitlines() == [ln for ln in lines if '"wronskian"' in ln]
    assert len(ode.splitlines()) == 20 and len(wronskian.splitlines()) == 10


def test_verify_wronskian_only_fails_on_a_corrupt_r2(capsys, monkeypatch):
    # --checks wronskian computes the ODE residuals without printing them; an
    # R2 that does not solve the radial equation fails its Wronskian row
    original = oracle.assemble_R2

    def corrupted(qn):
        r2 = original(qn)
        if qn.l != 1:
            return r2
        return dataclasses.replace(r2, P=refvals.poly_add(r2.P, RatPoly(0, (1,))))

    monkeypatch.setattr(oracle, "assemble_R2", corrupted)
    code, out, _ = run(capsys, "verify", "--nmax", "3", "--checks", "wronskian")
    assert code == 1
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert [(row["n"], row["l"], row["check"]) for row in rows] == [
        (n, l, "wronskian") for n in range(1, 4) for l in range(n)]
    assert [row["passed"] for row in rows] == [row["l"] != 1 for row in rows]


def test_verify_fails_on_corrupt_golden(capsys, monkeypatch):
    from coulombwf import oracle as oracle_mod

    corrupt = {k: {"q_plus": dict(v["q_plus"]), "q_ei": dict(v["q_ei"])}
               for k, v in GOLDEN_R2.items()}
    corrupt[(3, 1)]["q_ei"][1] = Fraction(123)
    monkeypatch.setattr(oracle_mod, "GOLDEN_R2", corrupt)
    code, out, err = run(capsys, "verify", "--checks", "golden")
    assert code == 1
    failing = [json.loads(ln) for ln in out.splitlines() if not json.loads(ln)["passed"]]
    assert len(failing) == 1
    assert failing[0]["check"] == "golden_table"
    assert (failing[0]["n"], failing[0]["l"]) == (3, 1)


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "bogus")
    assert code == 64
    assert "unknown checks" in err


def test_verify_rejects_an_empty_check_list(capsys):
    # "--checks=" names the one check "", not every check
    for argv in (["--checks="], ["--checks", ""], ["--checks", "ode,"]):
        code, out, err = run(capsys, "verify", "--nmax", "1", *argv)
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1 and "unknown checks: ['']" in err


def test_verify_all_checks_default_nmax(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    reports = [json.loads(ln) for ln in out.splitlines()]
    assert all(rep["passed"] for rep in reports)
    names = {rep["check"].split("[")[0].split("_R")[0] for rep in reports}
    assert {"golden_table", "ode_residual", "wronskian",
            "pv_closedform", "pole_split", "first_integral"} <= names


# the check family of a verify row, from its check name
_ROW_FAMILY = {"golden_table": "golden", "ode_residual": "ode", "wronskian": "wronskian",
               "pv_closedform": "pv", "pole_split": "split", "first_integral": "integral"}


def _row_family(line: str, fmt: str) -> str:
    name = json.loads(line)["check"] if fmt == "json" else line.split(",")[2]
    return _ROW_FAMILY[name.split("[")[0].split("_R")[0]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_check_subsets_are_rows_of_the_default_run(capsys, fmt):
    # pv and split share one pass per sample, yet each subset writes exactly
    # its rows of the default run, in the default run's order
    code, full, _ = run(capsys, "verify", "--format", fmt)
    assert code == 0
    lines = full.splitlines(keepends=True)
    head = lines[:2] if fmt == "csv" else []
    rows = lines[len(head):]
    # blocks in a fixed order, every pv row before any split row
    blocks = [_row_family(ln, fmt).replace("ode", "symbolic").replace("wronskian", "symbolic")
              for ln in rows]
    blocks = [b for i, b in enumerate(blocks) if i == 0 or b != blocks[i - 1]]
    assert blocks == ["golden", "symbolic", "pv", "split", "integral"]
    for subset in ("pv", "split", "pv,split", "split,pv", "golden,split", "integral,pv"):
        code, out, _ = run(capsys, "verify", "--checks", subset, "--format", fmt)
        assert code == 0
        wanted = set(subset.split(","))
        expected = head + [ln for ln in rows if _row_family(ln, fmt) in wanted]
        assert out.splitlines(keepends=True) == expected, subset


def test_verify_runs_one_pv_quadrature_per_sample_point(capsys, monkeypatch):
    # 14 points in PV_SAMPLES: each takes one PV oracle value (four qags
    # calls), split adds one smooth-part qags per point and integral 27 more;
    # R2, whose Ei bucket gives F, is built once per state inside pv_checks
    calls = {"qags": 0, "_pv_oracle": 0, "assemble_R2": 0}
    in_pv_checks = []
    for module, name in ((quadpack, "qags"), (oracle, "_pv_oracle")):
        def counted(*args, name=name, original=getattr(module, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def pv_checks(*args, original=oracle.pv_checks):
        in_pv_checks.append(True)
        try:
            return original(*args)
        finally:
            in_pv_checks.pop()

    def assemble_R2(qn, original=oracle.assemble_R2):
        calls["assemble_R2"] += bool(in_pv_checks)
        return original(qn)

    monkeypatch.setattr(oracle, "pv_checks", pv_checks)
    monkeypatch.setattr(oracle, "assemble_R2", assemble_R2)
    code, _, _ = run(capsys, "verify")
    assert code == 0
    assert sum(len(xs) for _, _, xs in cli.PV_SAMPLES) == 14
    assert calls == {"qags": 97, "_pv_oracle": 14, "assemble_R2": 8}
    for key in calls:
        calls[key] = 0
    code, _, _ = run(capsys, "verify", "--checks", "pv")
    assert code == 0
    # no smooth-part quadrature under pv alone
    assert calls == {"qags": 56, "_pv_oracle": 14, "assemble_R2": 8}


def test_verify_pv_checks_the_forms_that_coeffs_prints(capsys, monkeypatch):
    # pv reads R2's own polynomials, so a wrong coefficient of P in the form
    # that coeffs, eval and shell use fails it: here the lowest one, off by
    # 1e-6 relative
    original = oracle.assemble_R2

    def perturbed(qn):
        r2 = original(qn)
        q = r2.P
        nums = [q.nums[0] * 1_000_001] + [x * 1_000_000 for x in q.nums[1:]]
        return dataclasses.replace(r2, P=RatPoly.from_nums(q.low, nums, q.den * 1_000_000))

    monkeypatch.setattr(oracle, "assemble_R2", perturbed)
    code, out, err = run(capsys, "verify", "--checks", "pv")
    assert code == 1
    failed = [json.loads(ln)["check"] for ln in out.splitlines() if not json.loads(ln)["passed"]]
    assert any(name.startswith("pv_closedform[") for name in failed)
    assert "FAILED" in err


def test_verify_default_row_sequence_is_pinned(capsys):
    # (n, l, check, passed, exact) of every default row, which hold no
    # floats; the pv and split rows keep their (n_r, m) names and order
    states = [(n, l) for n in range(1, 5) for l in range(n)]
    pv_pairs = ["0,1", "1,1", "2,1", "0,3", "1,3", "0,5", "2,3", "1,5"]
    expected = (
        [(n, l, "golden_table", True, True) for n, l in states]
        + [(n, l, check, True, True) for n, l in states
           for check in ("ode_residual_R1", "ode_residual_R2", "wronskian")]
        + [(None, None, f"pv_closedform[{p}]", True, False) for p in pv_pairs]
        + [(None, None, f"pole_split[{p}]", True, False) for p in pv_pairs]
        + [(None, None, f"first_integral[{p}]", True, False)
           for p in ("0,1", "1,1", "0,3", "2,1", "1,3")])
    code, out, _ = run(capsys, "verify")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert [(r["n"], r["l"], r["check"], r["passed"], r["exact"]) for r in rows] == expected
    assert len(expected) == 61


def _verify_row_references(reports):
    # json.dumps of the report's fields, and the csv row as an f-string writes it
    csv = "".join(f"{'' if r.n is None else r.n},{'' if r.l is None else r.l},{r.check},"
                  f"{r.passed},{r.residual_norm!r},{r.exact},\"{r.details}\"\n" for r in reports)
    return ("".join(json.dumps(vars(r)) + "\n" for r in reports),
            cli._header() + "n,l,check,passed,residual_norm,exact,details\n" + csv)


def test_verify_rows_are_json_dumps_of_the_reports(monkeypatch):
    # every report of the exact and default runs, and the failing shapes:
    # a corrupted R2 (residual inf), a corrupted golden table, rows whose n
    # and l are null, non-finite norms and details that json must escape
    reports = cli.run_verify(30, {"ode", "wronskian"}) + cli.run_verify(4, set(cli.ALL_CHECKS))
    original = oracle.assemble_R2

    def corrupted(qn):
        r2 = original(qn)
        return dataclasses.replace(r2, P=refvals.poly_add(r2.P, RatPoly(0, (1,))))

    corrupt = {k: {"q_plus": dict(v["q_plus"]), "q_ei": dict(v["q_ei"])} for k, v in GOLDEN_R2.items()}
    corrupt[(3, 1)]["q_ei"][1] = Fraction(123)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "assemble_R2", corrupted)
        patch.setattr(oracle, "GOLDEN_R2", corrupt)
        failing = cli.run_verify(3, {"ode", "wronskian", "golden"})
    VR = oracle.VerificationReport
    failing += [VR(None, None, "pv_closedform[0,1]", False, math.nan, details="\u00e9 \"quoted\"\\ \t"),
                VR(2, None, "split", False, -math.inf, details="infinite"),
                VR(None, 1, "integral", True, -0.0, exact=True), VR(1, 0, "x", False, 1e300)]
    assert any(r.residual_norm == math.inf for r in failing)
    assert any(not r.passed and r.check == "golden_table" for r in failing)
    assert [r.n for r in reports if r.check.startswith(("pv_", "pole_", "first_"))] == [None] * 21
    for batch in (reports, failing):
        written = "".join(cli._verify_json(batch)), "".join(cli._verify_csv(batch))
        assert written == _verify_row_references(batch)


# bench/record_digests.py writes the byte contract: argv joined by spaces ->
# [first 32 hex digits of sha256(stdout), ops], for coeffs of every state
# with n <= 40, table --nmax 3..6, verify --nmax 30 --checks ode,wronskian
# and the default verify, each in every format
DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


def test_exact_outputs_match_the_bench_digests(capsys):
    # every request, checked as bench/worker.py checks it; the default
    # verify's pv, split and integral rows hang on Ei and QUADPACK in double
    # precision, so these bytes are those of one platform
    assert len(DIGESTS) == 2476
    wrong = []
    for command, (digest, _) in DIGESTS.items():
        code, out, _ = run(capsys, *command.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest()[:32] != digest:
            wrong.append(command)
    assert wrong == []


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_verify_rejects_nonpositive_nmax(capsys, nmax):
    code, _, err = run(capsys, "verify", "--nmax", nmax)
    assert code == 64
    assert "nmax" in err


def test_unwritable_out_is_a_one_line_failure(capsys, tmp_path):
    code, out, err = run(capsys, "coeffs", "--n", "2", "--l", "0",
                         "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("coulombwf: failure:")
    assert err.count("\n") == 1


def test_verify_rows_are_the_report_fields_in_order(capsys):
    # a report is a verify row: each json row's keys and the csv column line
    # are VerificationReport's field names, in their order
    names = [f.name for f in dataclasses.fields(oracle.VerificationReport)]
    code, out, _ = run(capsys, "verify", "--nmax", "2")
    assert code == 0
    assert all(list(json.loads(ln)) == names for ln in out.splitlines())
    code, out, _ = run(capsys, "verify", "--nmax", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == ",".join(names)


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "2", "--checks", "wronskian",
                       "--format", "csv")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "n,l,check,passed,residual_norm,exact,details"
    assert len(lines) == 4


# -- shell --------------------------------------------------------------------------

def test_shell_near_coulomb_limit(capsys):
    code, out, _ = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "1e-4",
                       "--b-range", "0.5:1.5")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["c2"] / doc["c1"]) < 1e-6
    assert doc["b_star"] == pytest.approx(1.0, abs=1e-6)
    assert all(v < 1e-7 for v in doc["continuity"].values())


def test_shell_displaced_inner_boundary(capsys):
    # with a genuinely perturbed interior the scan either finds a root whose
    # continuity holds or reports the scanned mismatch table and exits 2
    code, out, err = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "0.5",
                         "--b-range", "0.6:3.0")
    if code == 0:
        doc = json.loads(out)
        assert all(v < 1e-6 for v in doc["continuity"].values())
    else:
        assert code == 2
        assert "b,mismatch" in err


def test_shell_no_root_exits_2(capsys):
    code, _, err = run(capsys, "shell", "--n", "1", "--l", "0", "--a", "1e-4",
                       "--b-range", "2.0:3.0")
    assert code == 2
    assert "no root" in err
    assert "b,mismatch" in err


@pytest.mark.parametrize("b_range", ["1.5:3", "6:8"])
def test_shell_node_bracket_exits_2(capsys, b_range):
    # each bracket holds a node of u (1.90, 7.10) and no root
    code, out, err = run(capsys, "shell", "--n", "3", "--l", "0", "--a", "1e-3",
                         "--b-range", b_range)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("no root: mismatch changes sign only through a pole")
    assert lines[1] == "b,mismatch"
    assert len(lines) == 2 + 17


def test_shell_inner_radius_at_a_node_of_R1_matches(capsys):
    # a = 2 is an exact zero of R1 for n = 2, l = 0; the mixing still exists
    code, out, err = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "2",
                         "--b-range", "3:5")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["b_star"] == pytest.approx(4.2642, abs=1e-3)
    assert abs(doc["mismatch"]) < 1e-8


def test_shell_unresolved_match_is_a_one_line_failure(capsys):
    code, out, err = run(capsys, "shell", "--n", "8", "--l", "2", "--a", "0.031218547948655875",
                         "--b-range", "197.2183249463177:279.3309622590942")
    assert code == 1
    assert out == ""
    assert err.startswith("coulombwf: failure: bisection closed at b = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("a, b_range", [("0.1", "1:inf"), ("inf", "1:2"), ("nan", "1:2")])
def test_shell_rejects_nonfinite_bounds(capsys, a, b_range):
    code, out, err = run(capsys, "shell", "--n", "2", "--l", "0", "--a", a,
                         "--b-range", b_range)
    assert code == 64
    assert out == ""
    assert err.startswith("coulombwf: error: a and b_range must be finite")
    assert err.count("\n") == 1


def test_shell_rejects_negative_grid_points(capsys):
    code, out, err = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "1e-4",
                         "--b-range", "0.5:1.5", "--grid-points", "-5")
    assert code == 64
    assert out == ""
    assert "grid-points" in err


def test_shell_evaluates_each_boundary_value_once(capsys, monkeypatch):
    # the match, its continuity residuals and the grid share the interior
    # solution and (R1, R1', R2, R2') at a; no grid point lies below a here
    calls = {"interior": 0, "values_at_a": 0}
    interior, evaluator = shellmatch.integrate_interior, numeval.evaluator

    def counting_interior(qn, a):
        calls["interior"] += 1
        return interior(qn, a)

    def counting_evaluator(kappa, pairs, *args):
        point = evaluator(kappa, pairs, *args)

        def counted(r):
            calls["values_at_a"] += r == 1e-4
            return point(r)
        return counted

    monkeypatch.setattr(shellmatch, "integrate_interior", counting_interior)
    monkeypatch.setattr(numeval, "evaluator", counting_evaluator)
    code, _, _ = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "1e-4",
                     "--b-range", "0.5:1.5", "--grid-points", "50")
    assert code == 0
    assert calls == {"interior": 1, "values_at_a": 1}


def test_shell_evaluates_the_forms_once_per_value(capsys, monkeypatch):
    # one evaluator prepared over R1, R1', R2 and R2' for the match, called
    # once, with one Ei, at a and at each mismatch evaluation (lo, hi, then
    # two Brent steps), and one over R1 and R2 alone for the grid, called at
    # each of its 33 shell samples; b* reuses its last evaluation, and no
    # form goes through eval_grid
    prepared, counts = [], {"eval_grid": 0, "ei_with_error": 0}
    evaluator = numeval.evaluator

    def recording_evaluator(kappa, pairs, *args):
        point, rs = evaluator(kappa, pairs, *args), []
        prepared.append((len(pairs), rs))

        def recorded(r):
            rs.append(r)
            return point(r)
        return recorded

    def counted(name):
        original = getattr(numeval, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(numeval, name, wrapper)

    monkeypatch.setattr(numeval, "evaluator", recording_evaluator)
    counted("eval_grid")
    counted("ei_with_error")
    code, out, _ = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "1e-4",
                       "--b-range", "0.5:1.5", "--grid-points", "50")
    assert code == 0
    doc = json.loads(out)
    shell_samples = [r for r, _ in doc["grid"] if 1e-4 <= r <= doc["b_star"]]
    assert len(shell_samples) == 33
    (match_pairs, points), grid_call = prepared
    assert match_pairs == 2 and points[0] == 1e-4
    mismatches = points[1:]
    assert mismatches[:2] == [0.5, 1.5] and mismatches[-1] == doc["b_star"]
    assert grid_call == (1, shell_samples)
    assert counts == {"eval_grid": 0, "ei_with_error": len(points) + len(shell_samples)}
    assert len(mismatches) == 4


def test_shell_converts_each_polynomial_once(capsys, monkeypatch):
    # L, L', P and P' of R2 and R2' and the exterior q and q' are converted
    # to float runs once per request, with R2' the one derivative formed
    counts = {"laurent_run": 0, "float_runs": 0, "derivative": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(numeval, "laurent_run")
    counted(numeval, "float_runs")
    counted(shellmatch, "derivative")
    code, _, _ = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "1e-4",
                     "--b-range", "0.5:1.5", "--grid-points", "50")
    assert code == 0
    assert counts == {"laurent_run": 6, "float_runs": 2, "derivative": 1}


# any double, with the values json writes specially weighted in
_json_floats = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]))


def _shell_doc(n, l, values, grid):
    """A MatchResult with (n, l) and the floats drawn, its grid, and the dict
    that the shell document writes."""
    result = shellmatch.MatchResult(SimpleNamespace(n=n, l=l), *values[:5],
                                    dict(zip(("value_a", "deriv_a", "value_b", "deriv_b"), values[5:])),
                                    1.0, 1.0, (), ())
    doc = dict(zip(("n", "l", "a", "b_star", "c1", "c2", "mismatch"), [n, l, *values[:5]]))
    doc["continuity"] = result.continuity
    if grid is not None:
        doc["grid"] = grid  # (r, u) tuples, as shellmatch.piecewise_grid returns them
    return result, doc


_shell_draws = given(st.integers(1, 99), st.integers(0, 98), st.lists(_json_floats, min_size=9, max_size=9),
                     st.none() | st.lists(st.tuples(_json_floats, _json_floats), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@_shell_draws
def test_shell_json_template_is_json_dumps(n, l, values, grid):
    # the template writes what json.dumps(doc, indent=2) writes, inf, -inf,
    # nan, -0.0 and subnormals included, with the grid absent and present
    result, doc = _shell_doc(n, l, values, grid)
    assert "".join(cli._shell_json(result, grid)) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@_shell_draws
def test_shell_csv_is_the_json_documents_fields(n, l, values, grid):
    # the csv document is the json document's fields as key,value rows, the
    # continuity keys prefixed, then the grid's (r, u) rows under r,u
    result, doc = _shell_doc(n, l, values, grid)
    rows = [f"{key},{doc[key]!r}" for key in ("n", "l", "a", "b_star", "c1", "c2", "mismatch")]
    rows += [f"continuity_{key},{v!r}" for key, v in doc["continuity"].items()]
    if grid is not None:
        rows += ["r,u"] + [f"{r!r},{u!r}" for r, u in doc["grid"]]
    assert "".join(cli._shell_csv(result, grid)) == cli._header() + "key,value\n" + "\n".join(rows) + "\n"


def test_shell_huge_a_fails_fast(capsys):
    for argv in (
        # kappa*a = 1e6: the interior series overflows instead of running on
        ["--n", "1", "--l", "0", "--a", "1e6", "--b-range", "2e6:3e6"],
        # (kappa*a)^2 is beyond double range
        ["--n", "3", "--l", "2", "--a", "1e200", "--b-range", "1e201:1e202"],
        # a^(l-1) = 1/a is beyond double range
        ["--n", "1", "--l", "0", "--a", "1e-320", "--b-range", "1:2"],
    ):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shell", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        # one line that names the interior solution
        assert err.startswith("coulombwf: failure: interior ")
        assert err.count("\n") == 1


def test_shell_underflowing_a_is_a_one_line_failure(capsys):
    # u(a) ~ a^4 underflows to 0 and R2 ~ a^-5 overflows: no finite mixing
    code, out, err = run(capsys, "shell", "--n", "5", "--l", "4", "--a", "1e-90",
                         "--b-range", "1:3")
    assert code == 1
    assert out == ""
    assert err.startswith("coulombwf: failure:")
    assert err.count("\n") == 1


def test_shell_envelope_overflow_is_a_one_line_failure(capsys):
    # u(a) stays finite, but the r^-6 term of R2' has |c| r^-6 beyond double
    # range at r = 1e-60, so the error envelope cannot be formed
    code, out, err = run(capsys, "shell", "--n", "5", "--l", "4", "--a", "1e-60",
                         "--b-range", "1:3")
    assert code == 1
    assert out == ""
    assert err == "coulombwf: failure: conditioning envelope overflows double precision at r = 1e-60\n"


# -- the output sink -------------------------------------------------------------

class _RecordingStdout:
    """A stdout that keeps each write's size and the running sha256 of the
    text, or only discards it."""

    def __init__(self, keep: bool = True):
        self.keep, self.sizes, self.digest = keep, [], hashlib.sha256()

    def write(self, text: str) -> int:
        if self.keep:
            data = text.encode()
            self.sizes.append(len(data))
            self.digest.update(data)
        return len(text)


# sha256 of stdout for large requests, as written when each command built its
# whole document before one write
_LARGE_OUTPUTS = {
    "eval --n 10 --l 3 --which R2 --grid 1:300:20000 --format json":
        "b7cda0f780804d44fca0d5718284b5a975291f04d7985cb275bb4b4548927d1c",
    "eval --n 10 --l 3 --which R2 --grid 1:300:20000 --format csv":
        "cf6a4ae3dc0f66218ddfd161a81ea9d93f11680d0c913c673b776b1545ab0c93",
    "table --nmax 30 --format json":
        "b022cbc90cedce0ebddae3caa9172f7e2b99af54c7e4cd5404c27cac74cc7344",
    "table --nmax 30 --format csv":
        "4a4437f464d78c923f380e60708bbd8f2f57e857e6169b60fb90204683bedb7c",
    "table --nmax 30 --format latex":
        "83629767e831484bc5caad641a5cf17933d4e562fd5995901f356597fb35f7b0",
    "verify --nmax 40 --checks ode,wronskian --format json":
        "83042c56f3fd24580e0e4d709d1180078e7315bf5c4121eb714cac7e1cdfc6b4",
    "verify --nmax 40 --checks ode,wronskian --format csv":
        "51aab2a710d0b86a2d653452d6b08b5492d1e29007f5e7e820ffcfc7fc7de7eb",
    "shell --n 2 --l 0 --a 1e-4 --b-range 0.5:1.5 --grid-points 20000 --format json":
        "53ea6ceb9c1d7271900202a87780d0958493a7651f8702456432d6544c0e33f5",
    "shell --n 2 --l 0 --a 1e-4 --b-range 0.5:1.5 --grid-points 20000 --format csv":
        "0591513fc66efab9def63eaaf591968539fd78206b20095889b3dcd172d22bc1",
}


@pytest.mark.parametrize("command", sorted(_LARGE_OUTPUTS))
def test_large_documents_are_written_in_bounded_pieces(capsys, monkeypatch, command):
    # the document arrives in many writes, none above 64 KiB, whose text is
    # the whole document byte for byte
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(command.split()) == 0
    assert len(stdout.sizes) > 1 and max(stdout.sizes) <= 64 * 1024
    assert stdout.digest.hexdigest() == _LARGE_OUTPUTS[command]


def test_eval_output_memory_is_bounded_by_the_rows(monkeypatch):
    # 20 000 rows of three floats take about 3 MiB; the whole JSON document
    # is 2.2 MiB more, and a list of its row strings more again
    monkeypatch.setattr(sys, "stdout", _RecordingStdout(keep=False))
    argv = "eval --n 10 --l 3 --which R2 --grid 1:300:20000 --format json".split()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_failing_command_writes_nothing(capsys, tmp_path):
    # Ei(1, -x) overflows at the grid's fifth point, after four rows were
    # computed: stdout stays empty, and --out is never created
    argv = ["eval", "--n", "1", "--l", "0", "--which", "R2", "--grid", "350:362:7"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("coulombwf: failure: Ei(1, -x) overflows double precision")
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (1, "")
    assert not target.exists()


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_pipe_is_a_one_line_failure(unbuffered):
    # the reader takes 10 bytes of a 1.2 MB document written in runs, or of a
    # 179 KB one written in one piece, and closes the pipe: a later write
    # fails, whether stdout is buffered or writes straight through
    src = os.path.dirname(os.path.dirname(os.path.abspath(coulombwf.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["eval", "--n", "10", "--l", "3", "--grid", "1:300:20000"],
                 ["coeffs", "--n", "200", "--l", "0"]):
        proc = subprocess.Popen([sys.executable, "-m", "coulombwf", *argv],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, argv
        assert err == b"coulombwf: failure: [Errno 32] Broken pipe\n", argv


def test_cli_import_leaves_scipy_unloaded():
    # no command imports scipy; the pv, split and integral checks import
    # coulombwf.quadpack when one of them first runs
    src = os.path.dirname(os.path.dirname(os.path.abspath(coulombwf.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, coulombwf.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_verify_leaves_scipy_and_numpy_unloaded():
    # the pv, split and integral checks integrate with coulombwf.quadpack
    src = os.path.dirname(os.path.dirname(os.path.abspath(coulombwf.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "\n".join([
        "import contextlib, io, sys",
        "import coulombwf.cli as cli",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "    assert cli.main(['verify']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_leaves_mpmath_unloaded():
    # mpmath is imported only by the extended-precision evaluator
    src = os.path.dirname(os.path.dirname(os.path.abspath(coulombwf.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "\n".join([
        "import contextlib, io, sys",
        "import coulombwf.cli as cli",
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath')",
        "print(loaded())",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "    for argv in (['coeffs', '--n', '4', '--l', '1'], ['table', '--nmax', '3'],",
        "                 ['eval', '--n', '3', '--l', '1', '--grid', '0.5:60:50'],",
        "                 ['shell', '--n', '2', '--l', '0', '--a', '1e-4', '--b-range', '0.5:1.5',",
        "                  '--grid-points', '20']):",
        "        assert cli.main(argv) == 0, argv",
        "print(loaded())",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[]\n"


def test_main_reuses_one_parser(capsys, monkeypatch):
    def forbidden():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", forbidden)
    for argv in (["coeffs", "--n", "2", "--l", "1"], ["table", "--nmax", "2", "--format", "csv"],
                 ["verify", "--nmax", "1", "--checks", "ode"], ["coeffs", "--n", "x"], ["--help"]):
        code, _, _ = run(capsys, *argv)
        assert code in (0, 64)


def test_shared_parser_keeps_no_state(capsys, monkeypatch):
    # a usage error, then valid calls that rely on defaults, then help: each
    # gives what it gives from a parser that has parsed nothing before
    sequence = [
        ["verify", "--nmax", "1", "--checks", "golden", "--format"],
        ["verify", "--nmax", "1", "--checks", "ode"],
        ["coeffs", "--n", "3", "--l", "1", "--format", "csv"],
        ["coeffs", "--n", "3", "--l", "1"],
        ["--help"],
        ["--help"],
        ["coeffs", "--help"],
    ]
    shared = cli._PARSER
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(run(capsys, *argv))
    monkeypatch.setattr(cli, "_PARSER", shared)
    assert [run(capsys, *argv) for argv in sequence] == fresh
    assert [code for code, _, _ in fresh] == [64, 0, 0, 0, 0, 0, 0]
    assert fresh[1][1].startswith('{"n": 1, "l": 0, "check": "ode_residual_R1"')
    assert fresh[3][1].startswith("{\n")


def _counted_parsers(monkeypatch) -> list[str]:
    """Wrap parse_known_args on the shared parser and each subcommand parser;
    the returned list gains the prog of each parser on every pass."""
    passes = []
    for parser in (cli._PARSER, *cli._PARSER.commands.values()):
        def counted(*args, _parser=parser, _parse=parser.parse_known_args, **kwargs):
            passes.append(_parser.prog)
            return _parse(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counted)
    return passes


@pytest.mark.parametrize("argv", [
    ["coeffs", "--n", "2", "--l", "1"],
    ["eval", "--n", "2", "--l", "0", "--grid", "1:2:3"],
    ["table", "--nmax", "2", "--format", "csv"],
    ["verify", "--nmax", "1", "--checks", "ode"],
    ["shell", "--n", "2", "--l", "0", "--a", "1e-4", "--b-range", "0.5:1.5"],
], ids=lambda argv: argv[0])
def test_each_request_is_parsed_once_by_its_own_parser(capsys, monkeypatch, argv):
    passes = _counted_parsers(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert passes == [f"coulombwf {argv[0]}"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["frobnicate", "--n", "1"], ["--n", "1"]],
                         ids=["help", "h", "empty", "unknown", "option-first"])
def test_top_level_parser_serves_help_and_a_missing_or_unknown_command(capsys, monkeypatch, argv):
    # what the top-level parser alone gives for this argv, as main gave it
    # when it parsed every request there
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    expected = (exc.value.code, *capsys.readouterr())
    passes = _counted_parsers(monkeypatch)
    assert run(capsys, *argv) == expected
    assert passes[0] == "coulombwf"
    code, out, err = expected
    assert code == (0 if argv in (["--help"], ["-h"]) else 64)
    assert (out if code == 0 else err).startswith("usage: coulombwf [-h]")


@pytest.mark.parametrize("argv", [
    ["coeffs", "--n", "2", "--l", "1"],
    ["eval", "--n", "2", "--l", "0", "--grid", "1:2:3"],
    ["table", "--nmax", "2"],
    ["verify", "--nmax", "1"],
    ["shell", "--n", "2", "--l", "0", "--a", "1e-4", "--b-range", "0.5:1.5"],
], ids=lambda argv: argv[0])
def test_unrecognized_argument_is_reported_by_its_command(capsys, argv):
    code, out, err = run(capsys, *argv, "--bogus", "7")
    assert (code, out) == (64, "")
    assert err.startswith(f"usage: coulombwf {argv[0]} ")
    assert err.endswith(f"coulombwf {argv[0]}: error: unrecognized arguments: --bogus 7\n")


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["coeffs", "--n", "3", "--l", "1", "--format", "csv"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["coulombwf", *argv])
    code = cli.main()
    assert (code, *capsys.readouterr()) == expected
    assert expected[0] == 0 and expected[1].startswith("# coulombwf")


def test_shell_reversed_range_is_usage_error(capsys):
    code, _, _ = run(capsys, "shell", "--n", "2", "--l", "0", "--a", "0.1",
                     "--b-range", "1.5:0.5")
    assert code == 64


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def _readme_cli_examples() -> list[list[str]]:
    """The argv of every ``coulombwf …`` line of the sh block under README's
    ``## CLI`` heading, comments stripped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("coulombwf ")]


def test_readme_cli_examples_run(capsys):
    # a renamed option or subcommand fails here instead of leaving the docs stale
    examples = _readme_cli_examples()
    assert len(examples) >= 5
    for argv in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out


def test_package_exports_resolve():
    # a deleted name that is still exported would fail ``from coulombwf import *``
    missing = [name for name in coulombwf.__all__ if not hasattr(coulombwf, name)]
    assert missing == []


def _third_party_imports(paths) -> set[str]:
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names) - {"coulombwf"}


def test_declared_dependencies_are_the_imported_ones():
    # a declared dependency that is never imported, or an import that is not
    # declared, fails here: the package's imports are its dependencies, and
    # the tests' are those and the test extra
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def names(deps) -> set[str]:
        return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower() for dep in deps}

    declared = names(project["dependencies"])
    assert _third_party_imports((root / "src" / "coulombwf").glob("*.py")) == declared
    tests = list((root / "tests").glob("*.py"))
    local = {path.stem for path in tests}
    test_extra = names(project["optional-dependencies"]["test"])
    assert _third_party_imports(tests) - local == declared | test_extra
