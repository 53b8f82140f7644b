import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from coulombwf.closedform import (
    ExpEiForm,
    QuantumNumbers,
    assemble_R2,
    solutions,
)
from coulombwf import numeval, oracle as oracle_mod
from coulombwf.numeval import eval_grid, horner, laurent_run
from coulombwf.oracle import (
    GOLDEN_R2,
    _confluent_parts,
    first_integral_closed_form_check,
    golden_table_check,
    ode_residual_symbolic,
    phi2_pv_oracle,
    pv_checks,
    symbolic_checks,
    wronskian_symbolic,
)
from coulombwf.ratpoly import RatPoly

F = Fraction
TWO = RatPoly(0, (2,))

DATA_DIR = Path(__file__).parent / "data"


def all_qn(n_max):
    return [QuantumNumbers(n, l) for n in range(1, n_max + 1) for l in range(n)]


def qn_of(n_r, m):
    """The state whose confluent indices are (n_r, m = 2l + 1)."""
    l = (m - 1) // 2
    return QuantumNumbers(n_r + l + 1, l)


def closed_form_deviation(qn, x):
    """|PV - closed form| / max(|PV|, |closed form|) at one x, as pv_checks
    reports it."""
    rep, = pv_checks(qn, [x], {"pv"})
    return rep.residual_norm


# -- symbolic radial-operator residual ----------------------------------------------

@pytest.mark.parametrize("qn", all_qn(8), ids=lambda q: f"n{q.n}l{q.l}")
def test_ode_residual_exactly_zero(qn):
    s = solutions(qn)
    rep1 = ode_residual_symbolic(s.r1, s.r1d, qn, "R1")
    rep2 = ode_residual_symbolic(s.r2, s.r2d, qn, "R2")
    assert rep1.passed and rep1.exact and rep1.residual_norm == 0.0
    assert rep2.passed and rep2.exact and rep2.residual_norm == 0.0


def test_ode_residual_detects_mutation():
    qn = QuantumNumbers(3, 1)
    f = assemble_R2(qn)
    mutated = ExpEiForm(f.q_plus + RatPoly(0, (1,)), f.q_minus, f.q_ei, f.kappa)
    rep = ode_residual_symbolic(mutated, mutated.derivative(), qn, "R2")
    assert not rep.passed
    assert rep.residual_norm > 0


def test_residual_also_vanishes_numerically():
    # cross-check the symbolic engine itself: apply the operator with floats
    qn = QuantumNumbers(3, 1)
    f = assemble_R2(qn)
    d1 = f.derivative()
    d2 = d1.derivative()
    kappa = float(qn.kappa)
    rng = random.Random(7)
    for _ in range(20):
        r = rng.uniform(0.1, 20.0)
        terms = (
            r * r * eval_grid(d2, (r,))[0][1],
            2 * r * eval_grid(d1, (r,))[0][1],
            (-(kappa * r) ** 2 + 2 * r - qn.l * (qn.l + 1)) * eval_grid(f, (r,))[0][1],
        )
        assert abs(sum(terms)) <= 1e-9 * max(abs(t) for t in terms)


# -- Wronskian -------------------------------------------------------------------------

@pytest.mark.parametrize("qn", all_qn(8), ids=lambda q: f"n{q.n}l{q.l}")
def test_wronskian_constant_and_nonzero(qn):
    r2w, rep = wronskian_symbolic(solutions(qn))
    assert rep.passed and rep.exact
    assert r2w.low == 0 and r2w.degree == 0
    assert r2w.coeff(0) != 0


def test_wronskian_ground_state_value():
    # r^2 W(R1, R2) for the ground state works out to -1/2 by hand
    r2w, _ = wronskian_symbolic(solutions(QuantumNumbers(1, 0)))
    assert r2w == RatPoly(0, (F(-1, 2),))


def test_wronskian_scales_bilinearly():
    s = solutions(QuantumNumbers(2, 1))
    w, _ = wronskian_symbolic(s)
    w2, _ = wronskian_symbolic(dataclasses.replace(s, r2=s.r2.mul_poly(TWO), r2d=s.r2d.mul_poly(TWO)))
    assert w2 == w * 2


def test_wronskian_rejects_wrong_normalisation():
    # 2 R2 is still an independent solution, but its r^2 W is twice
    # -n (n+l)! / (2 (n-l-1)!) = -6 for n = 2, l = 1
    s = solutions(QuantumNumbers(2, 1))
    w2, rep = wronskian_symbolic(dataclasses.replace(s, r2=s.r2.mul_poly(TWO), r2d=s.r2d.mul_poly(TWO)))
    assert w2 == RatPoly(0, (-12,))
    assert not rep.passed and not rep.exact
    assert rep.residual_norm == 6.0
    assert rep.details == "r^2 W = -12, expected -6"


def test_wronskian_reports_non_cancelling_buckets():
    s = solutions(QuantumNumbers(3, 1))
    r2 = s.r2 + ExpEiForm(RatPoly.zero(), RatPoly.zero(), RatPoly(0, (1,)), s.r2.kappa)
    r2w, rep = wronskian_symbolic(dataclasses.replace(s, r2=r2, r2d=r2.derivative()))
    assert r2w.is_zero()
    assert not rep.passed and not rep.exact
    assert rep.residual_norm == float("inf")
    assert rep.details.startswith("non-cancelling Wronskian buckets: minus=0, ei=")


def test_symbolic_checks_select_in_order():
    qn = QuantumNumbers(3, 1)
    names = [rep.check_name for rep in symbolic_checks(qn, {"wronskian", "ode"})]
    assert names == ["ode_residual_R1", "ode_residual_R2", "wronskian"]
    assert [rep.check_name for rep in symbolic_checks(qn, {"ode"})] == names[:2]
    assert [rep.check_name for rep in symbolic_checks(qn, {"wronskian"})] == names[2:]


def test_wronskian_constants_match_recorded_artifact():
    # regenerated by the exact engine; see data/regenerate.py
    recorded = json.loads((DATA_DIR / "wronskian_r2w.json").read_text())
    for key, value in recorded.items():
        n, l = (int(s) for s in key.split(","))
        r2w, _ = wronskian_symbolic(solutions(QuantumNumbers(n, l)))
        assert str(r2w.coeff(0)) == value


# -- principal-value integral oracle ---------------------------------------------------

def test_pv_oracle_degenerate_case():
    # for (n_r, m) = (0, 1), i.e. (n, l) = (1, 0), the closed form is
    # e^x/x + Ei(1, -x)
    got = phi2_pv_oracle(QuantumNumbers(1, 0), 2.0)
    assert closed_form_deviation(QuantumNumbers(1, 0), 2.0) <= 1e-8
    # blessed value: e^2/2 - Ei(2) from extended-precision arithmetic
    assert got == pytest.approx(-1.2597063065365650, rel=1e-8)


@pytest.mark.parametrize("n_r,m,x", [(1, 1, 1.0), (1, 3, 0.5), (2, 1, 2.0), (0, 5, 1.0)])
def test_pv_oracle_matches_closed_form(n_r, m, x):
    assert closed_form_deviation(qn_of(n_r, m), x) <= 1e-8


def test_pv_closedform_check_report():
    rep, = pv_checks(QuantumNumbers(2, 0), [0.5, 1.0, 2.0], {"pv"})
    assert rep.passed
    assert rep.residual_norm <= 1e-6


def test_pv_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        phi2_pv_oracle(qn_of(10, 5), 1.0)
    with pytest.raises(Exception):
        phi2_pv_oracle(QuantumNumbers(1, 0), -1.0)


def pv_sum_identity_holds(qn, r2):
    """x^{l+1} q_plus(x) == S[x^{l+1} q_ei(x)] exactly, in x = 2 kappa r,
    with S[h](x) = sum_k h_k sum_{j<k} j! x^{k-1-j}.

    That is R2's defining PV integral split at the pole: the smooth part
    integrates term by term with integral_0^inf e^{-s} s^j ds = j!, and
    PV integral_0^inf e^{-s}/(s-x) ds = e^{-x} Ei(1, -x) carries the rest.
    Both sides are compared as integer numerators over one denominator.
    """
    to_x = Fraction(qn.n, 2)
    lhs = r2.q_plus.scale_arg(to_x).shift(qn.l + 1)
    h = r2.q_ei.scale_arg(to_x).shift(qn.l + 1)
    assert h.low >= 1
    out = [0] * h.degree
    for k, num in enumerate(h.nums, h.low):
        j_factorial = 1
        for j in range(k):
            out[k - 1 - j] += num * j_factorial
            j_factorial *= j + 1
    return RatPoly.from_nums(0, out, h.den) == lhs


def test_pv_sum_identity_on_R2_buckets():
    # independent of the Kummer recurrence that builds P
    for qn in all_qn(60):
        assert pv_sum_identity_holds(qn, assemble_R2(qn)), qn
    # and it catches a wrong q_plus coefficient, wherever it sits
    for qn in all_qn(8):
        r2 = assemble_R2(qn)
        q = r2.q_plus
        for i in range(len(q.nums)):
            nums = list(q.nums)
            nums[i] += 1
            wrong = dataclasses.replace(r2, q_plus=RatPoly.from_nums(q.low, nums, q.den))
            assert not pv_sum_identity_holds(qn, wrong), (qn, i)


# -- pole-removing split ------------------------------------------------------------------

@pytest.mark.parametrize("n_r,m,xs", [(0, 1, (0.5, 1.0, 2.0)), (1, 1, (1.0,)), (1, 3, (0.5, 2.0))])
def test_pole_split_identity(n_r, m, xs):
    rep, = pv_checks(qn_of(n_r, m), list(xs), {"split"})
    assert rep.passed
    assert rep.residual_norm <= 1e-8


def test_pole_split_difference_quotient_is_smooth():
    # the bracketed difference has a removable singularity at s = x with
    # limit e^{-x} d/ds [s^m F(s)] at s = x
    # limit e^{-x} d/ds [s^m F(s)] at s = x; the quotient's coefficients,
    # highest power first, are the partial sums of Horner's rule for h at x
    n_r, m, x = 1, 1, 1.5
    h = _confluent_parts(qn_of(n_r, m))[1].shift(m)
    run = laurent_run(h)
    up = run[0]
    q = [horner((up[:k], (), 0, 0, 0.0), x)[0] for k in range(len(up) - 1, 0, -1)]
    at_pole = sum(c * x**i for i, c in enumerate(q))
    slope = float(horner(laurent_run(h.derivative(), F), F(3, 2))[0])
    assert at_pole == pytest.approx(slope, rel=1e-12)
    # and the raw difference quotient approaches the same limit
    eps = 1e-6
    raw = (horner(run, x + eps)[0] - horner(run, x)[0]) / eps
    assert raw == pytest.approx(slope, rel=1e-5)


# -- finite evaluation of the pole-free first integral --------------------------------------

def test_first_integral_lowest_power():
    # N = 1: integrand collapses to e^{-s}, integral 1 = 0! x^0
    rep = first_integral_closed_form_check(0, 1)
    assert rep.passed


def test_first_integral_hand_sums(monkeypatch):
    # N = 2 at x = 1: 1! + 0! x = 2; N = 3 at x = 2: 2 + 2 + 4 = 8
    monkeypatch.setattr(oracle_mod, "FIRST_INTEGRAL_XS", (1.0,))
    rep = first_integral_closed_form_check(1, 1)
    assert rep.passed
    monkeypatch.setattr(oracle_mod, "FIRST_INTEGRAL_XS", (2.0,))
    rep = first_integral_closed_form_check(0, 3)
    assert rep.passed


def test_first_integral_rejects_large_powers():
    with pytest.raises(ValueError):
        first_integral_closed_form_check(8, 5)


# -- golden coefficient table -----------------------------------------------------------------

def test_golden_table_all_match():
    reports = golden_table_check()
    assert len(reports) == 10
    assert all(rep.passed and rep.exact for rep in reports)


def test_golden_table_detects_corruption(monkeypatch):
    corrupt = {k: {"q_plus": dict(v["q_plus"]), "q_ei": dict(v["q_ei"])}
               for k, v in GOLDEN_R2.items()}
    corrupt[(2, 0)]["q_plus"][0] = F(999)
    monkeypatch.setattr(oracle_mod, "GOLDEN_R2", corrupt)
    reports = golden_table_check()
    failed = [rep for rep in reports if not rep.passed]
    assert len(failed) == 1
    assert (failed[0].subject.n, failed[0].subject.l) == (2, 0)
    assert "q_plus" in failed[0].details


def test_pv_integral_converts_h_once(monkeypatch):
    # h, D h and D^3 h are converted to float runs once per phi2_pv_oracle
    # call, and both integrals and every quadrature node reuse them
    calls = []
    original = numeval.laurent_run

    def counted(p, *args):
        calls.append(p)
        return original(p, *args)

    monkeypatch.setattr(numeval, "laurent_run", counted)
    phi2_pv_oracle(qn_of(1, 3), 1.0)
    assert len(calls) == 3


def test_pv_checks_build_their_polynomials_once(monkeypatch):
    # pv and split together make one build of R2, whose Ei bucket is F,
    # however many samples they take
    calls = []
    original = oracle_mod.assemble_R2

    def counted(qn):
        calls.append(qn)
        return original(qn)

    monkeypatch.setattr(oracle_mod, "assemble_R2", counted)
    pv, split = pv_checks(QuantumNumbers(2, 0), [0.5, 1.0, 2.0], {"pv", "split"})
    assert pv.passed and split.passed
    assert calls == [QuantumNumbers(2, 0)]

