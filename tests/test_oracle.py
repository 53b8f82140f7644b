import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coulombwf.closedform import QuantumNumbers, Radial, apply_radial_operator, assemble_R2
from coulombwf import numeval, oracle as oracle_mod
from coulombwf.numeval import eval_grid, horner, laurent_run
from coulombwf.oracle import (
    GOLDEN_R2,
    _confluent_parts,
    first_integral_closed_form_check,
    golden_table_check,
    _pv_oracle,
    _pv_runs,
    ode_residual_symbolic,
    pv_checks,
    symbolic_checks,
    wronskian_symbolic,
)
from coulombwf.ratpoly import RatPoly

from refvals import (
    derivative_form,
    poly_add,
    poly_sub,
    radial_operator_reference,
    wronskian_x_constant,
)

F = Fraction


def r1_r2(qn):
    """R1 and R2 of one state from its one construction: R1 is R2's L."""
    r2 = assemble_R2(qn)
    return Radial(qn, r2.L), r2


def all_qn(n_max):
    return [QuantumNumbers(n, l) for n in range(1, n_max + 1) for l in range(n)]


def qn_of(n_r, m):
    """The state whose confluent indices are (n_r, m = 2l + 1)."""
    l = (m - 1) // 2
    return QuantumNumbers(n_r + l + 1, l)


def pv_oracle(qn, x):
    """The PV oracle at x on the runs of qn's Ei bucket, read back in x."""
    return _pv_oracle(qn.n_r, qn.m, _pv_runs(_confluent_parts(qn)[1].shift(qn.m)), x)


def closed_form_deviation(qn, x):
    """|PV - closed form| / max(|PV|, |closed form|) at one x, as pv_checks
    reports it."""
    rep, = pv_checks(qn, [x], {"pv"})
    return rep.residual_norm


# -- symbolic radial-operator residual ----------------------------------------------

@pytest.mark.parametrize("qn", all_qn(8), ids=lambda q: f"n{q.n}l{q.l}")
def test_ode_residual_exactly_zero(qn):
    r1, r2 = r1_r2(qn)
    rep1 = ode_residual_symbolic(apply_radial_operator(r1), "R1")
    rep2 = ode_residual_symbolic(apply_radial_operator(r2), "R2")
    assert rep1.passed and rep1.exact and rep1.residual_norm == 0.0
    assert rep2.passed and rep2.exact and rep2.residual_norm == 0.0


def test_ode_residual_detects_mutation():
    r1, r2 = r1_r2(QuantumNumbers(3, 1))
    for which, f, part in (("R1", r1, "L"), ("R2", r2, "L"), ("R2", r2, "P")):
        mutated = dataclasses.replace(f, **{part: poly_add(getattr(f, part), RatPoly(0, (1,)))})
        rep = ode_residual_symbolic(apply_radial_operator(mutated), which)
        assert not rep.passed and not rep.exact
        assert rep.residual_norm > 0
        # the failing row reads exactly as the residual composed from derivatives
        ref = radial_operator_reference(mutated)
        assert rep.details == (f"nonzero residual buckets: plus={ref.q_plus}, "
                               f"minus={ref.q_minus}, ei={ref.q_ei}"), (which, part)
        assert rep.residual_norm == max(abs(float(c)) for q in (ref.q_plus, ref.q_minus, ref.q_ei)
                                        for c in q.coeffs)


def test_residual_also_vanishes_numerically():
    # cross-check the symbolic engine itself: apply the operator with floats
    qn = QuantumNumbers(3, 1)
    f = assemble_R2(qn)
    d1 = derivative_form(f)
    d2 = derivative_form(d1)
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

def wronskian(r1, r2):
    """wronskian_symbolic on the verdict of the forms' own exact ODE residuals."""
    solves = all(apply_radial_operator(f).is_zero() for f in (r1, r2))
    return wronskian_symbolic(r1, r2, solves)


def corrupt_r2(r1, r2):
    """R1 and R2 with 1 added to R2's P, so that R2 no longer solves the radial equation."""
    return r1, dataclasses.replace(r2, P=poly_add(r2.P, RatPoly(0, (1,))))


def doubled(f):
    """2 f, in f's own shape."""
    return dataclasses.replace(f, L=f.L * 2, P=None if f.P is None else f.P * 2)


@pytest.mark.parametrize("qn", all_qn(8), ids=lambda q: f"n{q.n}l{q.l}")
def test_wronskian_constant_and_nonzero(qn):
    r2w, rep = wronskian(*r1_r2(qn))
    assert rep.passed and rep.exact
    assert r2w != 0


def test_wronskian_ground_state_value():
    # r^2 W(R1, R2) for the ground state works out to -1/2 by hand
    r2w, _ = wronskian(*r1_r2(QuantumNumbers(1, 0)))
    assert r2w == F(-1, 2)


def test_x_wronskian_of_the_records_every_state_to_n60():
    # the records hold L and P in x = 2 kappa r, where x^2 W_x(R1, R2) is
    # -(n+l)!/n_r!, and r^2 W = n x^2 W_x / 2; the integer sum is held to
    # the reference x^2 W_x on any records by the test below
    for qn in all_qn(60):
        r1, r2 = r1_r2(qn)
        want = F(-qn.n * math.factorial(qn.n + qn.l), 2 * math.factorial(qn.n_r))
        assert wronskian_symbolic(r1, r2, True)[0] == want, qn


_polys = st.builds(RatPoly.from_nums, st.integers(-6, 6),
                   st.lists(st.integers(-10**6, 10**6), max_size=6), st.integers(1, 10**4))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), _polys, _polys, _polys)
def test_wronskian_sum_is_the_x_coefficient_on_any_records(n, m1, e, p):
    # every term of the integer sum, p_{-2-a} too, which no state reaches,
    # on records that need not solve the radial equation
    qn = QuantumNumbers(n, 0)
    r1, r2 = Radial(qn, m1), Radial(qn, e, p)
    assert wronskian_symbolic(r1, r2, True)[0] == n * wronskian_x_constant(r1, r2) / 2


def test_wronskian_forms_no_product(monkeypatch):
    pairs = [r1_r2(qn) for qn in all_qn(8)]
    calls = []
    mul = RatPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(RatPoly, "__mul__", counted)
    monkeypatch.setattr(RatPoly, "__rmul__", counted)
    for r1, r2 in pairs:
        assert wronskian_symbolic(r1, r2, True)[1].passed
    assert calls == []


def test_wronskian_scales_bilinearly():
    r1, r2 = r1_r2(QuantumNumbers(2, 1))
    w, _ = wronskian(r1, r2)
    w2, _ = wronskian(r1, doubled(r2))
    assert w2 == w * 2
    w4, _ = wronskian(doubled(r1), doubled(r2))
    assert w4 == w * 4


def test_wronskian_rejects_wrong_normalisation():
    # 2 R2 is still an independent solution, but its r^2 W is twice
    # -n (n+l)! / (2 (n-l-1)!) = -6 for n = 2, l = 1
    r1, r2 = r1_r2(QuantumNumbers(2, 1))
    w2, rep = wronskian(r1, doubled(r2))
    assert w2 == -12
    assert not rep.passed and not rep.exact
    assert rep.residual_norm == 6.0
    assert rep.details == "r^2 W = -12, expected -6"


@pytest.mark.parametrize("checks", [{"wronskian"}, {"ode", "wronskian"}],
                         ids=["wronskian", "ode,wronskian"])
def test_wronskian_fails_when_a_form_does_not_solve(monkeypatch, checks):
    qn = QuantumNumbers(3, 1)
    r2w, rep = wronskian(*corrupt_r2(*r1_r2(qn)))
    assert r2w == 0
    assert not rep.passed and not rep.exact
    monkeypatch.setattr(oracle_mod, "assemble_R2", lambda q: corrupt_r2(*r1_r2(q))[1])
    *odes, rep = symbolic_checks(qn, checks)
    assert [(o.check, o.passed) for o in odes] == (
        [("ode_residual_R1", True), ("ode_residual_R2", False)] if "ode" in checks else [])
    assert rep.check == "wronskian"
    assert not rep.passed and not rep.exact
    assert rep.residual_norm == float("inf")
    assert rep.details == "a form does not solve the radial equation"


def test_symbolic_checks_select_in_order():
    qn = QuantumNumbers(3, 1)
    names = [rep.check for rep in symbolic_checks(qn, {"wronskian", "ode"})]
    assert names == ["ode_residual_R1", "ode_residual_R2", "wronskian"]
    assert [rep.check for rep in symbolic_checks(qn, {"ode"})] == names[:2]
    assert [rep.check for rep in symbolic_checks(qn, {"wronskian"})] == names[2:]


# -- principal-value integral oracle ---------------------------------------------------

def test_pv_oracle_degenerate_case():
    # for (n_r, m) = (0, 1), i.e. (n, l) = (1, 0), the closed form is
    # e^x/x + Ei(1, -x)
    got = pv_oracle(QuantumNumbers(1, 0), 2.0)
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
        pv_oracle(qn_of(10, 5), 1.0)
    with pytest.raises(Exception):
        pv_oracle(QuantumNumbers(1, 0), -1.0)


def pv_sum_identity_holds(qn, r2):
    """x^{l+1} P(x) == S[x^{l+1} L(x)] exactly, in x = 2 kappa r,
    with S[h](x) = sum_k h_k sum_{j<k} j! x^{k-1-j}.

    That is R2's defining PV integral split at the pole: the smooth part
    integrates term by term with integral_0^inf e^{-s} s^j ds = j!, and
    PV integral_0^inf e^{-s}/(s-x) ds = e^{-x} Ei(1, -x) carries the rest.
    Both sides are compared as integer numerators over one denominator.
    """
    lhs = r2.P.shift(qn.l + 1)
    h = r2.L.shift(qn.l + 1)
    assert h.low >= 1
    out = [0] * h.degree
    for k, num in enumerate(h.nums, h.low):
        j_factorial = 1
        for j in range(k):
            out[k - 1 - j] += num * j_factorial
            j_factorial *= j + 1
    return RatPoly.from_nums(0, out, h.den) == lhs


def test_pv_sum_identity_on_R2_buckets():
    # independent of the Kummer recurrence that builds P; (301, 150) is
    # (n_r, m) = (150, 301)
    for qn in all_qn(60) + [QuantumNumbers(301, 150)]:
        assert pv_sum_identity_holds(qn, assemble_R2(qn)), qn
    # and it catches a wrong coefficient of P, wherever it sits
    for qn in all_qn(8):
        r2 = assemble_R2(qn)
        q = r2.P
        for i in range(len(q.nums)):
            nums = list(q.nums)
            nums[i] += 1
            wrong = dataclasses.replace(r2, P=RatPoly.from_nums(q.low, nums, q.den))
            assert not pv_sum_identity_holds(qn, wrong), (qn, i)


def test_pv_runs_are_h_and_its_reference_derivatives_every_state_to_n40():
    for qn in all_qn(40):
        h = _confluent_parts(qn)[1].shift(qn.m)
        d1 = poly_sub(h.derivative(), h)
        d2 = poly_sub(d1.derivative(), d1)
        d3 = poly_sub(d2.derivative(), d2)
        assert _pv_runs(h) == (laurent_run(h), laurent_run(d1), laurent_run(d3)), qn


# -- pole-removing split ------------------------------------------------------------------

@pytest.mark.parametrize("n_r,m,xs", [(0, 1, (0.5, 1.0, 2.0)), (1, 1, (1.0,)), (1, 3, (0.5, 2.0))])
def test_pole_split_identity(n_r, m, xs):
    rep, = pv_checks(qn_of(n_r, m), list(xs), {"split"})
    assert rep.passed
    assert rep.residual_norm <= 1e-8


def test_pole_split_difference_quotient_is_smooth():
    # the bracketed difference has a removable singularity at s = x with
    # limit e^{-x} d/ds [s^m F(s)] at s = x; the quotient's coefficients,
    # highest power first, are the partial sums of Horner's rule for h at x
    n_r, m, x = 1, 1, 1.5
    h = _confluent_parts(qn_of(n_r, m))[1].shift(m)
    run = laurent_run(h)
    up = run[0]
    q = [horner((up[:k], (), 0.0), x) for k in range(len(up) - 1, 0, -1)]
    at_pole = sum(c * x**i for i, c in enumerate(q))
    slope = float(horner(laurent_run(h.derivative(), F), F(3, 2)))
    assert at_pole == pytest.approx(slope, rel=1e-12)
    # and the raw difference quotient approaches the same limit
    eps = 1e-6
    raw = (horner(run, x + eps) - horner(run, x)) / eps
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
    assert (failed[0].n, failed[0].l) == (2, 0)
    assert "q_plus" in failed[0].details


def test_pv_integral_converts_h_once(monkeypatch):
    # h, D h and D^3 h are converted to float runs once per state, and
    # both integrals and every quadrature node reuse them
    calls = []
    original = numeval.laurent_run

    def counted(p, *args):
        calls.append(p)
        return original(p, *args)

    monkeypatch.setattr(numeval, "laurent_run", counted)
    pv_oracle(qn_of(1, 3), 1.0)
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

