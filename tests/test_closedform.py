import copy
import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coulombwf import cli, closedform
from coulombwf.closedform import (
    InvalidQuantumNumbers,
    QuantumNumbers,
    Radial,
    apply_radial_operator,
    assemble_R1,
    assemble_R2,
    decay_derivative,
    derivative,
    energy,
    laguerre_L1,
    p2_recurrence,
)
from coulombwf.numeval import eval_form_extended
from coulombwf.oracle import _confluent_parts
from coulombwf.ratpoly import RatPoly

from refvals import (
    ExpEiForm,
    buckets,
    central_diff,
    fraction_hyp1f1_terminating,
    fraction_laguerre_L1,
    fraction_scale_arg,
    in_r,
    laurent_mul,
    p2_doublesum,
    p2_simplified,
    poly_add,
    poly_from_terms as P,
    poly_sub,
    radial_operator_reference,
)

F = Fraction
ONE = RatPoly(0, (1,))


# -- quantum numbers -----------------------------------------------------------

def test_quantum_numbers_ground_state():
    qn = QuantumNumbers(1, 0)
    assert (qn.n_r, qn.m, qn.kappa) == (0, 1, F(1))


def test_quantum_numbers_derived_fields():
    qn = QuantumNumbers(3, 1)
    assert (qn.n_r, qn.m, qn.kappa) == (1, 3, F(1, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 60])
def test_cached_scale_is_exact_and_outside_the_fields(n):
    qn = QuantumNumbers(n, n - 1)
    fresh = QuantumNumbers(n, n - 1)
    assert (qn.kappa, qn.x_per_r) == (F(1, n), F(2, n))
    # formed on first read and kept in the instance
    assert vars(qn).keys() == {"n", "l", "kappa", "x_per_r"} and vars(fresh).keys() == {"n", "l"}
    # read or not, the scale changes neither repr, eq nor hash
    assert repr(qn) == repr(fresh) == f"QuantumNumbers(n={n}, l={n - 1})"
    assert qn == fresh and hash(qn) == hash(fresh)
    for copied in (pickle.loads(pickle.dumps(qn)), copy.copy(qn), copy.deepcopy(qn)):
        assert copied == qn and (copied.kappa, copied.x_per_r) == (F(1, n), F(2, n))
    moved = dataclasses.replace(qn, n=n + 1)
    assert (moved.n, moved.l) == (n + 1, n - 1)
    assert (moved.kappa, moved.x_per_r) == (F(1, n + 1), F(2, n + 1))
    assert (qn.kappa, qn.x_per_r) == (F(1, n), F(2, n))


@pytest.mark.parametrize("n,l", [(2, 2), (0, 0), (1, -1), (3, 5)])
def test_quantum_numbers_rejects_bad_pairs(n, l):
    with pytest.raises(InvalidQuantumNumbers):
        QuantumNumbers(n, l)


def test_energy_levels():
    assert energy(QuantumNumbers(1, 0)) == F(-1, 2)
    assert energy(QuantumNumbers(2, 1)) == F(-1, 8)
    assert energy(QuantumNumbers(10, 4)) == F(-1, 200)


# -- Laguerre / confluent polynomial factors -------------------------------------

def test_laguerre_degenerate_is_one():
    for m in range(6):
        assert laguerre_L1(0, m) == ONE


def test_laguerre_hand_values():
    assert laguerre_L1(1, 1) == P({0: 2, 1: -1})
    assert laguerre_L1(2, 1) == P({0: 3, 1: -3, 2: F(1, 2)})


def test_laguerre_scaled_argument():
    # L(2,1) at x = 2r/3, the (3, 0) record's x, gives the factor 3 - 2r + (2/9) r^2
    qn = QuantumNumbers(3, 0)
    assert qn.x_per_r == 2 * qn.kappa == F(2, 3)
    terms = laguerre_L1(2, 1).ratio_terms(qn.x_per_r)
    assert list(terms) == [(0, 3, 1), (1, -2, 1), (2, 2, 9)]


def test_laguerre_degree_and_value_at_zero():
    for n_r in range(8):
        for m in range(8):
            poly = laguerre_L1(n_r, m)
            assert poly.degree == n_r
            assert dict(poly.terms())[0] == F(math.factorial(n_r + m), math.factorial(n_r) * math.factorial(m))


def test_hyp1f1_trivial_and_hand_values():
    # 1F1(-n_r; m+1; x) is the Ei part of R2's confluent parts; (n_r, m) =
    # (0, 3) is (n, l) = (2, 1) and (1, 1) is (2, 0)
    assert _confluent_parts(QuantumNumbers(2, 1))[1] == ONE
    assert _confluent_parts(QuantumNumbers(2, 0))[1] == P({0: 1, 1: F(-1, 2)})


def test_integer_factors_match_fraction_construction():
    # 150 seeded (n_r, m) with n_r + m <= 120, and the corners
    rng = random.Random(41)
    pairs = [(n_r, rng.randint(0, 120 - n_r)) for n_r in (rng.randint(0, 120) for _ in range(150))]
    for n_r, m in pairs + [(0, 0), (1, 0), (0, 120), (120, 0), (60, 60), (119, 1)]:
        assert laguerre_L1(n_r, m) == fraction_laguerre_L1(n_r, m)
        scale = F(math.factorial(n_r) * math.factorial(m), math.factorial(n_r + m))
        assert laguerre_L1(n_r, m) * scale == fraction_hyp1f1_terminating(n_r, m)


@pytest.mark.parametrize("n_r,m", [(2, 3)] + [(a, b) for a in range(13) for b in range(13)])
def test_laguerre_vs_hyp1f1_relation(n_r, m):
    scale = F(math.perm(m + n_r, n_r), math.factorial(n_r))
    assert laguerre_L1(n_r, m) == fraction_hyp1f1_terminating(n_r, m) * scale


# -- contiguous relation in n_r (DLMF 18.9) ---------------------------------------

def _numerators(q: RatPoly, scale: int) -> dict[int, int]:
    """The integer numerators of q over the denominator scale, by power."""
    assert scale % q.den == 0
    return {power: c * (scale // q.den) for power, c in enumerate(q.nums, q.low)}


def _contiguous_defects(seq: list[dict[int, int]], m: int) -> list[int]:
    """The k >= 2 at which seq, the numerators A_k = k! Q_k of Q_0, Q_1, ...,
    breaks k Q_k = (2k + m - 1 - x) Q_{k-1} - (k + m - 1) Q_{k-2}, which over
    (k-1)! reads A_k = (2k + m - 1 - x) A_{k-1} - (k - 1)(k + m - 1) A_{k-2},
    power by power."""
    bad = []
    for k in range(2, len(seq)):
        a, b, c = seq[k], seq[k - 1], seq[k - 2]
        s, t = 2 * k + m - 1, (k - 1) * (k + m - 1)
        powers = a.keys() | b.keys() | {j + 1 for j in b} | c.keys()
        if any(a.get(j, 0) != s * b.get(j, 0) - b.get(j - 1, 0) - t * c.get(j, 0) for j in powers):
            bad.append(k)
    return bad


def _contiguous_families(l: int, nmax: int = 60) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """k! L(k, m) and k! (P(k, m)/k!) = P(k, m) for m = 2l + 1 and every state
    n = k + l + 1 <= nmax, as integer numerators."""
    m, ks = 2 * l + 1, range(nmax - l)
    return ([_numerators(laguerre_L1(k, m), math.factorial(k)) for k in ks],
            [_numerators(p2_recurrence(k, m), 1) for k in ks])


def test_L_and_P_satisfy_laguerres_contiguous_relation_every_state_to_n60():
    # at fixed m, L and P/n_r! step in n_r alike, which ties the
    # states of one l together and checks laguerre_L1 against p2_recurrence
    cases = 0
    for l in range(60):
        for name, seq in zip("LP", _contiguous_families(l)):
            assert _contiguous_defects(seq, 2 * l + 1) == [], (l, name)
            cases += max(0, len(seq) - 2)
    assert cases == 3422


@pytest.mark.parametrize("l,k,power", [(0, 5, 2), (3, 2, 0), (7, 30, 30), (20, 11, 4)])
def test_contiguous_relation_rejects_a_perturbed_numerator(l, k, power):
    for seq in _contiguous_families(l):
        assert _contiguous_defects(seq, 2 * l + 1) == []
        seq[k] = {**seq[k], power: seq[k].get(power, 0) + 1}
        assert k in _contiguous_defects(seq, 2 * l + 1)


def _casoratian_defects(ells: list[dict[int, int]], ps: list[dict[int, int]], m: int) -> list[int]:
    """The k >= 1 at which L_{k-1} P_k/k! - L_k P_{k-1}/(k-1)! is not the
    constant -(m+k-1)!/k!, from ells[k] = k! L_k and ps[k] = P_k: over the
    one denominator (k-1)! k! the difference is ells[k-1] ps[k] - ells[k]
    ps[k-1], by integer convolution, and must be -(m+k-1)! (k-1)! at x^0."""
    bad = []
    for k in range(1, len(ells)):
        diff = {}
        for sign, ell, p in ((1, ells[k - 1], ps[k]), (-1, ells[k], ps[k - 1])):
            for i, a in ell.items():
                for j, b in p.items():
                    diff[i + j] = diff.get(i + j, 0) + sign * a * b
        if {j: c for j, c in diff.items() if c} != {0: -math.factorial(m + k - 1) * math.factorial(k - 1)}:
            bad.append(k)
    return bad


def test_L_and_P_casoratian_is_constant_every_state_to_n40():
    # the Casoratian of L and P/n_r! in n_r (ROADMAP item 6, step A): the Ei
    # parts of consecutive states cancel, and x^-m e^x is a common factor
    cases = 0
    for l in range(40):
        ells, ps = _contiguous_families(l, 40)
        assert _casoratian_defects(ells, ps, 2 * l + 1) == [], l
        cases += max(0, len(ells) - 1)
    assert cases == 780


@pytest.mark.parametrize("l,k,power", [(0, 5, 2), (3, 2, 0), (7, 30, 30), (20, 11, 4)])
def test_casoratian_rejects_a_perturbed_P_numerator(l, k, power):
    ells, ps = _contiguous_families(l, 40)
    assert _casoratian_defects(ells, ps, 2 * l + 1) == []
    ps[k] = {**ps[k], power: ps[k].get(power, 0) + 1}
    assert k in _casoratian_defects(ells, ps, 2 * l + 1)


# -- irregular-solution polynomial family ----------------------------------------

def test_p2_hand_values():
    assert p2_recurrence(0, 1) == ONE
    assert p2_recurrence(1, 1) == P({0: 1, 1: -1})
    assert p2_recurrence(1, 3) == P({0: 2, 1: 2, 2: 3, 3: -1})


def test_p2_simplified_hand_values():
    assert p2_simplified(0, 3) == P({0: 2, 1: 1, 2: 1})  # (m-p-1)! x^p for n_r = 0
    assert p2_simplified(1, 1) == P({0: 1, 1: -1})
    assert p2_simplified(2, 1) == p2_doublesum(2, 1)


def test_p2_empty_sum_convention():
    # second (oscillating) block contributes nothing at n_r = 0
    for m in (1, 3, 5, 7):
        poly = p2_simplified(0, m)
        assert poly.degree == m - 1
        assert poly == p2_doublesum(0, m) == p2_recurrence(0, m)


def test_p2_forms_agree_exactly():
    for n_r in range(9):
        for l in range(9):
            m = 2 * l + 1
            assert p2_recurrence(n_r, m) == p2_doublesum(n_r, m) == p2_simplified(n_r, m)
    # the long tail below x^(m-1), where G_k = 0 and each step is one
    # division, is most of P at small n_r and large l
    for n_r in range(4):
        for l in range(9, 30):
            assert p2_recurrence(n_r, 2 * l + 1) == p2_doublesum(n_r, 2 * l + 1)


@pytest.mark.parametrize("build", [p2_recurrence, p2_doublesum, p2_simplified])
@pytest.mark.parametrize("n_r,m", [(-1, 1), (0, 0), (2, -1)])
def test_p2_rejects_bad_indices(build, n_r, m):
    with pytest.raises(ValueError):
        build(n_r, m)


def test_p2_integer_coefficients_and_leading():
    for n_r in range(9):
        for l in range(9):
            m = 2 * l + 1
            poly = p2_recurrence(n_r, m)
            assert poly.degree == n_r + m - 1
            assert all(c.denominator == 1 for _, c in poly.terms())
            assert dict(poly.terms())[n_r + m - 1] == (-1) ** n_r


def test_p2_low_coefficients_positive():
    for n_r in range(7):
        for l in range(7):
            m = 2 * l + 1
            poly = p2_recurrence(n_r, m)
            terms = dict(poly.terms())
            for p in range(m):
                assert terms.get(p, 0) > 0


# -- assembled radial solutions ---------------------------------------------------

def test_assemble_R1_examples():
    qn = QuantumNumbers(1, 0)
    assert assemble_R1(qn) == Radial(qn, ONE)

    f = assemble_R1(QuantumNumbers(2, 1))
    assert in_r(f) == (P({1: 1}), None)
    assert f.qn.kappa == F(1, 2)

    f = assemble_R1(QuantumNumbers(3, 1))
    assert in_r(f)[0] == P({1: F(8, 3), 2: F(-4, 9)})


def test_assemble_R2_examples():
    f = assemble_R2(QuantumNumbers(1, 0))
    assert in_r(f) == (ONE, P({-1: F(1, 2)}))

    f = assemble_R2(QuantumNumbers(3, 2))
    assert in_r(f) == (P({2: F(4, 9)}), P({-3: 81, -2: F(27, 2), -1: 3, 0: 1, 1: F(2, 3)}))

    f = assemble_R2(QuantumNumbers(4, 0))
    assert in_r(f) == (P({0: 4, 1: -3, 2: F(1, 2), 3: F(-1, 48)}),
                       P({-1: 2, 0: F(-13, 3), 1: F(11, 12), 2: F(-1, 24)}))


def test_records_hold_x_forms_with_integer_numerators_over_n_r_factorial():
    # in x = 2 kappa r, L = x^l L(n_r, m, x) and P = x^{-l-1} P(n_r, m, x)/n_r!
    qn = QuantumNumbers(4, 1)
    r2 = assemble_R2(qn)
    assert r2.L == P({1: 10, 2: -5, 3: F(1, 2)})
    # P(2, 3, x) = 4 + 6x + 12x^2 - 9x^3 + x^4, over 2!
    assert r2.P == P({-2: 4, -1: 6, 0: 12, 1: -9, 2: 1}) * F(1, 2)
    # and the two share the denominator n_r! itself: L's x^(n_r) numerator
    # and P's leading one are (-1)^(n_r), so no gcd reduces either
    for n in range(1, 61):
        for l in range(n):
            r2 = assemble_R2(QuantumNumbers(n, l))
            assert r2.P.den == r2.L.den == math.factorial(n - l - 1)


def _r_references(qn: QuantumNumbers) -> tuple[RatPoly, RatPoly]:
    """(L, P) in r from the factorial Laguerre sum and the double-sum P,
    substituted x = 2 kappa r one Fraction per coefficient."""
    to_r = 2 * qn.kappa
    ell = fraction_scale_arg(fraction_laguerre_L1(qn.n_r, qn.m).shift(qn.l), to_r)
    p = p2_doublesum(qn.n_r, qn.m).shift(-qn.l - 1) * F(1, math.factorial(qn.n_r))
    return ell, fraction_scale_arg(p, to_r)


def test_in_r_of_assemble_R2_matches_r_references():
    # 40 seeded states with n <= 60, and the corners
    rng = random.Random(41)
    states = [(n, rng.randrange(n)) for n in (rng.randint(1, 60) for _ in range(40))]
    for n, l in states + [(1, 0), (60, 0), (60, 59)]:
        qn = QuantumNumbers(n, l)
        r2 = assemble_R2(qn)
        ell, p = _r_references(qn)
        assert in_r(Radial(qn, r2.L)) == (ell, None), qn
        assert in_r(r2) == (ell, p), qn


@pytest.mark.parametrize("n,l", [(1, 0), (3, 1), (7, 6), (12, 4)])
def test_in_r_references_reject_a_mutated_record(n, l):
    # the comparison above fails on a record already in r (substituted
    # twice) and on a P off in one coefficient
    qn = QuantumNumbers(n, l)
    r2 = assemble_R2(qn)
    want = _r_references(qn)
    assert in_r(Radial(qn, *in_r(r2))) != want
    q = r2.P
    off = RatPoly.from_nums(q.low, [q.nums[0] + 1] + list(q.nums[1:]), q.den)
    assert in_r(Radial(qn, r2.L, off)) != want


def test_R2_ei_polynomial_matches_R1():
    # R2 is built around R1: its Ei polynomial is R1's own, so R1 is
    # Radial(qn, r2.L) wherever both forms are needed
    for n in range(1, 41):
        for l in range(n):
            qn = QuantumNumbers(n, l)
            r2 = assemble_R2(qn)
            assert r2.L == assemble_R1(qn).L and r2.qn is qn, qn


def test_assemble_R2_builds_without_assemble_R1(monkeypatch):
    # one construction per state: assemble_R2 nests no other assemble_*
    want = [assemble_R2(QuantumNumbers(n, l)) for n in range(1, 9) for l in range(n)]

    def refuse(qn):
        raise AssertionError("assemble_R2 called assemble_R1")

    monkeypatch.setattr(closedform, "assemble_R1", refuse)
    assert [assemble_R2(QuantumNumbers(n, l)) for n in range(1, 9) for l in range(n)] == want


# -- symbolic differentiation ------------------------------------------------------

def test_derivative_of_pure_decaying_exponential():
    qn = QuantumNumbers(1, 0)
    assert derivative(assemble_R1(qn)) == Radial(qn, RatPoly(0, (-1,)))


def test_derivative_moves_ei_term_to_growing_bucket():
    qn = QuantumNumbers(1, 0)
    d = derivative(Radial(qn, ONE, RatPoly.zero()))
    # in x = 2r, 2 (-1/2) and 2 (-1/x); in r, -1 and -1/r
    assert d == Radial(qn, RatPoly(0, (-1,)), P({-1: -2}))
    assert in_r(d) == (RatPoly(0, (-1,)), P({-1: -1}))
    # and so does the three-bucket reference
    assert buckets(d) == ExpEiForm(RatPoly.zero(), RatPoly.zero(), ONE, F(1)).derivative()


@pytest.mark.parametrize("n,l,r", [(1, 0, 0.7), (2, 1, 1.3), (3, 0, 2.5), (4, 2, 3.1)])
def test_symbolic_derivative_matches_finite_differences(n, l, r):
    qn = QuantumNumbers(n, l)
    for form in (assemble_R1(qn), assemble_R2(qn)):
        d = derivative(form)

        def value(t):
            return float(eval_form_extended(form, t, 128))

        fd = central_diff(value, r, 1e-4)
        sym = float(eval_form_extended(d, r, 128))
        assert sym == pytest.approx(fd, rel=1e-10)


# -- the radial operator from the buckets' coefficients ------------------------------

# random (qn, L, P) draws: zero polynomials, negative lows and P = None among them
_polys = st.builds(RatPoly.from_nums, st.integers(-6, 6),
                   st.lists(st.integers(-10**6, 10**6), max_size=6), st.integers(1, 10**4))


@st.composite
def _forms(draw):
    n = draw(st.integers(1, 12))
    qn = QuantumNumbers(n, draw(st.integers(0, n - 1)))
    return Radial(qn, draw(_polys), draw(st.none() | _polys))


_ZERO_R1 = Radial(QuantumNumbers(1, 0), RatPoly.zero())
_ZERO_L = Radial(QuantumNumbers(5, 2), RatPoly.zero(), P({-2: F(3, 7), 1: 1}))
_EI_ONLY = Radial(QuantumNumbers(5, 2), P({-2: F(3, 7), 1: 1}), RatPoly.zero())


@settings(max_examples=300, deadline=None)
@given(_forms())
@example(_ZERO_R1)
@example(_ZERO_L)
@example(_EI_ONLY)
def test_operator_matches_derivative_composition(f):
    # the operator runs on the x-coefficients and the reference in r: the
    # residual substituted in r is the r-operator applied to f substituted in r
    assert buckets(apply_radial_operator(f)) == radial_operator_reference(f)


@settings(max_examples=300, deadline=None)
@given(_polys)
@example(RatPoly.zero())
@example(P({-3: F(1, 7), -1: 2}))
def test_decay_derivative_is_q_prime_minus_q(q):
    # the PV oracle's D: p -> p' - p
    assert decay_derivative(q) == poly_sub(q.derivative(), q)


def test_forms_add_only_in_the_reference_sum():
    # the package never sums two forms
    for f in (assemble_R1(QuantumNumbers(1, 0)), ONE):
        with pytest.raises(TypeError):
            f + f


# -- enumeration and the closed-form irregular confluent solution -------------------

def _table_states(capsys, n_max):
    assert cli.main(["table", "--nmax", str(n_max)]) == 0
    return [(d["n"], d["l"]) for d in json.loads(capsys.readouterr().out)]


def test_solution_table_counts(capsys):
    # the state enumeration now lives in the table command
    assert len(_table_states(capsys, 1)) == 1
    assert len(_table_states(capsys, 2)) == 3
    assert len(_table_states(capsys, 4)) == 10
    assert _table_states(capsys, 2) == [(1, 0), (2, 0), (2, 1)]


def test_phi2_closedform_split():
    # R2's buckets read back in x = 2 kappa r: (n_r, m) = (0, 1), then (1, 1)
    g_exp, g_ei = _confluent_parts(QuantumNumbers(1, 0))
    assert g_exp == P({-1: 1})
    assert g_ei == ONE
    g_exp, g_ei = _confluent_parts(QuantumNumbers(2, 0))
    assert g_exp == P({-1: F(1, 2), 0: F(-1, 2)})
    assert g_ei == P({0: 1, 1: F(-1, 2)})


def test_phi2_exp_part_solves_inhomogeneous_kummer():
    # y = h e^x + g Ei(1, -x) solves x y'' + (m+1-x) y' + n_r y = 0 with
    # h = g_exp and g = g_ei, so x h'' + (x+m+1) h' + (n_r+m+1) h = 2 g' + m g/x;
    # h and g are R2's e^{+kappa r} and Ei buckets read back in x = 2 kappa r
    for n in range(1, 31):
        for l in range(n):
            n_r, m = n - l - 1, 2 * l + 1
            h, g = _confluent_parts(QuantumNumbers(n, l))
            hd = h.derivative()
            lhs = poly_add(poly_add(hd.derivative().shift(1), laurent_mul(hd, P({0: m + 1, 1: 1}))),
                           h * (n_r + m + 1))
            assert lhs == poly_add(g.derivative() * 2, g.shift(-1) * m)
