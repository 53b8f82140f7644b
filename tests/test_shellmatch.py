import collections
import dataclasses
import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from coulombwf import numeval
from coulombwf.closedform import QuantumNumbers, assemble_R1, assemble_R2
from coulombwf.numeval import eval_grid
from coulombwf.shellmatch import (
    MatchNotResolved,
    NoRootInRange,
    _exterior_q,
    integrate_interior,
    match_shell,
    mixing_from_inner_match,
    piecewise_grid,
)

from refvals import (
    bisection_match,
    derivative_form,
    exterior_q_reference,
    rk4_b_star,
    rk4_exterior_logderiv,
    rk4_interior_logderiv,
    shell_mixing,
    shell_probe,
    shell_runs,
    shell_values,
    sph_in_logderiv_mp,
    sph_in_series,
)

# the two fixed RK4 steps the closed forms are checked against
RK4_STEPS = (0.01, 0.005)


def shell_pair(qn, r):
    """(R1, R1', R2, R2') at r, from the runs match_shell evaluates."""
    kappa, runs, _, _ = shell_runs(qn)
    v1, v2, d1, d2 = shell_values(kappa, runs, r)
    return v1, d1, v2, d2


def recording_evaluator(monkeypatch):
    """Record every numeval.evaluator preparation as the list of the r its
    point evaluates, in order; match_shell prepares one, whose first r is a,
    and the mismatch points are the ones after it."""
    prepared, evaluator = [], numeval.evaluator

    def recording(kappa, pairs, *args):
        point, seen = evaluator(kappa, pairs, *args), []
        prepared.append(seen)

        def recorded(r):
            seen.append(r)
            return point(r)
        return recorded

    monkeypatch.setattr(numeval, "evaluator", recording)
    return prepared


# -- configuration validation -----------------------------------------------------

def test_config_ordering_enforced():
    qn = QuantumNumbers(2, 0)
    with pytest.raises(ValueError):
        match_shell(qn, 1.0, (0.5, 1.5))
    with pytest.raises(ValueError):
        match_shell(qn, 0.1, (1.5, 0.5))


# -- interior solution ----------------------------------------------------------------

# (6, 0, 1e-3): for l = 0 all of u' comes from the terms past the first, so a
# series stopped on u alone would leave u'/u wrong in the ninth digit
@pytest.mark.parametrize("n,l,a", [(1, 0, 0.8), (1, 0, 0.05), (2, 0, 0.8), (2, 1, 0.8),
                                   (6, 0, 1e-3)])
def test_interior_matches_bessel_series(n, l, a):
    qn = QuantumNumbers(n, l)
    kappa = float(qn.kappa)
    u, du = integrate_interior(qn, a)
    ref_val, ref_der = sph_in_series(l, kappa * a)
    got_ld = du / u
    ref_ld = kappa * ref_der / ref_val
    assert got_ld == pytest.approx(ref_ld, rel=1e-6)
    assert got_ld == pytest.approx(sph_in_logderiv_mp(l, kappa, a), rel=1e-12)


def test_interior_leading_power_l1():
    qn = QuantumNumbers(2, 1)
    h = 1e-3
    u1, _ = integrate_interior(qn, h)
    u2, _ = integrate_interior(qn, 2 * h)
    assert u2 / u1 == pytest.approx(2.0, rel=1e-5)


def test_interior_grid_convergence():
    # the closed form against RK4 at both steps
    qn = QuantumNumbers(2, 0)
    u, du = integrate_interior(qn, 0.7)
    for h in RK4_STEPS:
        assert abs(du / u - rk4_interior_logderiv(qn, 0.7, h)) < 1e-8



# -- exterior integration --------------------------------------------------------------

def exterior_logderiv(qn, b):
    """-kappa + q'/q at b: the log-derivative of e^{-kappa r} q(r)."""
    kappa, _, q_run, qd_run = shell_runs(qn)
    return -kappa + numeval.horner(qd_run, b) / numeval.horner(q_run, b)


def test_exterior_l0_is_analytic():
    # decaying l=0 solution is e^{-kappa r}/r, so u'/u = -kappa - 1/b
    qn = QuantumNumbers(2, 0)
    for b in (0.8, 1.0, 2.5):
        got = exterior_logderiv(qn, b)
        assert got == pytest.approx(-0.5 - 1.0 / b, abs=1e-8)


def test_exterior_large_b_asymptote():
    # u'/u -> -kappa with an O(1/b) tail (the -1/b of the spherical ray
    # plus the centrifugal correction)
    qn = QuantumNumbers(3, 2)
    b = 60.0
    got = exterior_logderiv(qn, b)
    assert abs(got - (-float(qn.kappa))) < 1.5 / b
    assert got == pytest.approx(-float(qn.kappa) - 1.0 / b, abs=0.01)


def test_exterior_start_point_insensitive():
    # RK4 started at b + 40/kappa and b + 50/kappa agrees with itself, and
    # with the closed form to within its fourth-order step error
    qn = QuantumNumbers(2, 1)
    b = 1.2
    base = exterior_logderiv(qn, b)
    for h in RK4_STEPS:
        near = rk4_exterior_logderiv(qn, b, h, reach=40.0)
        far = rk4_exterior_logderiv(qn, b, h, reach=50.0)
        assert far == pytest.approx(near, abs=1e-12)
        assert far == pytest.approx(base, abs=2e-9 * (h / 0.01) ** 4)


@pytest.mark.parametrize("n,l,b", [(2, 1, 1.2), (4, 1, 3.0), (6, 5, 0.3), (6, 3, 15.0)])
def test_exterior_matches_besselk(n, l, b):
    # k_l(z) = sqrt(pi/(2z)) K_{l+1/2}(z); u = k_l(kappa r)
    qn = QuantumNumbers(n, l)
    kappa = float(qn.kappa)
    with mp.workdps(40):
        ref = mp.diff(lambda r: mp.log(mp.besselk(l + 0.5, kappa * r) / mp.sqrt(r)), b)
    assert exterior_logderiv(qn, b) == pytest.approx(float(ref), rel=1e-13)


# -- matching ---------------------------------------------------------------------------

def test_inner_mixing_scale_free():
    qn = QuantumNumbers(2, 0)
    a = 0.5
    u, du = integrate_interior(qn, a)
    c1, c2 = mixing_from_inner_match(shell_pair(qn, a), a, du / u)
    c1s, c2s = mixing_from_inner_match(shell_pair(qn, a), a, (10 * du) / (10 * u))
    assert (c1, c2) == (c1s, c2s)
    assert c1**2 + c2**2 == pytest.approx(1.0, rel=1e-14)


def test_match_recovers_regular_solution_in_coulomb_limit():
    qn = QuantumNumbers(2, 0)
    result = match_shell(qn, 1e-4, (0.5, 1.5))
    assert abs(result.c2 / result.c1) < 1e-6
    assert abs(result.mismatch) < 1e-8
    # the regular 2s solution osculates the free decaying exterior at b = 1
    assert result.b_star == pytest.approx(1.0, abs=1e-6)


def test_match_continuity_residuals():
    qn = QuantumNumbers(2, 0)
    result = match_shell(qn, 1e-4, (0.5, 1.5))
    res = result.continuity
    assert all(v < 1e-7 for v in res.values())


def test_match_stable_under_grid_halving():
    # closed-form b* against the b* of the same match done with RK4 at both steps
    qn = QuantumNumbers(2, 0)
    result = match_shell(qn, 1e-4, (0.5, 1.5))
    for h in RK4_STEPS:
        assert abs(result.b_star - rk4_b_star(qn, 1e-4, (0.5, 1.5), h)) < 1e-6


def test_forcing_pure_regular_leaves_inner_mismatch():
    # with a genuinely interior-perturbed problem the irregular part is needed
    qn = QuantumNumbers(2, 0)
    a = 0.5
    u, du = integrate_interior(qn, a)
    interior_ld = du / u
    r1 = assemble_R1(qn)
    r1d = derivative_form(r1)
    regular_ld = eval_grid(r1d, (a,))[0][1] / eval_grid(r1, (a,))[0][1]
    assert abs(interior_ld - regular_ld) > 1e-3
    c1, c2 = mixing_from_inner_match(shell_pair(qn, a), a, interior_ld)
    assert abs(c2 / c1) > 1e-4


def test_no_root_reports_scan():
    # nodeless ground state: the shell log-derivative stays above the
    # exterior one for every b, so the scan must fail with diagnostics
    qn = QuantumNumbers(1, 0)
    with pytest.raises(NoRootInRange) as err:
        match_shell(qn, 1e-4, (2.0, 3.0))
    assert len(err.value.scan) == 17
    assert all(f > 0 for _, f in err.value.scan)


@pytest.mark.parametrize("b_range, evals", [
    # 2 + 16/16 lands on hi: the scan reuses both endpoint values
    ((2.0, 3.0), 2 + 15),
    # 0.2 + 16 (0.7 / 16) rounds to 0.8999999999999999, so the last sample
    # is evaluated
    ((0.2, 0.9), 2 + 16),
])
def test_no_root_scan_reuses_the_endpoint_values(monkeypatch, b_range, evals):
    lo, hi = b_range
    assert (lo + 16 * (hi - lo) / 16 == hi) == (evals == 17)
    prepared = recording_evaluator(monkeypatch)
    with pytest.raises(NoRootInRange) as err:
        match_shell(QuantumNumbers(1, 0), 1e-4, b_range)
    # one preparation per match, and each point evaluated once: a, lo, hi,
    # then the scan's samples in order, past the endpoints it reuses
    [seen] = prepared
    samples = [b for b, _ in err.value.scan if b not in (lo, hi)]
    assert seen == [1e-4, lo, hi] + samples
    assert len(seen[1:]) == evals
    # every sample's mismatch is the one a fresh evaluation gives
    runs = shell_runs(QuantumNumbers(1, 0))
    c1, c2 = shell_mixing(QuantumNumbers(1, 0), runs, 1e-4)
    for b, f in err.value.scan:
        assert repr(f) == repr(shell_probe(runs, c1, c2, b)[0])


def test_exterior_q_has_the_dlmf_coefficients():
    # integer numerators over 2^l against (l+j)!/(j!(l-j)!) (2 kappa)^{-j} in Fractions
    for l in range(41):
        for n in (l + 1, l + 2, 2 * l + 3, 3 * l + 7):
            qn = QuantumNumbers(n, l)
            assert _exterior_q(qn) == exterior_q_reference(l, qn.kappa), (n, l)


@pytest.mark.parametrize("b_range, node", [((1.5, 3.0), 1.9019), ((6.0, 8.0), 7.0980)])
def test_node_of_u_is_never_a_match(b_range, node):
    # u is R1 up to |c2/c1| ~ 2e-6 here, with nodes near 1.90 and 7.10: the
    # mismatch changes sign across each one through a pole, the Wronskian
    # with the exterior solution does not, and no root lies in either bracket
    qn = QuantumNumbers(3, 0)
    assert shell_pair(qn, node - 1e-3)[0] * shell_pair(qn, node + 1e-3)[0] < 0
    with pytest.raises(NoRootInRange, match="only through a pole") as err:
        match_shell(qn, 1e-3, b_range)
    scan = err.value.scan
    assert len(scan) == 17
    assert scan[0][1] < 0 < scan[-1][1]


@pytest.mark.parametrize("n,l,a,b_range", [(3, 0, 1e-3, (0.5, 1.5)), (3, 0, 1e-3, (4.0, 6.0)),
                                           (4, 2, 0.5, (8.0, 11.0)), (2, 0, 0.5, (1.0, 2.5))])
def test_match_agrees_with_rk4_reference(n, l, a, b_range):
    # brackets that hold one true root and no node of u
    qn = QuantumNumbers(n, l)
    result = match_shell(qn, a, b_range)
    assert abs(result.mismatch) < 1e-8
    for h in RK4_STEPS:
        assert abs(result.b_star - rk4_b_star(qn, a, b_range, h)) < 1e-6


def test_bracket_with_a_root_and_a_node_finds_the_root():
    # [1, 3] holds the root near 1.514 and a node of u near 2.67, so the
    # mismatch has the same sign at both ends; the Wronskian still brackets
    # the root
    qn = QuantumNumbers(2, 0)
    result = match_shell(qn, 0.5, (1.0, 3.0))
    u_lo, u_hi = (result.c1 * v1 + result.c2 * v2
                  for v1, v2, _, _ in (shell_values(float(qn.kappa), result.runs, b) for b in (1.0, 3.0)))
    assert u_lo > 0 > u_hi
    assert abs(result.mismatch) < 1e-8
    # both stop once |mismatch| < 1e-8, which pins b_star to about 1e-8 here
    assert result.b_star == pytest.approx(match_shell(qn, 0.5, (1.0, 2.5)).b_star, abs=1e-7)


def test_inner_radius_at_a_node_of_R1_matches():
    # R1(2, 0) = (1 - r/2) e^{-r/2} vanishes exactly at a = 2; the mixing
    # needs only R2' - ld R2 != 0, so the match goes through and lands where
    # a slightly larger inner radius does
    qn = QuantumNumbers(2, 0)
    assert shell_pair(qn, 2.0)[0] == 0.0
    result = match_shell(qn, 2.0, (3.0, 5.0))
    assert abs(result.mismatch) < 1e-8
    assert result.continuity["deriv_b"] < 1e-6
    near = match_shell(qn, 2.0000001, (3.0, 5.0))
    assert result.b_star == pytest.approx(near.b_star, abs=1e-6)


@pytest.mark.parametrize("values, ld", [
    ((0.0, 0.0, 1.0, -1.0), 0.5),      # R1 and R1' underflowed
    ((1.0, -1.0, 0.0, 0.0), 0.5),      # R2 and R2' underflowed
    ((1.0, -1.0, 2.0, 1.0), 0.5),      # R2' - ld R2 = 0
    ((1.0, math.inf, 2.0, 1.0), 0.5),  # a value out of range
])
def test_mixing_rejects_only_what_leaves_it_undefined(values, ld):
    with pytest.raises(OverflowError, match=r"^R1, R1', R2, R2' at r = 1\.0 is 0 or not finite"):
        mixing_from_inner_match(values, 1.0, ld)
    # a lone zero of R1 or of R2 mixes
    for v in ((0.0, -1.0, 2.0, 3.0), (1.0, -1.0, 0.0, 3.0)):
        c1, c2 = mixing_from_inner_match(v, 1.0, ld)
        assert math.hypot(c1, c2) == pytest.approx(1.0)
        assert ld * (c1 * v[0] + c2 * v[2]) == pytest.approx(c1 * v[1] + c2 * v[3])


_shell_states = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1)))


@settings(max_examples=200, deadline=None)
@given(_shell_states, st.floats(math.log(1e-4), math.log(2.5)), st.floats(0.01, 1.0),
       st.floats(0.01, 1.0))
# a = 2 is a node of R1 for n = 2, l = 0
@example((2, 0), math.log(2.0), 0.1, 0.1)
def test_every_reported_match_is_continuous(state, log_a, start, width):
    # brackets anywhere in b <= a + 8 n^2: whatever nodes and roots they hold,
    # a returned match meets the exterior solution with a continuous derivative,
    # also when a is a node of R1
    n, l = state
    a = math.exp(log_a)
    b_min = a + start * 4 * n * n
    try:
        result = match_shell(QuantumNumbers(n, l), a, (b_min, b_min + width * 4 * n * n))
    except (NoRootInRange, MatchNotResolved):
        return
    assert abs(result.mismatch) < 1e-8
    assert result.continuity["deriv_b"] < 1e-6


def test_unresolved_bisection_is_not_a_match():
    # at kappa b ~ 25 the shell solution cancels below double precision, so
    # the bracket closes with the mismatch far above 1e-8
    with pytest.raises(MatchNotResolved, match="double precision cannot resolve"):
        match_shell(QuantumNumbers(8, 2), 0.031218547948655875,
                    (197.2183249463177, 279.3309622590942))


def test_piecewise_grid_samples_the_matched_forms():
    # inside the shell each sample is c1 R1 + c2 R2 with R1 and R2 those of
    # the four-form pass, bit for bit; outside it, the scaled free solutions
    for qn, a, b_range in [(QuantumNumbers(2, 0), 0.05, (0.5, 1.5)), (QuantumNumbers(4, 2), 0.5, (8.0, 11.0))]:
        result = match_shell(qn, a, b_range)
        grid = piecewise_grid(result, 40)
        inside = [(r, u) for r, u in grid if a <= r <= result.b_star]
        assert len(inside) > 10
        for r, u in inside:
            v1, v2, _, _ = shell_values(float(qn.kappa), result.runs, r)
            assert repr(u) == repr(result.c1 * v1 + result.c2 * v2)


def test_piecewise_grid_evaluates_R1_and_R2_alone_in_the_shell(monkeypatch):
    # two Horner passes at each shell sample, over L and P, and one at each
    # exterior sample, over q: no shell sample forms R1' or R2'
    qn, a = QuantumNumbers(2, 0), 0.05
    result = match_shell(qn, a, (0.5, 1.5))
    seen, horner = [], numeval.horner

    def counted(run, r):
        seen.append(r)
        return horner(run, r)

    monkeypatch.setattr(numeval, "horner", counted)
    grid = piecewise_grid(result, 40)
    want = {r: 2 if r <= result.b_star else 1 for r, _ in grid if r >= a}
    assert sum(count == 2 for count in want.values()) > 10
    assert collections.Counter(seen) == want


def test_match_result_hides_its_runs():
    # the float runs ride along for piecewise_grid, but are neither shown nor compared
    qn = QuantumNumbers(4, 2)
    result = match_shell(qn, 0.5, (8.0, 11.0))
    bare = dataclasses.replace(result, runs=(), q=())
    assert repr(result) == repr(bare)
    assert "runs=" not in repr(result) and "q=" not in repr(result)
    assert result == bare == match_shell(qn, 0.5, (8.0, 11.0))


def test_piecewise_grid_shape():
    qn = QuantumNumbers(2, 0)
    result = match_shell(qn, 0.05, (0.5, 1.5))
    grid = piecewise_grid(result, 30)
    assert len(grid) == 30
    rs = [r for r, _ in grid]
    assert rs == sorted(rs)
    assert all(math.isfinite(u) for _, u in grid)


@pytest.mark.parametrize("n,l,a,b_range", [(4, 1, 0.0018877, (1.382, 4.146)),
                                           (4, 2, 0.01, (8.0, 11.0))])
def test_piecewise_grid_exterior_is_k_l(n, l, a, b_range):
    # past b the grid is the decaying free solution k_l(kappa r) scaled to u(b)
    qn = QuantumNumbers(n, l)
    result = match_shell(qn, a, b_range)
    b = result.b_star
    r1, r2 = assemble_R1(qn), assemble_R2(qn)
    u_b = result.c1 * eval_grid(r1, (b,))[0][1] + result.c2 * eval_grid(r2, (b,))[0][1]
    kappa = float(qn.kappa)
    outside = [(r, u) for r, u in piecewise_grid(result, 60) if r > b]
    assert len(outside) > 10
    with mp.workdps(30):
        for r, u in outside:
            ratio = mp.sqrt(b / r) * mp.besselk(l + 0.5, kappa * r) / mp.besselk(l + 0.5, kappa * b)
            assert u == pytest.approx(float(ratio) * u_b, rel=1e-12)


# -- Brent's method against the bisection it replaced -----------------------------------

def _outcome(fn, qn, a, bracket):
    try:
        return "match", fn(qn, a, bracket)
    except NoRootInRange:
        return "no root", None
    except MatchNotResolved:
        return "unresolved", None


def _seeded_brackets(count: int, seed: str):
    """(n, l, a, bracket, narrow) with n <= 10 and a log-uniform in
    [1e-4, 2.5]; every other bracket is narrow, b_max <= 3 b_min as the
    bench's shell brackets are, and the rest reach up to 4 n^2 past b_min."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 10)
        l = rng.randint(0, n - 1)
        a = math.exp(rng.uniform(math.log(1e-4), math.log(2.5)))
        b_min = a + rng.uniform(0.01, 1.0) * 4 * n * n
        narrow = i % 2 == 0
        b_max = b_min * rng.uniform(1.01, 3.0) if narrow else b_min + rng.uniform(0.01, 1.0) * 4 * n * n
        yield n, l, a, (b_min, b_max), narrow


def test_brent_matches_the_bisection_reference_on_seeded_brackets(monkeypatch):
    # a bracket whose 65-point scan of M shows one sign change gives the
    # reference's outcome and root; one with several may give another root,
    # and then another outcome too (the reference may stop on a root double
    # precision cannot resolve).  Every match has |mismatch| < 1e-8 at a sign
    # change of M and takes fewer root-search evaluations than the bisection
    # did; on the narrow brackets at least 90% take at most 8 (44 of 46
    # here) and the median at most 6.  The rest are mostly roots near
    # kappa b ~ 10, where the rounding noise of the mismatch is above the
    # 1e-8 tolerance and only a lucky evaluation meets it, for Brent's steps
    # and for the bisection's alike
    prepared = recording_evaluator(monkeypatch)
    outcomes, narrow_evals, apart = collections.Counter(), [], collections.Counter()
    for n, l, a, bracket, narrow in _seeded_brackets(1000, "brent-against-bisection"):
        qn = QuantumNumbers(n, l)
        runs = shell_runs(qn)
        prepared.clear()
        want = _outcome(bisection_match, qn, a, bracket)
        # past the points a, lo and hi
        reference_evals = sum(map(len, prepared)) - 3
        prepared.clear()
        got = _outcome(match_shell, qn, a, bracket)
        [evals] = prepared
        steps = len(evals) - 3
        outcomes[got[0]] += 1
        if got[0] == "match":
            result = got[1]
            b = result.b_star
            assert abs(result.mismatch) < 1e-8
            delta = 1e-6 * max(1.0, b)
            below, above = (shell_probe(runs, result.c1, result.c2, b + s * delta)[1] for s in (-1, 1))
            assert below * above < 0
            assert steps < reference_evals
            if narrow:
                narrow_evals.append(steps)
        if got[0] == want[0] and (got[0] != "match" or got[1].b_star == pytest.approx(want[1][0], rel=1e-7)):
            continue
        # outcomes apart: the bracket holds several sign changes of M, or the
        # mismatch within 1e-12 of the root one of them found is rounding
        # noise above 1e-8
        c1, c2 = shell_mixing(qn, runs, a)
        lo, hi = bracket
        scan = [shell_probe(runs, c1, c2, lo + i * (hi - lo) / 64)[1] for i in range(65)]
        several = sum(math.copysign(1.0, x) != math.copysign(1.0, y) for x, y in zip(scan, scan[1:])) > 1
        root = got[1].b_star if got[0] == "match" else want[1][0]
        noise = max(abs(shell_probe(runs, c1, c2, root * (1 + k * 1e-12))[0]) for k in range(-4, 5))
        assert several or noise >= 1e-8, (n, l, a, bracket, want, got[0])
        apart[several] += 1
    narrow_evals.sort()
    assert narrow_evals[len(narrow_evals) // 2] <= 6
    assert sum(k <= 8 for k in narrow_evals) >= 0.9 * len(narrow_evals)
    assert min(outcomes.values()) > 0 and len(outcomes) == 3
    # here 4 matches of 89 are apart for several roots and 1 for noise
    assert apart[True] + apart[False] <= 0.1 * outcomes["match"]


def test_unresolved_match_stops_once_the_bracket_closes(monkeypatch):
    # the search raises at the first bracket below 1e-13 max(1, |b|), which a
    # step of at least a quarter of the bracket leaves above a quarter of
    # that: the narrowest sign change of M among the evaluated points
    qn, a = QuantumNumbers(8, 2), 0.031218547948655875
    prepared = recording_evaluator(monkeypatch)
    with pytest.raises(MatchNotResolved) as err:
        match_shell(qn, a, (197.2183249463177, 279.3309622590942))
    b = float(str(err.value).split("b = ")[1].split(" ")[0])
    monkeypatch.undo()
    [seen] = prepared
    points, runs = seen[1:], shell_runs(qn)
    c1, c2 = shell_mixing(qn, runs, a)
    signs = sorted((r, math.copysign(1.0, shell_probe(runs, c1, c2, r)[1])) for r in points)
    width = min(r1 - r0 for (r0, s0), (r1, s1) in zip(signs, signs[1:]) if s0 != s1)
    assert 0.25e-13 * b <= width < 1e-13 * b
    assert b in points
