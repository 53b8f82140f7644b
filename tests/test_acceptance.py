"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside the pytest verdicts.
"""

import time
from fractions import Fraction

from coulombwf.closedform import (
    QuantumNumbers,
    Radial,
    apply_radial_operator,
    assemble_R2,
    energy,
    p2_recurrence,
)
from coulombwf.numeval import ei_with_error
from coulombwf.oracle import (
    golden_table_check,
    pv_checks,
    wronskian_symbolic,
)
from coulombwf.shellmatch import match_shell

from refvals import (
    ei_pv_reference,
    ei_zero_by_bisection,
    p2_doublesum,
    p2_simplified,
    rk4_b_star,
)

# (n, l, x): (n_r, m) = (0, 1), (1, 1), (2, 1), (0, 3), (1, 3), (0, 5),
# (2, 3), (1, 5), at x = 2 kappa r
PV_POINTS = [
    (1, 0, 0.5), (1, 0, 1.0), (1, 0, 2.0),
    (2, 0, 0.5), (2, 0, 1.0), (2, 0, 2.0),
    (3, 0, 1.0), (3, 0, 2.0),
    (2, 1, 0.5), (2, 1, 2.0),
    (3, 1, 1.0), (3, 2, 1.0),
    (4, 1, 2.0), (4, 2, 0.5),
]


def _report(num: int, name: str, passed: bool, extra: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {tag}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert passed, line


def test_criterion_1_golden_table():
    t0 = time.perf_counter()
    reports = golden_table_check()
    elapsed = time.perf_counter() - t0
    ok = all(rep.passed and rep.exact for rep in reports) and elapsed < 1.0
    _report(1, "golden coefficient table, exact equality", ok,
            f"{len(reports)} entries in {elapsed:.3f}s")


def test_criterion_2_symbolic_ode_annihilation():
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for n in range(1, 21):
        for l in range(n):
            r2 = assemble_R2(QuantumNumbers(n, l))
            for form in (Radial(r2.qn, r2.L), r2):
                if not apply_radial_operator(form).is_zero():
                    ok = False
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = ok and cases == 420 and elapsed < 60.0
    _report(2, "radial operator annihilates both solutions, n <= 20", ok,
            f"{cases} forms in {elapsed:.1f}s")


def test_criterion_3_p2_equivalence_and_integrality():
    ok = True
    for n_r in range(31):
        for l in range(31):
            m = 2 * l + 1
            a = p2_recurrence(n_r, m)
            if a != p2_doublesum(n_r, m) or a != p2_simplified(n_r, m):
                ok = False
            if any(c.denominator != 1 for _, c in a.terms()):
                ok = False
            if dict(a.terms()).get(n_r + m - 1) != (-1) ** n_r:
                ok = False
    _report(3, "polynomial family: recurrence agrees with both references, integer, unit leading",
            ok, "n_r <= 30, m odd <= 61")


def test_criterion_4_wronskian_constant():
    ok = True
    for n in range(1, 21):
        for l in range(n):
            r2 = assemble_R2(QuantumNumbers(n, l))
            r1 = Radial(r2.qn, r2.L)
            solves = all(apply_radial_operator(f).is_zero() for f in (r1, r2))
            r2w, rep = wronskian_symbolic(r1, r2, solves)
            if not (rep.passed and rep.exact and r2w != 0):
                ok = False
    _report(4, "r^2 W(R1, R2) exactly constant and nonzero, n <= 20", ok, "210 pairs")


def test_criterion_5_pv_integral_oracle():
    t0 = time.perf_counter()
    worst_cf = 0.0
    for n, l, x in PV_POINTS:
        rep, = pv_checks(QuantumNumbers(n, l), [x], {"pv"})
        worst_cf = max(worst_cf, rep.residual_norm)
    ok = worst_cf <= 1e-6
    worst_split = 0.0
    seen = set()
    for n, l, _ in PV_POINTS:
        if (n, l) in seen:
            continue
        seen.add((n, l))
        xs = [x for a, b, x in PV_POINTS if (a, b) == (n, l)]
        rep, = pv_checks(QuantumNumbers(n, l), xs, {"split"})
        worst_split = max(worst_split, rep.residual_norm)
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = ok and worst_split <= 1e-8 and elapsed < 30.0
    _report(5, "closed form = PV integral; pole split identity", ok,
            f"{len(PV_POINTS)} points, cf {worst_cf:.1e}, split {worst_split:.1e}, {elapsed:.1f}s")


def test_criterion_6_exponential_integral_accuracy():
    worst = 0.0
    for x in (1e-4, 0.1, 1.0, 5.0, 39.0, 41.0, 100.0, 500.0):
        ref = float(ei_pv_reference(x))
        got = ei_with_error(x)[0]
        worst = max(worst, abs(got - ref) / abs(ref))
    zero = ei_zero_by_bisection(0.37, 0.38)
    ok = worst <= 1e-12 and 0.37 < zero < 0.38
    _report(6, "Ei(1,-x) vs defining-integral oracle; zero bracketed", ok,
            f"worst rel {worst:.1e}, zero {zero:.6f}")


def test_criterion_7_energy_quantization():
    ok = all(
        energy(QuantumNumbers(n, 0)) == Fraction(-1, 2 * n * n)
        for n in range(1, 51)
    )
    _report(7, "energy levels -1/(2 n^2) exact, n <= 50", ok)


def test_criterion_8_shell_demo_sanity():
    qn = QuantumNumbers(2, 0)
    result = match_shell(qn, 1e-4, (0.5, 1.5))
    mixing_ok = abs(result.c2) / abs(result.c1) < 1e-6
    residuals = result.continuity
    continuity_ok = all(v < 1e-7 for v in residuals.values())
    # the closed-form b* against the same match done with RK4 at two steps
    db = max(abs(result.b_star - rk4_b_star(qn, 1e-4, (0.5, 1.5), h)) for h in (0.01, 0.005))
    stability_ok = db < 1e-6
    ok = mixing_ok and continuity_ok and stability_ok
    _report(8, "shell demo: pure-regular limit, continuity, RK4 agreement", ok,
            f"|c2/c1| {abs(result.c2 / result.c1):.1e}, b* {result.b_star:.8f}, "
            f"db* {db:.1e}")
