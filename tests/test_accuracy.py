"""Accuracy ratchet: how many points eval_grid gets right, against a
self-consistent extended-precision reference.

Each point evaluates R1, R2, R1' and R2' with eval_grid and compares the
value with eval_form_extended, whose precision doubles from 256 bits until
two results agree to 2^-80.  Two floors per form are recorded below: the
number of points within 1e-10 relative error, and the number that do not
raise.  A change that raises a floor records the new one here; one that
lowers a floor changes the evaluation contract and says so.
"""

import functools
import math
import random

import mpmath
import pytest

from coulombwf.closedform import QuantumNumbers, assemble_R1, assemble_R2, derivative
from coulombwf.numeval import OverflowSignal, eval_form_extended, eval_grid

FORMS = ("R1", "R2", "R1'", "R2'")


def reference(f, r):
    """f at r in extended precision, doubling from 256 bits until two results agree to 2^-80."""
    bits, prev = 256, eval_form_extended(f, r, 256)
    while True:
        bits *= 2
        cur = eval_form_extended(f, r, bits)
        if abs(cur - prev) <= abs(cur) * mpmath.mpf(2) ** -80:
            return cur
        prev = cur


def sampled_points():
    """400 draws: n <= 60, l uniform, x = 2 kappa r log-uniform on [1e-3, 1400]."""
    rng = random.Random(3)
    points = []
    for _ in range(400):
        n = rng.randint(1, 60)
        l = rng.randint(0, n - 1)
        x = math.exp(rng.uniform(math.log(1e-3), math.log(1400.0)))
        points.append((QuantumNumbers(n, l), x * n / 2))
    return points


def fixed_points():
    """r = 300 for (n, 0), n = 10-30; (1, 0) where e^{kappa r} nears and
    passes double range; and three large-kappa r rows."""
    return ([(QuantumNumbers(n, 0), 300.0) for n in range(10, 31)]
            + [(QuantumNumbers(1, 0), r) for r in (360.0, 500.0, 700.0)]
            + [(QuantumNumbers(5, 0), 1700.0), (QuantumNumbers(10, 3), 3500.0),
               (QuantumNumbers(20, 0), 7000.0)])


@functools.lru_cache(maxsize=None)
def tally(which: str) -> dict[str, tuple[int, int]]:
    """(points within 1e-10, points that do not raise) per form."""
    points = sampled_points() if which == "sampled" else fixed_points()
    counts = {name: [0, 0] for name in FORMS}
    for qn, r in points:
        r1, r2 = assemble_R1(qn), assemble_R2(qn)
        for name, f in zip(FORMS, (r1, r2, derivative(r1), derivative(r2))):
            try:
                [(_, value, _)] = eval_grid(f, (r,))
            except OverflowSignal:
                continue
            counts[name][1] += 1
            ref = reference(f, r)
            counts[name][0] += abs(mpmath.mpf(value) - ref) <= 1e-10 * abs(ref)
    return {name: tuple(c) for name, c in counts.items()}


# (within 1e-10, not raising) per form.  Of the sampled R2 points, 7 read
# exactly 0.0 and 79 have a finite est_rel_error below their true error.
FLOORS = {
    "sampled": {"R1": (362, 400), "R2": (260, 380), "R1'": (359, 400), "R2'": (258, 380)},
    "fixed": {"R1": (13, 27), "R2": (0, 24), "R1'": (12, 27), "R2'": (0, 24)},
}


@pytest.mark.parametrize("which", sorted(FLOORS))
def test_eval_grid_accuracy_floors(which):
    got = tally(which)
    for name, (within, finite) in FLOORS[which].items():
        assert got[name][0] >= within, (which, name, got[name])
        assert got[name][1] >= finite, (which, name, got[name])


def test_reference_doubles_until_it_agrees_with_itself():
    # R2 of (20, 0) at r = 7000 cancels terms near e^{700}, which 256 bits
    # leave wrong in the second digit; the doubled reference agrees with 4096
    f = assemble_R2(QuantumNumbers(20, 0))
    ref = reference(f, 7000.0)
    assert abs(eval_form_extended(f, 7000.0, 256) - ref) > 1e-3 * abs(ref)
    assert abs(eval_form_extended(f, 7000.0, 4096) - ref) <= abs(ref) * mpmath.mpf(2) ** -80


def kummer_u_R2(qn, r):
    """R2 at r from Kummer's U (DLMF 13.2), independently of L and P:
    -(n+l)! x^l e^{x/2} Re U(n+l+1, 2l+2, -x), x = 2 kappa r, at 200 bits."""
    with mpmath.workprec(200):
        x = 2 * mpmath.mpf(r) / qn.n
        u = mpmath.hyperu(qn.n + qn.l + 1, 2 * qn.l + 2, -x)
        return -math.factorial(qn.n + qn.l) * x ** qn.l * mpmath.exp(x / 2) * mpmath.re(u)


def test_reference_R2_is_kummers_U():
    # 30 seeded points, n <= 30 and x = 2 kappa r log-uniform on [0.01, 200],
    # and the rows (60, 59) at x = 50 and (45, 10) at x = 3: a wrong P fails
    # here, and so does R2 + c R1, which no exact check of the package sees
    rng = random.Random(41)
    points = [(QuantumNumbers(60, 59), 50 * 60 / 2), (QuantumNumbers(45, 10), 3 * 45 / 2)]
    for _ in range(30):
        n = rng.randint(1, 30)
        x = math.exp(rng.uniform(math.log(0.01), math.log(200.0)))
        points.append((QuantumNumbers(n, rng.randrange(n)), x * n / 2))
    for qn, r in points:
        ref = reference(assemble_R2(qn), r)
        assert abs(ref - kummer_u_R2(qn, r)) <= abs(ref) * mpmath.mpf(2) ** -80, (qn, r)


def test_default_precision_holds_over_the_eval_grid_range():
    # n <= 30 and 2 kappa r up to 130 cover the eval_grid bench plan, whose
    # underbound check trusts the default 256 bits: there they agree with
    # 1024 bits to 2^-53 for R1 and R2, the corner (30, l) at 2 kappa r = 130
    # included.  R2's cancellation grows with n and 2 kappa r: (30, 1) keeps
    # 52.8 bits at 140 and (30, 0) none at 300
    rng = random.Random(39)
    points = [(QuantumNumbers(30, l), 65 * 30) for l in (0, 1, 2)]
    for _ in range(300):
        n = rng.randint(1, 30)
        x = math.exp(rng.uniform(math.log(1e-3), math.log(130.0)))
        points.append((QuantumNumbers(n, rng.randrange(n)), x * n / 2))
    for qn, r in points:
        for f in (assemble_R1(qn), assemble_R2(qn)):
            low, high = eval_form_extended(f, r), eval_form_extended(f, r, 1024)
            assert abs(low - high) <= abs(high) * mpmath.mpf(2) ** -53, (qn, r)
