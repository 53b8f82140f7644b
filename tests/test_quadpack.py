"""coulombwf.quadpack against the QUADPACK build behind scipy.integrate.quad.

The port keeps QUADPACK's operation order, so value and error estimate must
be bitwise equal, not merely close, and the return code must be the same.
"""

import math
import random

import pytest
from scipy.integrate import quad

from coulombwf import cli, oracle, quadpack
from coulombwf.quadpack import EPSABS, EPSREL, LIMIT

# The start of quad's full_output message for each nonzero code of dqagse.
MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def scipy_qags(f, a, b):
    out = quad(f, a, b, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT, full_output=1)
    if len(out) == 3:
        return out[0], out[1], 0
    return out[0], out[1], next(ier for start, ier in MESSAGES.items() if out[3].startswith(start))


def test_verify_quadratures_are_bitwise_scipys(monkeypatch):
    # every quadrature that verify's pv, split and integral checks run; the
    # integrands close over loop variables, so scipy runs at the same time
    calls = []

    def compared(f, a, b, original=quadpack.qags):
        out = original(f, a, b)
        calls.append((out, quad(f, a, b, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT)))
        return out

    monkeypatch.setattr(quadpack, "qags", compared)
    for argv in (["verify"], ["verify", "--checks", "pv,split,integral"]):
        assert cli.main(argv) == 0
    assert len(calls) == 194
    assert (EPSABS, EPSREL, LIMIT) == (1e-13, 1e-11, 400)
    for (value, abserr, ier), theirs in calls:
        assert ier == 0
        assert (value, abserr) == theirs


def oscillatory(rng):
    w, phase, decay = rng.uniform(0, 60), rng.uniform(0, 6.3), rng.uniform(0, 2)
    return lambda s: math.cos(w * s + phase) * math.exp(-decay * s), 0.0, rng.uniform(1, 5)


def endpoint_singular(rng):
    a, alpha, log = rng.uniform(-1, 1), rng.uniform(-1.2, 0.5), rng.random() < 0.5

    def f(s):
        if s <= a:
            return 0.0
        return (s - a) ** alpha * (math.log(s - a) if log else 1.0)

    return f, a, a + rng.uniform(0.1, 5)


def step(rng):
    at, high = rng.uniform(0, 1), rng.uniform(-2, 2)
    return lambda s: 1.0 if s < at else high, 0.0, 1.0


def near_pole(rng):
    p, eps = rng.uniform(-0.1, 1.1), 10 ** rng.uniform(-9, -1)
    return lambda s: 1.0 / ((s - p) ** 2 + eps * eps), 0.0, 1.0


def pole(rng):
    # a first- or second-order pole inside: divergent, or only a PV
    p, k = rng.uniform(0.05, 1.5), rng.choice((1, 2))
    return lambda s: 0.0 if s == p else math.exp(-s) / (s - p) ** k, 0.0, rng.uniform(1, 2)


def noisy(rng):
    w, amp = 10 ** rng.uniform(4, 9), 10 ** rng.uniform(-12, -4)
    return lambda s: math.exp(-s) + amp * math.sin(w * s), 0.0, rng.uniform(1, 3)


FAMILIES = (oscillatory, endpoint_singular, step, near_pole, pole, noisy)


def test_hard_integrands_are_bitwise_scipys(monkeypatch):
    extrapolations = []

    def qelg(n, *args, original=quadpack._qelg):
        extrapolations.append(n)
        return original(n, *args)

    monkeypatch.setattr(quadpack, "_qelg", qelg)
    rng = random.Random(20)
    cases = [FAMILIES[i % len(FAMILIES)](rng) for i in range(2000)]
    # code 1 comes from a single draw, so also a fast oscillation over 100
    # units, which needs more than LIMIT subintervals
    cases.append((lambda s: math.cos(3000.0 * s) * math.exp(-0.01 * s), 0.0, 100.0))
    codes = set()
    for i, (f, a, b) in enumerate(cases):
        ours = quadpack.qags(f, a, b)
        assert ours == scipy_qags(f, a, b), i
        codes.add(ours[2])
    assert ours[2] == 1
    assert codes == {0, 1, 2, 3, 4, 5}
    # the epsilon table ran, and grew past its first steps
    assert max(extrapolations) >= 10


def test_quad_raises_on_a_nonzero_code():
    # the PV integrand with its pole inside: QUADPACK reports "probably
    # divergent" (code 5) with an error estimate that looks converged
    def f(s):
        return math.exp(-s) * s / (s - 1.0)

    value, abserr, ier = quadpack.qags(f, 0.0, 70.0)
    assert ier == 5 and abserr < 1e-9
    with pytest.raises(oracle.QuadratureFailure, match="QUADPACK code 5"):
        oracle._quad(f, 0.0, 70.0)
