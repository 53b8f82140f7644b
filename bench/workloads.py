"""Seeded request generation for the four benchmark workloads.

Every generator maps a ``random.Random`` to a ``Plan``: the list of CLI argv
lists the program receives, plus what the benchmark needs to check the
answers.  The same seed gives the same plan.  Within one plan no request
needs an (n, l, R1/R2) form that another request needs, so a cache kept
across requests cannot show a gain; ``exact_verify`` is the exception the
workload itself defines (its default-nmax request repeats n <= 4).

Draws are stratified (every run covers the same strata, the seed picks the
member of each stratum and the order), so that run-to-run spread comes from
the machine rather than from a changing workload mix.  Draws are never
filtered on whether they succeed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Why each workload is in the benchmark (copied into BENCHMARK.json).
WHY = {
    "exact_verify": "ratpoly products, closedform derivatives and the operator, and oracle "
                    "Wronskians do nearly all the work; the only workload that runs the scipy "
                    "quadrature checks",
    "exact_build": "the write use of the exact layers: building forms and serialising large "
                   "rationals with few products, so a change that speeds verify but slows "
                   "building shows here",
    "eval_grid": "numeval.eval_form, RatPoly.eval_float and both ei_one_neg branches dominate, "
                 "and each form is assembled only once per request",
    "shell_match": "the only workload where shellmatch runs, with almost nothing in the exact "
                   "layers; its StepSizeTooCoarse and NoRootInRange failures are counted, "
                   "never filtered",
}
WORKLOADS = tuple(WHY)

# eval_grid: every grid has this many points; the subset compared against the
# 256-bit evaluator has this many points per request.
GRID_POINTS = 2000
CHECKED_POINTS = 24
EVAL_NMAX = 30

# exact_build: coeffs draws cover every state n <= BUILD_NMAX above the table.
BUILD_NMAX = 40
TABLE_NMAX_RANGE = (3, 6)

# shell_match: n <= SHELL_NMAX, a log-uniform in SHELL_A_RANGE.
SHELL_NMAX = 5
SHELL_A_RANGE = (1e-4, 0.5)
SHELL_BIN_STRIDE = 3  # coprime with the 14 drawn states, so every bin is used once
README_SHELL = ["shell", "--n", "2", "--l", "0", "--a", "1e-4",
                "--b-range", "0.5:1.5", "--grid-points", "50"]


@dataclass
class Request:
    argv: list[str]
    # "exact" (stdout digest), "eval" (finite values, point checks) or "shell"
    kind: str
    # eval only: grid indices compared against the extended-precision value
    checked: list[int] = field(default_factory=list)


@dataclass
class Plan:
    requests: list[Request]
    # how an op is counted: "report_line", "request" or "grid_point"
    op_unit: str
    # fresh worker processes that each run the whole list; the end-to-end run
    # reports the median pass, so short workloads measure several seconds
    passes: int = 1


def _exact_verify(rng: random.Random) -> Plan:
    """verify --nmax 30 --checks ode,wronskian, then every check at the default nmax."""
    fmts = [rng.choice(("json", "csv")) for _ in range(2)]
    reqs = [
        Request(["verify", "--nmax", "30", "--checks", "ode,wronskian", "--format", fmts[0]], "exact"),
        Request(["verify", "--format", fmts[1]], "exact"),
    ]
    return Plan(reqs, "report_line", passes=2)


def _exact_build(rng: random.Random) -> Plan:
    """One table request, then coeffs for every state above it up to BUILD_NMAX.

    Formats are dealt round-robin over a seeded shuffle, so each format gets a
    third of the states and every n appears in every format mix.
    """
    t_nmax = rng.randint(*TABLE_NMAX_RANGE)
    states = [(n, l) for n in range(t_nmax + 1, BUILD_NMAX + 1) for l in range(n)]
    rng.shuffle(states)
    fmt_offset = rng.randrange(3)
    reqs = [
        Request(["coeffs", "--n", str(n), "--l", str(l),
                 "--format", ("json", "csv", "latex")[(i + fmt_offset) % 3]], "exact")
        for i, (n, l) in enumerate(states)
    ]
    table = Request(["table", "--nmax", str(t_nmax),
                     "--format", rng.choice(("json", "csv", "latex"))], "exact")
    reqs.insert(rng.randrange(len(reqs) + 1), table)
    return Plan(reqs, "request", passes=3)


def eval_grid_span(n: int, rng: random.Random) -> tuple[float, float]:
    """(start, stop) of a GRID_POINTS grid for principal quantum number n.

    The spacing h is a power of two, so every grid point start + i*h is exact
    and r = 300 is a grid point whenever it lies inside.  The grid covers
    2 kappa r from below 40 (the Ei branch switch, r = 20 n) to past 50, includes
    r = 300 for n >= 10, and ends far below kappa r = 708.
    """
    h = 2.0 ** math.ceil(math.log2(25.0 * n / (GRID_POINTS - 1)))
    span = (GRID_POINTS - 1) * h
    k_min = 1
    k_max = math.floor(20.0 * n / h) - 1
    if n >= 10:
        k_min = max(k_min, math.ceil((300.0 - span) / h))
        k_max = min(k_max, math.floor(300.0 / h))
    start = rng.randint(k_min, k_max) * h
    return start, start + span


def _eval_grid(rng: random.Random) -> Plan:
    """One R1 and one R2 request for every n <= EVAL_NMAX, l and format seeded."""
    reqs = []
    for n in range(1, EVAL_NMAX + 1):
        for which in ("R1", "R2"):
            l = rng.randrange(n)
            start, stop = eval_grid_span(n, rng)
            checked = sorted(rng.sample(range(GRID_POINTS), CHECKED_POINTS))
            reqs.append(Request(
                ["eval", "--n", str(n), "--l", str(l), "--which", which,
                 "--grid", f"{start!r}:{stop!r}:{GRID_POINTS}",
                 "--format", rng.choice(("csv", "json"))], "eval", checked))
    rng.shuffle(reqs)
    return Plan(reqs, "grid_point", passes=2)


def first_laguerre_node(n: int, l: int) -> float | None:
    """Smallest r > 0 where R1(n, l, r) changes sign, or None for n_r = 0."""
    n_r, m = n - l - 1, 2 * l + 1
    if n_r == 0:
        return None
    coeffs = [(-1) ** j * math.comb(n_r + m, n_r - j) / math.factorial(j) for j in range(n_r + 1)]

    def lag(x: float) -> float:
        return sum(c * x**j for j, c in enumerate(coeffs))

    x, step = 0.0, 1e-3
    while lag(x) * lag(x + step) > 0:
        x += step
    lo, hi = x, x + step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lag(lo) * lag(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * n * lo  # x = 2 kappa r with kappa = 1/n


def shell_b_range(n: int, l: int, a: float) -> tuple[float, float]:
    """The fixed b-range rule: [r0/4, 3 r0/4] with r0 the first node of R1.

    Nodeless states (l = n - 1) use r0 = n.  The README case (n = 2: node at
    r = 2) gives its documented 0.5:1.5.  The range always starts past 2a.
    """
    r0 = first_laguerre_node(n, l) or float(n)
    b_min = max(r0 / 4.0, 2.0 * a)
    return b_min, max(3.0 * r0 / 4.0, 2.0 * b_min)


def _shell_match(rng: random.Random) -> Plan:
    """The README case plus one draw for every other (n <= 5, l < n).

    The inner radius a is stratified: the log range is cut into one bin per
    state, state i always takes bin (SHELL_BIN_STRIDE * i) mod bins, and the
    seed draws a log-uniformly within that bin.  With 15 requests a run, a
    seeded shuffle of the bins would make the count of cheap failures, and so
    the run's throughput, depend on the seed more than on the program.
    """
    states = [(n, l) for n in range(1, SHELL_NMAX + 1) for l in range(n) if (n, l) != (2, 0)]
    log_lo, log_hi = (math.log(v) for v in SHELL_A_RANGE)
    reqs = [Request(list(README_SHELL), "shell")]
    for i, (n, l) in enumerate(states):
        b = SHELL_BIN_STRIDE * i % len(states)
        a = math.exp(log_lo + (log_hi - log_lo) * (b + rng.random()) / len(states))
        b_min, b_max = shell_b_range(n, l, a)
        reqs.append(Request(
            ["shell", "--n", str(n), "--l", str(l), "--a", repr(a),
             "--b-range", f"{b_min!r}:{b_max!r}",
             "--grid-points", str(rng.randint(20, 80)),
             "--format", rng.choice(("json", "csv"))], "shell"))
    rng.shuffle(reqs)
    return Plan(reqs, "request")


_GENERATORS = {
    "exact_verify": _exact_verify,
    "exact_build": _exact_build,
    "eval_grid": _eval_grid,
    "shell_match": _shell_match,
}


def make_plan(workload: str, seed: int) -> Plan:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
