"""One workload process: import coulombwf.cli, run requests, report JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It prints ``ready`` once ``coulombwf.cli`` is imported, then reads one JSON
job from stdin and prints one JSON result line.  Jobs:

- ``{}``: exit at once (a set-up probe);
- ``{"requests": [...], "budget_s": ..., "check_points": ..., "trace": ...,
  "spans_path": ...}``: run each request through ``coulombwf.cli.main(argv)``
  with stdout and stderr captured, time it, then check the outputs outside
  the timed region;
- ``{"parallel": [20, 30]}``: time ``verify --checks ode,wronskian`` serial
  and with ``--parallel`` at each nmax.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import coulombwf.cli as cli
from calibration import Sampler, slice_seconds
from workloads import GRID_POINTS

HERE = os.path.dirname(os.path.abspath(__file__))
SHELL_TOLERANCE = 1e-8


def _eval_rows(argv: list[str], text: str) -> list[tuple[float, float, float]]:
    if "json" in argv:
        return [(row["r"], row["value"], row["est_rel_error"]) for row in json.loads(text)["rows"]]
    rows = []
    for line in text.splitlines()[2:]:
        r, v, e = line.split(",")
        rows.append((float(r), float(v), float(e)))
    return rows


def _shell_mismatch(argv: list[str], text: str) -> float:
    if "csv" in argv:
        for line in text.splitlines():
            if line.startswith("mismatch,"):
                return float(line.split(",", 1)[1])
        raise ValueError("no mismatch row")
    return float(json.loads(text)["mismatch"])


def _check(req: dict, rc: int, text: str, digests: dict) -> dict:
    """Outcome of one request: ops attempted and failed, wrong output, points to check."""
    argv, kind = req["argv"], req["kind"]
    if kind == "exact":
        key = " ".join(argv)
        expected_digest, expected_ops = digests[key]
        digest = hashlib.sha256(text.encode()).hexdigest()[:32]
        ok = rc == 0 and digest == expected_digest
        return {"ops": expected_ops, "failed": 0 if ok else expected_ops,
                "wrong": rc == 0 and digest != expected_digest}
    if kind == "eval":
        points = GRID_POINTS
        if rc != 0:
            return {"ops": points, "failed": points, "wrong": False}
        try:
            rows = _eval_rows(argv, text)
        except (ValueError, KeyError):
            return {"ops": points, "failed": points, "wrong": True}
        if len(rows) != points:
            return {"ops": points, "failed": points, "wrong": True}
        bad = sum(1 for _, v, e in rows if not (math.isfinite(v) and math.isfinite(e)))
        return {"ops": points, "failed": bad, "wrong": False,
                "points": [rows[i] for i in req["checked"]]}
    # shell: success only on exit 0 with a small, finite mismatch
    if rc != 0:
        return {"ops": 1, "failed": 1, "wrong": False}
    try:
        mismatch = _shell_mismatch(argv, text)
    except (ValueError, KeyError):
        return {"ops": 1, "failed": 1, "wrong": True}
    ok = math.isfinite(mismatch) and abs(mismatch) < SHELL_TOLERANCE
    return {"ops": 1, "failed": 0 if ok else 1, "wrong": False}


def _planned_ops(req: dict, digests: dict) -> int:
    if req["kind"] == "exact":
        return digests[" ".join(req["argv"])][1]
    return GRID_POINTS if req["kind"] == "eval" else 1


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """coulombwf.cli.main(argv) with stdout and stderr captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def _underbound(requests: list[dict], outcomes: list[dict]) -> tuple[int, int]:
    """(points whose actual error exceeds est_rel_error, points checked)."""
    import mpmath
    from coulombwf.closedform import QuantumNumbers, assemble_R1, assemble_R2
    from coulombwf.numeval import eval_form_extended

    under = checked = 0
    for req, out in zip(requests, outcomes):
        if not out.get("points"):
            continue
        argv = req["argv"]
        qn = QuantumNumbers(int(argv[argv.index("--n") + 1]), int(argv[argv.index("--l") + 1]))
        form = assemble_R1(qn) if argv[argv.index("--which") + 1] == "R1" else assemble_R2(qn)
        for r, value, est in out["points"]:
            with mpmath.workprec(256):
                exact = eval_form_extended(form, r, 256)
                if exact == 0:
                    continue
                actual = float(abs((value - exact) / exact))
            checked += 1
            under += actual > est
    return under, checked


def run_requests(job: dict) -> dict:
    """Run the requests in order; the timed wall is the sum of their latencies."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    sampler = Sampler()
    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer(sampler)
        tracer.install()
    requests = job["requests"]
    results = []
    timed = 0.0
    with sampler as cal:
        for i, req in enumerate(requests):
            if timed > job["budget_s"]:
                ops = _planned_ops(req, digests)
                results.append({"latency_s": None, "rc": None, "ops": ops, "failed": ops, "wrong": False})
                continue
            if tracer is not None:
                tracer.request_id = i
            spent = cal.spent
            rc, text, dt = run_cli(req["argv"])
            dt -= cal.spent - spent
            timed += dt
            outcome = _check(req, rc, text, digests)
            outcome.update(latency_s=dt, rc=rc)
            results.append(outcome)
    cal.samples.append(slice_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {"results": results, "timed_s": timed, "peak_rss_mb": peak_rss_mb, "cal": cal.samples}
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = {
            "layers": tracer.layer_stats(),
            "counts": dict(tracer.counts),
            "max_coeff_bits": tracer.max_coeff_bits,
            "distinct_forms": len(tracer.forms),
            "mismatch_evals": tracer.children_of("shellmatch.match_shell", "shellmatch.exterior_logderiv"),
            "absent": tracer.absent,
        }
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    if job.get("check_points"):
        doc["underbound"] = _underbound(requests, results)
    for out in results:
        out.pop("points", None)
    return doc


def run_parallel(nmaxes: list[int]) -> dict:
    """Serial / --parallel wall time of verify ode,wronskian, at most nproc workers."""
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    workers = len(os.sched_getaffinity(0))
    cli.ProcessPoolExecutor = partial(ProcessPoolExecutor, max_workers=workers)
    speedups = {}
    for nmax in nmaxes:
        argv = ["verify", "--nmax", str(nmax), "--checks", "ode,wronskian"]
        rc_s, out_s, serial = run_cli(argv)
        rc_p, out_p, parallel = run_cli(argv + ["--parallel"])
        ok = rc_s == 0 and rc_p == 0 and out_s == out_p
        speedups[str(nmax)] = serial / parallel if ok else None
    return {"speedups": speedups, "workers": workers}


def main() -> None:
    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(cli.__file__).startswith(src):
        sys.exit(f"worker: imported {cli.__file__}, not the package under {src}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    job = json.loads(sys.stdin.read() or "{}")
    if "requests" in job:
        doc = run_requests(job)
    elif "parallel" in job:
        doc = run_parallel(job["parallel"])
    else:
        return
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
