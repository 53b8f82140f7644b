"""coulombwf benchmark: one workload, end-to-end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload eval_grid --seed 7 --seconds 20 --trace 0

The seed fixes every request of the workload (see workloads.py).  Each run
starts fresh interpreters (worker.py) that import ``coulombwf`` from
``./src`` and drive only ``coulombwf.cli.main(argv)``, one request after
another (a closed loop with one client), because the CLI serves one request
per process.  A worker starts no request once its timed wall passes
BUDGET_FACTOR times ``--seconds``; the requests it skips count as failed.

``--trace 0`` measures, with tracing off:

- ``setup_s``: median seconds from spawning an interpreter to
  ``coulombwf.cli`` imported, over SETUP_PROBES probes and the workers;
- ``throughput_ops_s``: successful ops per second of the timed wall, the
  wall scaled to the reference machine's speed (calibration.py); the median
  over the workload's passes (fresh workers that each run every request);
- ``peak_rss_mb``: peak resident memory of the workload processes.

Earlier stdout lines report these with the other figures that apply to the
workload: latency percentiles (a failed request counts as +inf; a
percentile is shown only with ten requests beyond it), ``failed_ratio`` and
``est_underbound_ratio``, plus the machine.  ``--trace 1`` runs the same
requests untraced and then traced (tracing.py) and reports the per-layer
metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import speed  # noqa: E402
from workloads import WHY, WORKLOADS, make_plan  # noqa: E402

# Set-up is measured in this many fresh interpreters per run (one more, not
# counted, first warms the bytecode cache); the workload process adds one.
SETUP_PROBES = 6
# Import-time breakdown: median over this many -X importtime interpreters.
IMPORTTIME_PROBES = 3
# A worker starts no request once its timed wall passes this many --seconds;
# the requests it skips count as failed.
BUDGET_FACTOR = 3
# Every process this run starts is killed this many seconds after it began.
RUN_DEADLINE_S = 170
PARALLEL_NMAX = (20, 30)

# name: (unit, better, bound).  The bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_ops_s": ("ops/s", "higher", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# name: (unit, better).  Measured in the traced run; a layer that does not
# run on a workload reads 0.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "oracle.import_s": ("s", "lower"),
    "numeval.import_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.run_verify.parallel_speedup.nmax20": ("ratio", "higher"),
    "cli.run_verify.parallel_speedup.nmax30": ("ratio", "higher"),
    "closedform.assemble.calls": ("count", "lower"),
    "closedform.assemble.busy_s": ("s", "lower"),
    "closedform.assemble.repeat_ratio": ("ratio", "lower"),
    "closedform.p2_doublesum.busy_s": ("s", "lower"),
    "closedform.laguerre_L1.busy_s": ("s", "lower"),
    "closedform.derivative.calls": ("count", "lower"),
    "closedform.derivative.busy_s": ("s", "lower"),
    "closedform.apply_radial_operator.calls": ("count", "lower"),
    "closedform.apply_radial_operator.busy_s": ("s", "lower"),
    "ratpoly.mul.calls": ("count", "lower"),
    "ratpoly.mul.busy_s": ("s", "lower"),
    "ratpoly.mul.coeff_products": ("count", "lower"),
    "ratpoly.mul.short_operand_share": ("ratio", "lower"),
    "ratpoly.mul.max_coeff_bits": ("bits", "lower"),
    "ratpoly.scale_arg.busy_s": ("s", "lower"),
    "ratpoly.eval_float.calls": ("count", "lower"),
    "ratpoly.eval_float.busy_s": ("s", "lower"),
    "numeval.eval_form.calls": ("count", "lower"),
    "numeval.eval_form.busy_s": ("s", "lower"),
    "numeval.eval_form.self_s": ("s", "lower"),
    "numeval.eval_form.us_per_call": ("us", "lower"),
    "numeval.eval_form.est_underbound_ratio": ("ratio", "lower"),
    "numeval.ei_one_neg.series_calls": ("count", "lower"),
    "numeval.ei_one_neg.asymptotic_calls": ("count", "lower"),
    "oracle.ode_residual_symbolic.calls": ("count", "lower"),
    "oracle.ode_residual_symbolic.busy_s": ("s", "lower"),
    "oracle.wronskian_symbolic.calls": ("count", "lower"),
    "oracle.wronskian_symbolic.busy_s": ("s", "lower"),
    "oracle.failed_reports": ("count", "lower"),
    "oracle.pv_closedform_check.busy_s": ("s", "lower"),
    "oracle.pole_split_identity_check.busy_s": ("s", "lower"),
    "oracle.first_integral_closed_form_check.busy_s": ("s", "lower"),
    "oracle.golden_table_check.busy_s": ("s", "lower"),
    "shellmatch.match_shell.busy_s": ("s", "lower"),
    "shellmatch.exterior_logderiv.calls": ("count", "lower"),
    "shellmatch.exterior_logderiv.busy_s": ("s", "lower"),
    "shellmatch.integrate_interior.calls": ("count", "lower"),
    "shellmatch.integrate_interior.busy_s": ("s", "lower"),
    "shellmatch.continuity_residuals.busy_s": ("s", "lower"),
    "shellmatch.piecewise_grid.busy_s": ("s", "lower"),
    "shellmatch.mismatch_evals_per_match": ("count", "lower"),
    "shellmatch.step_too_coarse": ("count", "lower"),
    "shellmatch.no_root": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class WorkerError(RuntimeError):
    pass


def _env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root: str, job: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a fresh worker, time it from spawn to ready, give it one job.

    Returns (set-up seconds, the worker's JSON result or None for a probe).
    The worker is killed at ``deadline`` (time.monotonic()); its stderr
    passes through to ours.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")], cwd=root, env=_env(root),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise WorkerError(f"worker did not start: {ready!r}")
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        if proc.poll() is None and not proc.stdin.closed:
            proc.kill()
        proc.wait()
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return setup, json.loads(out.splitlines()[-1]) if out.strip() else None


def import_times(root: str, deadline: float) -> dict[str, float]:
    """Cumulative import seconds of coulombwf.cli, .oracle and .numeval."""
    samples: dict[str, list[float]] = {"cli": [], "oracle": [], "numeval": []}
    for _ in range(IMPORTTIME_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import coulombwf.cli"],
            cwd=root, env=_env(root), capture_output=True, text=True, check=True,
            timeout=max(0.0, deadline - time.monotonic()))
        found = {}
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+coulombwf\.(\w+)$", line)
            if m:
                found[m.group(2)] = int(m.group(1)) / 1e6
        for key in samples:
            samples[key].append(found.get(key, 0.0))
    return {key: statistics.median(vals) for key, vals in samples.items()}


def percentile(sorted_vals: list[float], p: float) -> float | None:
    """Nearest-rank percentile, or None without ten samples beyond it."""
    n = len(sorted_vals)
    if n * (1 - p / 100) < 10:
        return None
    return sorted_vals[max(0, math.ceil(p / 100 * n) - 1)]


def summarize(docs: list[dict]) -> dict:
    """End-to-end figures of one or more untraced passes over the same requests.

    Counts add up over the passes; throughput is the median of the passes.
    """
    results = [r for doc in docs for r in doc["results"]]
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    latencies = sorted(r["latency_s"] * 1e3 if r["failed"] == 0 else math.inf for r in results)
    under, checked = docs[0].get("underbound", (0, 0))
    wall, scaled, speeds = [], [], []
    for doc in docs:
        ok = sum(r["ops"] - r["failed"] for r in doc["results"])
        speeds.append(speed(doc["cal"]))
        wall.append(ok / doc["timed_s"])
        scaled.append(ok / (doc["timed_s"] * speeds[-1]))
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not any(r["wrong"] for r in results),
        "passes": len(docs),
        "requests": len(results),
        "timed_s": sum(doc["timed_s"] for doc in docs),
        "speed": statistics.mean(speeds),
        "wall_throughput_ops_s": statistics.median(wall),
        "throughput_ops_s": statistics.median(scaled),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "failed_ratio": failed / attempted,
        "est_underbound_ratio": under / checked if checked else None,
        "points_checked": checked,
        "peak_rss_mb": max(doc["peak_rss_mb"] for doc in docs),
        "exit_codes": sorted({r["rc"] for r in results if r["rc"] is not None}),
    }


def machine() -> dict:
    import importlib.metadata as md
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("scipy", "mpmath"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions}


def layer_metrics(untraced: dict, traced: dict, imports: dict, parallel: dict) -> dict[str, float]:
    """PER_LAYER values from one untraced and one traced pass of the same requests."""
    tr = traced["trace"]
    layers, counts = tr["layers"], tr["counts"]

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {
        "cli.import_s": imports["cli"],
        "oracle.import_s": imports["oracle"],
        "numeval.import_s": imports["numeval"],
    }
    for nmax in PARALLEL_NMAX:
        m[f"cli.run_verify.parallel_speedup.nmax{nmax}"] = parallel["speedups"].get(str(nmax)) or 0.0
    for name in ("cli.main", "closedform.assemble", "closedform.derivative",
                 "closedform.apply_radial_operator", "ratpoly.mul", "ratpoly.eval_float",
                 "numeval.eval_form", "oracle.ode_residual_symbolic", "oracle.wronskian_symbolic",
                 "shellmatch.exterior_logderiv", "shellmatch.integrate_interior"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("closedform.p2_doublesum", "closedform.laguerre_L1", "ratpoly.scale_arg",
                 "oracle.pv_closedform_check", "oracle.pole_split_identity_check",
                 "oracle.first_integral_closed_form_check", "oracle.golden_table_check",
                 "shellmatch.match_shell", "shellmatch.continuity_residuals",
                 "shellmatch.piecewise_grid"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["numeval.eval_form.self_s"] = get("numeval.eval_form", "self_s")
    m["numeval.eval_form.us_per_call"] = share(get("numeval.eval_form", "busy_s") * 1e6,
                                                get("numeval.eval_form", "calls"))
    under, checked = untraced.get("underbound", (0, 0))
    m["numeval.eval_form.est_underbound_ratio"] = share(under, checked)
    m["closedform.assemble.repeat_ratio"] = share(get("closedform.assemble", "calls"), tr["distinct_forms"])
    m["ratpoly.mul.coeff_products"] = counts.get("ratpoly.mul.coeff_products", 0)
    m["ratpoly.mul.short_operand_share"] = share(counts.get("ratpoly.mul.short_operands", 0),
                                                 get("ratpoly.mul", "calls"))
    m["ratpoly.mul.max_coeff_bits"] = tr["max_coeff_bits"]
    m["numeval.ei_one_neg.series_calls"] = counts.get("numeval.ei_one_neg.series_calls", 0)
    m["numeval.ei_one_neg.asymptotic_calls"] = counts.get("numeval.ei_one_neg.asymptotic_calls", 0)
    m["oracle.failed_reports"] = counts.get("oracle.failed_reports", 0)
    m["shellmatch.mismatch_evals_per_match"] = share(tr["mismatch_evals"], get("shellmatch.match_shell", "calls"))
    m["shellmatch.step_too_coarse"] = counts.get("shellmatch.raised.StepSizeTooCoarse", 0)
    m["shellmatch.no_root"] = counts.get("shellmatch.raised.NoRootInRange", 0)
    # both walls in reference seconds, so a machine slowdown between the passes cancels
    m["trace.overhead_ratio"] = (traced["timed_s"] * speed(traced["cal"])) / (
        untraced["timed_s"] * speed(untraced["cal"]))
    return {name: m[name] for name in PER_LAYER}


def _fmt(value, unit: str) -> str:
    return "n/a" if value is None else f"{value:.6g} {unit}"


def report(workload: str, seed: int, s: dict, setup_s: float | None, spans_path: str | None) -> None:
    print(f"# workload {workload}, seed {seed}: {s['passes']} x {s['requests'] // s['passes']} requests, "
          f"{s['attempted']} ops, {s['failed']} failed, exit codes {s['exit_codes']}, "
          f"timed {s['timed_s']:.3f} s")
    print(f"# why: {WHY[workload]}")
    print(f"# machine {json.dumps(machine())}")
    print(f"# machine speed {s['speed']:.4f} of reference (calibration loop); "
          f"unscaled throughput {s['wall_throughput_ops_s']:.6g} ops/s")
    rows = [
        ("setup_s", setup_s, "s"),
        ("throughput_ops_s", s["throughput_ops_s"], "ops/s"),
        ("latency_p50_ms", s["latency_p50_ms"], "ms"),
        ("latency_p90_ms", s["latency_p90_ms"], "ms"),
        ("failed_ratio", s["failed_ratio"], "ratio"),
        ("est_underbound_ratio", s["est_underbound_ratio"], "ratio"),
        ("peak_rss_mb", s["peak_rss_mb"], "MB"),
    ]
    for name, value, unit in rows:
        print(f"#   {name:22s} {_fmt(value, unit)}")
    if s["points_checked"]:
        print(f"#   ({s['points_checked']} eval points compared at 256 bits)")
    if spans_path:
        print(f"# spans written to {os.path.relpath(spans_path)}")


def untraced_run(root: str, args, job: dict, passes: int, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics: set-up probes, then ``passes`` fresh workers each
    running the whole request list with tracing off."""
    spawn(root, {}, deadline)  # warm the bytecode cache; not counted
    setups = [spawn(root, {}, deadline)[0] for _ in range(SETUP_PROBES)]
    docs = []
    for i in range(passes):
        # points are compared at 256 bits once; later passes repeat the same requests
        setup, doc = spawn(root, {**job, "check_points": job["check_points"] and i == 0}, deadline)
        setups.append(setup)
        docs.append(doc)
    s = summarize(docs)
    setup_s = statistics.median(setups)
    report(args.workload, args.seed, s, setup_s, None)
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": s["throughput_ops_s"],
        "peak_rss_mb": s["peak_rss_mb"],
    }
    return metrics, s


def traced_run(root: str, args, job: dict, passes: int, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics: the workload untraced, then traced, then the
    import-time and --parallel probes."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json.gz")
    _, doc = spawn(root, job, deadline)
    _, traced = spawn(root, {**job, "trace": True, "check_points": False, "spans_path": spans_path},
                      deadline)
    imports = import_times(root, deadline)
    _, parallel = spawn(root, {"parallel": list(PARALLEL_NMAX)}, deadline)
    s = summarize([doc])
    report(args.workload, args.seed, s, None, spans_path)
    if traced["trace"]["absent"]:
        print(f"# absent from the package (reported as 0): {traced['trace']['absent']}")
    if None in parallel["speedups"].values():
        print("# verify --parallel failed or differed from serial (speed-up reported as 0)")
    return layer_metrics(doc, traced, imports, parallel), s


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coulombwf", "cli.py")):
        print("run.py: no src/coulombwf here; run from the repository root", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed)
    job = {"requests": [asdict(r) for r in plan.requests],
           "budget_s": BUDGET_FACTOR * args.seconds,
           "check_points": plan.op_unit == "grid_point"}

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        metrics, s = (traced_run if args.trace else untraced_run)(root, args, job, plan.passes, deadline)
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": metrics[name], "unit": spec[0]} for name, spec in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
