"""The bench scripts use the package from outside it.  A simplification that
removes a name they use, or changes how they call it, must fail here, not
only when the bench runs."""

import ast
import importlib.util
from pathlib import Path

from coulombwf import numeval
from coulombwf.ratpoly import RatPoly

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_imports() -> list[tuple[str, str, str | None]]:
    """(script, module, name) of every ``from coulombwf… import name`` in
    bench/*.py, and (script, module, None) of every ``import coulombwf…``,
    at any depth of the script."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "coulombwf":
                out += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "coulombwf"]
    return out


def test_bench_package_imports_resolve():
    imports = _package_imports()
    assert ("worker.py", "coulombwf.closedform", "assemble_R2") in imports
    for script, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            # a submodule imported by name, or an error naming the script
            assert importlib.util.find_spec(f"{module}.{name}"), f"{script}: {module}.{name} is gone"


def test_ratpoly_keeps_the_coefficient_view_the_bench_reads():
    # bench/tracing.py sizes products and coefficients from RatPoly.coeffs
    p = RatPoly(-1, (1, 0, 6))
    assert p.coeffs == (1, 0, 6)


def test_bench_underbound_check_runs_on_the_package(monkeypatch):
    # the eval_grid workload checks its sampled rows against the 256-bit
    # evaluator of the form worker._underbound assembles from each request's
    # argv: every point must be checked, at the CLI's own value
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    extended = []
    original = numeval.eval_form_extended

    def recorded(form, r, bits):
        value = original(form, r, bits)
        extended.append((r, float(value)))
        return value

    monkeypatch.setattr(numeval, "eval_form_extended", recorded)
    requests, outcomes, rows = [], [], []
    for which in ("R1", "R2"):
        argv = ["eval", "--n", "3", "--l", "1", "--which", which, "--grid", "0.5:12:7"]
        rc, text, _ = worker.run_cli(argv)
        assert rc == 0
        points = worker._eval_rows(argv, text)
        requests.append({"argv": argv, "kind": "eval"})
        outcomes.append({"points": points})
        rows += points
    under, checked = worker._underbound(requests, outcomes)
    assert checked == len(rows) == 14 and under == 0
    assert [r for r, _ in extended] == [r for r, _, _ in rows]
    for (_, exact), (_, value, est) in zip(extended, rows):
        assert abs(value - exact) <= est * abs(exact)


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(f"coulombwf.{module}")
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_traced_package_targets_keep_resolving(monkeypatch):
    # bench/tracing.py wraps these by module and attribute path; one that
    # stops resolving is skipped there and its spans silently read 0, so the
    # shell's stages (match_shell, integrate_interior, piecewise_grid) and
    # every other target that resolves today must keep their names
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    resolving = {(module, path) for module, path, _ in tracing.LAYER_FUNCTIONS if _resolves(module, path)}
    assert resolving >= {
        ("shellmatch", "match_shell"), ("shellmatch", "integrate_interior"),
        ("shellmatch", "piecewise_grid"),
        ("ratpoly", "RatPoly.__mul__"),
        ("closedform", "assemble_R1"), ("closedform", "assemble_R2"),
        ("closedform", "laguerre_L1"), ("closedform", "apply_radial_operator"),
        ("oracle", "ode_residual_symbolic"), ("oracle", "wronskian_symbolic"),
        ("oracle", "first_integral_closed_form_check"), ("oracle", "golden_table_check"),
        ("cli", "main"), ("cli", "run_verify"),
    }
