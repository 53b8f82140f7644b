"""Regenerate derived artifacts from the exact engine.

Run from the repository root:  PYTHONPATH=src python3 tests/data/regenerate.py

Writes wronskian_r2w.json (the constant r^2 W for every n <= 8) and
exact_outputs.json (sha256 of the stdout of CLI commands whose output comes
from integer arithmetic only, so it is the same on every machine; the pv,
split and integral checks of verify depend on floating-point quadrature and
are left out).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from coulombwf import cli
from coulombwf.closedform import QuantumNumbers, Radial, apply_radial_operator, assemble_R2
from coulombwf.oracle import wronskian_symbolic

N_MAX = 8
DATA_DIR = Path(__file__).parent


def exact_commands() -> list[list[str]]:
    cmds = [["verify", "--nmax", "6", "--checks", "ode,wronskian,golden", "--format", fmt]
            for fmt in ("json", "csv")]
    cmds += [["verify", "--nmax", "8", "--checks", "wronskian", "--format", fmt]
             for fmt in ("json", "csv")]
    cmds += [["table", "--nmax", str(nmax), "--format", fmt]
             for nmax in range(1, 7) for fmt in ("json", "csv", "latex")]
    cmds += [["coeffs", "--n", str(n), "--l", str(l), "--format", fmt]
             for n in range(1, N_MAX + 1) for l in range(n) for fmt in ("json", "csv", "latex")]
    return cmds


def stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def write_json(name: str, doc: dict) -> None:
    path = DATA_DIR / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path} ({len(doc)} entries)")


def main() -> None:
    out = {}
    for n in range(1, N_MAX + 1):
        for l in range(n):
            r2 = assemble_R2(QuantumNumbers(n, l))
            r1 = Radial(r2.qn, r2.L)
            solves = all(apply_radial_operator(f).is_zero() for f in (r1, r2))
            r2w, rep = wronskian_symbolic(r1, r2, solves)
            assert rep.passed
            out[f"{n},{l}"] = str(r2w)
    write_json("wronskian_r2w.json", out)
    write_json("exact_outputs.json", {" ".join(argv): stdout_digest(argv) for argv in exact_commands()})


if __name__ == "__main__":
    main()
