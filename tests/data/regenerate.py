"""Regenerate derived artifacts from the exact engine.

Run from the repository root:  python3 tests/data/regenerate.py
"""

import json
from pathlib import Path

from coulombwf.closedform import QuantumNumbers, solutions
from coulombwf.oracle import wronskian_symbolic

N_MAX = 8


def main() -> None:
    out = {}
    for n in range(1, N_MAX + 1):
        for l in range(n):
            r2w, rep = wronskian_symbolic(solutions(QuantumNumbers(n, l)))
            assert rep.passed
            out[f"{n},{l}"] = str(r2w.coeff(0))
    path = Path(__file__).parent / "wronskian_r2w.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path} ({len(out)} entries)")


if __name__ == "__main__":
    main()
