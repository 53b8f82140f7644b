"""Record the stdout digest of every exact request the workloads can draw.

The exact outputs (``coeffs``, ``table``, ``verify``) are a byte-for-byte
contract, so the benchmark counts any stdout that differs from the recorded
digest as a failed op.  Run from the repository root, only at a commit whose
exact outputs are known good:

    PYTHONPATH=src python3 bench/record_digests.py

It writes ``bench/digests.json``: argv joined by spaces -> [first 32 hex
digits of the SHA-256 of stdout, ops in the request].
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from worker import run_cli
from workloads import BUILD_NMAX, TABLE_NMAX_RANGE


def exact_requests() -> list[list[str]]:
    reqs = []
    for fmt in ("json", "csv"):
        reqs.append(["verify", "--nmax", "30", "--checks", "ode,wronskian", "--format", fmt])
        reqs.append(["verify", "--format", fmt])
    for fmt in ("json", "csv", "latex"):
        for t in range(TABLE_NMAX_RANGE[0], TABLE_NMAX_RANGE[1] + 1):
            reqs.append(["table", "--nmax", str(t), "--format", fmt])
        for n in range(1, BUILD_NMAX + 1):
            for l in range(n):
                reqs.append(["coeffs", "--n", str(n), "--l", str(l), "--format", fmt])
    return reqs


def ops_in(argv: list[str], text: str) -> int:
    """A verify op is one report line (csv has two header lines); else one request."""
    if argv[0] != "verify":
        return 1
    lines = text.count("\n")
    return lines if argv[argv.index("--format") + 1] == "json" else lines - 2


def main() -> None:
    digests = {}
    for argv in exact_requests():
        rc, text, _ = run_cli(argv)
        if rc != 0:
            sys.exit(f"{' '.join(argv)} exited {rc}; refusing to record")
        digests[" ".join(argv)] = [hashlib.sha256(text.encode()).hexdigest()[:32], ops_in(argv, text)]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(digests.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
