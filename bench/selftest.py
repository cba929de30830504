"""Self-test: the deterministic per-layer counts repeat exactly.

    python3 bench/selftest.py [--seed N] [--workload W ...]

Runs each workload's traced benchmark twice with the same seed and a
one-second budget (so each run does its first batch only) and compares
the counts that summarize.py takes from that batch. A count may back a
performance claim only if it repeats. Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COUNTS = [
    "fitting.n_evals_per_fit",
    "fitting.nit_per_fit",
    "fitting.loglik_mbw.calls_per_fit",
    "fitting.loglik_mbw.rejected_ratio",
    "fitting.compute_se.loglik_calls",
]


def traced_counts(workload, seed) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", default=["study", "vannman", "cli"])
    args = p.parse_args()
    ok = True
    for workload in args.workload:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        for name in COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:<8} {name:<36} {first[name]!r:>22} {second[name]!r:>22}  "
                  f"{'same' if same else 'DIFFERENT'}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
