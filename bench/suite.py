"""Run every workload of the benchmark, each in its own fresh process, and
print each run's report: every metric by name with its unit and sample count,
the quality readouts, and ops_failed_frac with its base.

    python3 bench/suite.py --seed 0                # end-to-end metrics
    python3 bench/suite.py --seed 0 --trace        # and the traced runs

Exits non-zero if any run fails to produce a result or fails a check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, size="full"):
    """Run one workload in a fresh process; returns (result or None, stdout, stderr)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return result, proc.stdout, proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    args = parser.parse_args(argv)
    spec = load_spec()
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ((0, 1) if args.trace else (0,)):
            print(f"== {workload} seed={args.seed} trace={trace}", flush=True)
            result, out, err = run_one(workload, args.seed, spec["run_seconds"], trace)
            print("\n".join(out.strip().splitlines()[:-1]) if result else out, flush=True)
            if result is None or not result["correct"]:
                ok = False
                print(err, file=sys.stderr)
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
