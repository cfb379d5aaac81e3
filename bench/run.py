"""pretzelrep benchmark: one command, every metric by name with its unit.

    python3 bench/run.py                         # every workload, untraced
    python3 bench/run.py --workload requests --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload range-json --trace 1   # per-layer run

Runs from the root of a checkout and measures the ``pretzelrep`` in its
``src/``.  One workload run is one fresh child interpreter (child.py),
started one at a time, with no CPU pinning and no cache dropping.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TIME_LIMIT = 170  # seconds for one workload run, set-up included


def run_workload(name: str, seed: int, seconds: int, trace: int, spans: str | None) -> dict | None:
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        argv += ["--spans", spans]
    # its own process group, so a timeout also stops the interpreters it starts
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print(f"error: workload {name} ran past {TIME_LIMIT} s", file=sys.stderr)
            return None
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    _print_table(name, seed, seconds, trace, result)
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def _print_table(name, seed, seconds, trace, result) -> None:
    print(f"# workload={name} seed={seed} seconds={seconds} trace={trace} "
          f"passes={result['passes']} traced_passes={result['traced_passes']} "
          f"latency_samples={result['latency_samples']} setup_samples={result['setup_samples']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:45} {entry['value']:>16.6f} {entry['unit']}")
    if not trace:
        print(f"{'failed_frac':45} {result['failed'] / result['attempted']:>16.6f} ratio "
              f"({result['failed']}/{result['attempted']})")


def main() -> int:
    parser = argparse.ArgumentParser(description="pretzelrep benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--spans", help="with --trace 1, write the raw spans to this file")
    args = parser.parse_args()
    if not (SRC / "pretzelrep" / "cli.py").is_file():
        print(f"error: no pretzelrep sources under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.spans)
        if result is None:
            return 1
        results[name] = result
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                          "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
