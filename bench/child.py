"""One workload run in a fresh interpreter; prints one JSON line.

Usage: python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

Imports ``pretzelrep`` from ``src/`` of the checkout this file sits in,
builds the workload's commands from the seed, and calls
``pretzelrep.cli.run`` on each command of a pass, closed loop, until the
run time is spent (at least MIN_PASSES passes of each kind).  Outputs are
checked after each pass, outside the timed region.  Between untraced
passes it times fresh interpreters importing ``pretzelrep.cli``; their
median is setup_s.  With --trace 1 the
passes alternate between untraced and traced, and the traced ones give
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_SAMPLES = 21  # at least this many, SETUP_PER_PASS after each untraced pass
SETUP_PER_PASS = 3
_SETUP_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pretzelrep.cli"

# per-layer metric name -> unit; the order is the order they are printed
LAYER_UNITS = {
    "cli.build_parser.s": "s",
    "cli.self_s": "s",
    "cli.json_encode.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "count",
    "surfacescan.scan_assignments.calls": "count",
    "surfacescan.scan_assignments.s": "s",
    "surfacescan.final_filter.calls": "count",
    "surfacescan.structural_ratio": "ratio",
    "surfacescan.accepted_rows": "count",
    "repclassify.representativity_bounds.calls": "count",
    "repclassify.representativity_bounds.s": "s",
    "tanglecalc.normalize_pretzel.calls": "count",
    "tanglecalc.normalize_pretzel.per_report": "ratio",
    "tanglecalc.print_expr.s": "s",
    "linktrace.knot_filter.rejects": "count",
    "tanglecalc.parse_expr.calls": "count",
    "tanglecalc.parse_expr.s": "s",
    "slopelemma.enumerate_solutions.s": "s",
    "slopelemma.solutions": "count",
    "linktrace.pretzel_diagram.s": "s",
    "linktrace.pretzel_diagram.crossings": "count",
    "linktrace.component_count.s": "s",
    "trace.overhead_s": "s",
}
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "latency_p50_ms": "ms", "latency_p99_ms": "ms"}
_NOT_CLI_SELF = {"cli.build_parser", tracing.JSON_ENCODE, tracing.WRITE}


class Sink:
    """Output stream handed to cli.run; keeps what is written."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.chunks: list[str] = []
        self.write = self.chunks.append
        if tracer is not None:
            self.write = tracer.wrap(tracing.WRITE, self.chunks.append)


class Checker:
    """Checks each output once; an output equal to one already checked
    for the same command gets the same verdict."""

    def __init__(self, commands):
        self.commands = commands
        self.verdicts: dict[tuple, tuple[bool, Counter]] = {}
        self.messages: list[str] = []

    def check(self, index: int, code, out: str, err: str) -> tuple[bool, Counter]:
        key = (index, code, hash(out), hash(err))
        verdict = self.verdicts.get(key)
        if verdict is None:
            command = self.commands[index]
            try:
                if code is None:
                    raise oracles.Mismatch(f"raised {err}")
                verdict = (True, command.check(code, out, err))
            except (oracles.Mismatch, ValueError, LookupError, TypeError, AttributeError) as exc:
                verdict = (False, Counter())
                self.messages.append(f"{' '.join(command.argv)[:120]}: {type(exc).__name__}: {exc}")
            self.verdicts[key] = verdict
        return verdict


def run_pass(cli, commands, checker: Checker, tracer=None) -> dict:
    """One closed-loop pass over the commands; timings, failures, counts."""
    gc.collect()
    results, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for index, command in enumerate(commands):
        out, err = Sink(tracer), Sink()
        if tracer is not None:
            tracer.request = index
        began = clock()
        try:
            code = cli.run(list(command.argv), out, err)
        except Exception as exc:  # an uncaught error is a failed command, not a harness crash
            code, err.chunks = None, [repr(exc)]
        latencies.append(clock() - began)
        results.append((code, out.chunks, err.chunks))
    wall = clock() - start
    failed, stats = 0, Counter()
    for index, (code, out, err) in enumerate(results):
        text = "".join(out)
        ok, seen = checker.check(index, code, text, "".join(err))
        failed += not ok
        stats += seen
        stats["bytes"] += len(text)
    return {"wall": wall, "latencies": latencies, "failed": failed, "stats": stats}


def layer_metrics(summary: dict, stats: Counter) -> dict[str, float]:
    """Per-layer values of one traced pass (trace.overhead_s excluded)."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    reports = stats["reports"]
    return {
        "cli.build_parser.s": get("cli.build_parser", "self_s"),
        "cli.self_s": sum(row["self_s"] for name, row in summary.items()
                          if name.startswith("cli.") and name not in _NOT_CLI_SELF),
        "cli.json_encode.s": get(tracing.JSON_ENCODE, "self_s"),
        "cli.write.s": get(tracing.WRITE, "self_s"),
        "cli.write.bytes": stats["bytes"],
        "surfacescan.scan_assignments.calls": get("surfacescan.scan_assignments", "calls"),
        "surfacescan.scan_assignments.s": get("surfacescan.scan_assignments", "self_s"),
        "surfacescan.final_filter.calls": get("surfacescan.final_filter", "calls"),
        "surfacescan.structural_ratio": stats["structural"] / stats["rows"] if stats["rows"] else 0.0,
        "surfacescan.accepted_rows": stats["accepted"],
        "repclassify.representativity_bounds.calls": get("repclassify.representativity_bounds", "calls"),
        "repclassify.representativity_bounds.s": get("repclassify.representativity_bounds", "self_s"),
        "tanglecalc.normalize_pretzel.calls": get("tanglecalc.normalize_pretzel", "calls"),
        "tanglecalc.normalize_pretzel.per_report":
            get("tanglecalc.normalize_pretzel", "calls") / reports if reports else 0.0,
        "tanglecalc.print_expr.s": get("tanglecalc.print_expr", "self_s"),
        "linktrace.knot_filter.rejects": stats["visited"] - reports if stats["visited"] else 0,
        "tanglecalc.parse_expr.calls": get("tanglecalc.parse_expr", "calls"),
        "tanglecalc.parse_expr.s": get("tanglecalc.parse_expr", "self_s"),
        "slopelemma.enumerate_solutions.s": get("slopelemma.enumerate_solutions", "self_s"),
        "slopelemma.solutions": stats["solutions"],
        "linktrace.pretzel_diagram.s": get("linktrace.pretzel_diagram", "self_s"),
        "linktrace.pretzel_diagram.crossings": get("linktrace.pretzel_diagram", "count"),
        "linktrace.component_count.s": get("linktrace.component_count", "self_s"),
    }


def setup_sample() -> float:
    """Seconds from starting an interpreter to pretzelrep.cli imported."""
    began = time.perf_counter()
    # no timeout: with one, wait() polls in steps of up to 50 ms and rounds the
    # sample up; run.py kills this process group if a run overstays
    subprocess.run([sys.executable, "-c", _SETUP_CODE], check=True)
    return time.perf_counter() - began


def import_program():
    """pretzelrep and pretzelrep.cli from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    import pretzelrep
    import pretzelrep.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pretzelrep.cli came from {cli.__file__}, not {SRC}")
    return pretzelrep, cli


def measure(workload: str, seed: int, seconds: float, trace: bool, spans: str | None = None) -> dict:
    package, cli = import_program()
    commands = workloads.build(workload, seed)
    checker = Checker(commands)
    for _ in range(3):  # warm up lazy state: argparse, regexes, imports
        cli.run(["classify", "P(-2,3,5)"], Sink(), Sink())
    # the harness's own objects (commands, expected outputs) stay out of the
    # program's garbage collections
    gc.freeze()

    tracer = tracing.Tracer() if trace else None
    plain, traced, layers, table, setup = [], [], [], {}, []
    deadline = time.perf_counter() + seconds
    while (len(plain) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
           or time.perf_counter() < deadline):
        if tracer is None or len(traced) >= len(plain):
            plain.append(run_pass(cli, commands, checker))
            if tracer is None:  # spread set-up samples over the run
                setup += [setup_sample() for _ in range(SETUP_PER_PASS)]
            continue
        patched = tracing.install(tracer, package, cli)
        try:
            result = run_pass(cli, commands, checker, tracer)
        finally:
            tracing.restore(patched)
        table = tracer.summary()
        layers.append(layer_metrics(table, result["stats"]))
        traced.append(result)
        if spans:
            tracer.dump(spans)
        tracer.reset()

    passes = plain + traced
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for message in checker.messages[:20]:
        print(f"mismatch: {message}", file=sys.stderr)

    wall = statistics.median(p["wall"] for p in plain)
    if trace:
        metrics = {name: statistics.median(pass_[name] for pass_ in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - wall
        for name, row in sorted(table.items()):
            print(f"span {name:45} calls={row['calls']:<8} self_s={row['self_s']:.6f} "
                  f"total_s={row['total_s']:.6f}")
        units = LAYER_UNITS
    else:
        latencies = [t for p in plain for t in p["latencies"]]
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "latency_p50_ms": cuts[49] * 1000,
            "latency_p99_ms": cuts[98] * 1000,
        }
        units = E2E_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "passes": len(plain),
        "traced_passes": len(traced),
        "latency_samples": sum(len(p["latencies"]) for p in plain),
        "setup_samples": len(setup),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the spans of the last traced pass to this file")
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
