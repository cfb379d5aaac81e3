"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

package, cli = child.import_program()

SMALL = [
    workloads.range_command(-6, 6, as_json=True),
    workloads.range_command(-7, 7, as_json=False),
    workloads.Command(("classify", "P(2,4,6)"),
                      oracles.check_classify_pretzel((2, 4, 6), "pretzel", "", "", as_json=False)),
    workloads.Command(("lemma", "--max", "60"),
                      oracles.check_lemma(oracles.lemma_solutions(60), as_json=False)),
] + workloads.build("requests", 1)[:200]


def _run(program, commands, tracer=None):
    return child.run_pass(program, commands, child.Checker(commands), tracer)


def _traced(commands):
    tracer = tracing.Tracer()
    patched = tracing.install(tracer, package, cli)
    try:
        result = _run(cli, commands, tracer)
    finally:
        tracing.restore(patched)
    return tracer, result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    def argv(seed):
        return [command.argv for command in workloads.build(name, seed)]
    assert argv(3) == argv(3)
    assert argv(3) != argv(4)


def test_small_commands_pass_their_oracles():
    result = _run(cli, SMALL)
    assert result["failed"] == 0
    assert result["stats"]["accepted"] > 0


def _flip_exact(argv, code, out):
    return code, out.replace('"exact": null', '"exact": 3', 1) if "--json" in argv else out


def _drop_row(argv, code, out):
    if argv[:2] == ("classify", "--range") and "--json" not in argv:
        lines = out.splitlines(keepends=True)
        return code, "".join(lines[:3] + lines[4:])
    return code, out


def _exit_zero(argv, code, out):
    return (0 if argv == ("classify", "P(2,4,6)") else code), out


@pytest.mark.parametrize("edit", [_flip_exact, _drop_row, _exit_zero])
def test_corrupted_output_counts_as_failed(edit):
    commands = SMALL[:4]

    def run(argv, out, err):
        code = cli.run(argv, out, err)
        code, text = edit(tuple(argv), code, "".join(out.chunks))
        out.chunks[:] = [text]
        return code

    result = _run(SimpleNamespace(run=run), commands)
    assert result["failed"] == 1
    assert len(result["latencies"]) == len(commands)


@pytest.mark.parametrize("alias", [None, "scan_rows"])
def test_traced_run_survives_a_removed_or_renamed_function(monkeypatch, alias):
    from pretzelrep import surfacescan
    original = surfacescan.scan_assignments
    names = [name for name in surfacescan.__all__ if name != "scan_assignments"]
    if alias:
        names.append(alias)
        monkeypatch.setattr(surfacescan, alias, original, raising=False)
    monkeypatch.setattr(surfacescan, "__all__", names)
    monkeypatch.delattr(surfacescan, "scan_assignments")

    tracer, result = _traced(SMALL)
    summary = tracer.summary()
    metrics = child.layer_metrics(summary, result["stats"])
    assert result["failed"] == 0
    assert metrics["surfacescan.scan_assignments.calls"] == 0
    assert "surfacescan.scan_assignments" not in summary
    if alias:
        assert summary[f"surfacescan.{alias}"]["calls"] > 0
    assert cli.scan_assignments is original  # restore undid every wrapper


def test_self_times_under_run_add_up_to_its_span():
    """Tolerance: 1 microsecond per command, float rounding only."""
    tracer, result = _traced(SMALL)
    own = tracer.self_times()
    roots: dict[int, float] = {}
    for index, span in enumerate(tracer.spans):
        root = index
        while tracer.spans[root][3] >= 0:
            root = tracer.spans[root][3]
        roots[root] = roots.get(root, 0.0) + own[index]
    assert len(roots) == len(SMALL)
    for root, total in roots.items():
        name, start, end = tracer.spans[root][:3]
        assert name == "cli.run"
        assert abs(total - (end - start)) <= 1e-6
    names = {span[0] for span in tracer.spans}
    assert {"cli.build_parser", "cli.json_encode", "cli.write",
            "surfacescan.scan_assignments", "tanglecalc.parse_expr"} <= names


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert per_layer == child.LAYER_UNITS
    assert end_to_end == child.E2E_UNITS
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) \
        == set(workloads.WORKLOADS)


def test_lemma_oracle_matches_a_direct_scan():
    direct = sorted((a, b, a * b // (b - a)) for a in range(1, 301) for b in range(a + 1, 301)
                    if a * b % (b - a) == 0 and b <= a * b // (b - a) <= 300)
    assert oracles.lemma_solutions(300) == direct


@pytest.mark.parametrize("low,high", [(-3, 3), (-25, 25), (-8, 12)])
def test_parity_count_matches_enumeration(low, high):
    assert oracles.knot_count(low, high) == len(oracles.knot_triples(low, high))


def test_benchmark_without_program_sources_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "requests",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_spans_are_written_out_one_per_line(tmp_path):
    tracer, _ = _traced(SMALL[:4])
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == len(tracer.spans)
    assert {"name", "start", "end", "parent", "request", "count"} == set(spans[0])


def test_one_run_prints_the_contract_line():
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "bigparam",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 9
    assert {name: m["unit"] for name, m in last["metrics"].items()} == child.E2E_UNITS
    assert "seed=2" in done.stdout and "failed_frac" in done.stdout
