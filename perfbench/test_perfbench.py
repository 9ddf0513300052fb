"""Contracts of the benchmark's workloads.  Run with
``python -m pytest perfbench`` from the repository root."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import clibench  # noqa: E402
import inprocess as ip  # noqa: E402
import bench  # noqa: E402
import tracing  # noqa: E402
from mushy import Face, inverse_convective, inverse_dirichlet  # noqa: E402

PER_FACE = 24


def _traced_pass(ops):
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        result = ip.sweep(ops, ip.traced_solvers(tracer))
    return tracer, result


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_solve_closed_makes_no_root_solves():
    ops = ip.recoveries(ip.draw_problems(3, PER_FACE), ip.CLOSED_CELLS)
    tracer, result = _traced_pass(ops)
    assert result.outcome.failed == 0
    assert not [span for span in tracer.spans if span.layer == "rootfind"]
    metrics, _ = ip.trace_phase(ops, 0.0)
    assert metrics["rootfind.calls_per_solve"] == 0.0
    # convective cells validate once, the Dirichlet l cell twice
    assert metrics["model.validate_calls_per_solve"] == 5 / 4


def test_solve_mix_reaches_all_six_root_families():
    ops = ip.recoveries(ip.draw_problems(3, PER_FACE), ip.ALL_CELLS)
    tracer, result = _traced_pass(ops)
    assert result.outcome.failed == 0
    assert set(tracing.FAMILY_NAMES) <= set(tracer.root_solves)
    assert all(s.f_evals > 0 for family in ("conv_kr", "conv_c", "diri_kr", "diri_c")
               for s in tracer.root_solves[family])


def _count_metrics(seed):
    problems = ip.draw_problems(seed, PER_FACE)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        probe = ip.layer_probe(problems, tracer)
    metrics = {k: v for k, v in ip.probe_metrics(tracer).items() if "_evals_" in k}
    metrics.update(ip.accuracy_metrics(probe.worst))
    phase, _ = ip.trace_phase(ip.recoveries(problems, ip.ALL_CELLS), 0.0)
    metrics.update({k: v for k, v in phase.items() if k.endswith("calls_per_solve")})
    return problems, metrics


def test_same_seed_same_inputs_and_counts():
    problems_a, counts_a = _count_metrics(5)
    problems_b, counts_b = _count_metrics(5)
    assert problems_a == problems_b
    assert counts_a == counts_b
    assert counts_a["rootfind.calls_per_solve"] == 9 / 12


def test_different_seed_different_inputs():
    assert ip.draw_problems(5, PER_FACE) != ip.draw_problems(6, PER_FACE)


def test_tracing_restores_the_library():
    before = (inverse_convective.validate, inverse_convective.solve_case, inverse_dirichlet.check_all)
    with tracing.install(tracing.Tracer()):
        assert inverse_convective.validate is not before[0]
    assert (inverse_convective.validate, inverse_convective.solve_case, inverse_dirichlet.check_all) == before


def test_self_time_excludes_children():
    spans = [tracing.Span("a", "inverse", 0, 100, -1), tracing.Span("b", "model", 10, 40, 0),
             tracing.Span("c", "rootfind", 50, 90, 0), tracing.Span("d", "specfun", 60, 70, 2)]
    layers, top = tracing.self_times(spans)
    assert dict(layers) == {"inverse": 30, "model": 30, "rootfind": 30, "specfun": 10}
    assert top == 100


def test_wrong_recovery_counts_as_failed():
    ops = ip.recoveries(ip.draw_problems(3, 2), ip.CLOSED_CELLS)
    ops[1] = dataclasses.replace(ops[1], truth=ops[1].truth * (1.0 + 1e-9))
    result = ip.sweep(ops)
    assert (result.outcome.attempted, result.outcome.failed) == (len(ops), 1)


def test_miss_within_the_rounding_floor_is_counted_not_failed():
    # seed 15 holds one convective epsilon recovery at xi ~ 1.79 whose data,
    # rounded to doubles, put even the exact answer 1.07e-10 from the truth
    ops = ip.recoveries(ip.draw_problems(15, 500), [(Face.CONVECTIVE, ip.UnknownCase.EPSILON)])
    result = ip.sweep(ops)
    assert (result.outcome.failed, result.outcome.beyond_tol) == (0, 1)
    assert ip.REL_TOL < max(result.worst.values()) < 2 * ip.REL_TOL


def test_cli_outputs_are_checked(tmp_path):
    scenarios = clibench.write_scenarios(ip.draw_problems(3, 1), tmp_path)
    reqs = clibench.requests(scenarios)
    assert sorted({r.subcommand for r in reqs}) == sorted(clibench.SUBCOMMANDS)
    outcome = ip.Outcome()
    clibench.main_pass(reqs, outcome)
    assert (outcome.attempted, outcome.failed) == (len(reqs), 0), outcome.first_error
    solve = next(r for r in reqs if r.subcommand == "solve" and r.scenario.face is Face.DIRICHLET)
    code, stdout = clibench.main_in_process(solve)
    doc = json.loads(stdout)
    doc["value"] *= 1.0 + 1e-9
    assert clibench.check_output(solve, code, json.dumps(doc))
    assert clibench.check_output(solve, 2, stdout)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
