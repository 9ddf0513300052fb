"""Workload runs, metric tables and the report; ``run.py`` is the entry point."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import mushy.cli as cli

import calibration
import clibench
import inprocess as ip
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("solve-mix", "solve-closed", "cli-oneshot")
PER_FACE = 200  # in-process problems per face
CLI_PAIRS = 1  # cli-oneshot scenario pairs
SETUPS = 9
SETUP_STEP = 100  # problem pairs drawn, or recoveries warmed up, per set-up step

END_TO_END = {"setup_s": "s", "requests_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms"}


def _per_layer_units() -> dict[str, str]:
    units = {"specfun.erf_ns": "ns", "specfun.erf_inv_ns": "ns", "direct.xexp_sq_ns": "ns",
             "model.validate_us": "us", "model.validate_calls_per_solve": "count",
             "rootfind.calls_per_solve": "count"}
    for family in tracing.FAMILY_NAMES:
        units.update({f"rootfind.{family}.us": "us", f"rootfind.{family}.f_evals_mean": "count",
                      f"rootfind.{family}.f_evals_max": "count", f"rootfind.{family}.df_evals_mean": "count"})
    units.update({f"{ip.MODULE_OF[face]}.{case.value}.us": "us" for face, case in ip.ALL_CELLS})
    units.update({"inverse_convective.check_all_us": "us", "inverse_dirichlet.check_all_us": "us",
                  "direct.build_solution_us": "us",
                  "cli.interp_ms": "ms", "cli.site_ms": "ms", "cli.import_ms": "ms"})
    units.update({f"cli.{sub}.ms": "ms" for sub in clibench.SUBCOMMANDS})
    units.update({f"cli.{sub}.main_us": "us" for sub in clibench.SUBCOMMANDS})
    units.update({f"self_share.{layer}": "frac" for layer in tracing.LAYERS})
    units["trace_overhead_frac"] = "frac"
    units["accuracy.max_rel_err"] = "rel"
    units.update({f"accuracy.{face.value}.{case.value}.max_rel_err": "rel" for face, case in ip.ALL_CELLS})
    units["fail_frac"] = "frac"
    return units


PER_LAYER = _per_layer_units()


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(setup_s: float, latency_ms: list[float]) -> dict[str, float]:
    """Latency percentiles over the requests of each request's figure, and
    the rate of a pass at those figures."""
    ms = sorted(latency_ms)
    return {
        "setup_s": setup_s,
        "requests_per_s": len(ms) / (sum(ms) / 1e3),
        "latency_ms_p50": percentile(ms, 50),
        "latency_ms_p90": percentile(ms, 90),
    }


def unscaled(metrics: dict[str, float]) -> dict[str, float]:
    return {f"unscaled.{name}": value for name, value in metrics.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(spawner) -> dict:
    """What is needed to read the timings on another machine."""
    site = []
    for _ in range(3):
        bare, _, _ = spawner.run(("-S", "-c", "pass"))
        full, _, _ = spawner.run(("-c", "pass"))
        site.append(full - bare)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.replace("\n", " "),
        "python_build": " ".join(platform.python_build()),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "package": clibench.package_origin(SRC),
        "site_ms": statistics.median(site),
        "loadavg": os.getloadavg() if hasattr(os, "getloadavg") else None,
    }


def paired_seconds(steps, measure, reference: float) -> tuple[float, float, object]:
    """Run the generator ``steps`` to its end, calling ``measure`` after
    every step.  Returns the seconds it took at the reference speed (each
    step's wall time times ``reference`` over the ``measure`` after it), the
    seconds as measured, and the generator's return value.  The steps are a
    few ms long, because the machine's speed changes faster than a whole
    set-up lasts."""
    scaled = raw = 0.0
    while True:
        start = time.perf_counter()
        try:
            next(steps)
        except StopIteration as stop:
            return scaled, raw, stop.value
        wall = time.perf_counter() - start
        raw += wall
        scaled += wall * reference / measure()


def timed_setups(make_steps, measure, reference: float) -> tuple[float, float, object]:
    """``paired_seconds`` of SETUPS set-ups: the medians of the scaled and of
    the measured seconds, and the last set-up's result."""
    runs = [paired_seconds(make_steps(), measure, reference) for _ in range(SETUPS)]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs), runs[-1][2]


def finish(steps):
    """Run the generator ``steps`` to its end; its return value."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def cli_probe(problems, seconds: float, spawner, outcome) -> dict:
    """``cli.*`` on an in-process workload: one scenario pair through
    every subcommand, baselines interleaved."""
    scenarios = clibench.write_scenarios(problems[:1], WORKDIR / "cli-probe")
    clibench.precompile(SRC)
    reqs = clibench.requests(scenarios)
    result = clibench.interleaved(spawner, reqs, 0.0, min_groups=len(reqs))
    outcome.add(result.outcome)
    metrics = clibench.process_metrics(result)
    metrics.update(clibench.main_us(reqs, seconds, outcome))
    return metrics


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool):
    cells = ip.ALL_CELLS if workload == "solve-mix" else ip.CLOSED_CELLS
    outcome = ip.Outcome()

    def setup():
        """Draw the problems and warm up on every recovery, in steps."""
        rng = random.Random(seed)
        problems = []
        while len(problems) < PER_FACE:
            problems += ip.draw_pairs(rng, min(SETUP_STEP, PER_FACE - len(problems)))
            yield
        ops = ip.recoveries(problems, cells)
        worst = 0.0
        for start in range(0, len(ops), SETUP_STEP):
            warm = ip.sweep(ops[start:start + SETUP_STEP])
            outcome.add(warm.outcome)
            worst = max([worst, *warm.worst.values()])
            yield
        return problems, ops, worst

    spawner = clibench.Spawner(SRC)
    extra: dict = {}
    if not trace:
        # set-up steps, like requests, are scaled by the calibration task
        setup_s, raw_setup_s, (problems, ops, worst) = timed_setups(
            setup, lambda: calibration.task_ns(5), calibration.REFERENCE_NS)
        timed = ip.closed_loop(ops, seconds)
        outcome.add(timed.outcome)
        metrics = end_to_end(setup_s, [ns / 1e6 for ns in timed.per_request])
        n = len(ops)
        raw_ms = [statistics.median(timed.latencies[i::n]) / 1e6 for i in range(n)]
        lat = sorted(timed.latencies)
        extra = {
            **unscaled(end_to_end(raw_setup_s, raw_ms)),
            "task_ns_p50": calibration.task_ns(101),
            "recoveries_per_s": len(lat) / timed.elapsed_s,
            "solve_us_p50": percentile(lat, 50) / 1e3,
            "solve_us_p99": percentile(lat, 99) / 1e3,
            "solve_samples": len(lat),
            "passes": timed.passes,
            "problems_per_face": PER_FACE,
            "max_rel_err": worst,
        }
    else:
        problems, ops, _ = finish(setup())
        metrics, phase = ip.trace_phase(ops, 0.45 * seconds)
        outcome.add(phase)
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            probe = ip.layer_probe(problems, tracer)
        outcome.add(probe.outcome)
        metrics.update(ip.probe_metrics(tracer))
        metrics.update(ip.accuracy_metrics(probe.worst))
        metrics.update(ip.kernel_metrics(problems, 0.1 * seconds))
        metrics.update(cli_probe(problems, 0.05 * seconds, spawner, outcome))
    return metrics, outcome, extra, spawner


def run_cli(seed: int, seconds: float, trace: bool):
    outcome = ip.Outcome()
    spawner = clibench.Spawner(SRC)

    def setup():
        """Write the scenarios, precompile and start each subcommand once, in steps."""
        problems = ip.draw_problems(seed, CLI_PAIRS)
        scenarios = clibench.write_scenarios(problems, WORKDIR / "cli-oneshot")
        yield
        clibench.precompile(SRC)
        yield
        reqs = clibench.requests(scenarios)
        for sub in clibench.SUBCOMMANDS:
            spawner.request(next(r for r in reqs if r.subcommand == sub), outcome)
            yield
        return problems, reqs

    extra: dict = {}
    if not trace:
        # set-up steps, like requests, are scaled by the bare start after each
        bare_args = clibench.BASELINES[0][1]
        setup_s, raw_setup_s, (problems, reqs) = timed_setups(
            setup, lambda: spawner.baseline(bare_args, outcome), clibench.REFERENCE_BARE_MS)
        timed, loop_bare = clibench.closed_loop(spawner, reqs, seconds)
        outcome.add(timed.outcome)
        metrics = end_to_end(setup_s, timed.per_request)
        n = len(reqs)
        raw_ms = [statistics.median(timed.latencies[i::n]) for i in range(n)]
        lat = sorted(timed.latencies)
        extra = {**unscaled(end_to_end(raw_setup_s, raw_ms)),
                 "bare_ms_p50": statistics.median(loop_bare),
                 "cli_ms_p50": percentile(lat, 50), "cli_ms_p90": percentile(lat, 90), "cli_samples": len(lat),
                 "passes": timed.passes, "scenario_pairs": CLI_PAIRS}
        return metrics, outcome, extra, spawner

    problems, reqs = finish(setup())
    result = clibench.interleaved(spawner, reqs, 0.55 * seconds, min_groups=len(clibench.SUBCOMMANDS) * 2)
    outcome.add(result.outcome)
    metrics = clibench.process_metrics(result)
    metrics.update(clibench.main_us(reqs, 0.1 * seconds, outcome))
    metrics.update(_cli_trace_phase(reqs, 0.15 * seconds, result, outcome))
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        probe = ip.layer_probe(problems, tracer, passes=10)
    outcome.add(probe.outcome)
    metrics.update(ip.probe_metrics(tracer))
    metrics.update(ip.accuracy_metrics(probe.worst))
    metrics.update(ip.kernel_metrics(problems, 0.05 * seconds))
    return metrics, outcome, extra, spawner


def _cli_trace_phase(reqs, seconds, processes, outcome) -> dict:
    """Untraced and traced passes of ``mushy.cli.main`` over the requests;
    self time shares are scaled into one process's wall time."""
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(cli.main, "cli", "cli.main")
    totals = tracing.alternate(lambda: clibench.main_pass(reqs, outcome),
                               lambda: clibench.main_pass(reqs, outcome, traced_main), tracer, seconds)
    walls = [ms for values in processes.by_sub.values() for ms in values]
    startup = min(1.0, statistics.fmean(processes.import_wall) / statistics.fmean(walls))
    in_main = sum(totals.self_ns.values())
    metrics = {f"self_share.{layer}": (1.0 - startup) * ns / in_main for layer, ns in totals.self_ns.items()}
    metrics["self_share.startup"] = startup
    metrics["self_share.harness"] = 0.0
    solves = totals.passes * len(reqs)
    metrics["model.validate_calls_per_solve"] = totals.validates / solves
    metrics["rootfind.calls_per_solve"] = totals.root_calls / solves
    metrics["trace_overhead_frac"] = totals.overhead_frac
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload; returns the metric dict for the last line and a report."""
    if workload == "cli-oneshot":
        metrics, outcome, extra, spawner = run_cli(seed, seconds, trace)
    else:
        metrics, outcome, extra, spawner = run_inprocess(workload, seed, seconds, trace)

    fail_frac = (outcome.failed + outcome.beyond_tol) / outcome.attempted
    if trace:
        metrics["fail_frac"] = fail_frac
    else:
        extra["fail_frac"] = fail_frac
    units = PER_LAYER if trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": outcome.failed == 0, "attempted": outcome.attempted, "failed": outcome.failed,
        "first_failure": outcome.first_error, "beyond_tol": outcome.beyond_tol,
        "first_beyond_tol": outcome.first_beyond, "metrics": {k: metrics[k] for k in units}, "extra": extra,
        "machine": machine_facts(spawner),
    }
    return report, units


def print_report(report: dict, units: dict) -> None:
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}")
    for name, value in report["metrics"].items():
        print(f"  {name:<44} {value!r:>26} {units[name]}")
    for name, value in report["extra"].items():
        print(f"  {name:<44} {value!r:>26}")
    print(f"  attempted={report['attempted']} failed={report['failed']} beyond_tol={report['beyond_tol']}")
    if report["first_failure"]:
        print(f"  first failure: {report['first_failure'].strip()}")
    if report["first_beyond_tol"]:
        print(f"  first past 1e-10: {report['first_beyond_tol']}")
    for name, value in report["machine"].items():
        print(f"  machine.{name}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of mushy; see perfbench/run.py.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        report, units = run(args.workload, args.seed, args.seconds, bool(args.trace))
        reports = [report]
        metrics = {name: {"value": value, "unit": units[name]} for name, value in report["metrics"].items()}
    else:
        reports, metrics = [], {}
        for workload in WORKLOADS:
            for trace in (False, True):
                report, units = run(workload, args.seed, args.seconds, trace)
                reports.append(report)
                metrics.update({f"{workload}/{name}": {"value": value, "unit": units[name]}
                                for name, value in report["metrics"].items()})
    WORKDIR.mkdir(exist_ok=True)
    for report in reports:
        print_report(report, PER_LAYER if report["trace"] else END_TO_END)
        path = WORKDIR / f"report-{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
    correct = all(report["correct"] for report in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1
