"""In-process recoveries: the problem pool, the closed loop and the layer probe.

Inputs come only from ``random_problem`` driven by ``random.Random(seed)``
in the library's default trusted domain (xi in [0.05, 2], coefficients in
[1e-2, 1e2]); every recovery goes through the public
``solve_convective_case`` / ``solve_dirichlet_case`` and is compared with
the manufactured truth.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from mushy import Face, UnknownCase, random_problem, solve_convective_case, solve_dirichlet_case
from mushy import inverse_convective
from mushy.direct import xexp_sq
from mushy.specfun import erf, erf_inv

import calibration
import tracing

#: The accuracy target: a recovery further than this from the truth
#: (relative) counts in ``fail_frac``.
REL_TOL = 1e-10
#: A recovery past ``REL_TOL`` is still right when its error is within
#: ``FLOOR_FACTOR * kappa * UNIT_ROUNDOFF``, the most that rounding the data
#: to doubles allows (see :func:`condition_number`); beyond that it is wrong.
#: On 2400 recoveries of the default domain error / (kappa u) stays below 1.5.
FLOOR_FACTOR = 8.0
UNIT_ROUNDOFF = 2.0**-53

FACES = (Face.CONVECTIVE, Face.DIRICHLET)
SOLVERS = {Face.CONVECTIVE: solve_convective_case, Face.DIRICHLET: solve_dirichlet_case}
MODULE_OF = {Face.CONVECTIVE: "inverse_convective", Face.DIRICHLET: "inverse_dirichlet"}
ALL_CELLS = tuple((face, case) for face in FACES for case in UnknownCase)
#: The four cells whose front position needs no root solve.
CLOSED_CELLS = (
    (Face.CONVECTIVE, UnknownCase.L),
    (Face.CONVECTIVE, UnknownCase.GAMMA),
    (Face.CONVECTIVE, UnknownCase.EPSILON),
    (Face.DIRICHLET, UnknownCase.L),
)


def draw_problems(seed: int, per_face: int) -> list[tuple]:
    """``per_face`` (convective, Dirichlet) problem pairs drawn from ``seed``."""
    return draw_pairs(random.Random(seed), per_face)


def draw_pairs(rng: random.Random, count: int) -> list[tuple]:
    return [tuple(random_problem(rng, face=face) for face in FACES) for _ in range(count)]


@dataclass(frozen=True)
class Recovery:
    face: Face
    case: UnknownCase
    args: tuple  # (case, thermal, mushy, boundary)
    truth: float


def recoveries(problems: list[tuple], cells) -> list[Recovery]:
    """Every problem with each coefficient of ``cells`` hidden in turn."""
    wanted = set(cells)
    ops = []
    for pair in problems:
        for problem in pair:
            for case in UnknownCase:
                if (problem.face, case) in wanted:
                    thermal, mushy, truth = problem.hide(case)
                    ops.append(Recovery(problem.face, case, (case, thermal, mushy, problem.boundary), truth))
    return ops


def relative_error(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


@functools.lru_cache(maxsize=None)
def condition_number(op: Recovery, delta: float = 1e-7) -> float:
    """Relative condition number sum_d |d ln(value) / d ln(d)| of a recovery
    over every datum it is given, by central differences through the same
    public solver.  Data rounded to doubles put the exact answer up to
    about ``kappa * UNIT_ROUNDOFF`` from the truth they were made from."""
    solver = SOLVERS[op.face]
    base = solver(*op.args).value
    total = 0.0
    for index in (1, 2, 3):  # thermal, mushy, boundary
        record = op.args[index]
        for name in (f.name for f in dataclasses.fields(record)):
            datum = getattr(record, name)
            if datum is None or not math.isfinite(datum):
                continue
            up, down = (
                solver(*op.args[:index], dataclasses.replace(record, **{name: datum * (1.0 + s * delta)}),
                       *op.args[index + 1:]).value
                for s in (1.0, -1.0)
            )
            total += abs((up - down) / (2.0 * delta * base))
    return total


@dataclass
class Outcome:
    """Operations attempted, wrong (``failed``) and right but past the
    accuracy target (``beyond_tol``), with the first text of each kept."""

    attempted: int = 0
    failed: int = 0
    first_error: str = ""
    beyond_tol: int = 0
    first_beyond: str = ""

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.first_error = self.first_error or other.first_error
        self.beyond_tol += other.beyond_tol
        self.first_beyond = self.first_beyond or other.first_beyond

    def fail(self, message: str) -> None:
        self.failed += 1
        self.first_error = self.first_error or message

    def judge(self, op: Recovery, value: float) -> float:
        """Check a recovered value against its truth; returns the error.
        A raise (``nan``) or an error past the data's rounding floor is a
        failure; an error past ``REL_TOL`` but within the floor is counted
        in ``beyond_tol``."""
        err = relative_error(value, op.truth)
        if err <= REL_TOL:
            return err
        where = f"{op.face.value}/{op.case.value}: recovered {value!r}, truth {op.truth!r}, relative error {err!r}"
        if not math.isfinite(err):
            self.fail(where)
            return err
        floor = FLOOR_FACTOR * condition_number(op) * UNIT_ROUNDOFF
        if err <= floor:
            self.beyond_tol += 1
            self.first_beyond = self.first_beyond or f"{where} (within the rounding floor {floor!r})"
        else:
            self.fail(f"{where} (past the rounding floor {floor!r})")
        return err


@dataclass
class Sweep:
    """One pass over a list of recoveries, with per-cell worst errors."""

    outcome: Outcome = field(default_factory=Outcome)
    worst: dict = field(default_factory=dict)  # (face, case) -> worst relative error
    elapsed_ns: int = 0


def sweep(ops: list[Recovery], solvers=SOLVERS) -> Sweep:
    """Run each recovery once and check it against its truth."""
    result = Sweep()
    outcome, worst = result.outcome, result.worst
    start = time.perf_counter_ns()
    for op in ops:
        outcome.attempted += 1
        try:
            value = solvers[op.face](*op.args).value
        except Exception:  # a raise is a failed operation; keep going
            outcome.fail(traceback.format_exc())
            continue
        err = outcome.judge(op, value)
        key = (op.face, op.case)
        if not err <= worst.get(key, 0.0):
            worst[key] = err
    result.elapsed_ns = time.perf_counter_ns() - start
    return result


@dataclass
class Timed:
    """A closed-loop run in whole passes over a fixed list of requests."""

    outcome: Outcome
    per_request: list  # per request, the figure the end-to-end metrics are taken from
    latencies: list  # every call, in run order
    elapsed_s: float
    passes: int


def closed_loop(ops: list[Recovery], seconds: float) -> Timed:
    """One caller issues recoveries back to back in passes over ``ops``
    until ``seconds`` have passed, each right after one run of the
    calibration task; both are timed on their own (ns).  A request's figure
    is the median over the passes of its time relative to the task's before
    it, in ns at the speed where the task takes ``REFERENCE_NS``."""
    clock = time.perf_counter_ns
    calls = [(SOLVERS[op.face], op.args, op.truth, op) for op in ops]
    ratios: list[list[float]] = [[] for _ in ops]
    latencies: list[int] = []
    record = latencies.append
    outcome = Outcome()
    passes = 0
    start = clock()
    deadline = start + int(seconds * 1e9)
    while passes < 1 or clock() < deadline:
        for (solver, args, truth, op), mine in zip(calls, ratios):
            t0 = clock()
            calibration.task()
            t1 = clock()
            try:
                value = solver(*args).value
            except Exception:  # a raise is a failed operation, counted below
                value = math.nan
                outcome.first_error = outcome.first_error or traceback.format_exc()
            elapsed = clock() - t1
            record(elapsed)
            mine.append(elapsed / (t1 - t0))
            if not abs(value - truth) <= REL_TOL * abs(truth):
                outcome.judge(op, value)
        passes += 1
    outcome.attempted = len(latencies)
    per_request = [statistics.median(values) * calibration.REFERENCE_NS for values in ratios]
    return Timed(outcome, per_request, latencies, (clock() - start) / 1e9, passes)


def traced_solvers(tracer: tracing.Tracer) -> dict:
    """The public solvers wrapped in one span per call, named by cell."""
    return {
        face: tracer.wrap(solver, "inverse", name_of=lambda a, m=MODULE_OF[face]: f"{m}.{a[0].value}")
        for face, solver in SOLVERS.items()
    }


def layer_probe(problems: list[tuple], tracer: tracing.Tracer, passes: int = 1) -> Sweep:
    """All twelve cells over ``problems``, traced, plus an explicit
    convective ``check_all`` per case (the convective solvers call the
    individual ``check_r*``; the CLI calls ``check_all``).  Must run inside
    ``tracing.install(tracer)``."""
    ops = recoveries(problems, ALL_CELLS)
    solvers = traced_solvers(tracer)
    total = Sweep()
    for _ in range(passes):
        result = sweep(ops, solvers)
        for op in ops:
            if op.face is Face.CONVECTIVE:
                try:
                    inverse_convective.check_all(*op.args)
                except Exception:  # a raise is a failed operation; keep going
                    result.outcome.fail(traceback.format_exc())
                result.outcome.attempted += 1
        total.outcome.add(result.outcome)
        total.worst = result.worst  # identical on every pass
        total.elapsed_ns += result.elapsed_ns
    return total


def kernel_ns(fn: Callable[[float], float], xs: list[float], seconds: float) -> float:
    """Median ns per call of ``fn`` over ``xs``, net of the bare loop."""
    clock = time.perf_counter_ns
    per_call = []
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline or len(per_call) < 5:
        t0 = clock()
        for x in xs:
            fn(x)
        t1 = clock()
        for x in xs:
            pass
        t2 = clock()
        per_call.append(((t1 - t0) - (t2 - t1)) / len(xs))
    return statistics.median(per_call)


def kernel_metrics(problems: list[tuple], seconds: float) -> dict[str, float]:
    """erf, erf_inv and x e^{x^2} on inputs taken from the workload's xi."""
    xs = [problem.xi for pair in problems for problem in pair]
    ys = [erf(x) for x in xs]
    share = seconds / 3.0
    return {
        "specfun.erf_ns": kernel_ns(erf, xs, share),
        "specfun.erf_inv_ns": kernel_ns(erf_inv, ys, share),
        "direct.xexp_sq_ns": kernel_ns(xexp_sq, xs, share),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def probe_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer figures from the spans and root solves of a layer probe."""
    by_name = tracing.durations_by_name(tracer.spans)

    def median_us(name: str) -> float:
        values = by_name.get(name)
        return statistics.median(values) / 1e3 if values else 0.0

    metrics = {
        "model.validate_us": median_us("model.validate"),
        "inverse_convective.check_all_us": median_us("inverse_convective.check_all"),
        "inverse_dirichlet.check_all_us": median_us("inverse_dirichlet.check_all"),
        "direct.build_solution_us": median_us("direct.build_solution"),
    }
    for face, case in ALL_CELLS:
        name = f"{MODULE_OF[face]}.{case.value}"
        metrics[f"{name}.us"] = median_us(name)
    for family in tracing.FAMILY_NAMES:
        solves = tracer.root_solves.get(family, [])
        metrics[f"rootfind.{family}.us"] = statistics.median(s.ns for s in solves) / 1e3 if solves else 0.0
        metrics[f"rootfind.{family}.f_evals_mean"] = _mean(s.f_evals for s in solves)
        metrics[f"rootfind.{family}.f_evals_max"] = float(max((s.f_evals for s in solves), default=0))
        metrics[f"rootfind.{family}.df_evals_mean"] = _mean(s.df_evals for s in solves)
    return metrics


def trace_phase(ops: list[Recovery], seconds: float) -> tuple[dict[str, float], Outcome]:
    """Untraced and traced passes over the workload's own recoveries:
    self time shares of the traced wall time, calls per recovery and the
    tracing overhead."""
    tracer = tracing.Tracer()
    solvers = traced_solvers(tracer)
    outcome = Outcome()

    def run(solvers_used) -> int:
        result = sweep(ops, solvers_used)
        outcome.add(result.outcome)
        return result.elapsed_ns

    totals = tracing.alternate(lambda: run(SOLVERS), lambda: run(solvers), tracer, seconds)
    self_ns = dict(totals.self_ns, harness=totals.traced_ns - totals.top_ns)
    solves = totals.passes * len(ops)
    metrics = {f"self_share.{layer}": self_ns[layer] / totals.traced_ns for layer in tracing.LAYERS}
    metrics["model.validate_calls_per_solve"] = totals.validates / solves
    metrics["rootfind.calls_per_solve"] = totals.root_calls / solves
    metrics["trace_overhead_frac"] = totals.overhead_frac
    return metrics, outcome


def accuracy_metrics(worst: dict) -> dict[str, float]:
    metrics = {
        f"accuracy.{face.value}.{case.value}.max_rel_err": worst.get((face, case), 0.0) for face, case in ALL_CELLS
    }
    metrics["accuracy.max_rel_err"] = max(metrics.values())
    return metrics
