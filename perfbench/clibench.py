"""The ``mushy`` command line, one process per request.

Scenario files are written by ``mushy manufacture --case ... --format json``
(run in-process through ``mushy.cli.main``), which records the hidden
coefficient's true value in the file's ``_truth`` block.  Each request is
spawned the way the installed ``mushy`` console script runs: a fresh
interpreter doing ``from mushy.cli import main; sys.exit(main())``, with
``src/`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import compileall
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import mushy
import mushy.cli as cli
from mushy import Face, UnknownCase

from inprocess import REL_TOL, Outcome, Timed, relative_error

SUBCOMMANDS = ("solve", "check-restrictions", "verify", "profile", "limit")
ENTRY = "import sys; from mushy.cli import main; sys.exit(main())"
#: Interpreter baselines: bare interpreter, plus ``site``, plus the CLI import.
BASELINES = (("bare", ("-S", "-c", "pass")), ("pass", ("-c", "pass")), ("import", ("-c", "import mushy.cli")))
PROCESS_TIMEOUT_S = 60.0
#: The wall time of a bare interpreter start (``BASELINES[0]``) at the
#: reference speed the ``cli-oneshot`` latencies are reported at.
REFERENCE_BARE_MS = 10.0


@dataclass(frozen=True)
class Scenario:
    path: Path
    face: Face
    case: UnknownCase
    truth: float  # as recorded by `manufacture --case`
    xi: float
    alpha: float  # k / (rho c) of the complete data


@dataclass(frozen=True)
class Request:
    subcommand: str
    scenario: Scenario

    def argv(self) -> list[str]:
        return [self.subcommand, str(self.scenario.path)]


#: Cases hidden in the scenario pairs, in turn.
CASES = (UnknownCase.K,)


def write_scenarios(problems: list[tuple], workdir: Path, cases=CASES) -> list[Scenario]:
    """One scenario file per problem; pair ``j`` hides ``cases[j mod len]``."""
    workdir.mkdir(parents=True, exist_ok=True)
    scenarios = []
    for j, pair in enumerate(problems):
        case = cases[j % len(cases)]
        for problem in pair:
            path = workdir / f"{j:03d}-{problem.face.value}-{case.value}.json"
            t, m, b = problem.thermal, problem.mushy, problem.boundary
            argv = ["manufacture", "--problem", problem.face.value, "--xi", repr(problem.xi)]
            for flag, value in (("--k", t.k), ("--rho", t.rho), ("--c", t.c), ("--epsilon", m.epsilon),
                                ("--gamma", m.gamma), ("--q0", b.q0)):
                argv += [flag, repr(value)]
            if problem.face is Face.CONVECTIVE:
                argv += ["--h0", repr(b.h0)]
            argv += ["--case", case.value, "--format", "json", "--out", str(path)]
            if cli.main(argv) != 0:
                raise RuntimeError(f"mushy manufacture failed for {path}")
            truth = json.loads(path.read_text())["_truth"][case.value]
            scenarios.append(Scenario(path, problem.face, case, truth, problem.xi, t.alpha))
    return scenarios


def requests(scenarios: list[Scenario]) -> list[Request]:
    """Every scenario through solve, check-restrictions, verify and profile;
    the Dirichlet ones also through limit (it needs a Dirichlet scenario)."""
    out = []
    for scenario in scenarios:
        out += [Request(sub, scenario) for sub in SUBCOMMANDS if sub != "limit"]
        if scenario.face is Face.DIRICHLET:
            out.append(Request("limit", scenario))
    return out


def precompile(src: Path) -> None:
    """Write the package's .pyc files, as an installed package has them."""
    if not compileall.compile_dir(str(src / "mushy"), force=True, quiet=1):
        raise RuntimeError("compiling the mushy package failed")


def record(outcome: Outcome, request: Request, code: int, stdout: str) -> None:
    """Count one request as attempted, and as failed unless its output checks."""
    outcome.attempted += 1
    problem = check_output(request, code, stdout)
    if problem:
        outcome.fail(problem)


def check_output(request: Request, code: int, stdout: str) -> str:
    """Empty when the output is as expected, else what was wrong."""
    scenario, sub = request.scenario, request.subcommand
    if code != 0:
        return f"{sub} {scenario.path.name}: exit code {code}"
    try:
        if sub == "profile":
            lines = stdout.splitlines()
            t, s, _ = (float(tok) for tok in lines[lines.index("t,s,r") + 1].split(","))
            value, truth = s, 2.0 * scenario.xi * (scenario.alpha * t) ** 0.5
        else:
            doc = json.loads(stdout)
            if sub == "check-restrictions":
                return "" if doc["all_satisfied"] is True else f"{sub} {scenario.path.name}: not all satisfied"
            if sub == "verify":
                return "" if doc["passed"] is True else f"{sub} {scenario.path.name}: failed {doc['failures']}"
            value = doc["value"] if sub == "solve" else doc["coefficient_dirichlet"]
            truth = scenario.truth
    except (ValueError, KeyError, IndexError) as err:
        return f"{sub} {scenario.path.name}: unreadable output ({err!r})"
    err = relative_error(value, truth)
    return "" if err <= REL_TOL else f"{sub} {scenario.path.name}: {value!r} is {err!r} from {truth!r}"


class Spawner:
    """Starts one interpreter per request and waits for it to exit."""

    def __init__(self, src: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, args) -> tuple[float, int, str]:
        """Wall ms from spawn to exit, exit code and stdout."""
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run([sys.executable, *args], env=self.env, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return (time.perf_counter_ns() - start) / 1e6, -1, ""
        return (time.perf_counter_ns() - start) / 1e6, proc.returncode, proc.stdout

    def request(self, request: Request, outcome: Outcome) -> float:
        ms, code, stdout = self.run(["-c", ENTRY, *request.argv()])
        record(outcome, request, code, stdout)
        return ms

    def baseline(self, args, outcome: Outcome) -> float:
        """Wall ms of one interpreter baseline, which must exit 0."""
        ms, code, _ = self.run(args)
        outcome.attempted += 1
        if code != 0:
            outcome.fail(f"baseline {' '.join(args)}: exit code {code}")
        return ms


def closed_loop(spawner: Spawner, reqs: list[Request], seconds: float) -> tuple[Timed, list[float]]:
    """Requests issued one after another in passes over ``reqs`` until
    ``seconds`` have passed, each followed by a bare interpreter start.
    A request's figure is the median over the passes of its wall time
    relative to the bare start after it, in ms at the speed where a bare
    start takes ``REFERENCE_BARE_MS``: process start-up on a shared machine
    drifts by tens of percent within minutes, and the two processes of a
    pair drift together.  Also returns the bare starts' wall ms."""
    outcome = Outcome()
    ratios: list[list[float]] = [[] for _ in reqs]
    latencies, bare = [], []
    passes = 0
    start = time.perf_counter()
    while passes < 1 or time.perf_counter() < start + seconds:
        for i, request in enumerate(reqs):
            ms = spawner.request(request, outcome)
            bare_ms = spawner.baseline(BASELINES[0][1], outcome)
            latencies.append(ms)
            bare.append(bare_ms)
            ratios[i].append(ms / bare_ms)
        passes += 1
    per_request = [statistics.median(values) * REFERENCE_BARE_MS for values in ratios]
    return Timed(outcome, per_request, latencies, time.perf_counter() - start, passes), bare


@dataclass
class Interleaved:
    """Process wall ms per subcommand and per baseline, with the paired
    differences taken inside each group of consecutive processes."""

    by_sub: dict
    interp: list
    site: list  # (-c pass) - (-S -c pass)
    imports: list  # (import mushy.cli) - (-c pass)
    import_wall: list  # the whole `import mushy.cli` process
    outcome: Outcome


def interleaved(spawner: Spawner, reqs: list[Request], seconds: float, min_groups: int = 1) -> Interleaved:
    """Each request is preceded by the three baselines, so that load drift
    on a shared machine hits both sides of every subtraction alike."""
    result = Interleaved({sub: [] for sub in SUBCOMMANDS}, [], [], [], [], Outcome())
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_groups or time.perf_counter() < deadline:
        walls = {name: spawner.baseline(args, result.outcome) for name, args in BASELINES}
        request = reqs[i % len(reqs)]
        result.by_sub[request.subcommand].append(spawner.request(request, result.outcome))
        result.interp.append(walls["bare"])
        result.site.append(walls["pass"] - walls["bare"])
        result.imports.append(walls["import"] - walls["pass"])
        result.import_wall.append(walls["import"])
        i += 1
    return result


def main_in_process(request: Request, main=cli.main) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(request.argv())
    return code, out.getvalue()


def main_pass(reqs: list[Request], outcome: Outcome, main=cli.main) -> int:
    """Each request once through ``main`` (``mushy.cli.main`` or a traced
    wrapper of it); returns wall ns."""
    start = time.perf_counter_ns()
    for request in reqs:
        record(outcome, request, *main_in_process(request, main))
    return time.perf_counter_ns() - start


def main_us(reqs: list[Request], seconds: float, outcome: Outcome) -> dict[str, float]:
    """Median µs of ``mushy.cli.main(argv)`` per subcommand, after one
    warm-up pass."""
    main_pass(reqs, outcome)
    samples = {sub: [] for sub in SUBCOMMANDS}
    deadline = time.perf_counter() + seconds
    while not samples["limit"] or time.perf_counter() < deadline:
        for request in reqs:
            start = time.perf_counter_ns()
            code, stdout = main_in_process(request)
            samples[request.subcommand].append((time.perf_counter_ns() - start) / 1e3)
            record(outcome, request, code, stdout)
    return {f"cli.{sub}.main_us": statistics.median(values) for sub, values in samples.items()}


def process_metrics(result: Interleaved) -> dict[str, float]:
    metrics = {
        "cli.interp_ms": statistics.median(result.interp),
        "cli.site_ms": statistics.median(result.site),
        "cli.import_ms": statistics.median(result.imports),
    }
    for sub, values in result.by_sub.items():
        metrics[f"cli.{sub}.ms"] = statistics.median(values) if values else 0.0
    return metrics


def package_origin(src: Path) -> str:
    """'src' when the imported package is the checkout's source tree."""
    here = Path(mushy.__file__).resolve()
    return "src" if src.resolve() in here.parents else f"installed ({here.parent})"
