"""In-memory spans around the calls into each layer of ``mushy``.

The library is traced without editing it: inside ``with install(tracer):``
the names through which its modules call one another (``validate``,
``check_all``/``check_r*``, ``solve_increasing``, ``erf_inv``,
``build_solution`` and the case solvers) are rebound, in the namespaces of
the modules that look them up, to wrappers that record a span
``(name, layer, start_ns, end_ns, parent)``.  Leaving the block restores
the original bindings, so untraced runs execute the library unchanged.

Root solves are also counted: the wrapper around ``solve_increasing``
replaces the equation's ``f``/``df`` with counting wrappers before calling
the real solver, and files the counts under the equation family.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

import mushy.cli as cli
from mushy import inverse_convective, inverse_dirichlet, specfun

#: Layers that self time is attributed to, in report order.  ``harness`` is
#: traced wall time outside every span (the benchmark's own loop) and
#: ``startup`` the part of a CLI process before ``main`` runs.
LAYERS = ("harness", "startup", "cli", "inverse", "restrictions", "model", "rootfind", "specfun", "direct")

#: Root-finding equation families, keyed by the module that builds the
#: equation and the equation's name.
FAMILIES = {
    (inverse_convective, "xi equation (k/rho case)"): "conv_kr",
    (inverse_convective, "xi equation (c case)"): "conv_c",
    (inverse_dirichlet, "xi equation (k/rho case)"): "diri_kr",
    (inverse_dirichlet, "xi equation (c case)"): "diri_c",
    (inverse_dirichlet, "eta equation (positive-gamma bound)"): "eta_r7",
    (inverse_dirichlet, "eta equation (positive-epsilon bound)"): "eta_r8",
}
FAMILY_NAMES = ("conv_kr", "conv_c", "diri_kr", "diri_c", "eta_r7", "eta_r8")


class Span(NamedTuple):
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a top-level span


class RootSolve(NamedTuple):
    f_evals: int
    df_evals: int
    ns: int


class Tracer:
    """Collects spans and root-solve counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.root_solves: dict[str, list[RootSolve]] = defaultdict(list)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.root_solves.clear()

    def wrap(self, fn: Callable, layer: str, name: str = "", name_of: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``name_of(args)`` names the span from the call's arguments when the
        name depends on them (the case solvers are named after their case).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name if name_of is None else name_of(args), layer, start, end, parent)

        return traced

    def wrap_rootfind(self, solve: Callable, module) -> Callable:
        root_solves, clock = self.root_solves, time.perf_counter_ns

        def counted_solve(eq, *args, **kwargs):
            counts = [0, 0]
            f, df = eq.f, eq.df

            def counted_f(x):
                counts[0] += 1
                return f(x)

            def counted_df(x):
                counts[1] += 1
                return df(x)

            eq = dataclasses.replace(eq, f=counted_f, df=None if df is None else counted_df)
            family = FAMILIES.get((module, eq.name), "other")
            start = clock()
            try:
                return solve(eq, *args, **kwargs)
            finally:
                root_solves[family].append(RootSolve(counts[0], counts[1], clock() - start))

        return self.wrap(counted_solve, "rootfind", "rootfind.solve_increasing")


@contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Rebind the library's inter-layer calls to traced wrappers."""
    saved = []

    def patch(module, attr: str, layer: str, name: str = "", name_of=None) -> None:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, layer, name or f"{module.__name__.split('.')[-1]}.{attr}", name_of))

    try:
        for module in (inverse_convective, inverse_dirichlet, cli):
            patch(module, "validate", "model", "model.validate")
            patch(module, "build_solution", "direct", "direct.build_solution")
            original = module.solve_increasing
            saved.append((module, "solve_increasing", original))
            module.solve_increasing = tracer.wrap_rootfind(original, module)
        for attr in ("check_r1", "check_r2", "check_r3", "check_r4", "check_r5", "check_all"):
            patch(inverse_convective, attr, "restrictions")
        for attr in ("check_r6", "check_r7", "check_r8", "check_r9", "check_all"):
            patch(inverse_dirichlet, attr, "restrictions")
        patch(specfun, "erf_inv", "specfun", "specfun.erf_inv")
        # The CLI and limit_study reach the case solvers through these names.
        patch(inverse_convective, "solve_case", "inverse", name_of=lambda a: f"inverse_convective.{a[0].value}")
        patch(inverse_dirichlet, "solve_dirichlet_case", "inverse", name_of=lambda a: f"inverse_dirichlet.{a[0].value}")
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> tuple[dict[str, int], int]:
    """Self time per layer (span duration minus its children's) and the
    summed duration of the top-level spans, both in ns."""
    children = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end_ns - span.start_ns
    per_layer: dict[str, int] = defaultdict(int)
    top = 0
    for span, child_ns in zip(spans, children):
        duration = span.end_ns - span.start_ns
        per_layer[span.layer] += duration - child_ns
        if span.parent < 0:
            top += duration
    return per_layer, top


def durations_by_name(spans: list[Span]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(list)
    for span in spans:
        out[span.name].append(span.end_ns - span.start_ns)
    return out


@dataclass
class Alternation:
    """Totals of untraced and traced passes of the same work."""

    passes: int = 0
    plain_ns: int = 0
    traced_ns: int = 0
    self_ns: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    top_ns: int = 0
    validates: int = 0
    root_calls: int = 0

    @property
    def overhead_frac(self) -> float:
        """1 - traced rate / untraced rate."""
        return 1.0 - self.plain_ns / self.traced_ns


def alternate(plain_pass: Callable[[], int], traced_pass: Callable[[], int], tracer: Tracer,
              seconds: float) -> Alternation:
    """Run untraced and traced passes (each returning its wall ns) in turn
    for about ``seconds``, at least once each; whole passes only, so counts
    per pass repeat exactly."""
    totals = Alternation()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while totals.passes < 1 or time.perf_counter_ns() < deadline:
        totals.plain_ns += plain_pass()
        with install(tracer):
            totals.traced_ns += traced_pass()
        layers, top = self_times(tracer.spans)
        for layer, ns in layers.items():
            totals.self_ns[layer] += ns
        totals.top_ns += top
        totals.validates += sum(1 for span in tracer.spans if span.name == "model.validate")
        totals.root_calls += sum(1 for span in tracer.spans if span.layer == "rootfind")
        tracer.reset()
        totals.passes += 1
    return totals
