#!/usr/bin/env python3
"""Layered benchmark of ``mushy``: recovery throughput in-process and CLI
latency per process, with per-layer figures from a separate traced run.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and writes scratch files only under ``.perfbench/``.

Workloads (one caller, closed loop, one process and thread; the library is
driven only through ``solve_convective_case``, ``solve_dirichlet_case``,
``random_problem``/``manufacture`` and the ``mushy`` command line):

* ``solve-mix``: 200 problems per face from ``random_problem`` in the
  default domain, every coefficient hidden in turn (12 cells), cycled;
* ``solve-closed``: the same draws, only the four cells with no root
  solve (convective l, gamma, epsilon and Dirichlet l);
* ``cli-oneshot``: one scenario pair (a convective and a Dirichlet scenario,
  both hiding k), each through ``solve``, ``check-restrictions``,
  ``verify`` and ``profile``, the Dirichlet one also through ``limit``: nine
  requests, one ``mushy`` process each.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median of
nine set-ups (drawing the inputs and one checked warm-up pass; for the CLI,
writing the scenario files, precompiling the package and one process per
subcommand).  The requests then run in whole passes for ``--seconds``.  A
request is one public solve call in-process and one process in
``cli-oneshot``.  ``latency_ms_p50``/``latency_ms_p90`` are percentiles over
the requests of each request's figure, and ``requests_per_s`` is the rate of
one pass at those figures.  All four are given at a reference machine speed,
because on a shared machine the speed changes by 1.5-2x within seconds and
whole runs can sit in a slow or a fast state.  Every timed unit is paired
with a reference unit of the same scale run right next to it, which shares
the machine's state of the moment, and a request's figure is the median over
the passes of its time relative to its reference:

* in-process, each call follows one run of a fixed ~30 us pure-Python
  calibration task (see ``calibration.py``), and figures are given where the
  task takes 30 us;
* in ``cli-oneshot``, each process is followed by a bare interpreter start,
  ``python -S -c pass``, and figures are given where that takes 10 ms.

A set-up is timed in steps of a few ms, each scaled by the reference unit
run after it.  A change to ``mushy`` moves the request and not its
reference, so it shows in full.  The unscaled figures, the raw closed-loop rate and the percentiles over
every call are printed alongside.

``--trace 1`` reports the per-layer metrics (see ``PER_LAYER``).  On every
workload it runs: untraced and traced passes of the workload's own requests,
alternating (self time shares, calls per request, tracing overhead); a
traced layer probe of all twelve cells over the workload's problems (per-cell
and per-layer µs, root-solve evaluation counts, worst error per cell); kernel
timings on the workload's xi; and CLI processes with the interpreter
baselines interleaved (``cli.*``).  So every per-layer metric is measured on
every workload; only counts and shares of work a workload does not do read 0
(``rootfind.calls_per_solve`` on ``solve-closed``, ``self_share.startup`` and
``self_share.cli`` in-process).  For ``cli-oneshot`` the self time shares
are of one process's wall time: ``startup`` is the ``import mushy.cli``
process and the rest is split as the traced in-process ``main`` splits it.

Every recovery is checked against its manufactured truth at 1e-10 relative;
every CLI output is parsed and checked.  A recovery past 1e-10 is then
judged against the floor that rounding its data to doubles sets: its
relative condition number kappa over the data it is given, times 8 unit
roundoffs (``inprocess.condition_number``).  Past the floor it is wrong and
counts in ``failed``; within it (the exact answer to the rounded data is
itself that far from the truth, as for convective epsilon near xi = 2 in
about 2 of 10,000 default-domain problems) it counts in ``beyond_tol`` and,
with every failure, in the per-layer ``fail_frac``.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any operation failed.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "mushy" / "__init__.py").is_file():
        print(f"error: no mushy package under {SRC}; run the benchmark inside a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main())
