"""Experiment harness: regenerate every figure and table in the paper.

The public surface is the declarative experiment API:

* :class:`RunPoint` / :class:`ExperimentSpec` — describe a grid of runs
  as data (``repro.experiments.spec``);
* :func:`execute_spec` — the one executor: run a spec's missed points
  (in-process, or over a process pool with ``max_workers > 1``) against
  the content-addressed :class:`ResultStore`; :class:`RunSpec` is the
  picklable unit it runs.  A grid split across hosts is just disjoint
  ``--benchmarks`` runs into one shared store directory, then a
  collector run served from it;
* :class:`ResultSet` — query the outcome (``pivot`` / ``normalized_to``
  / ``geomean`` / ``mean``);
* ``@register_experiment`` / ``@register_report`` — add a CLI command.

See ``python -m repro experiments --help`` (and ``--list`` for the
registered command catalog).
"""

from repro.experiments.parallel import RunSpec
from repro.experiments.results import ResultSet
from repro.experiments.runner import (
    ExperimentSetup,
    RunResult,
    run_matrix,
    run_one,
)
from repro.experiments.spec import (
    ExperimentSpec,
    RunPoint,
    execute_spec,
    register_experiment,
    register_report,
)
from repro.experiments.store import ResultStore

# Importing the figure/table modules populates the command registry the
# CLI (and ``--list``) is generated from; the import order below is the
# presentation order of ``python -m repro experiments all``.
from repro.experiments import fig1_runlength  # noqa: E402,F401  (fig1)
from repro.experiments import comparison  # noqa: E402,F401  (fig6/fig7/fig8/breakdown)
from repro.experiments import fig9_limitedk  # noqa: E402,F401  (fig9)
from repro.experiments import fig10_cluster  # noqa: E402,F401  (fig10)
from repro.experiments import rt_sweep  # noqa: E402,F401  (rt-sweep)
from repro.experiments import ablations  # noqa: E402,F401  (five ablations)
from repro.experiments import tables  # noqa: E402,F401  (table1/table2)
from repro.experiments import storage  # noqa: E402,F401  (storage)
from repro.experiments import summary  # noqa: E402,F401  (summary)

__all__ = [
    "ExperimentSetup",
    "ExperimentSpec",
    "ResultSet",
    "ResultStore",
    "RunPoint",
    "RunResult",
    "RunSpec",
    "execute_spec",
    "register_experiment",
    "register_report",
    "run_matrix",
    "run_one",
]
