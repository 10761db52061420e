"""Programmatic definitions of every paper figure/table + ablations.

Each experiment is a ``run_*`` function returning an
:class:`~repro.core.results.ExperimentResult`; :data:`EXPERIMENTS` below is
the list (``python -m repro --help`` prints the names), and
``python -m repro <name>`` runs one and prints its rendered output. A run
states the paper's shape claims it checks as ``result.shapes`` (claim ->
held), evaluated over its own ``values`` and printed as ``shape:`` lines.

What the CLI needs to know about an experiment lives on its run function:
the keyword parameters it declares say which scale flags it takes
(``duration``, ``page_count``, ``tenants``/``fleet_tenants``, ``shards``,
``trace_dir``), and an optional ``quick`` attribute — a dict of its own
keyword arguments, set right after the definition — is its ``--quick``
scale.
"""

from repro.runner.units import resolve_fn

#: CLI name → ``"module:callable"`` (the :attr:`RunUnit.fn` convention),
#: resolved on lookup so ``python -m repro <name>`` imports only the module
#: it runs: ``fleet``/``resilience`` need numpy (``repro[fleet]``), the rest
#: run without it.
EXPERIMENTS = {
    "fig1a": "repro.experiments.fig1:run_fig1a",
    "fig1b": "repro.experiments.fig1:run_fig1b",
    "fig2": "repro.experiments.fig2:run_fig2",
    "table1": "repro.experiments.table1:run_table1",
    "ab-cc": "repro.experiments.ablations:run_cc_ablation",
    "ab-ack": "repro.experiments.ablations:run_ack_ablation",
    "ab-mlo": "repro.experiments.ablations:run_mlo_ablation",
    "ab-cost": "repro.experiments.ablations:run_cost_ablation",
    "ab-mp": "repro.experiments.ablations:run_multipath_ablation",
    "ab-reseq": "repro.experiments.ablations:run_resequencer_ablation",
    "ab-tsn": "repro.experiments.ablations:run_tsn_ablation",
    "faults": "repro.experiments.faults:run_faults",
    "resilience": "repro.experiments.resilience:run_resilience",
    "fleet": "repro.experiments.fleet:run_fleet",
    "baselines": "repro.experiments.baselines:run_baselines",
    "general": "repro.experiments.baselines:run_general",
    "h1-vs-h2": "repro.experiments.baselines:run_h1_vs_h2",
    "cc-matrix": "repro.experiments.cc_matrix:run_cc_matrix",
    "ablate": "repro.experiments.ablation_harness:run_ablation_harness",
    "sweep-urllc-bw": "repro.experiments.sensitivity:run_urllc_bandwidth_sweep",
    "sweep-threshold": "repro.experiments.sensitivity:run_threshold_sweep",
    "sweep-urllc-rtt": "repro.experiments.sensitivity:run_urllc_rtt_sweep",
    "sweep-decode-wait": "repro.experiments.sensitivity:run_decode_wait_sweep",
}

#: ``run_*`` name → its path, so ``from repro.experiments import run_fig1a``
#: keeps working through :func:`__getattr__`.
_RUN_FUNCTIONS = {path.partition(":")[2]: path for path in EXPERIMENTS.values()}

__all__ = ["EXPERIMENTS", *sorted(_RUN_FUNCTIONS)]


def __getattr__(name: str):
    path = _RUN_FUNCTIONS.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return resolve_fn(path)
