"""Programmatic definitions of every paper figure/table + ablations.

Each experiment is a function returning an
:class:`~repro.core.results.ExperimentResult`; the benchmarks in
``benchmarks/`` call these and print the rendered output, and
``python -m repro <name>`` runs them from the CLI.

| id       | paper artifact                 | function                  |
|----------|--------------------------------|---------------------------|
| fig1a    | Fig. 1a CCA throughputs        | :func:`run_fig1a`         |
| fig1b    | Fig. 1b BBR RTT timeline       | :func:`run_fig1b`         |
| fig2     | Fig. 2 video latency/SSIM CDFs | :func:`run_fig2`          |
| table1   | Table 1 web PLT                | :func:`run_table1`        |
| ab-cc    | §3.2 HVC-aware CC ablation     | :func:`run_cc_ablation`   |
| ab-ack   | §3.2 transport steering        | :func:`run_ack_ablation`  |
| ab-mlo   | §2.2 MLO replication           | :func:`run_mlo_ablation`  |
| ab-cost  | §3.1 latency-vs-cost           | :func:`run_cost_ablation` |
| ab-mp    | §4 multipath subflow design    | :func:`run_multipath_ablation` |
| faults   | §3.2 outage resilience sweep   | :func:`run_faults`        |
| resilience| recovery-SLO scorecard        | :func:`run_resilience`    |
| fleet    | §4 fleet-scale multi-tenancy   | :func:`run_fleet`         |
| cc-matrix| CCA coexistence fairness matrix| :func:`run_cc_matrix`     |
| ablate   | component-importance ranking   | :func:`run_ablation_harness` |
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
