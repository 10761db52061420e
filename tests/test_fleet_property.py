"""Property suite for the hybrid-fidelity equivalence gate.

The gate's promise is distributional: for *any* small tenant population
(the regime where full packet-level simulation is affordable), the fluid
engine's FCT distribution and per-channel utilization track the packet
engine within :class:`~repro.fleet.validation.ValidationTolerance`.
Hypothesis explores the population space — flow count, transfer-size
scale, seed, preset — instead of the handful of hand-picked cases the
unit tests cover.

The suite is derandomized and example-capped: each example runs two full
simulations, so this is a bounded sweep (deterministic in CI), not an
open-ended fuzz. Lossy presets (``mlo``'s Gilbert-Elliott channels) are
deliberately excluded — retransmission tails are outside the documented
fidelity boundary (see docs/ARCHITECTURE.md).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet import check_equivalence, run_equivalence_case
from repro.fleet.validation import ValidationTolerance

GATE_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@GATE_SETTINGS
@given(
    flows=st.integers(min_value=20, max_value=90),
    seed=st.integers(min_value=0, max_value=10_000),
    preset=st.sampled_from(["small", "paper", "wan"]),
)
def test_gate_holds_across_populations(flows, seed, preset):
    report = run_equivalence_case(
        flows=flows, duration=10.0, seed=seed, preset=preset
    )
    violations = check_equivalence(report)
    assert not violations, (
        f"equivalence gate failed for flows={flows} seed={seed} "
        f"preset={preset}: {violations} (deltas {report['deltas']})"
    )


@GATE_SETTINGS
@given(
    mean_size=st.floats(min_value=1_500.0, max_value=40_000.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gate_holds_across_transfer_scales(mean_size, seed):
    """Size scale moves flows between the 1-RTT and multi-RTT regimes."""
    report = run_equivalence_case(
        flows=50, duration=10.0, seed=seed, mean_size=mean_size
    )
    violations = check_equivalence(report)
    assert not violations, (
        f"equivalence gate failed for mean_size={mean_size:.0f} seed={seed}: "
        f"{violations} (deltas {report['deltas']})"
    )


@GATE_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_both_engines_complete_everything(seed):
    """10s is ample for 40 small flows — neither engine may strand any."""
    report = run_equivalence_case(flows=40, duration=10.0, seed=seed)
    assert report["deltas"]["completion_full"] == 1.0
    assert report["deltas"]["completion_hybrid"] == 1.0


def test_gate_detects_a_broken_model():
    """The gate must not be vacuous: absurd tolerances flag violations."""
    report = run_equivalence_case(flows=40, duration=10.0, seed=0)
    strict = ValidationTolerance(
        fct_p50_rel=0.0, fct_p90_rel=0.0, fct_abs_grace=0.0, util_abs=0.0
    )
    assert check_equivalence(report, strict), (
        "zero tolerance passed — the deltas are implausibly exactly zero"
    )


def test_gate_holds_on_python_backend():
    report = run_equivalence_case(flows=40, duration=10.0, seed=5)
    assert not check_equivalence(report)
