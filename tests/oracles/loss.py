"""Every loss model's stationary rate, computed on each read.

The bodies :mod:`repro.net.loss` and
:class:`repro.faults.injector.FaultLossOverlay` had as ``long_run_rate``
properties, before each model stored the rate when its parameters were
set — the reference for the stored attribute.
"""

from __future__ import annotations

from repro.faults.injector import FaultLossOverlay
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss


def long_run_rate(model) -> float:
    """The stationary loss probability of ``model``, from its parameters."""
    if isinstance(model, NoLoss):
        return 0.0
    if isinstance(model, BernoulliLoss):
        return model.probability
    if isinstance(model, GilbertElliottLoss):
        denom = model.p_good_to_bad + model.p_bad_to_good
        if denom == 0:
            return model.good_loss
        pi_bad = model.p_good_to_bad / denom
        return pi_bad * model.bad_loss + (1 - pi_bad) * model.good_loss
    if isinstance(model, FaultLossOverlay):
        base = long_run_rate(model.base)
        survive = 1.0
        for p in model.active:
            survive *= 1.0 - p
        extra = 1.0 - survive
        return 1.0 - (1.0 - base) * (1.0 - extra)
    raise TypeError(f"no reference rate for {model!r}")
