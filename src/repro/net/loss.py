"""Stochastic loss processes applied by links.

Loss is evaluated when a packet finishes serialization, i.e. it models the
wireless air interface rather than buffer overflow (drop-tail handles that).
"""

from __future__ import annotations

import random


class LossModel:
    """Interface: decide whether a departing packet is lost.

    Every model stores ``long_run_rate``, the stationary loss probability
    steering estimators read per packet, when its parameters are set: the
    parameters are fixed at construction (a fault overlay recomputes it
    when its bursts change), so it is an attribute, not a computation.
    """

    long_run_rate: float

    def should_drop(self, rng: random.Random, now: float) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """A perfectly reliable link (e.g. URLLC's 99.999% is modelled as 0)."""

    long_run_rate = 0.0

    def should_drop(self, rng: random.Random, now: float) -> bool:
        return False

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability per packet."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"probability must be in [0, 1), got {probability}")
        self.probability = self.long_run_rate = probability

    def should_drop(self, rng: random.Random, now: float) -> bool:
        return rng.random() < self.probability

    def __repr__(self) -> str:
        return f"BernoulliLoss({self.probability})"


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (good/bad) — the classic wireless fading model.

    Parameters are per-packet transition probabilities. In the *good* state
    packets are lost with ``good_loss``; in the *bad* state with ``bad_loss``.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.2,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if p_bad_to_good == 0.0 and p_good_to_bad > 0.0:
            raise ValueError("bad state would be absorbing (p_bad_to_good=0)")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._in_bad_state = False
        denom = p_good_to_bad + p_bad_to_good
        if denom == 0:
            self.long_run_rate = good_loss
        else:
            pi_bad = p_good_to_bad / denom
            self.long_run_rate = pi_bad * bad_loss + (1 - pi_bad) * good_loss

    def should_drop(self, rng: random.Random, now: float) -> bool:
        if self._in_bad_state:
            if rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        loss = self.bad_loss if self._in_bad_state else self.good_loss
        return rng.random() < loss

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(g2b={self.p_good_to_bad}, b2g={self.p_bad_to_good}, "
            f"good={self.good_loss}, bad={self.bad_loss})"
        )
