"""Requirement-class steering: operator pins.

The empty-preferred-set guard exists because an empty pin used to fall
through ranking and silently land the class on channel 0 — the exact
URLLC-squatting misconfiguration §3.3 measures. These tests pin the
validated error (with the class name in the message) at every entry
point that accepts pins.
"""

import pytest

from repro.errors import SteeringError
from repro.steering.requirements import (
    ChannelTraits,
    RequirementPinnedSteerer,
    assignment_table,
    requirement_class,
    validate_preferred_channels,
)
from repro.units import mbps, ms

from tests.test_steering import data_pkt, embb, urllc


def traits(index=0, up=True, base_rtt=ms(50), capacity=mbps(60),
           cost=0.0, reliable=False):
    return ChannelTraits(
        index=index, up=up, base_rtt=base_rtt, capacity_bps=capacity,
        cost_per_byte=cost, reliable=reliable,
    )


class TestPreferredChannelValidation:
    def test_empty_set_is_a_config_error_naming_the_class(self):
        with pytest.raises(SteeringError, match="'background'.*empty preferred"):
            validate_preferred_channels({"background": ()})

    def test_unknown_class_rejected(self):
        with pytest.raises(SteeringError, match="unknown requirement class"):
            validate_preferred_channels({"best-effort": (0,)})

    def test_valid_pins_normalized_to_tuples(self):
        validated = validate_preferred_channels({"latency": [1, 0]})
        assert validated == {"latency": (1, 0)}

    def test_none_and_empty_mapping_mean_no_pins(self):
        assert validate_preferred_channels(None) == {}
        assert validate_preferred_channels({}) == {}

    def test_steerer_validates_eagerly(self):
        with pytest.raises(SteeringError, match="'deadline'"):
            RequirementPinnedSteerer(preferred_channels={"deadline": []})

    def test_assignment_table_rejects_empty_pin(self):
        with pytest.raises(SteeringError, match="'latency'"):
            assignment_table(
                ["latency"], channels=[], preferred={"latency": ()}
            )


class TestChoiceWithPins:
    def test_pin_restricts_choice(self):
        # Latency ranks the low-RTT channel first; pinning it to channel 0
        # overrides that preference.
        both = [
            traits(0, base_rtt=ms(50), capacity=mbps(60)),
            traits(1, base_rtt=ms(5), capacity=mbps(2)),
        ]
        rclass = requirement_class("latency")
        assert rclass.choose(both).index == 1
        assert rclass.choose(both, preferred=(0,)).index == 0

    def test_pin_to_down_channel_raises(self):
        views = [traits(0, up=False), traits(1, base_rtt=ms(5))]
        with pytest.raises(SteeringError, match="no channel is up"):
            requirement_class("latency").choose(views, preferred=(0,))

    def test_pinned_steerer_steers_to_pin(self):
        steerer = RequirementPinnedSteerer(
            flow_classes={1: "latency"},
            preferred_channels={"latency": (0,)},
        )
        assert steerer.choose(data_pkt(), [embb(), urllc()], 0.0) == (0,)
