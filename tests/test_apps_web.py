"""Tests for the web application (pages, corpus, loader, background)."""

import pytest

from repro.apps.web.background import BackgroundFlows
from repro.apps.web.browser import load_page
from repro.apps.web.corpus import generate_corpus, generate_page
from repro.apps.web.page import WebObject, WebPage
from repro.core.api import HvcNetwork
from repro.errors import ScenarioError
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.units import mbps, ms


def tiny_page():
    return WebPage(
        name="tiny",
        objects=[
            WebObject(0, 20_000),
            WebObject(1, 30_000, depends_on=[0]),
            WebObject(2, 10_000, depends_on=[0]),
            WebObject(3, 15_000, depends_on=[1]),
        ],
    )


class TestWebPage:
    def test_valid_page(self):
        page = tiny_page()
        page.validate()
        assert page.total_bytes == 75_000
        assert page.object_count == 4

    def test_size_of(self):
        assert tiny_page().size_of(1) == 30_000
        with pytest.raises(ScenarioError):
            tiny_page().size_of(9)

    def test_validation_errors(self):
        with pytest.raises(ScenarioError):
            WebPage("empty", []).validate()
        with pytest.raises(ScenarioError):
            WebPage("root-dep", [WebObject(0, 100, depends_on=[1])]).validate()
        with pytest.raises(ScenarioError):
            WebPage(
                "forward-dep",
                [WebObject(0, 100), WebObject(1, 100, depends_on=[1])],
            ).validate()
        with pytest.raises(ScenarioError):
            WebPage("bad-size", [WebObject(0, 0)]).validate()
        with pytest.raises(ScenarioError):
            WebPage("bad-ids", [WebObject(0, 10), WebObject(5, 10)]).validate()


class TestCorpus:
    def test_corpus_size_and_validity(self):
        pages = generate_corpus(count=30, seed=1)
        assert len(pages) == 30
        for page in pages:
            page.validate()

    def test_pages_look_like_web_pages(self):
        pages = generate_corpus(count=30, seed=1)
        counts = [p.object_count for p in pages]
        sizes = [p.total_bytes for p in pages]
        assert 5 <= sum(counts) / len(counts) <= 60  # tens of objects
        assert 100_000 <= sum(sizes) / len(sizes) <= 3_000_000
        # Discovery chains exist: some object waits on an object that
        # itself waited on another (three levels).
        assert any(
            p.objects[dep].depends_on
            for p in pages
            for obj in p.objects
            for dep in obj.depends_on
        )

    def test_landing_pages_are_heavier(self):
        pages = generate_corpus(count=30, seed=1)
        landing = [p.object_count for p in pages if "landing" in p.name]
        internal = [p.object_count for p in pages if "internal" in p.name]
        assert sum(landing) / len(landing) > sum(internal) / len(internal)

    def test_deterministic(self):
        a = generate_page("p", seed=7)
        b = generate_page("p", seed=7)
        assert [o.size_bytes for o in a.objects] == [o.size_bytes for o in b.objects]

    def test_count_validation(self):
        with pytest.raises(ScenarioError):
            generate_corpus(count=0)


class TestPageLoad:
    def fast_net(self):
        return HvcNetwork(
            [fixed_embb_spec(rate_bps=mbps(60), rtt=ms(50))], steering="single"
        )

    def test_load_completes(self):
        result = load_page(self.fast_net(), tiny_page())
        assert result.complete
        assert result.plt > 0
        assert len(result.object_finish_times) == 4

    def test_dependencies_respected(self):
        result = load_page(self.fast_net(), tiny_page())
        times = result.object_finish_times
        assert times[0] < times[1]
        assert times[0] < times[2]
        assert times[1] < times[3]

    def test_plt_scales_with_rtt(self):
        slow = HvcNetwork(
            [fixed_embb_spec(rate_bps=mbps(60), rtt=ms(200))], steering="single"
        )
        fast_plt = load_page(self.fast_net(), tiny_page()).plt
        slow_plt = load_page(slow, tiny_page()).plt
        # depth-3 page: each extra discovery level costs about one RTT.
        assert slow_plt > fast_plt + 0.3

    def test_dchannel_beats_embb_only_on_chatty_page(self):
        page = generate_page("p", seed=3)
        embb_plt = load_page(
            HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="single"), page
        ).plt
        dchannel_plt = load_page(
            HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel"), page
        ).plt
        assert dchannel_plt < embb_plt

    def test_sequential_loads_on_one_network(self):
        net = self.fast_net()
        first = load_page(net, tiny_page())
        second = load_page(net, tiny_page())
        assert first.complete and second.complete
        assert second.started_at >= first.finished_at


class TestBackgroundFlows:
    def test_loops_make_progress(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        background = BackgroundFlows(net)
        net.run(until=5.0)
        assert background.stats.uploads_completed > 5
        assert background.stats.downloads_completed > 5

    def test_flows_tagged_background(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        priorities = set()
        net.server.on_receive_hooks.append(lambda p: priorities.add(p.flow_priority))
        BackgroundFlows(net)
        net.run(until=2.0)
        assert priorities == {2}

    def test_stop_halts_new_transfers(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        background = BackgroundFlows(net)
        net.run(until=2.0)
        background.stop()
        count = background.stats.uploads_completed
        net.run(until=4.0)
        assert background.stats.uploads_completed <= count + 1

    def test_background_squats_on_urllc_without_priority_filter(self):
        """The Table 1 mechanism: plain DChannel lets background use URLLC."""
        plain = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        BackgroundFlows(plain)
        plain.run(until=3.0)
        urllc_plain = (
            plain.channel_named("urllc").uplink.stats.delivered
            + plain.channel_named("urllc").downlink.stats.delivered
        )

        filtered = HvcNetwork(
            [fixed_embb_spec(), urllc_spec()], steering="dchannel+flowprio"
        )
        BackgroundFlows(filtered)
        filtered.run(until=3.0)
        urllc_filtered = (
            filtered.channel_named("urllc").uplink.stats.delivered
            + filtered.channel_named("urllc").downlink.stats.delivered
        )
        assert urllc_plain > 50
        assert urllc_filtered == 0
