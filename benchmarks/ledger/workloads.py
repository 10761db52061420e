"""The seven ledger workloads.

A workload turns ``(seed, size)`` into inputs once (:meth:`prepare`), then
runs any number of identical passes. A pass is a list of *units*, one
simulation (or one CLI invocation) each; a unit is the operation
``fail_frac`` counts. Every unit wraps its three stages in the spans
``pass.build`` / ``pass.run`` / ``pass.reduce``, returns its simulated
outputs (hashed into ``sim_digest``) and the simulated seconds it covered,
and adds what the public stats objects say to ``counts``.

Everything goes through public entry points of ``repro``; nothing under
``src/`` knows this file exists.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import spec

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space (CLI cache dirs, spans files); inside the checkout, ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"

Unit = Callable[[Callable, Dict[str, float]], Tuple[Dict, float]]

_RUNNER_LINE = re.compile(
    r"^\[runner\] jobs=(\d+) units=(\d+) cache_hits=(\d+) executed=(\d+) ", re.MULTILINE
)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` importable, nothing else changed."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def tally_network(counts: Dict[str, float], net) -> None:
    """Add one finished network's public drop/retransmit counters to ``counts``."""
    counts["sim.events"] += net.sim.events_processed
    for channel in net.channels:
        for link in (channel.uplink, channel.downlink):
            counts["net.link.delivered"] += link.stats.delivered
            counts["net.link.lost"] += link.stats.lost
            counts["net.link.overflow_drops"] += link.stats.overflow_drops
        counts["_client_bytes"] += channel.uplink.stats.bytes_delivered
    lowlat = min(net.channels, key=lambda channel: channel.base_rtt())
    counts["_lowlat_bytes"] += lowlat.uplink.stats.bytes_delivered
    for device in (net.client, net.server):
        counts["net.node.send_drops"] += device.stats.send_drops
        counts["net.node.dup_discarded"] += device.stats.duplicates_discarded
        if device.resequencer is not None:
            counts["net.resequencer.held"] += device.resequencer.packets_held
            counts["net.resequencer.timeout_flushes"] += device.resequencer.timeout_flushes
    for pair in net.connections:
        for conn in (pair.client, pair.server):
            counts["transport.connection.segments_sent"] += conn.stats.segments_sent
            counts["_retx"] += conn.stats.retransmissions
            counts["transport.connection.timeouts"] += conn.stats.timeouts


class Workload:
    """Base: subclasses set ``name``/``modules`` and implement the four hooks."""

    name = ""
    #: ``repro`` modules the workload needs; importing them is ``setup.import``.
    modules: Tuple[str, ...] = ()
    #: CLI workloads do their work in child processes (RSS is read from
    #: ``RUSAGE_CHILDREN``; the traced pass calls ``repro.cli.main`` in-process).
    cli = False

    def __init__(self, seed: int, size: Dict) -> None:
        self.seed = seed
        self.size = size
        #: Set for the traced pass; only the CLI workloads act on it.
        self.in_process = False

    def load(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def prepare(self) -> None:
        """Generate the inputs (``setup.inputs``)."""

    def units(self) -> List[Tuple[str, Unit]]:
        raise NotImplementedError

    def check(self, outputs: Dict[str, Dict]) -> List[str]:
        """Golden-shape failures of one pass (empty when it is healthy)."""
        raise NotImplementedError

    def extra_layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics only this workload can measure."""
        return {}

    def not_measured(self) -> Tuple[str, ...]:
        """Per-layer metrics this workload cannot observe (reported as 0)."""
        return spec.RUNNER_METRICS

    def close(self) -> None:
        """Release what :meth:`prepare` opened."""


# ----------------------------------------------------------------------
# Packet-level workloads
# ----------------------------------------------------------------------
class BulkSteered(Workload):
    name = "bulk-steered"
    modules = ("repro.apps.bulk", "repro.core.api", "repro.net.hvc", "repro.units")
    CCAS = ("cubic", "bbr", "vegas", "vivace")

    def units(self):
        return [(cc, self._unit(cc)) for cc in self.CCAS]

    def _unit(self, cc: str) -> Unit:
        def run(span, counts):
            from repro.apps.bulk import BulkTransfer
            from repro.core.api import HvcNetwork
            from repro.net.hvc import fixed_embb_spec, urllc_spec
            from repro.units import to_mbps

            duration = self.size["duration"]
            with span("pass.build"):
                net = HvcNetwork(
                    [fixed_embb_spec(), urllc_spec()], steering="dchannel", seed=self.seed
                )
                bulk = BulkTransfer(net, cc=cc)
            with span("pass.run"):
                net.run(until=duration)
            with span("pass.reduce"):
                outputs = {
                    "mbps": to_mbps(bulk.mean_throughput_bps(start=0.0, end=duration)),
                    "rtts": [record.rtt for record in bulk.rtt_records()],
                    "events": net.sim.events_processed,
                }
                tally_network(counts, net)
            return outputs, duration

        return run

    def check(self, outputs):
        mbps = [outputs[cc]["mbps"] for cc in self.CCAS if cc in outputs]
        if len(mbps) == len(self.CCAS) and all(a > b for a, b in zip(mbps, mbps[1:])):
            return []
        return [f"expected cubic > bbr > vegas > vivace goodput, got {mbps}"]


class CcCoexistWan(Workload):
    name = "cc-coexist-wan"
    modules = ("repro.apps.bulk", "repro.core.api", "repro.net.hvc", "repro.units")
    PAIR = ("bbr", "bbr2+")

    def units(self):
        # The LEO path drops 1% of packets at random, and which ones go in
        # slow start moves a 0.6 s run's work by 5% from seed to seed; two
        # independent draws per pass halve that.
        return [
            (f"pair-{draw}", self._unit(self.size["draws"] * self.seed + draw))
            for draw in range(self.size["draws"])
        ]

    def _unit(self, net_seed: int) -> Unit:
        def run(span, counts):
            from repro.apps.bulk import BulkTransfer
            from repro.core.api import HvcNetwork
            from repro.net.hvc import fiber_wan_spec, leo_spec
            from repro.units import to_mbps

            duration = self.size["duration"]
            with span("pass.build"):
                net = HvcNetwork(
                    [fiber_wan_spec(), leo_spec()], steering="min-rtt", seed=net_seed
                )
                flows = [BulkTransfer(net, cc=cc) for cc in self.PAIR]
            with span("pass.run"):
                net.run(until=duration)
            with span("pass.reduce"):
                # Same steady window as the cc-matrix cells: skip the first quarter.
                start = duration * 0.25
                outputs = {
                    "mbps": [to_mbps(flow.mean_throughput_bps(start=start)) for flow in flows],
                    "rtts": [[record.rtt for record in flow.rtt_records()] for flow in flows],
                    "events": net.sim.events_processed,
                }
                tally_network(counts, net)
            return outputs, duration

        return run

    def check(self, outputs):
        failures = []
        for name, out in outputs.items():
            mbps = out["mbps"]
            if len(mbps) != 2 or not all(value > 0 for value in mbps):
                failures.append(f"{name}: both flows must move bytes, got {mbps}")
                continue
            jain = sum(mbps) ** 2 / (2 * sum(value * value for value in mbps))
            if not 0 < jain <= 1:
                failures.append(f"{name}: Jain index {jain} outside (0, 1]")
        if len(outputs) != self.size["draws"]:
            failures.append(f"{len(outputs)}/{self.size['draws']} pairs finished")
        return failures


class MultipathRpc(Workload):
    name = "multipath-rpc"
    modules = ("repro.core.api", "repro.net.hvc", "repro.sim.timers",
               "repro.transport.multipath", "repro.units")
    SCHEDULERS = ("hvc", "minrtt")
    RPC_INTERVAL = 0.25
    RPC_BYTES = 2_000

    def units(self):
        return [(scheduler, self._unit(scheduler)) for scheduler in self.SCHEDULERS]

    def _unit(self, scheduler: str) -> Unit:
        def run(span, counts):
            from repro.core.api import HvcNetwork
            from repro.net.hvc import fixed_embb_spec, urllc_spec
            from repro.sim.timers import PeriodicTimer
            from repro.transport import next_flow_id
            from repro.transport.multipath import MultipathConnection
            from repro.units import to_mbps

            duration, drain = self.size["duration"], self.size["drain"]
            latencies: List[float] = []
            sent_at: Dict[int, float] = {}
            with span("pass.build"):
                # The ab-mp scenario: steering is bypassed by channel_hint.
                net = HvcNetwork(
                    [fixed_embb_spec(), urllc_spec()], steering="single", seed=self.seed
                )

                def connect(**kwargs):
                    flow_id = next_flow_id()
                    sender = MultipathConnection(
                        net.sim, net.client, flow_id, cc="cubic", scheduler=scheduler
                    )
                    receiver = MultipathConnection(
                        net.sim, net.server, flow_id, cc="cubic", scheduler=scheduler, **kwargs
                    )
                    return sender, receiver

                def on_rpc(receipt):
                    latencies.append(net.now - sent_at[receipt.message_id])

                def send_rpc():
                    message_id = len(sent_at)
                    sent_at[message_id] = net.now
                    rpc[0].send_message(self.RPC_BYTES, message_id=message_id)

                bulk = connect()
                bulk[0].send_message(10**9, message_id=1)  # backlogged
                rpc = connect(on_message=on_rpc)
                timer = PeriodicTimer(net.sim, self.RPC_INTERVAL, send_rpc)
            with span("pass.run"):
                net.run(until=duration)
                timer.stop()
                net.run(until=duration + drain)
            with span("pass.reduce"):
                delivered = bulk[0].delivered_timeline[-1][1] if bulk[0].delivered_timeline else 0
                outputs = {
                    "bulk_mbps": to_mbps(delivered * 8 / (duration + drain)),
                    "rpcs_sent": len(sent_at),
                    "rpc_latencies": latencies,
                    "events": net.sim.events_processed,
                }
                tally_network(counts, net)
                for conn in bulk + rpc:
                    counts["transport.multipath.retx"] += conn.retransmissions
                    counts["transport.multipath.timeouts"] += conn.timeouts
                counts["apps.messages"] += len(latencies)
            return outputs, duration + drain

        return run

    def check(self, outputs):
        failures = []
        for scheduler, out in outputs.items():
            if not out["bulk_mbps"] > 0:
                failures.append(f"{scheduler}: bulk goodput is {out['bulk_mbps']}")
            if not out["rpcs_sent"] or len(out["rpc_latencies"]) != out["rpcs_sent"]:
                failures.append(
                    f"{scheduler}: {len(out['rpc_latencies'])} of {out['rpcs_sent']} RPCs answered"
                )
        return failures


class AppsShortFlows(Workload):
    name = "apps-short-flows"
    modules = ("repro.apps.web.background", "repro.apps.web.browser", "repro.apps.web.corpus",
               "repro.apps.video.session", "repro.experiments.fig2", "repro.experiments.table1")
    CONDITION, POLICY = "stationary", "dchannel+flowprio"
    VIDEO_TRACE, SCHEME = "5g-lowband-driving", "priority"
    PAGE_TIMEOUT = 45.0
    MAX_PAGES = 60

    def not_measured(self):
        # The browser builds its Connections itself; they are in no registry.
        return spec.RUNNER_METRICS + (
            "transport.connection.segments_sent", "transport.connection.retx_frac",
            "transport.connection.timeouts",
        )

    def prepare(self):
        from repro.apps.web.corpus import generate_corpus

        # Page sizes are heavy-tailed: a fixed page count varied by 12% in
        # simulated work from seed to seed, which would drown a 10% change.
        # So the seeded corpus is cut where it reaches a byte budget.
        self.pages = []
        budget = self.size["page_mb"] * 1e6
        for page in generate_corpus(count=self.MAX_PAGES, seed=self.seed):
            self.pages.append(page)
            budget -= page.total_bytes
            if budget <= 0:
                break

    def units(self):
        return [("pages", self._pages), ("video", self._video)]

    def _pages(self, span, counts):
        """The loop of ``table1_cell_unit``, opened up to reach each network's stats."""
        from repro.apps.web.background import BackgroundFlows
        from repro.apps.web.browser import load_page
        from repro.experiments.table1 import TRACES, web_network

        plts: List[float] = []
        events = 0
        for index, page in enumerate(self.pages):
            with span("pass.build"):
                net = web_network(TRACES[self.CONDITION], self.POLICY, seed=self.seed + index)
                background = BackgroundFlows(net)
            with span("pass.run"):
                net.run(until=0.2)  # background loops reach steady state
                result = load_page(net, page, cc="cubic", timeout=self.PAGE_TIMEOUT)
                background.close()
            with span("pass.reduce"):
                plts.append(result.plt if result.complete else self.PAGE_TIMEOUT)
                events += net.sim.events_processed
                tally_network(counts, net)
                counts["apps.messages"] += int(result.complete)
        return {"plts": plts, "events": events}, sum(plts)

    def _video(self, span, counts):
        """``fig2_cell_unit``, likewise."""
        from repro.apps.video.session import run_video_session
        from repro.experiments.fig2 import video_network

        with span("pass.build"):
            net = video_network(self.VIDEO_TRACE, self.SCHEME, seed=self.seed)
        with span("pass.run"):
            cell = run_video_session(net, duration=self.size["video_s"])
        with span("pass.reduce"):
            outputs = {
                "latencies": [frame.latency for frame in cell.frames if frame.decoded],
                "ssims": list(cell.ssim_values),
                "frames_sent": cell.frames_sent,
                "events": net.sim.events_processed,
            }
            tally_network(counts, net)
            counts["apps.messages"] += cell.frames_decoded
        return outputs, self.size["video_s"]

    def check(self, outputs):
        failures = []
        plts = outputs.get("pages", {}).get("plts", [])
        loaded = sum(1 for plt in plts if plt < self.PAGE_TIMEOUT)
        if loaded != len(self.pages):
            failures.append(f"{loaded}/{len(self.pages)} pages loaded")
        video = outputs.get("video")
        if video is None or len(video["latencies"]) < 0.95 * video["frames_sent"]:
            decoded = None if video is None else len(video["latencies"])
            failures.append(f"video decoded {decoded} frames, need >= 95% of those sent")
        return failures


class Fleet50k(Workload):
    name = "fleet-50k"
    modules = ("repro.fleet.hybrid", "repro.fleet.tenants")

    def prepare(self):
        from repro.fleet.hybrid import FleetConfig
        from repro.fleet.tenants import TenantPopulation

        self.config = FleetConfig(
            tenants=self.size["tenants"], foreground=1, duration=self.size["duration"],
            preset="paper", seed=self.seed,
        )
        # FleetSimulation draws its own population from the config; drawing
        # one here puts that cost in setup_s, where a fresh process pays it.
        population = TenantPopulation.generate(self.config.population_spec())
        if len(population) != self.size["tenants"]:
            raise RuntimeError(f"population has {len(population)} tenants")

    def units(self):
        return [("fleet", self._run)]

    def _run(self, span, counts):
        from repro.fleet.hybrid import FleetSimulation

        with span("pass.build"):
            fleet = FleetSimulation(self.config)
        with span("pass.run"):
            results = fleet.run()
        with span("pass.reduce"):
            background = results["background"]
            outputs = {
                "bg_completed": background["completed"],
                "bg_digest": results["background_digest"],
                "fg_fct": [flow["fct"] for flow in results["foreground"]],
                "events": results["events_processed"],
            }
            tally_network(counts, fleet.net)
            counts["fleet.ticks"] += background["ticks"]
            counts["fleet.completed"] += background["completed"]
        return outputs, self.config.duration

    def check(self, outputs):
        completed = outputs.get("fleet", {}).get("bg_completed", 0)
        return [] if completed > 0 else ["no background tenant completed"]


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------
class _Cli(Workload):
    """``python -m repro fig1a`` as a user runs it; one invocation per unit."""

    cli = True
    UNITS_PER_INVOCATION = 4  # fig1a's four CCAs

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.work_dir: Path = OUT_DIR

    def not_measured(self):
        # The networks live inside the CLI; no stats object is in reach.
        return spec.STATS_METRICS + ("runner.jobs2_speedup",)

    def load(self):
        """What a CLI user pays before any work: ``python -m repro --help``."""
        self._spawn(["--help"])

    def prepare(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT_DIR))

    def close(self):
        if self.work_dir != OUT_DIR:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    def argv(self, *extra: str) -> List[str]:
        return ["fig1a", "--duration", str(self.size["duration"]),
                "--seed", str(self.seed), *extra]

    def _spawn(self, argv: List[str]) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=child_env(), cwd=str(ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited {done.returncode}: {done.stderr}")
        return done.stdout

    def invoke(self, argv: List[str], counts: Dict[str, float]) -> Dict:
        """Run one invocation; fold its ``[runner]`` line into ``counts``."""
        if self.in_process:
            # A fresh process imports everything on every invocation; so
            # does the traced pass.
            for module in [name for name in sys.modules if name.split(".")[0] == "repro"]:
                del sys.modules[module]
            from repro.cli import main

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"repro.cli.main({argv}) returned {code}")
            stdout = buffer.getvalue()
        else:
            stdout = self._spawn(argv)
        runner = _RUNNER_LINE.search(stdout)
        if runner is None:
            raise RuntimeError("no [runner] line in the CLI output")
        units, cache_hits = int(runner.group(2)), int(runner.group(3))
        counts["runner.units"] += units
        counts["_cache_hits"] += cache_hits
        # The [runner] line names the cache dir, which differs per pass.
        return {"stdout": stdout[:runner.start()], "units": units, "cache_hits": cache_hits}

    def sim_seconds(self) -> float:
        return self.UNITS_PER_INVOCATION * self.size["duration"]


class CliCold(_Cli):
    name = "cli-cold"

    def units(self):
        return [("fig1a-cold", self._run)]

    def _run(self, span, counts):
        with span("pass.build"):
            cache = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        with span("pass.run"):
            outputs = self.invoke(self.argv("--cache-dir", cache), counts)
        with span("pass.reduce"):
            shutil.rmtree(cache, ignore_errors=True)
        return outputs, self.sim_seconds()

    def check(self, outputs):
        return [] if "fig1a-cold" in outputs else ["the cold invocation did not finish"]

    def not_measured(self):
        return spec.STATS_METRICS

    def extra_layer_metrics(self, wall_s):
        """``--jobs min(2, nproc) --no-cache`` twice, against the ``--jobs 1`` wall."""
        import statistics
        import time

        jobs = str(min(2, os.cpu_count() or 1))
        walls = []
        for _ in range(2):
            start = time.perf_counter()
            self._spawn(self.argv("--jobs", jobs, "--no-cache"))
            walls.append(time.perf_counter() - start)
        return {"runner.jobs2_speedup": wall_s / statistics.median(walls)}


class CliWarm(_Cli):
    name = "cli-warm"

    def prepare(self):
        super().prepare()
        self.cache = str(self.work_dir / "cache")
        self.cold_stdout = self.invoke(
            self.argv("--cache-dir", self.cache), collections.Counter()
        )["stdout"]

    def units(self):
        return [(f"fig1a-warm-{index}", self._run) for index in range(self.size["invocations"])]

    def _run(self, span, counts):
        with span("pass.run"):
            outputs = self.invoke(self.argv("--cache-dir", self.cache), counts)
        return outputs, self.sim_seconds()

    def check(self, outputs):
        failures = [
            f"{name}: stdout differs from the cold run's"
            for name, out in outputs.items() if out["stdout"] != self.cold_stdout
        ]
        failures += [
            f"{name}: {out['cache_hits']} cache hits for {out['units']} units"
            for name, out in outputs.items() if out["cache_hits"] != out["units"]
        ]
        if len(outputs) != self.size["invocations"]:
            failures.append(f"{len(outputs)}/{self.size['invocations']} invocations finished")
        return failures


BY_NAME = {
    cls.name: cls
    for cls in (BulkSteered, CcCoexistWan, MultipathRpc, AppsShortFlows, Fleet50k,
                CliCold, CliWarm)
}
