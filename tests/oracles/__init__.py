"""Independent references the production code is held to.

Each module here is a deliberately simple implementation of something
``src/repro`` does fast, kept out of ``src`` because nothing there runs
it:

- :mod:`tests.oracles.event_queue`: a heap of comparable event objects
  behind a ``pop_next`` call, and the per-event run loop over it — the
  reference for :class:`repro.sim.kernel.Simulator`'s inline heap drain;
- :mod:`tests.oracles.trace_lookup`: ``bisect`` into a trace's sample
  times on every read — the reference for a trace-driven link's cached
  sample window;
- :mod:`tests.oracles.remark_list`: the scoreboard whose remark holdoff
  re-scans one list of pending retransmissions — the reference for the
  wake-ordered heap in :class:`repro.transport.scoreboard.Scoreboard`;
- :mod:`tests.oracles.steering`: min-rtt, ECF, message priority and flow
  priority as ``min()``/``max()`` over lists of up views, and DChannel
  reading every quantity through its own accessor — the references for
  the single-pass verdicts in :mod:`repro.steering`;
- :mod:`tests.oracles.view`: the channel view with liveness derived on
  every read and a separate static path for fixed links — the reference
  for :class:`repro.net.node.ChannelView`;
- :mod:`tests.oracles.resequencer`: five parallel per-flow dicts and a
  ``min()`` over every held deadline — the reference for
  :class:`repro.net.resequencer.Resequencer`'s per-flow record;
- :mod:`tests.oracles.scoreboard`, :mod:`tests.oracles.reassembly` and
  :mod:`tests.oracles.scheduler`: the full-walk sender scoreboard, the
  re-sort-everything receiver and the probe-carving multipath send path —
  the references for the transport's incremental bodies;
- :mod:`tests.oracles.fluid`: the fluid tick one tenant at a time — the
  reference for the vectorized :mod:`repro.fleet.fluid` tick;
- :mod:`tests.oracles.population`: the tenant population drawn one
  tenant at a time from ``random.Random`` — the reference for the bulk
  draw in :meth:`repro.fleet.tenants.TenantPopulation.generate`;
- :mod:`tests.oracles.fleet_digest`: the background digest as one
  6-decimal text row per tenant — the fingerprint the pinned fleet
  worlds were captured with, before ``FluidBackground.digest()`` hashed
  the state's bytes;
- :mod:`tests.oracles.loss`: each loss model's stationary rate computed
  from its parameters on every read — the reference for the
  ``long_run_rate`` every model stores.
"""

from tests.oracles.fleet_digest import text_digest
from tests.oracles.population import generate_population

__all__ = ["generate_population", "text_digest"]
