"""Timer conveniences built on the kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import Event
from repro.sim.kernel import Simulator


class PeriodicTimer:
    """Fires ``callback()`` every ``interval`` seconds until stopped.

    The next firing is scheduled *after* the callback runs, so a callback may
    adjust :attr:`interval` (e.g. adaptive pacing) or call :meth:`stop`.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self._event: Optional[Event] = None
        self._stopped = False
        first = interval if start_delay is None else start_delay
        self._event = sim.schedule(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._event = self.sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        """Cancel any pending firing. Idempotent."""
        self._stopped = True
        if self._event is not None and not self._event.cancelled:
            self.sim.cancel(self._event)
        self._event = None
