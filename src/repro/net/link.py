"""Point-to-point network link model.

Each ordered machine pair shares one :class:`Link`.  A transfer holds
the link for its transmission time (``size / bandwidth``) — so
concurrent senders to the same destination serialise, as on a shared
100 Mbps segment — and is then delivered after the propagation
``latency``, which does not occupy the link.  Messages on a link are
delivered in FIFO order, a property the recovery protocol relies on.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.environment import Environment
from repro.sim.events import Event


class Link:
    """A latency/bandwidth pipe between two machines.

    The link is an analytic FIFO: a transfer starts when both it and
    the link are ready, occupies the link until ``busy_until``, and
    is delivered ``latency`` later by a single event scheduled at
    acceptance.
    """

    def __init__(self, env: Environment, latency_ms: float,
                 bandwidth_bytes_per_ms: float) -> None:
        if latency_ms < 0:
            raise ConfigurationError(f"negative latency: {latency_ms}")
        if bandwidth_bytes_per_ms <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive: {bandwidth_bytes_per_ms}")
        self.env = env
        self.latency_ms = latency_ms
        self.bandwidth = bandwidth_bytes_per_ms
        #: When the link finishes transmitting every accepted transfer.
        self.busy_until = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0
        self.chaos_delay_ms = 0.0

    def transmission_time(self, size_bytes: int) -> float:
        """Time the link is occupied transmitting ``size_bytes``."""
        return size_bytes / self.bandwidth

    def transfer(self, size_bytes: int,
                 extra_delay_ms: float = 0.0) -> Event:
        """Send ``size_bytes``; the event fires at delivery time.

        ``extra_delay_ms`` models chaos-injected congestion: it extends
        this transfer's link occupancy, so later messages queue behind
        it and FIFO delivery order is preserved.  The event's value is
        the delivery time.
        """
        env = self.env
        start = max(env.now, self.busy_until)
        self.busy_until = start + (self.transmission_time(size_bytes)
                                   + extra_delay_ms)
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        if extra_delay_ms > 0:
            self.chaos_delay_ms += extra_delay_ms
        # Propagation happens off-link: it delays this delivery without
        # occupying the link.
        when = self.busy_until + self.latency_ms
        delivered = Event(env)
        delivered._ok = True
        delivered._value = when
        env.schedule_at(delivered, when)
        return delivered
