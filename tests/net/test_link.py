"""Unit tests for the link model."""

import pytest

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.sim import Environment


def test_transfer_time_is_latency_plus_transmission():
    env = Environment()
    link = Link(env, latency_ms=2.0, bandwidth_bytes_per_ms=100.0)

    def body(env):
        yield link.transfer(500)
        return env.now

    proc = env.process(body(env))
    env.run()
    # 500 bytes / 100 B/ms = 5 ms transmission + 2 ms latency.
    assert proc.value == pytest.approx(7.0)


def test_concurrent_transfers_serialise_on_the_link():
    env = Environment()
    link = Link(env, latency_ms=0.0, bandwidth_bytes_per_ms=100.0)
    deliveries = []

    def body(env, name, size):
        yield link.transfer(size)
        deliveries.append((name, env.now))

    env.process(body(env, "a", 300))
    env.process(body(env, "b", 200))
    env.run()
    assert deliveries == [("a", pytest.approx(3.0)), ("b", pytest.approx(5.0))]


def test_fifo_delivery_order_preserved_with_latency():
    env = Environment()
    link = Link(env, latency_ms=5.0, bandwidth_bytes_per_ms=1000.0)
    order = []

    def body(env, name, size):
        yield link.transfer(size)
        order.append(name)

    env.process(body(env, "big", 2000))
    env.process(body(env, "small", 10))
    env.run()
    assert order == ["big", "small"]


def test_link_statistics():
    env = Environment()
    link = Link(env, latency_ms=1.0, bandwidth_bytes_per_ms=100.0)

    def body(env):
        yield link.transfer(100)
        yield link.transfer(50)

    env.process(body(env))
    env.run()
    assert link.bytes_sent == 150
    assert link.messages_sent == 2


def test_invalid_link_parameters_rejected():
    env = Environment()
    with pytest.raises(ConfigurationError):
        Link(env, latency_ms=-1.0, bandwidth_bytes_per_ms=1.0)
    with pytest.raises(ConfigurationError):
        Link(env, latency_ms=0.0, bandwidth_bytes_per_ms=0.0)


def test_a_transfer_is_one_delivery_event():
    """The link is an analytic FIFO: each transfer schedules only its
    delivery, at (start + transmission) + latency."""
    env = Environment()
    link = Link(env, latency_ms=0.5, bandwidth_bytes_per_ms=3.0)
    first = link.transfer(1)
    second = link.transfer(2, extra_delay_ms=0.25)
    assert env.events_scheduled == 2
    assert link.busy_until == (1 / 3.0) + (2 / 3.0 + 0.25)
    env.run()
    assert first.value == 1 / 3.0 + 0.5
    assert second.value == link.busy_until + 0.5 == env.now
