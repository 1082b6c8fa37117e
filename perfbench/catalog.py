"""Every metric the benchmark reports: unit, direction, clock, and
which end-to-end metric a per-layer metric should move, on which
workload.

``BENCHMARK.json`` lists the same names, units and directions (its
schema has no room for the rest); ``test_perfbench.py`` keeps the two
in step.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    #: End-to-end metrics this per-layer metric should move, and the
    #: workloads where it does the most work.
    moves: tuple = ()
    on: tuple = ()


PAPER = ("paper-q1-ws10x", "paper-q2-sleep10")
OPEN = ("mq-perturbed", "fleet-failover")
ALL = PAPER + OPEN

END_TO_END = (
    Metric("sim_response_ms", "ms", "lower",
           "simulated: median over queries of the query's own response "
           "time, deployment to result (the paper's measure)"),
    Metric("normalised_response", "ratio", "lower",
           "simulated: median over queries of the response time divided "
           "by the same query alone, static, on the unperturbed grid of "
           "the same seed (the paper's unit)"),
    Metric("sim_p50_ms", "ms", "lower",
           "simulated: median time from the due time to the terminal "
           "outcome, queue wait included; a failed query counts as "
           "infinitely late"),
    Metric("sim_p95_ms", "ms", "lower",
           "simulated: p95 of the same, when at least 10 samples lie "
           "beyond it; otherwise the highest percentile that has 10 "
           "beyond it, named on a diagnostic line"),
    Metric("sim_throughput_qps", "1/s", "higher",
           "simulated: completed queries per simulated second, from the "
           "first due time to the last terminal outcome"),
    Metric("host_ms_per_query", "ms", "lower",
           "host CPU (process_time) per query: closed loop, the median "
           "over queries after a warm-up query, each timed from a "
           "collected heap; open loop, the median over passes of the "
           "pass's CPU, drain and collections included, per admitted "
           "query"),
    Metric("peak_rss_mb", "MiB", "lower", "host: peak resident set size"),
    Metric("setup_s", "s", "lower",
           "host CPU: fastest cold build of the workload's grid, data "
           "generation included, of several builds on fresh seeds spread "
           "over the run"),
)

_M = Metric

PER_LAYER = (
    _M("sim.events_per_query", "count", "lower",
       "DES events scheduled (Environment.events_scheduled)",
       ("host_ms_per_query",), ALL),
    _M("sim.kernel_self_ms", "ms", "lower",
       "host time inside Environment.run that no other layer covers",
       ("host_ms_per_query",), ALL),
    _M("sim.cpu_self_ms", "ms", "lower",
       "host self time of repro.sim.resources",
       ("host_ms_per_query",), PAPER),
    _M("sim.cpu_tasks_per_query", "count", "lower", "calls to Cpu.execute",
       ("host_ms_per_query",), PAPER),
    _M("sim.cpu_wait_ms", "ms", "lower",
       "simulated: sum over tasks of CPU sojourn minus busy time, all "
       "machines (Little's law on Cpu.queue_sampler)",
       ("sim_p50_ms", "sim_response_ms"), ("mq-perturbed",) + PAPER),
    _M("sim.dead_tail_ms", "ms", "lower",
       "simulated: drain end minus the last terminal outcome",
       ("host_ms_per_query",), OPEN),
    _M("grid.max_util", "ratio", "lower",
       "simulated: busiest machine's CPU busy share of the run",
       ("sim_p95_ms", "sim_p50_ms"), OPEN),
    _M("grid.compute_util_spread", "ratio", "lower",
       "simulated: max/min CPU utilisation over compute machines that "
       "did work", ("sim_p95_ms", "sim_p50_ms"), OPEN),
    _M("grid.self_ms", "ms", "lower", "host self time of repro.grid",
       ("host_ms_per_query",), PAPER),
    _M("net.messages_per_query", "count", "lower", "calls to Network.send",
       ("host_ms_per_query", "sim_response_ms"),
       ("fleet-failover", "paper-q2-sleep10")),
    _M("net.bytes_per_query", "bytes", "lower",
       "Message.size_bytes summed over Network.send",
       ("host_ms_per_query", "sim_response_ms"),
       ("fleet-failover", "paper-q2-sleep10")),
    _M("net.self_ms", "ms", "lower", "host self time of repro.net",
       ("host_ms_per_query",), ("fleet-failover", "paper-q2-sleep10")),
    _M("services.gds_rows_per_query", "count", "lower",
       "rows returned by GridDataService.read/read_block",
       ("sim_p95_ms",), ("fleet-failover",)),
    _M("services.ws_calls_per_query", "count", "lower",
       "calls to WebServiceOperation.invoke",
       ("host_ms_per_query",), ("paper-q1-ws10x",)),
    _M("services.self_ms", "ms", "lower", "host self time of repro.services",
       ("sim_p95_ms", "host_ms_per_query"),
       ("fleet-failover", "paper-q1-ws10x")),
    _M("data.self_ms", "ms", "lower", "host self time of repro.data (Batch)",
       ("host_ms_per_query",), ("paper-q1-ws10x",)),
    _M("engine.rows_routed_per_query", "count", "lower",
       "rows passed to route_batch by exchanges",
       ("host_ms_per_query",), ("paper-q2-sleep10",)),
    _M("engine.join_rows_per_query", "count", "lower",
       "hash-join build plus probe rows (0 without a join)",
       ("host_ms_per_query",), ("paper-q2-sleep10",)),
    _M("engine.self_ms", "ms", "lower", "host self time of repro.engine",
       ("host_ms_per_query",), ("paper-q2-sleep10",)),
    _M("engine.useful_row_ratio", "ratio", "higher",
       "result rows / (result rows + duplicates dropped at the sink)",
       ("sim_response_ms",), ("paper-q2-sleep10",)),
    _M("recovery.rows_logged_per_query", "count", "lower",
       "rows appended to recovery logs",
       ("host_ms_per_query", "sim_response_ms"),
       ("paper-q2-sleep10", "fleet-failover")),
    _M("recovery.rows_moved_per_query", "count", "lower",
       "tuples moved by R1 plus tuples replayed for machine recovery",
       ("host_ms_per_query", "sim_response_ms"),
       ("paper-q2-sleep10", "fleet-failover")),
    _M("recovery.self_ms", "ms", "lower", "host self time of repro.recovery",
       ("host_ms_per_query",), ("paper-q2-sleep10", "fleet-failover")),
    _M("core.m1_events_per_query", "count", "lower",
       "raw M1/M2 monitoring events (QueryStatistics)",
       ("host_ms_per_query",), ("paper-q1-ws10x", "mq-perturbed")),
    _M("core.proposals_per_query", "count", "lower",
       "diagnoser imbalance proposals",
       ("sim_p50_ms", "sim_response_ms"), ("paper-q1-ws10x", "mq-perturbed")),
    _M("core.adaptations_per_query", "count", "lower",
       "responder adaptations accepted",
       ("sim_p50_ms", "sim_response_ms"), ("paper-q1-ws10x", "mq-perturbed")),
    _M("core.proposal_yield", "ratio", "higher",
       "adaptations accepted / proposals (0 with no proposal)",
       ("sim_p50_ms", "sim_response_ms"), ("paper-q1-ws10x", "mq-perturbed")),
    _M("core.oscillation", "ratio", "lower",
       "workload mass moved and later reversed, per query",
       ("sim_p50_ms", "sim_response_ms"), ("mq-perturbed",)),
    _M("core.adaptation_latency_ms", "ms", "lower",
       "simulated: mean of the adaptation_latency_ms histogram "
       "(0 with metrics off)",
       ("sim_p50_ms", "sim_response_ms"), ("paper-q1-ws10x", "mq-perturbed")),
    _M("core.self_ms", "ms", "lower", "host self time of repro.core",
       ("host_ms_per_query",), ("paper-q1-ws10x", "mq-perturbed")),
    _M("policy.self_ms", "ms", "lower", "host self time of repro.policy",
       ("host_ms_per_query",), ("mq-perturbed",)),
    _M("dqp.deploy_ms", "ms", "lower",
       "host time inside deploy_query per query",
       ("host_ms_per_query", "sim_p95_ms"), ("fleet-failover",)),
    _M("dqp.recoveries", "count", "lower",
       "machine failures the GDQS recovered from, per query",
       ("host_ms_per_query", "sim_p95_ms"), ("fleet-failover",)),
    _M("dqp.self_ms", "ms", "lower", "host self time of repro.dqp",
       ("host_ms_per_query",), ("fleet-failover",)),
    _M("planner.compile_ms", "ms", "lower",
       "host time inside parse + build_logical_plan + optimize per query",
       ("host_ms_per_query",), ("fleet-failover",)),
    _M("sched.queue_wait_p50_ms", "ms", "lower",
       "simulated: median admission-queue wait",
       ("sim_p95_ms",), ("mq-perturbed",)),
    _M("sched.queue_wait_p95_ms", "ms", "lower",
       "simulated: tail admission-queue wait (same rule as sim_p95_ms)",
       ("sim_p95_ms",), ("mq-perturbed",)),
    _M("sched.placement_ms", "ms", "lower",
       "host time inside FairShare.placement_order per query",
       ("host_ms_per_query",), ("fleet-failover",)),
    _M("sched.machines_built", "count", "lower",
       "compute machines materialised by the end of the run",
       ("peak_rss_mb", "host_ms_per_query"), ("fleet-failover",)),
    _M("sched.retries", "count", "lower", "scheduler retry dispatches",
       ("sim_p95_ms",), ("fleet-failover",)),
    _M("sched.self_ms", "ms", "lower", "host self time of repro.sched",
       ("host_ms_per_query",), ("fleet-failover",)),
    _M("telemetry.self_ms", "ms", "lower",
       "host self time of repro.telemetry",
       ("host_ms_per_query", "peak_rss_mb"), ("mq-perturbed",)),
    _M("telemetry.instruments", "count", "lower",
       "instruments in the metrics registry at the end of a grid's run",
       ("peak_rss_mb",), ("mq-perturbed",)),
    _M("trace.overhead", "ratio", "lower",
       "traced host CPU / untraced host CPU for the same queries "
       "(validates the traced run)"),
)

#: Layers whose self time is reported, as ``<layer>.self_ms`` except
#: the kernel's and the CPU's, which keep the ``sim.`` prefix.
SELF_TIME_METRIC = {
    "sim.kernel": "sim.kernel_self_ms",
    "sim.cpu": "sim.cpu_self_ms",
    "grid": "grid.self_ms",
    "net": "net.self_ms",
    "services": "services.self_ms",
    "data": "data.self_ms",
    "engine": "engine.self_ms",
    "recovery": "recovery.self_ms",
    "core": "core.self_ms",
    "policy": "policy.self_ms",
    "dqp": "dqp.self_ms",
    "sched": "sched.self_ms",
    "telemetry": "telemetry.self_ms",
}
