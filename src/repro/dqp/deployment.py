"""Deployment: physical plan -> services, fragments and adaptivity wiring.

This module performs what the GDQS does after optimisation: it creates
one (A)GQES per participating machine, instantiates the operator trees
of every subplan fragment, connects exchange producers to consumer
channels, and — when adaptivity is enabled — stands up the
MonitoringEventDetector / Diagnoser / Responder components with their
pub/sub subscriptions, exactly as in the paper's Fig. 1.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import (
    AdaptivityConfig,
    CostModel,
    EngineConfig,
    FaultToleranceConfig,
)
from repro.core.diagnoser import BalancingTask, Diagnoser
from repro.core.monitoring import MonitoringEventDetector
from repro.core.notifications import TOPIC_COST, TOPIC_IMBALANCE, TOPIC_WEIGHTS
from repro.core.responder import Responder
from repro.dqp.gqes import GQES
from repro.engine.distribution import (
    HashBucketPolicy,
    WeightedRoundRobin,
)
from repro.engine.evaluator import Fragment
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators.aggregate import GroupAggregator
from repro.engine.operators import (
    ConsumerRef,
    EvalContext,
    ExchangeConsumer,
    ExchangeProducer,
    HashJoin,
    OperationCall,
    Project,
    ResultSink,
    Select,
    TableScan,
)
from repro.errors import PlanningError
from repro.grid.container import GridContext
from repro.planner.physical import PhysicalPlan, POLICY_HASH, ROOT_SUBPLAN
from repro.policy import AdaptationPolicy, create_policy
from repro.services.gds import GridDataService
from repro.services.ws import WebServiceOperation


def producer_id_for(subplan_id: str, instance: int = 0) -> str:
    return f"xp:{subplan_id}:{instance}"


def channel_key_for(subplan_id: str, instance: int, port: int) -> str:
    return f"{subplan_id}:{instance}:{port}"


@dataclasses.dataclass
class QueryRuntime:
    """Handles to everything deployed for one query."""

    plan: PhysicalPlan
    adaptivity: AdaptivityConfig
    gqes_by_machine: dict
    detectors: dict
    diagnoser: Diagnoser | None
    responder: Responder | None
    sink: ResultSink
    feed_producers: list
    compute_producers: list
    compute_fragments: list
    balancing_task: BalancingTask | None
    #: GQES endpoints whose failure the GDQS has already handled.
    failures_handled: set = dataclasses.field(default_factory=set)
    #: Successful machine recoveries performed for this query (the
    #: ``FaultToleranceConfig.max_recoveries`` budget counter).
    recoveries: int = 0
    #: The adaptation policy shared by this query's detectors,
    #: Diagnoser and Responder (None when adaptivity is disabled).
    policy: AdaptationPolicy | None = None

    def all_gqes(self) -> list[GQES]:
        return list(self.gqes_by_machine.values())

    def release(self) -> None:
        """The outcome is out and no recovery pass is running: every
        GQES may free the query's state once it has wound down."""
        for gqes in self.gqes_by_machine.values():
            gqes.release()

    def unhandled_failures(self) -> list:
        """Crashed services no recovery pass has dealt with yet."""
        return [gqes for gqes in self.all_gqes()
                if gqes.crashed and gqes.name not in self.failures_handled]


def build_compute_fragment(ctx: EvalContext, plan: PhysicalPlan,
                           index: int,
                           operations: typing.Mapping[
                               str, WebServiceOperation],
                           coordinator_endpoint: str,
                           m1_interval: int) -> Fragment:
    """Build one instance of the partitioned compute subplan.

    Used both at initial deployment and by the fault-tolerance path,
    which re-creates a failed instance (same id, same channels) on a
    replacement machine so the feed producers can redirect and replay.
    """
    compute = plan.compute
    sink_channel = channel_key_for(ROOT_SUBPLAN, 0, 0)
    consumers: dict[str, ExchangeConsumer] = {}
    state_operators: dict[str, HashJoin] = {}
    if compute.join_keys is not None:
        build_scan = next(s for s in plan.scans if s.target_port == 0)
        probe_scan = next(s for s in plan.scans if s.target_port == 1)
        build_key = channel_key_for(compute.subplan_id, index, 0)
        probe_key = channel_key_for(compute.subplan_id, index, 1)
        build_xc = ExchangeConsumer(
            ctx, build_key,
            [producer_id_for(build_scan.subplan_id)], defer_acks=True)
        probe_xc = ExchangeConsumer(
            ctx, probe_key,
            [producer_id_for(probe_scan.subplan_id)])
        consumers[build_key] = build_xc
        consumers[probe_key] = probe_xc
        operator: typing.Any = HashJoin(
            ctx, build_xc, probe_xc,
            compute.join_keys[0], compute.join_keys[1])
        state_operators[build_key] = operator
    else:
        feed_scan = plan.scans[0]
        channel = channel_key_for(compute.subplan_id, index, 0)
        consumer = ExchangeConsumer(
            ctx, channel, [producer_id_for(feed_scan.subplan_id)])
        consumers[channel] = consumer
        operator = consumer
    for function_name, argument_position in compute.applies:
        try:
            operation = operations[function_name]
        except KeyError:
            raise PlanningError(
                f"no WS implementation bound for {function_name!r}"
                ) from None
        operator = OperationCall(ctx, operator, operation,
                                 argument_position)
    operator = Project(ctx, operator, compute.project_positions)
    root = ExchangeProducer(
        ctx, operator,
        producer_id=producer_id_for(compute.subplan_id, index),
        target_subplan_id=ROOT_SUBPLAN,
        consumers=[ConsumerRef(
            endpoint=coordinator_endpoint,
            channel_key=sink_channel,
            instance_id=f"{ROOT_SUBPLAN}:0",
            machine_name=plan.coordinator_machine)],
        policy=WeightedRoundRobin(1),
        row_bytes=compute.output_row_bytes,
        estimated_total=compute.estimated_output)
    return Fragment(ctx, compute.subplan_id, index, root, consumers,
                    [root], state_operators, m1_interval)


def deploy_query(context: GridContext, plan: PhysicalPlan,
                 gds_map: typing.Mapping[str, GridDataService],
                 operations: typing.Mapping[str, WebServiceOperation],
                 engine_config: EngineConfig, cost: CostModel,
                 adaptivity: AdaptivityConfig,
                 fault_tolerance: FaultToleranceConfig | None = None,
                 gdqs_endpoint: str | None = None) -> QueryRuntime:
    """Instantiate services and operator trees for ``plan``."""
    machines = plan.machines_used()

    # One policy instance per query, shared by every adaptivity
    # component so controller state (smoothed costs, hysteresis arms,
    # PID integrals) is coherent across the control loop.
    adaptation_policy = (create_policy(adaptivity)
                         if adaptivity.enabled else None)

    detectors: dict[str, MonitoringEventDetector] = {}
    monitoring_on = adaptivity.enabled and adaptivity.m1_interval > 0
    if monitoring_on:
        for machine_name in machines:
            detectors[machine_name] = MonitoringEventDetector(
                context, machine_name, adaptivity, cost,
                query_id=plan.query_id, policy=adaptation_policy)

    gqes_by_machine = {
        machine_name: GQES(context, plan.query_id, machine_name,
                           engine_config, cost,
                           detector=detectors.get(machine_name),
                           fault_tolerance=fault_tolerance,
                           gdqs_endpoint=gdqs_endpoint)
        for machine_name in machines}

    def make_ctx(machine_name: str, instance_id: str) -> EvalContext:
        return EvalContext(
            grid=context,
            machine=context.registry.machine(machine_name),
            metrics=SubplanMetrics(instance_id),
            cost=cost,
            engine_config=engine_config,
            monitor=detectors.get(machine_name))

    m1_interval = adaptivity.m1_interval if monitoring_on else 0
    compute = plan.compute
    degree = len(compute.machine_names)
    coordinator_gqes = gqes_by_machine[plan.coordinator_machine]

    # ---- compute fragments (the partitioned subplan) --------------------
    compute_fragments: list[Fragment] = []
    compute_producers: list[ExchangeProducer] = []
    for index, machine_name in enumerate(compute.machine_names):
        fragment = build_compute_fragment(
            make_ctx(machine_name, f"{compute.subplan_id}:{index}"),
            plan, index, operations, coordinator_gqes.name, m1_interval)
        compute_fragments.append(fragment)
        compute_producers.append(fragment.producers[0])
        gqes_by_machine[machine_name].deploy(fragment)

    # ---- feed fragments (scans on the data hosts) --------------------------
    feed_producers: list[tuple[str, ExchangeProducer]] = []
    shared_bucket_map: list[int] | None = None
    for scan in plan.scans:
        instance_id = f"{scan.subplan_id}:0"
        ctx = make_ctx(scan.machine_name, instance_id)
        gds = gds_map[scan.table_name]
        operator = TableScan(ctx, gds)
        for comparison, predicate in scan.filters:
            operator = Select(ctx, operator, predicate,
                              description=str(comparison))
        consumer_refs = [
            ConsumerRef(
                endpoint=gqes_by_machine[machine_name].name,
                channel_key=channel_key_for(
                    compute.subplan_id, index, scan.target_port),
                instance_id=f"{compute.subplan_id}:{index}",
                machine_name=machine_name)
            for index, machine_name in enumerate(compute.machine_names)]
        if compute.policy_kind == POLICY_HASH:
            if scan.key_position is None:
                raise PlanningError(
                    f"{scan.subplan_id}: hash policy without key position")
            policy = HashBucketPolicy(
                degree, scan.key_position,
                bucket_count=adaptivity.hash_buckets,
                weights=compute.initial_weights)
            # Every producer feeding a stateful consumer group must use
            # the same bucket map, or matching keys would diverge.
            if shared_bucket_map is None:
                shared_bucket_map = list(policy.bucket_map)
            else:
                policy.bucket_map = list(shared_bucket_map)
        else:
            policy = WeightedRoundRobin(degree, compute.initial_weights)
        root = ExchangeProducer(
            ctx, operator,
            producer_id=producer_id_for(scan.subplan_id),
            target_subplan_id=compute.subplan_id,
            consumers=consumer_refs,
            policy=policy,
            row_bytes=scan.row_bytes,
            estimated_total=scan.estimated_total,
            # The hash join's build rows *are* its state: the build
            # feed retains what it routes so bucket moves replay the
            # whole bucket, not just the unacknowledged log tail.
            state_channel=(compute.policy_kind == POLICY_HASH
                          and scan.target_port == 0))
        fragment = Fragment(ctx, scan.subplan_id, 0, root, {}, [root],
                            m1_interval=m1_interval)
        feed_gqes = gqes_by_machine[scan.machine_name]
        feed_producers.append((feed_gqes.name, root))
        feed_gqes.deploy(fragment)

    # ---- root fragment (result collection on the coordinator) ---------------
    sink_channel = channel_key_for(ROOT_SUBPLAN, 0, 0)
    root_ctx = make_ctx(plan.coordinator_machine, f"{ROOT_SUBPLAN}:0")
    sink_consumer = ExchangeConsumer(
        root_ctx, sink_channel,
        [producer.producer_id for producer in compute_producers])
    aggregator = None
    if plan.aggregation is not None:
        aggregation = plan.aggregation
        aggregator = GroupAggregator(aggregation.group_positions,
                                     aggregation.aggregates,
                                     aggregation.output_layout)
    sink = ResultSink(root_ctx, sink_consumer, aggregator)
    root_fragment = Fragment(root_ctx, ROOT_SUBPLAN, 0, sink,
                             {sink_channel: sink_consumer}, [],
                             m1_interval=0)
    coordinator_gqes.deploy(root_fragment)

    # ---- adaptivity components (Fig. 1 wiring) --------------------------------
    diagnoser: Diagnoser | None = None
    responder: Responder | None = None
    balancing_task: BalancingTask | None = None
    if adaptivity.enabled:
        instance_channels = {}
        co_located = set()
        for index, machine_name in enumerate(compute.machine_names):
            instance_id = f"{compute.subplan_id}:{index}"
            channels = []
            for scan in plan.scans:
                channel = channel_key_for(
                    compute.subplan_id, index, scan.target_port)
                channels.append(channel)
                if scan.machine_name == machine_name:
                    co_located.add(channel)
            instance_channels[instance_id] = tuple(channels)
        balancing_task = BalancingTask(
            subplan_id=compute.subplan_id,
            instance_ids=tuple(f"{compute.subplan_id}:{i}"
                               for i in range(degree)),
            initial_weights=tuple(compute.initial_weights),
            instance_channels=instance_channels,
            co_located_channels=frozenset(co_located),
            producer_endpoints=tuple(dict.fromkeys(
                endpoint for endpoint, _xp in feed_producers)),
            producers=tuple(
                (producer.producer_id, endpoint, scan.target_port)
                for (endpoint, producer), scan
                in zip(feed_producers, plan.scans)),
            policy_kind=compute.policy_kind,
            bucket_map=(tuple(shared_bucket_map)
                        if shared_bucket_map is not None else None),
            instance_endpoints=tuple(dict.fromkeys(
                gqes_by_machine[name].name
                for name in compute.machine_names)))
        # Paper Fig. 1: one Diagnoser and one Responder subscribe to the
        # per-site detectors; we place them on the first compute machine.
        placement = compute.machine_names[0]
        diagnoser = Diagnoser(context, placement, adaptivity, cost,
                              [balancing_task], query_id=plan.query_id,
                              policy=adaptation_policy)
        responder = Responder(context, placement, adaptivity, cost,
                              [balancing_task], query_id=plan.query_id,
                              policy=adaptation_policy)
        for detector in detectors.values():
            detector.subscribe(TOPIC_COST, diagnoser.name)
        diagnoser.subscribe(TOPIC_IMBALANCE, responder.name)
        responder.subscribe(TOPIC_WEIGHTS, diagnoser.name)

    return QueryRuntime(
        plan=plan,
        adaptivity=adaptivity,
        gqes_by_machine=gqes_by_machine,
        detectors=detectors,
        diagnoser=diagnoser,
        responder=responder,
        sink=sink,
        feed_producers=feed_producers,
        compute_producers=compute_producers,
        compute_fragments=compute_fragments,
        balancing_task=balancing_task,
        policy=adaptation_policy)
