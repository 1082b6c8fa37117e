"""The benchmark's four workloads: what runs, how it is checked, and
what it measures.

Every workload drives the program through its public API only
(``DemoGrid``, ``QueryScheduler``, ``QueryStatistics``,
``MetricsRegistry``, ``Environment.events_scheduled``,
``GridContext.install_chaos`` and the CPU's ``queue_sampler`` hook) on
one thread.  The workload seed reaches the program only as generated
inputs: ``DemoGridSpec.seed`` (data, machine streams and the arrival
stream), per-tuple service costs and the crash schedule.

A run has up to three parts:

1. the *first pass*, untraced: every query is checked against a
   reference run and yields the simulated metrics, the per-layer
   counts and the ``sim_fingerprint``;
2. *repeat passes*, untraced, while ``--seconds`` lasts: the same
   inputs again, for host timings; each must reproduce the first
   pass's simulated outcome exactly;
3. with ``--trace 1``, instead of the repeats, a *traced pass* over
   the same inputs with spans recorded around every layer
   (``spans.py``); its simulated outcome must equal the first pass's.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import math
import pathlib
import random
import resource
import time
from statistics import median
import typing

from repro.chaos import ChaosConfig, MachineCrash, RetryPolicy
from repro.config import (
    AdaptivityConfig,
    FaultToleranceConfig,
    SchedulerConfig,
)
from repro.errors import AdmissionRejected
from repro.experiments.harness import engine_config_for
from repro.sched.session import STATE_COMPLETED
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

from perfbench import catalog, spans
from perfbench.stats import (
    fingerprint,
    percentile,
    row_digest,
    tail_percentile,
)

LABELS = {Q1: "Q1", Q2: "Q2"}

#: Where traced runs write their spans, relative to the working
#: directory (the checkout root).
SPANS_DIR = pathlib.Path(".perfbench")

#: Open loop: the run is unsteady (offered rate above capacity) when
#: the last quarter of arrivals takes this many times longer, at the
#: median, than the first quarter.
BACKLOG_RATIO = 2.0
#: Fewer arrivals per quarter make the comparison noise.
BACKLOG_MIN_QUARTER = 10

#: Seeded spread of the per-tuple service costs (see :func:`jittered`).
COST_JITTER = 0.02

#: Open loop: a crash is timed after an arrival that follows at least
#: this much simulated idle time, and this long after it, so that the
#: query is in flight on the machines an idle grid places it on.
IDLE_GAP_MS = 2000.0
CRASH_DELAY_MS = 100.0


@dataclasses.dataclass
class Measurement:
    """What one run reports."""

    metrics: dict
    diagnostics: list
    attempted: int
    failed: int
    #: Correctness violations; any makes the run incorrect.
    errors: list


# -- untraced counts --------------------------------------------------------

class SojournMeter:
    """Integrates one CPU's number-in-system over simulated time.

    Installed as ``Cpu.queue_sampler`` (chained to any sampler already
    there), so it sees the queue length after every enqueue and
    completion.  By Little's law the integral is the summed sojourn of
    the CPU's tasks; minus ``busy_time`` it is their summed wait.
    """

    __slots__ = ("env", "chained", "count", "since", "area")

    def __init__(self, env, chained) -> None:
        self.env = env
        self.chained = chained
        self.count = 0
        self.since = env.now
        self.area = 0.0

    def sample(self, value: float) -> None:
        now = self.env.now
        self.area += self.count * (now - self.since)
        self.since = now
        self.count = value
        if self.chained is not None:
            self.chained.sample(value)

    def sojourn(self, end: float) -> float:
        return self.area + self.count * (end - self.since)


def attach_meters(grid: DemoGrid) -> dict:
    """A :class:`SojournMeter` per machine, now and as machines are
    materialised; returns the live ``{machine name: meter}`` map."""
    meters: dict = {}
    env = grid.context.env

    def attach(machine) -> None:
        cpu = machine.cpu
        meters[machine.name] = cpu.queue_sampler = SojournMeter(
            env, cpu.queue_sampler)

    registry = grid.context.registry
    for machine in registry.materialized_machines():
        attach(machine)
    registry.on_materialize(attach)
    return meters


def accepted_weights(grid: DemoGrid) -> tuple:
    """The weight vectors the responders deployed, in order."""
    return tuple(
        (event.source, dict(event.data).get("weights"))
        for event in grid.context.tracer.events
        if event.category == "response"
        and event.description == "distribution rebalanced")


class Ledger:
    """Per-layer counts of one untraced pass, summed over its grids."""

    def __init__(self) -> None:
        self.totals: collections.Counter = collections.Counter()
        self.queries = 0
        self.grids = 0
        self.wait_by_machine: collections.Counter = collections.Counter()
        self.util_samples: list = []
        self.spread_samples: list = []
        self.tail_samples: list = []
        self.queue_waits: list = []
        self.bottleneck: tuple = ("-", 0.0)

    def add_grid(self, grid: DemoGrid, meters: dict, start_ms: float,
                 last_terminal_ms: float) -> None:
        """Counts of one drained grid whose queries ran in
        ``[start_ms, last_terminal_ms]``."""
        context = grid.context
        end = context.env.now
        span = max(last_terminal_ms - start_ms, 1e-9)
        totals = self.totals
        self.grids += 1
        totals["events"] += context.env.events_scheduled
        compute = set(grid.compute_machines)
        utilisation = {}
        for machine in context.registry.materialized_machines():
            cpu = machine.cpu
            meter = meters.get(machine.name)
            if meter is not None:
                wait = meter.sojourn(end) - cpu.busy_time
                self.wait_by_machine[machine.name] += wait
                totals["cpu_wait_ms"] += wait
            utilisation[machine.name] = cpu.busy_time / span
        busiest = max(utilisation, key=utilisation.get)
        self.util_samples.append(utilisation[busiest])
        if utilisation[busiest] >= self.bottleneck[1]:
            self.bottleneck = (busiest, utilisation[busiest])
        working = [value for name, value in utilisation.items()
                   if name in compute and value > 0]
        if working:
            self.spread_samples.append(max(working) / min(working))
        totals["machines_built"] += len(compute.intersection(utilisation))
        totals["instruments"] += len(context.metrics.instruments())
        totals["recoveries"] += grid.processor.gdqs.failures_recovered
        for record in context.metrics.snapshot():
            if (record["type"] == "histogram"
                    and record["name"] == "adaptation_latency_ms"):
                totals["latency_sum"] += record.get("sum", 0.0)
                totals["latency_count"] += record.get("count", 0)
        self.tail_samples.append(end - last_terminal_ms)

    def add_result(self, result) -> None:
        stats = result.stats
        totals = self.totals
        totals["m1_events"] += stats.raw_monitoring_events
        totals["proposals"] += stats.proposals_sent
        totals["adaptations"] += stats.adaptations_accepted
        totals["oscillation"] += stats.oscillation
        totals["rows_moved"] += (stats.tuples_moved
                                 + stats.tuples_replayed_for_recovery)
        totals["result_rows"] += stats.result_count
        totals["duplicates"] += stats.duplicates_dropped

    def metrics(self) -> dict:
        totals, queries = self.totals, max(self.queries, 1)
        grids = max(self.grids, 1)
        proposals = totals["proposals"]
        produced = totals["result_rows"] + totals["duplicates"]
        latency_count = totals["latency_count"]
        waits = self.queue_waits or [0.0]
        return {
            "sim.events_per_query": totals["events"] / queries,
            "sim.cpu_wait_ms": totals["cpu_wait_ms"] / queries,
            "sim.dead_tail_ms": median(self.tail_samples or [0.0]),
            "grid.max_util": median(self.util_samples or [0.0]),
            "grid.compute_util_spread": median(self.spread_samples
                                               or [1.0]),
            "engine.useful_row_ratio": (totals["result_rows"] / produced
                                        if produced else 1.0),
            "recovery.rows_moved_per_query": totals["rows_moved"] / queries,
            "core.m1_events_per_query": totals["m1_events"] / queries,
            "core.proposals_per_query": proposals / queries,
            "core.adaptations_per_query": totals["adaptations"] / queries,
            "core.proposal_yield": (totals["adaptations"] / proposals
                                    if proposals else 0.0),
            "core.oscillation": totals["oscillation"] / queries,
            "core.adaptation_latency_ms": (
                totals["latency_sum"] / latency_count
                if latency_count else 0.0),
            "dqp.recoveries": totals["recoveries"] / queries,
            "sched.queue_wait_p50_ms": percentile(waits, 0.50),
            "sched.queue_wait_p95_ms": tail_percentile(waits)[1],
            "sched.machines_built": totals["machines_built"] / grids,
            "sched.retries": totals["retries"] / grids,
            "telemetry.instruments": totals["instruments"] / grids,
        }

    def bottleneck_lines(self) -> list:
        name, utilisation = self.bottleneck
        waits = self.wait_by_machine
        queries = max(self.queries, 1)
        lines = [f"bottleneck: {name} CPU utilisation {utilisation:.3f}, "
                 f"CPU wait {waits.get(name, 0.0) / queries:.1f} ms per "
                 f"query (simulated)"]
        if waits:
            worst = max(waits, key=waits.get)
            if worst != name:
                lines.append(f"most CPU wait: {worst} "
                             f"{waits[worst] / queries:.1f} ms per query")
        return lines


# -- traced counts ----------------------------------------------------------

def _count(key: str, size=lambda args, result: 1):
    def hook(recorder, args, result) -> None:
        recorder.counts[key] += size(args, result)
    return hook


def _count_send(recorder, args, result) -> None:
    recorder.counts["messages"] += 1
    recorder.counts["bytes"] += args[1].size_bytes


def _count_routed(recorder, args, result) -> None:
    # WeightedRoundRobin.route_batch can fall back to the base method:
    # count the outermost call only.  Hooks run once the call's own span
    # has closed, so the enclosing span is the top of the stack.
    enclosing = recorder.enclosing_name()
    if enclosing is None or not enclosing.endswith(".route_batch"):
        recorder.counts["rows_routed"] += len(args[1])


def _collect_join(recorder, args, result) -> None:
    recorder.collected["joins"].append(args[0])


def _rows_returned(args, result) -> int:
    return len(result)


def _rows_passed(args, result) -> int:
    return len(args[1])


_ROUTE = "repro.engine.distribution:{}.route_batch"
_LOG = "repro.recovery.log:RecoveryLog.{}"

#: Counters recorded at the same boundaries as the spans.
HOOKS = {
    "repro.sim.resources:Cpu.execute": _count("cpu_tasks"),
    "repro.net.network:Network.send": _count_send,
    "repro.services.gds:GridDataService.read":
        _count("gds_rows", _rows_returned),
    "repro.services.gds:GridDataService.read_block":
        _count("gds_rows", _rows_returned),
    "repro.services.ws:WebServiceOperation.invoke": _count("ws_calls"),
    _ROUTE.format("DistributionPolicy"): _count_routed,
    _ROUTE.format("WeightedRoundRobin"): _count_routed,
    _ROUTE.format("HashBucketPolicy"): _count_routed,
    "repro.engine.operators.hashjoin:HashJoin.__init__": _collect_join,
    _LOG.format("append"): _count("rows_logged"),
    _LOG.format("append_batch"): _count("rows_logged", _rows_passed),
    _LOG.format("append_block"): _count("rows_logged", _rows_passed),
}

#: Functions whose inclusive host time is a per-layer metric.
INCLUSIVE = {
    "dqp.deploy_ms": ("repro.dqp.deployment:deploy_query",),
    "planner.compile_ms": ("repro.planner.parser:parse",
                           "repro.planner.logical:build_logical_plan",
                           "repro.planner.optimizer:optimize"),
    "sched.placement_ms": ("repro.sched.fairshare:FairShare.placement_order",),
}

ROOT_SPAN = "perfbench:query"


class TraceTotals:
    """Self times and counts summed over the recorders of a traced
    pass, against the untraced CPU time of the same queries."""

    def __init__(self) -> None:
        self.layers: collections.Counter = collections.Counter()
        self.inclusive: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.join_rows = 0
        self.spans = 0
        self.root_s = 0.0
        self.traced_cpu_s = 0.0
        self.untraced_cpu_s = 0.0
        self.queries = 0
        self.written: pathlib.Path | None = None

    def add(self, recorder: spans.SpanRecorder, queries: int,
            traced_cpu_s: float, untraced_cpu_s: float) -> None:
        self.layers.update(recorder.layer_self_seconds())
        for metric, names in INCLUSIVE.items():
            self.inclusive[metric] += recorder.inclusive_seconds(names)
        self.counts.update(recorder.counts)
        self.join_rows += sum(join.build_count + join.probe_count
                              for join in recorder.collected["joins"])
        self.spans += len(recorder)
        self.root_s += recorder.root_seconds()
        self.traced_cpu_s += traced_cpu_s
        self.untraced_cpu_s += untraced_cpu_s
        self.queries += queries

    def metrics(self) -> dict:
        queries = max(self.queries, 1)
        per_query_ms = 1000.0 / queries
        counts = self.counts
        metrics = {
            metric: self.layers.get(layer, 0.0) * per_query_ms
            for layer, metric in catalog.SELF_TIME_METRIC.items()}
        metrics.update({
            metric: seconds * per_query_ms
            for metric, seconds in self.inclusive.items()})
        metrics.update({
            "sim.cpu_tasks_per_query": counts["cpu_tasks"] / queries,
            "net.messages_per_query": counts["messages"] / queries,
            "net.bytes_per_query": counts["bytes"] / queries,
            "services.gds_rows_per_query": counts["gds_rows"] / queries,
            "services.ws_calls_per_query": counts["ws_calls"] / queries,
            "engine.rows_routed_per_query": counts["rows_routed"] / queries,
            "engine.join_rows_per_query": self.join_rows / queries,
            "recovery.rows_logged_per_query":
                counts["rows_logged"] / queries,
            "trace.overhead": (self.traced_cpu_s
                               / max(self.untraced_cpu_s, 1e-9)),
        })
        return metrics

    def lines(self) -> list:
        per_query_ms = 1000.0 / max(self.queries, 1)
        covered = sum(self.layers.values())
        lines = [f"ledger: {self.spans} spans over {self.queries} traced "
                 f"queries, written to {self.written}; host self time "
                 f"per query (perf_counter):"]
        for layer, seconds in self.layers.most_common():
            lines.append(f"  {layer:<12} {seconds * per_query_ms:10.3f} ms "
                         f"{100.0 * seconds / max(covered, 1e-12):5.1f} %")
        lines.append(
            f"ledger: layer self times sum to "
            f"{covered * per_query_ms:.3f} ms/query of "
            f"{self.root_s * per_query_ms:.3f} ms traced; traced CPU "
            f"{self.traced_cpu_s * per_query_ms:.3f} ms/query against "
            f"{self.untraced_cpu_s * per_query_ms:.3f} ms untraced")
        return lines


def traced_call(recorder: spans.SpanRecorder, build, body):
    """``body(*build())`` with spans recorded; the build's own spans
    are dropped.  Returns (body's value, host CPU seconds of body)."""
    with spans.traced(recorder, HOOKS):
        built = build()
        gc.collect()
        recorder.clear()
        root = recorder.open(recorder.name_id(ROOT_SPAN, spans.BENCH_LAYER),
                             recorder.root_query)
        started = time.process_time()
        value = body(*built)
        cpu_s = time.process_time() - started
        recorder.close(root)
    return value, cpu_s


# -- shared helpers ---------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """``setup_s``: the fastest of several cold grid builds timed at
    different moments of a run.

    Each build uses a fresh seed, so it generates its data.  The run's
    own heap is frozen out of the collector during a round and each
    build starts from a collected heap, so a build costs the same
    whatever the run holds at that moment.  The host's speed changes
    for seconds at a time with the load of other processes, so builds
    taken at one moment can all be slow: the workload calls
    :meth:`round` at several points of the run, and the fastest build
    is reported, since no build can take less than its own work.
    """

    def __init__(self, build: typing.Callable[[int], typing.Any],
                 seed: int, per_round: int) -> None:
        self.build = build
        self.seed = seed
        self.per_round = per_round
        self.samples: list = []

    def round(self) -> None:
        gc.collect()
        gc.freeze()
        try:
            for _ in range(self.per_round):
                fresh = 1_000_000_000 + 1000 * self.seed + len(self.samples)
                gc.collect()
                started = time.process_time()
                self.build(fresh)
                self.samples.append(time.process_time() - started)
        finally:
            gc.unfreeze()

    def value(self) -> float:
        return min(self.samples)


def latency_metrics(responses: list) -> tuple[dict, list]:
    """``sim_p50_ms`` and ``sim_p95_ms`` under the ten-beyond rule."""
    fraction, tail = tail_percentile(responses)
    metrics = {"sim_p50_ms": percentile(responses, 0.50),
               "sim_p95_ms": tail}
    lines = []
    if fraction != 0.95:
        lines.append(f"sim_p95_ms reports p{round(fraction * 100)}: "
                     f"{len(responses)} samples, and p95 needs 200 for "
                     f"10 beyond it")
    return metrics, lines


def jittered(spec: DemoGridSpec, rng: random.Random) -> DemoGridSpec:
    """``spec`` with its per-tuple service costs (GDS access work for
    both tables, the WS call's base work) each scaled by a seeded
    factor in ``[1 - COST_JITTER, 1 + COST_JITTER]``.

    Without this a query's simulated cost would not depend on the seed
    (the generated values change, the work they cost does not), and an
    uncontended query would read the same response time on every seed.
    Costs are simulated work units, so the host does the same work
    whatever they are.
    """
    def scale(value: float) -> float:
        return value * (1.0 + rng.uniform(-COST_JITTER, COST_JITTER))
    return dataclasses.replace(
        spec,
        sequences_access_work=scale(spec.sequences_access_work),
        interactions_access_work=scale(spec.interactions_access_work),
        ws_base_work_ms=scale(spec.ws_base_work_ms))


# -- closed loop: the paper's single-query experiments ----------------------

@dataclasses.dataclass(frozen=True)
class PaperWorkload:
    """Closed loop, one client: K sequential queries, each on a fresh
    grid of the paper's size whose data seed and service costs derive
    from the workload seed."""

    name: str
    query: str
    adaptivity: AdaptivityConfig
    perturb: typing.Callable[[DemoGrid], None]
    queries: int
    traced_queries: int
    #: (value, source) of the paper's normalised response.
    paper: tuple
    experiments_md: float

    #: Cold builds timed for ``setup_s``, one at a time, spread evenly
    #: over the run.
    SETUP_BUILDS = 15

    def spec(self, seed: int, index: int) -> DemoGridSpec:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return jittered(DemoGridSpec(seed=rng.randrange(2 ** 31)), rng)

    def build(self, spec: DemoGridSpec, adaptive: bool):
        adaptivity = (self.adaptivity if adaptive
                      else AdaptivityConfig.disabled())
        grid = DemoGrid(spec, engine_config=engine_config_for(adaptivity))
        if adaptive:
            self.perturb(grid)
        scheduler = grid.scheduler(SchedulerConfig(max_concurrent=1))
        return grid, scheduler, adaptivity, attach_meters(grid)

    def setup_build(self, seed: int) -> None:
        self.build(DemoGridSpec(seed=seed), adaptive=True)

    def _run_query(self, grid, scheduler, adaptivity, meters):
        session = scheduler.submit(self.query, adaptivity=adaptivity)
        scheduler.drain()
        return grid, session, meters

    def execute(self, spec: DemoGridSpec, adaptive: bool,
                recorder: spans.SpanRecorder | None = None) -> dict:
        """One query on a fresh grid; returns its observations."""
        if recorder is None:
            built = self.build(spec, adaptive)
            gc.collect()
            started = time.process_time()
            grid, session, meters = self._run_query(*built)
            host_s = time.process_time() - started
        else:
            (grid, session, meters), host_s = traced_call(
                recorder, lambda: self.build(spec, adaptive),
                self._run_query)
        outcome = session.outcome
        ok = session.state == STATE_COMPLETED
        digest = row_digest(outcome.values()) if ok else None
        return {
            "grid": grid, "session": session, "meters": meters,
            "host_s": host_s, "ok": ok, "digest": digest,
            "result": outcome if ok else None,
            "fingerprint": (LABELS[self.query], digest,
                            repr(outcome.response_time_ms) if ok
                            else getattr(outcome, "cause", "lost"),
                            accepted_weights(grid)),
        }

    def run(self, seed: int, seconds: float, trace: bool) -> Measurement:
        deadline = time.perf_counter() + seconds
        errors: list = []
        ledger = Ledger()
        specs = [self.spec(seed, index) for index in range(self.queries)]
        prints: list = []
        responses: list = []
        ratios: list = []
        host: list = []
        setup = None if trace else SetupTimer(self.setup_build, seed, 1)
        setup_due = [time.perf_counter() + seconds * step / self.SETUP_BUILDS
                     for step in range(self.SETUP_BUILDS)]

        def pace_setup() -> None:
            if (setup is not None and setup_due
                    and time.perf_counter() >= setup_due[0]):
                setup_due.pop(0)
                setup.round()

        for index, spec in enumerate(specs):
            pace_setup()
            reference = self.execute(spec, adaptive=False)
            run = self.execute(spec, adaptive=True)
            host.append(run["host_s"])
            prints.append(run["fingerprint"])
            session = run["session"]
            if not (run["ok"] and reference["ok"]
                    and run["digest"] == reference["digest"]):
                errors.append(f"query {index}: result rows differ from "
                              f"the static unperturbed run")
                responses.append(math.inf)
                continue
            response = run["result"].response_time_ms
            responses.append(response)
            ratios.append(response / reference["result"].response_time_ms)
            ledger.queries += 1
            ledger.add_result(run["result"])
            ledger.add_grid(run["grid"], run["meters"],
                            session.submitted_at, session.completed_at)
            ledger.queue_waits.append(session.queue_wait_ms)
        attempted = len(specs)
        failed = len(errors)
        diagnostics = [
            f"workload {self.name}: closed loop, 1 client, {attempted} "
            f"queries on fresh grids, seed {seed}"]
        if trace:
            totals = self._traced(specs, prints, host, errors)
            metrics = totals.metrics()
            metrics.update(ledger.metrics())
            diagnostics += totals.lines()
        else:
            repeats = 0
            while time.perf_counter() < deadline:
                pace_setup()
                index = repeats % len(specs)
                run = self.execute(specs[index], adaptive=True)
                host.append(run["host_s"])
                if run["fingerprint"] != prints[index]:
                    errors.append(f"repeat of query {index}: simulated "
                                  f"outcome differs from the first pass")
                repeats += 1
            for _missed in setup_due:
                setup.round()
            done = [value for value in responses if value != math.inf]
            metrics = {
                "sim_response_ms": percentile(responses, 0.50),
                "normalised_response": (percentile(ratios, 0.50)
                                        if ratios else math.inf),
                "sim_throughput_qps": (len(done) / (sum(done) / 1000.0)
                                       if done else 0.0),
                "host_ms_per_query": 1000.0 * median(host[1:] or host),
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": setup.value(),
            }
            latency, lines = latency_metrics(responses)
            metrics.update(latency)
            diagnostics += lines
            diagnostics.append(
                f"host_ms_per_query: median of {len(host) - 1} queries "
                f"after a warm-up, {repeats} of them repeats; setup_s: "
                f"fastest of {len(setup.samples)} builds spread over the "
                f"run")
            paper_value, paper_source = self.paper
            diagnostics.append(
                f"normalised_response {metrics['normalised_response']:.4f}"
                f" against the paper's {paper_value} ({paper_source}) and "
                f"EXPERIMENTS.md's {self.experiments_md}")
        diagnostics += ledger.bottleneck_lines()
        diagnostics.append(f"sim_fingerprint {fingerprint(prints)}")
        diagnostics.append(f"failed_share {failed / attempted:.4f} "
                           f"({failed} of {attempted})")
        return Measurement(metrics, diagnostics, attempted, failed, errors)

    def _traced(self, specs, prints, host, errors) -> TraceTotals:
        # Query 0 carries the process's warm-up, so tracing starts at 1.
        totals = TraceTotals()
        for index in range(1, 1 + min(self.traced_queries, len(specs) - 1)):
            recorder = spans.SpanRecorder()
            recorder.root_query = recorder.query_id(f"query-{index}")
            run = self.execute(specs[index], adaptive=True,
                               recorder=recorder)
            if run["fingerprint"] != prints[index]:
                errors.append(f"traced query {index}: simulated outcome "
                              f"differs from the untraced run")
            totals.add(recorder, 1, run["host_s"], host[index])
            totals.written = write_spans(recorder, self.name)
        return totals


def write_spans(recorder: spans.SpanRecorder, workload: str
                ) -> pathlib.Path:
    path = SPANS_DIR / f"spans-{workload}.bin"
    recorder.write(path)
    return path


# -- open loop: Poisson arrivals into the multi-query scheduler -------------

@dataclasses.dataclass(frozen=True)
class OpenWorkload:
    """Open loop: ``queries`` arrivals of a Poisson process at
    ``rate_qps``, conditioned on their count (sorted uniform due times
    over ``queries / rate_qps`` seconds), half Q1 and half Q2 in a
    seeded order, submitted at their due times whatever the grid's
    state."""

    name: str
    grid_spec: DemoGridSpec
    rate_qps: float
    queries: int
    #: Arrivals in the stream of a ``--trace 1`` run (both passes).
    traced_queries: int
    scheduler: SchedulerConfig
    adaptivity: AdaptivityConfig
    perturb: typing.Callable[[DemoGrid], None] | None = None
    degree: int | None = None
    metrics_enabled: bool = True
    fault_tolerance: FaultToleranceConfig | None = None
    #: Permanent machine crashes (see :meth:`crash_schedule`).
    crashes: int = 0

    #: Cold builds timed for ``setup_s``, in rounds before the
    #: references, before the first pass, after it and at the end.
    SETUP_BUILDS = 60
    SETUP_ROUNDS = 4

    @property
    def window_ms(self) -> float:
        return 1000.0 * self.queries / self.rate_qps

    def arrivals(self, grid: DemoGrid) -> list:
        """``(due ms, query text)`` of each arrival, from the grid's
        seeded stream."""
        rng = grid.context.random.stream("perfbench-arrivals")
        due = sorted(rng.uniform(0.0, self.window_ms)
                     for _ in range(self.queries))
        texts = [Q1, Q2] * (self.queries // 2) + [Q1] * (self.queries % 2)
        rng.shuffle(texts)
        return list(zip(due, texts))

    def crash_schedule(self, seed: int, due: list) -> tuple:
        """Seeded permanent crashes that hit queries in flight.

        Least-loaded placement puts the query that arrives at an idle
        grid on the two lowest-numbered live compute machines, so crash
        ``i`` takes down ``compute-{i + 1}`` :data:`CRASH_DELAY_MS` after
        such an arrival (one after :data:`IDLE_GAP_MS` of quiet), chosen
        by the seed between 20 % and 70 % of the arrival window.
        """
        rng = random.Random(f"{self.name}:crashes:{seed}")
        low, high = 0.2 * self.window_ms, 0.7 * self.window_ms
        quiet = [when for before, when in zip(due, due[1:])
                 if when - before >= IDLE_GAP_MS and low <= when <= high]
        chosen = sorted(rng.sample(quiet, min(self.crashes, len(quiet))))
        return tuple(MachineCrash(f"compute-{index + 1}",
                                  at_ms=when + CRASH_DELAY_MS)
                     for index, when in enumerate(chosen))

    def grid(self, seed: int, reference: bool = False) -> DemoGrid:
        spec = jittered(dataclasses.replace(self.grid_spec, seed=seed),
                        random.Random(f"{self.name}:costs:{seed}"))
        grid = DemoGrid(spec, metrics_enabled=self.metrics_enabled,
                        fault_tolerance=self.fault_tolerance)
        if self.perturb is not None and not reference:
            self.perturb(grid)
        return grid

    def build(self, seed: int):
        """The grid of a pass, with its arrivals and crash schedule."""
        grid = self.grid(seed)
        arrivals = self.arrivals(grid)
        if self.crashes:
            grid.context.install_chaos(ChaosConfig.lossy(
                crashes=self.crash_schedule(
                    seed, [when for when, _text in arrivals])))
        return (grid, grid.scheduler(self.scheduler), attach_meters(grid),
                arrivals)

    def setup_build(self, seed: int) -> None:
        self.grid(seed).scheduler(self.scheduler)

    def references(self, seed: int) -> dict:
        """Rows and response time of each query alone, static, on the
        unperturbed, crash-free grid of this seed."""
        references = {}
        for text in (Q1, Q2):
            scheduler = self.grid(seed, reference=True).scheduler(
                SchedulerConfig(max_concurrent=1))
            session = scheduler.submit(
                text, adaptivity=AdaptivityConfig.disabled(),
                degree=self.degree)
            scheduler.drain()
            if session.state != STATE_COMPLETED:
                raise RuntimeError(f"reference {LABELS[text]} failed: "
                                   f"{session.outcome}")
            references[text] = (row_digest(session.outcome.values()),
                                session.outcome.response_time_ms)
        return references

    def _arrivals(self, grid, scheduler, arrivals: list, rejected: list):
        env = grid.context.env
        for when, text in arrivals:
            if when > env.now:
                yield env.timeout(when - env.now)
            try:
                scheduler.submit(text, adaptivity=self.adaptivity,
                                 degree=self.degree)
            except AdmissionRejected:
                rejected.append(text)

    def _run_pass(self, grid, scheduler, meters, arrivals):
        rejected: list = []
        env = grid.context.env
        env.run(until=env.process(
            self._arrivals(grid, scheduler, arrivals, rejected),
            name="perfbench-arrivals"))
        scheduler.drain()
        return grid, scheduler, meters, rejected

    def execute(self, seed: int,
                recorder: spans.SpanRecorder | None = None) -> dict:
        """One pass over the whole arrival stream."""
        if recorder is None:
            built = self.build(seed)
            gc.collect()
            started = time.process_time()
            grid, scheduler, meters, rejected = self._run_pass(*built)
            host_s = time.process_time() - started
        else:
            (grid, scheduler, meters, rejected), host_s = traced_call(
                recorder, lambda: self.build(seed), self._run_pass)
        prints = [(LABELS[session.query_text], session.state,
                   row_digest(session.outcome.values())
                   if session.state == STATE_COMPLETED
                   else getattr(session.outcome, "cause", "lost"),
                   repr(session.submitted_at), repr(session.completed_at))
                  for session in scheduler.sessions]
        prints.append(accepted_weights(grid))
        prints.append(len(rejected))
        return {"grid": grid, "scheduler": scheduler, "meters": meters,
                "rejected": rejected, "host_s": host_s, "prints": prints}

    def _first_pass(self, seed: int, references: dict,
                    ledger: Ledger) -> dict:
        """The checked first pass.  Returns what the run reports from it,
        so that its grid is freed before any later pass."""
        errors: list = []
        first = self.execute(seed)
        scheduler = first["scheduler"]
        sessions = scheduler.sessions
        rejected = len(first["rejected"])
        ledger.queries = len(sessions)
        responses: list = [math.inf] * rejected
        executions: list = []
        ratios: list = []
        terminals: list = []
        wrong = unsettled = failures = 0
        for session in sessions:
            if session.completed_at is None:
                unsettled += 1
                responses.append(math.inf)
                continue
            terminals.append(session.completed_at)
            if session.queue_wait_ms is not None:
                ledger.queue_waits.append(session.queue_wait_ms)
            if session.state != STATE_COMPLETED:
                failures += 1
                responses.append(math.inf)
                continue
            digest, alone_ms = references[session.query_text]
            result = session.outcome
            if row_digest(result.values()) != digest:
                wrong += 1
                responses.append(math.inf)
                continue
            ledger.add_result(result)
            responses.append(session.response_ms)
            executions.append(session.execution_ms)
            ratios.append(session.execution_ms / alone_ms)
        outcomes = scheduler.drain()
        if unsettled or len(outcomes) != len(sessions):
            errors.append(f"{unsettled} admitted queries never reached a "
                          f"terminal outcome")
        if wrong:
            errors.append(f"{wrong} completed queries returned rows that "
                          f"differ from the reference")
        first_due = min(session.submitted_at for session in sessions)
        last_terminal = max(terminals)
        ledger.totals["retries"] += scheduler.statistics().retried
        ledger.add_grid(first["grid"], first["meters"], first_due,
                        last_terminal)
        by_due = [response for _due, response in sorted(
            zip((session.submitted_at for session in sessions),
                responses[rejected:]))]
        quarter = max(1, len(by_due) // 4)
        early, late = median(by_due[:quarter]), median(by_due[-quarter:])
        if quarter >= BACKLOG_MIN_QUARTER and late > BACKLOG_RATIO * early:
            errors.append(
                f"unsteady: the last quarter of arrivals took "
                f"{late:.0f} ms at the median against {early:.0f} ms for "
                f"the first; the offered rate is above capacity")
        return {
            "prints": first["prints"], "host_s": first["host_s"],
            "admitted": len(sessions), "rejected": rejected,
            "failed": rejected + failures + wrong + unsettled,
            "errors": errors, "responses": responses,
            "executions": executions, "ratios": ratios,
            "span_s": (last_terminal - first_due) / 1000.0,
            "early": early, "late": late,
        }

    def run(self, seed: int, seconds: float, trace: bool) -> Measurement:
        if trace and self.traced_queries < self.queries:
            shorter = dataclasses.replace(self, queries=self.traced_queries)
            return shorter.run(seed, seconds, trace)
        deadline = time.perf_counter() + seconds
        errors: list = []
        setup = SetupTimer(self.setup_build, seed,
                           self.SETUP_BUILDS // self.SETUP_ROUNDS)
        if not trace:
            setup.round()
        references = self.references(seed)
        if not trace:
            setup.round()
        ledger = Ledger()
        first = self._first_pass(seed, references, ledger)
        errors += first["errors"]
        rejected, admitted = first["rejected"], first["admitted"]
        attempted, failed = admitted + rejected, first["failed"]
        early, late = first["early"], first["late"]
        diagnostics = [
            f"workload {self.name}: open loop, Poisson {self.rate_qps:g} "
            f"qps conditioned on {self.queries} arrivals, seed {seed}; "
            f"admitted {admitted}, rejected {rejected}"]
        host = [first["host_s"] / max(admitted, 1)]
        if trace:
            recorder = spans.SpanRecorder()
            traced = self.execute(seed, recorder=recorder)
            if traced["prints"] != first["prints"]:
                errors.append("traced pass: simulated outcome differs from "
                              "the untraced pass")
            totals = TraceTotals()
            totals.add(recorder, admitted, traced["host_s"],
                       first["host_s"])
            totals.written = write_spans(recorder, self.name)
            metrics = totals.metrics()
            metrics.update(ledger.metrics())
            diagnostics += totals.lines()
        else:
            setup.round()
            passes = 1
            while time.perf_counter() + first["host_s"] < deadline:
                again = self.execute(seed)
                host.append(again["host_s"] / max(admitted, 1))
                if again["prints"] != first["prints"]:
                    errors.append(f"repeat pass {passes}: simulated "
                                  f"outcome differs from the first pass")
                passes += 1
            setup.round()
            executions, ratios = first["executions"], first["ratios"]
            metrics = {
                "sim_response_ms": (percentile(executions, 0.50)
                                    if executions else math.inf),
                "normalised_response": (percentile(ratios, 0.50)
                                        if ratios else math.inf),
                "sim_throughput_qps": len(executions) / first["span_s"],
                "host_ms_per_query": 1000.0 * median(host),
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": setup.value(),
            }
            latency, lines = latency_metrics(first["responses"])
            metrics.update(latency)
            diagnostics += lines
            diagnostics.append(
                f"host_ms_per_query: median over {passes} passes of the "
                f"pass's CPU, drain included, per admitted query; "
                f"setup_s: fastest of {len(setup.samples)} builds in "
                f"{self.SETUP_ROUNDS} rounds over the run")
            diagnostics.append(
                f"backlog check: median latency {early:.0f} ms in the "
                f"first quarter of arrivals, {late:.0f} ms in the last")
        diagnostics += ledger.bottleneck_lines()
        diagnostics.append(f"sim_fingerprint {fingerprint(first['prints'])}")
        diagnostics.append(f"failed_share {failed / attempted:.4f} "
                           f"({failed} of {attempted})")
        return Measurement(metrics, diagnostics, attempted, failed, errors)


# -- the catalogue ----------------------------------------------------------

def _ws10x(grid: DemoGrid) -> None:
    perturb_ws_cost(grid, 10.0)


def _join_sleep10(grid: DemoGrid) -> None:
    perturb_join_sleep(grid, 10.0)


def _ws10x_join_sleep12(grid: DemoGrid) -> None:
    perturb_ws_cost(grid, 10.0)
    perturb_join_sleep(grid, 12.0)


WORKLOADS = {
    workload.name: workload for workload in (
        PaperWorkload(
            name="paper-q1-ws10x", query=Q1,
            adaptivity=AdaptivityConfig(assessment="A1", response="R2"),
            perturb=_ws10x, queries=16, traced_queries=3,
            paper=(1.45, "Fig. 2(a), 10x, enabled"), experiments_md=1.38),
        PaperWorkload(
            name="paper-q2-sleep10", query=Q2,
            adaptivity=AdaptivityConfig(assessment="A1", response="R1"),
            perturb=_join_sleep10, queries=10, traced_queries=2,
            paper=(1.31, "Table 1, Q2-R1, ad/imb"), experiments_md=1.45),
        OpenWorkload(
            name="mq-perturbed",
            grid_spec=DemoGridSpec(sequences_cardinality=200,
                                   interactions_cardinality=300,
                                   sequence_length=32),
            rate_qps=0.12, queries=760, traced_queries=150,
            scheduler=SchedulerConfig(max_concurrent=4, max_queued=760),
            adaptivity=AdaptivityConfig(decision_latency_ms=300.0),
            perturb=_ws10x_join_sleep12),
        OpenWorkload(
            name="fleet-failover",
            grid_spec=DemoGridSpec(compute_machines=1000, sites=32,
                                   lazy_machines=True,
                                   sequences_cardinality=30,
                                   interactions_cardinality=45,
                                   sequence_length=8),
            rate_qps=2.0, queries=3600, traced_queries=750,
            scheduler=SchedulerConfig(
                max_concurrent=64, max_queued=3600,
                placement_candidates=16,
                retry=RetryPolicy(max_attempts=3, backoff_base_ms=200.0,
                                  backoff_cap_ms=2000.0)),
            adaptivity=AdaptivityConfig.disabled(), degree=2,
            metrics_enabled=False,
            fault_tolerance=FaultToleranceConfig(enabled=True),
            crashes=2),
    )
}
