"""The paper policies are bit-identical to the pre-refactor controller.

The policy seam moved the Diagnoser's assessment arithmetic and the
Responder's decision gates behind :class:`AdaptationPolicy`.  The
refactor's contract is that the four registered ``paper-*`` instances
*are* the old controller — not approximately, but bit for bit.  The
fingerprints below were captured on the commit immediately before the
seam was introduced, for both CI grid seeds, and cover:

* the result rows (content hash),
* the full adaptivity trace timeline (timestamp/category/source/
  description of every event — any reordered or re-timed control
  decision changes this),
* the simulated response time,
* the total number of DES events scheduled (any extra or missing
  simulation step changes this), and
* the number of adaptations deployed.

A policy refactor that perturbs any control decision, however subtly,
fails loudly here.  Selection goes through ``policy="paper-XY"`` — the
new registry path — so name-keyed creation itself is part of what is
pinned.
"""

import hashlib
import os

import pytest

from repro.config import AdaptivityConfig
from repro.workloads import (
    DemoGrid,
    DemoGridSpec,
    Q1,
    Q2,
    perturb_join_sleep,
    perturb_ws_cost,
)

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))

#: scenario -> (query, perturbation applier).
SCENARIOS = {
    "Q1-ws10": (Q1, lambda grid: perturb_ws_cost(grid, factor=10.0)),
    "Q2-sleep20": (Q2,
                   lambda grid: perturb_join_sleep(grid, sleep_ms=20.0)),
}

#: "<scenario>|<AxRy>|seed<seed>" -> (rows sha, trace sha, response_ms,
#: DES events scheduled, adaptations accepted); captured pre-refactor.
#: The events element was recaptured (alone) when the callback state
#: machines stopped counting the no-op completion events of the
#: processes they replaced, and inline resumes stopped counting a
#: resume event that is never queued: ``events_scheduled`` now counts
#: only events passed to ``schedule()``.  Rows, trace, response time
#: and adaptations are byte-equal to the previous capture.  It was
#: recaptured (alone) again when a CPU task became its own completion
#: event and a link transfer a single delivery event (no wake, service
#: timeout, succeed hop or kick events), and a call's deadline timer
#: is withdrawn once the reply wins.
GOLDEN = {
    "Q1-ws10|A1R1|seed0": ("260d2403bcd62319", "9555e62173ad650c",
                           5948.63551999999, 1733, 1),
    "Q1-ws10|A1R1|seed1": ("afa4d010a63af86b", "9555e62173ad650c",
                           5948.63551999999, 1733, 1),
    "Q1-ws10|A1R2|seed0": ("63d5b0518482a56f", "53c5c363f7e4aaaa",
                           14868.38032, 1423, 1),
    "Q1-ws10|A1R2|seed1": ("d3d46eed8a15f59b", "53c5c363f7e4aaaa",
                           14868.38032, 1423, 1),
    "Q1-ws10|A2R1|seed0": ("260d2403bcd62319", "5817e1115e45d012",
                           5935.240319999991, 1729, 1),
    "Q1-ws10|A2R1|seed1": ("afa4d010a63af86b", "5817e1115e45d012",
                           5935.240319999991, 1729, 1),
    "Q1-ws10|A2R2|seed0": ("63d5b0518482a56f", "53c5c363f7e4aaaa",
                           14868.38032, 1423, 1),
    "Q1-ws10|A2R2|seed1": ("d3d46eed8a15f59b", "53c5c363f7e4aaaa",
                           14868.38032, 1423, 1),
    # The Q2 fingerprints were recaptured when the hash join's build
    # channel became a state channel (the producer retains routed rows
    # and copy-replays moved buckets on *every* bucket-map change, not
    # only retrospective ones): R1 runs deliver the same row multiset
    # in a different arrival order, and every adaptive run schedules
    # the extra retention/replay events.  The R2 response times are
    # bit-identical to the previous capture — the state replay is off
    # the critical path — and the result multiset was verified against
    # the static plan before recapturing.
    "Q2-sleep20|A1R1|seed0": ("d42954e95661552e", "07c7f3e25ab74981",
                              10349.951840000007, 3573, 1),
    "Q2-sleep20|A1R1|seed1": ("b43ead367341c463", "6c12fece9e8ae643",
                              10327.11816, 3541, 1),
    "Q2-sleep20|A1R2|seed0": ("08752dd6285e1250", "e3510693aa45c0ec",
                              15005.757439999994, 3323, 1),
    "Q2-sleep20|A1R2|seed1": ("9c9bae50fd80fa62", "2009cd22b977053e",
                              15325.052159999994, 3299, 1),
    "Q2-sleep20|A2R1|seed0": ("cc7f60e30985a8fa", "2bc8ca32cf48a179",
                              10902.454240000001, 3497, 1),
    "Q2-sleep20|A2R1|seed1": ("ec0834e7b784cec8", "eb37719660c54855",
                              10560.734559999999, 3505, 1),
    "Q2-sleep20|A2R2|seed0": ("08752dd6285e1250", "bc4a3da2cb0187b9",
                              15005.757439999994, 3274, 1),
    "Q2-sleep20|A2R2|seed1": ("9c9bae50fd80fa62", "fd5aca34782d4721",
                              15325.052159999994, 3262, 1),
}


def fingerprint(scenario: str, policy_name: str):
    query, perturb = SCENARIOS[scenario]
    grid = DemoGrid(DemoGridSpec(sequences_cardinality=600,
                                 interactions_cardinality=900,
                                 seed=SEED))
    perturb(grid)
    result = grid.run(query, AdaptivityConfig(policy=policy_name))
    timeline = [(event.timestamp, event.category, event.source,
                 event.description)
                for event in grid.context.tracer.events]
    rows_sha = hashlib.sha256(
        "\n".join(repr(row) for row in result.rows)
        .encode()).hexdigest()[:16]
    trace_sha = hashlib.sha256(repr(timeline).encode()).hexdigest()[:16]
    return (rows_sha, trace_sha, result.response_time_ms,
            grid.context.env.events_scheduled,
            result.stats.adaptations_accepted)


@pytest.mark.parametrize("combo", ["A1R1", "A1R2", "A2R1", "A2R2"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_paper_policy_bit_identical_to_pre_refactor(scenario, combo):
    key = f"{scenario}|{combo}|seed{SEED}"
    if key not in GOLDEN:
        pytest.skip(f"no golden captured for seed {SEED}")
    assert fingerprint(scenario, f"paper-{combo}") == GOLDEN[key]


def test_axes_config_and_named_policy_share_one_controller():
    """Legacy axes spelling resolves to the very same policy."""
    from repro.policy import create_policy

    legacy = AdaptivityConfig(assessment="A2", response="R1")
    named = AdaptivityConfig(policy="paper-A2R1")
    assert legacy.policy_name == named.policy_name == "paper-A2R1"
    assert named.assessment == "A2" and named.response == "R1"
    assert type(create_policy(legacy)) is type(create_policy(named))
    assert create_policy(legacy).name == create_policy(named).name
