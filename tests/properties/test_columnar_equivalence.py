"""The columnar data plane reproduces the retired row plane bit for bit.

The columnar plane — scans, filters, projections, exchange routing,
hash-join probe matching, wire-block reassembly — replaced a
row-at-a-time plane that moved ``Row`` lists.  The two were asserted
bit-identical while both existed.  The goldens below were captured
from the row plane on the last commit that had it, for both CI grid
seeds, and pin the rows (content hash), the full traced timeline
(timestamp/category/source/description of every event) and the
simulated response time of static runs across the batch-size axis.

At ``batch_size=1`` every ``next_batch`` degrades to the per-tuple
``next`` path, which is the degenerate corner pinned here alongside
the hot 32/128 morsel sizes.
"""

import hashlib
import os

import pytest

from repro.config import AdaptivityConfig, EngineConfig
from repro.workloads import DemoGrid, DemoGridSpec, Q1, Q2

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
SPEC = DemoGridSpec(sequences_cardinality=150, interactions_cardinality=220,
                    sequence_length=24, seed=SEED)

BATCH_SIZES = (1, 32, 128)

#: "<query>-<batch size>|seed<seed>" -> (rows sha, timeline sha,
#: response ms), captured from the row plane.
GOLDEN = {
    "Q1-1|seed0": ("88719c8e2831dabc", "a906a7298f64a8fa",
                   1131.8848000000007),
    "Q1-32|seed0": ("88719c8e2831dabc", "15f332d09cbbcaf8",
                    1131.8847999999998),
    "Q1-128|seed0": ("88719c8e2831dabc", "79766fbefda951fe", 1131.8848),
    "Q2-1|seed0": ("dc9b34e9d529adf2", "c0d0155757174e3c",
                   1323.062079999998),
    "Q2-32|seed0": ("dc9b34e9d529adf2", "8f99fcb08fc4c8fc",
                    1327.5842399999992),
    "Q2-128|seed0": ("dc9b34e9d529adf2", "5f84bdb1d66a8eb5",
                     1323.0002399999998),
    "Q1-1|seed1": ("c566dd3f68988153", "a906a7298f64a8fa",
                   1131.8848000000007),
    "Q1-32|seed1": ("c566dd3f68988153", "15f332d09cbbcaf8",
                    1131.8847999999998),
    "Q1-128|seed1": ("c566dd3f68988153", "79766fbefda951fe", 1131.8848),
    "Q2-1|seed1": ("6be87d00c59fa504", "c970a02987615e48",
                   1317.5068799999974),
    "Q2-32|seed1": ("899133692efb7b5b", "fae95dc827c4fc54",
                    1334.7850399999993),
    "Q2-128|seed1": ("1ab67d9a4402c204", "4e615ffda018e450",
                     1328.4154399999993),
}


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def fingerprint(query_text, batch_size):
    grid = DemoGrid(SPEC, engine_config=EngineConfig(batch_size=batch_size))
    result = grid.run(query_text, AdaptivityConfig.disabled())
    timeline = [(event.timestamp, event.category, event.source,
                 event.description)
                for event in grid.context.tracer.events]
    return (sha([repr(row) for row in result.rows]), sha(timeline),
            result.response_time_ms)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("query_text", [Q1, Q2], ids=["Q1", "Q2"])
def test_columnar_bit_identical_static(query_text, batch_size):
    """Unperturbed static runs across the full batch-size axis."""
    name = "Q1" if query_text == Q1 else "Q2"
    key = f"{name}-{batch_size}|seed{SEED}"
    if key not in GOLDEN:
        pytest.skip(f"no golden captured for seed {SEED}")
    assert fingerprint(query_text, batch_size) == GOLDEN[key]
