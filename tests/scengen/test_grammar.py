"""Generator determinism and the scenario JSON round trip."""

import json
import random

import pytest

from repro.scengen.grammar import (
    GRAMMAR_VERSION,
    Scenario,
    ScenarioGrammar,
    derive_seed,
)
from repro.scengen.runner import probe_scenario

#: Line 0 of ``fuzz --budget 12 --seed 0``'s corpus under grammar v4
#: (probe fields the test does not read trimmed).  The scenario ran on
#: the row plane (``columnar: false``).
V4_CORPUS_LINE = (
    '{"index": 0, "id": "b313eb9a0c7b", '
    '"main": {"response_ms": 1874.16736, '
    '"rows_sha": "eedd9723b0e70cb6", "trace_sha": "cd0237ac4623bac1"}, '
    '"scenario": {"batch_size": 32, "chaos": {"crashes": '
    '[{"at_ms": 1000.0, "machine_index": 1}], "delay": 0.0, '
    '"delay_ms": 0.0, "drop": 0.0, "duplicate": 0.0, "freezes": [], '
    '"ws_failure": 0.0}, "columnar": false, "compute_machines": 3, '
    '"degree": null, "fault_tolerance": true, "grammar_version": 4, '
    '"interactions": 180, "lazy_machines": false, "pacing": "brisk", '
    '"perturbations": [], "policy": "chaos-aware", "query": "Q1", '
    '"rules": ["query:Q1", "size:medium", "world:2", "machines:3", '
    '"batch:32", "columnar:off", "policy:chaos-aware", "pacing:brisk", '
    '"perturbs:none", "chaos:crash", "fleet:none"], '
    '"seed": 11162301687296974365, "sequences": 120, "sites": 1, '
    '"world_seed": 2}}')


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_independent_axes(self):
        seeds = {derive_seed(master, index, version)
                 for master in (0, 1)
                 for index in (0, 1, 2)
                 for version in (1, 2)}
        assert len(seeds) == 12


class TestGeneration:
    def test_same_inputs_byte_identical_scenario(self):
        """(version, master seed, index, weights) fully determine a
        scenario — across independent grammar instances."""
        for index in range(20):
            first = ScenarioGrammar().generate(0, index)
            second = ScenarioGrammar().generate(0, index)
            assert first.canonical_json() == second.canonical_json()
            assert first.scenario_id == second.scenario_id

    def test_index_independence(self):
        """Scenario ``i`` does not depend on how many came before."""
        grammar = ScenarioGrammar()
        alone = grammar.generate(0, 5)
        after_others = None
        other = ScenarioGrammar()
        for index in range(6):
            after_others = other.generate(0, index)
        assert alone.canonical_json() == after_others.canonical_json()

    def test_weights_steer_choices(self):
        """Zero-weighting an axis value removes it from the corpus."""
        grammar = ScenarioGrammar({"query:Q1": 0.0})
        queries = {grammar.generate(0, index).query
                   for index in range(20)}
        assert queries == {"Q2"}

    def test_version_stamped(self):
        scenario = ScenarioGrammar().generate(0, 0)
        assert scenario.grammar_version == GRAMMAR_VERSION

    def test_columnar_axis_retired(self):
        """Grammar v5 draws no data-plane axis and records no rule."""
        grammar = ScenarioGrammar()
        for index in range(20):
            scenario = grammar.generate(0, index)
            assert "columnar" not in scenario.to_json()
            assert not any(rule.startswith("columnar:")
                           for rule in scenario.rules)

    def test_stale_columnar_weight_is_inert(self):
        """A v2-v4 weights file naming the retired axis leaves the
        corpus unchanged."""
        stale = ScenarioGrammar({"columnar:on": 0.0, "columnar:off": 9.0})
        fresh = ScenarioGrammar()
        for index in range(10):
            assert (stale.generate(0, index).canonical_json()
                    == fresh.generate(0, index).canonical_json())

    def test_columnar_defaults_on_for_old_corpora(self):
        """Old corpus records run on the columnar plane, the only one:
        a v4 record drawn on the retired row plane loads, and its main
        run reproduces the recorded rows, trace and response time."""
        line = json.loads(V4_CORPUS_LINE)
        scenario = Scenario.from_json(line["scenario"])
        assert scenario.grammar_version == 4
        assert "columnar" not in scenario.to_json()
        main = probe_scenario(scenario).main
        recorded = line["main"]
        assert main.rows_sha == recorded["rows_sha"]
        assert main.trace_sha == recorded["trace_sha"]
        assert main.response_ms == recorded["response_ms"]

    def test_freeze_chaos_implies_fault_tolerance(self):
        found_freeze = False
        grammar = ScenarioGrammar({"chaos:freeze": 50.0,
                                   "chaos:none": 0.0})
        for index in range(20):
            scenario = grammar.generate(0, index)
            if scenario.chaos is not None and scenario.chaos.freezes:
                found_freeze = True
                assert scenario.fault_tolerance
        assert found_freeze


class TestJsonRoundTrip:
    @pytest.mark.parametrize("index", range(10))
    def test_round_trip_identity(self, index):
        scenario = ScenarioGrammar().generate(0, index)
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        assert rebuilt.scenario_id == scenario.scenario_id

    def test_canonical_json_is_sorted_and_stable(self):
        scenario = ScenarioGrammar().generate(0, 0)
        assert scenario.canonical_json() == scenario.canonical_json()
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt.canonical_json() == scenario.canonical_json()


def test_pick_is_rng_stream_stable():
    """The weighted pick consumes exactly one draw per axis, so a
    weight change on one axis cannot shift later axes' draws."""
    grammar = ScenarioGrammar()
    rng = random.Random(1)
    chosen = []
    grammar._pick(rng, "query", (("Q1", "Q1"), ("Q2", "Q2")), chosen)
    state_after = rng.getstate()
    rng2 = random.Random(1)
    heavy = ScenarioGrammar({"query:Q2": 100.0})
    heavy._pick(rng2, "query", (("Q1", "Q1"), ("Q2", "Q2")), chosen)
    assert rng2.getstate() == state_after
