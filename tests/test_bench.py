"""Scenario loading, scoring, and aggregation."""

import json
import os
import shutil

import pytest

from agentcontracts import bench, composition
from agentcontracts.bench import (
    aggregate,
    load_scenario,
    load_suite,
    score_scenario,
    score_suite,
)
from agentcontracts.errors import DanglingConstraintRef, FormatError

from helpers import BAD_MANIFESTS, BAD_SCENARIO_SHAPES, BAD_TRACE_SHAPES


def scenario_files(suite_dir):
    manifest = json.load(open(os.path.join(suite_dir, "manifest.json")))
    return manifest["scenarios"]


class TestLoadScenario:
    def test_composition_scenario_has_boundaries(self, suite_dir):
        entry = next(e for e in scenario_files(suite_dir)
                     if e["domain"] == "composition")
        scenario = load_scenario(os.path.join(suite_dir, entry["file"]))
        assert scenario.boundaries == (2, 4)
        assert scenario.pipeline is not None
        assert scenario.contract.name.count("+") == 2  # three composed stages

    def test_agent_scenario_loads_contract(self, suite_dir):
        entry = next(e for e in scenario_files(suite_dir)
                     if e["domain"] == "financial-advisory")
        scenario = load_scenario(os.path.join(suite_dir, entry["file"]))
        assert scenario.contract.kind == "agent"
        assert scenario.trace.length >= 1

    def test_unknown_expected_constraint_rejected(self, suite_dir, tmp_path):
        entry = next(e for e in scenario_files(suite_dir)
                     if e["domain"] == "customer-support")
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["expected"]["violations"] = [[0, "no-such-constraint"]]
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DanglingConstraintRef):
            load_scenario(str(bad))

    def test_zero_step_trace_rejected(self, suite_dir, tmp_path):
        entry = scenario_files(suite_dir)[0]
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["trace"] = {"states": [doc["trace"]["states"][0]], "actions": []}
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_scenario(str(bad))

    @pytest.mark.parametrize("shape", [pytest.param(f, id=i) for i, f in BAD_TRACE_SHAPES])
    def test_malformed_trace_rejected_naming_the_file(self, suite_dir, tmp_path, shape):
        entry = scenario_files(suite_dir)[0]
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["trace"] = shape(doc["trace"])
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="bad.json: trace"):
            load_scenario(str(bad))

    @staticmethod
    def with_boundaries(suite_dir, tmp_path, domain, boundaries):
        entry = next(e for e in scenario_files(suite_dir) if e["domain"] == domain)
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["boundaries"] = boundaries
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return str(bad)

    @pytest.mark.parametrize("domain,boundaries", [
        ("composition", None), ("composition", []), ("composition", ["a", "b"]),
        ("composition", [4, 2]), ("composition", [2]), ("composition", [2, 4, 5]),
        ("composition", [2, 99]), ("composition", 7), ("composition", [True, 4]),
        ("financial-advisory", [1]),
    ])
    def test_bad_boundaries_rejected_naming_the_file(self, suite_dir, tmp_path,
                                                     domain, boundaries):
        bad = self.with_boundaries(suite_dir, tmp_path, domain, boundaries)
        with pytest.raises(FormatError, match="bad.json"):
            load_scenario(bad)

    @pytest.mark.parametrize("violations", [
        [["x", "y"]], [[1.5, "c"]], [[True, "c"]], [["1", "c"]], [[0]], [0], "0", {"0": "c"},
    ])
    def test_bad_expected_violations_rejected_naming_the_file(self, suite_dir, tmp_path,
                                                             violations):
        entry = scenario_files(suite_dir)[0]
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["expected"]["violations"] = violations
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="bad.json"):
            load_scenario(str(bad))

    @pytest.mark.parametrize("shape", [pytest.param(f, id=i) for i, f in BAD_SCENARIO_SHAPES])
    def test_malformed_scenario_rejected_naming_the_file(self, suite_dir, tmp_path, shape):
        entry = scenario_files(suite_dir)[0]
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(shape(doc)))
        with pytest.raises(FormatError, match="bad.json: "):
            load_scenario(str(bad))

    def test_missing_fields_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"id": "x"}))
        with pytest.raises(FormatError):
            load_scenario(str(bad))


class TestLoadSuite:
    def test_each_contract_file_loaded_once(self, suite_dir, monkeypatch):
        loads, composes = [], []
        real_load, real_compose = bench.load_document, composition.compose_chain
        monkeypatch.setattr(bench, "load_document",
                            lambda path: loads.append(path) or real_load(path))
        monkeypatch.setattr(composition, "compose_chain",
                            lambda *a: composes.append(1) or real_compose(*a))
        scenarios = load_suite(suite_dir)
        referenced = {json.load(open(os.path.join(suite_dir, e["file"])))["contract"]
                      for e in scenario_files(suite_dir)}
        assert len(loads) == len(set(loads)) == len(referenced)
        assert len(composes) == 1
        uncached = [load_scenario(os.path.join(suite_dir, e["file"]))
                    for e in scenario_files(suite_dir)]
        assert scenarios == uncached

    def test_edited_contract_seen_by_next_call(self, suite_dir, tmp_path):
        suite = tmp_path / "suite"
        shutil.copytree(suite_dir, suite)
        entry = next(e for e in scenario_files(str(suite))
                     if e["domain"] == "financial-advisory")
        doc = json.load(open(suite / entry["file"]))
        contract_file = suite / doc["contract"]
        name = next(s for s in load_suite(str(suite)) if s.id == doc["id"]).contract.name
        contract_file.write_text(contract_file.read_text().replace(
            f"name: {name}", f"name: {name}-edited", 1))
        edited = next(s for s in load_suite(str(suite)) if s.id == doc["id"])
        assert edited.contract.name == f"{name}-edited"

    @pytest.mark.parametrize("manifest,named",
                             [pytest.param(m, n, id=i) for i, m, n in BAD_MANIFESTS])
    def test_malformed_manifest_rejected_naming_the_manifest(self, tmp_path, manifest, named):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError) as info:
            load_suite(str(tmp_path))
        assert "manifest.json: " in str(info.value) and named in str(info.value)


class TestScoring:
    def test_all_expected_violations_detected(self, suite_dir):
        scenarios = load_suite(suite_dir)
        withv = [s for s in scenarios if s.expected.violations]
        assert withv
        for scenario in withv[:6]:
            score = score_scenario(scenario)
            assert score.detection_accuracy == 1.0
            assert score.false_flags == 0
            assert score.passed

    def test_partial_detection_scored_fractionally(self, suite_dir, tmp_path):
        # Add a phantom expectation the engine cannot flag: accuracy halves.
        doc = None
        for entry in scenario_files(suite_dir):
            if entry["domain"] != "code-generation":
                continue
            candidate = json.load(open(os.path.join(suite_dir, entry["file"])))
            if candidate["expected"]["violations"]:
                doc = candidate
                break
        assert doc is not None, "generator always includes violating scenarios"
        known = doc["expected"]["violations"][:1]
        contract_doc = os.path.join(suite_dir, doc["contract"])
        doc["contract"] = contract_doc
        other_step = (known[0][0] + 2) % len(doc["trace"]["actions"])
        doc["expected"]["violations"] = [known[0], [other_step, "no-secrets"]]
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        score = score_scenario(load_scenario(str(path)))
        assert score.detection_accuracy == 0.5
        assert not score.passed
        assert any("missed" in r for r in score.reasons)

    def test_outcome_mismatch_reported(self, suite_dir, tmp_path):
        entry = next(e for e in scenario_files(suite_dir)
                     if e["difficulty"] == "easy")
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        doc["expected"]["outcome"] = "hard_violation"
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        score = score_scenario(load_scenario(str(path)))
        assert not score.passed
        assert any("outcome" in r for r in score.reasons)

    def test_scoring_deterministic_and_order_independent(self, suite_dir):
        scenarios = load_suite(suite_dir)[:10]
        first = [score_scenario(s).to_dict() for s in scenarios]
        second = [score_scenario(s).to_dict() for s in reversed(scenarios)]
        assert first == list(reversed(second))


class TestAggregate:
    def test_single_perfect_scenario_mirrors_score(self, suite_dir):
        scenario = load_suite(suite_dir)[0]
        score = score_scenario(scenario)
        summary = aggregate([score])
        assert summary.overall["n"] == 1
        assert summary.overall["c_hard"] == pytest.approx(score.c_hard)
        assert summary.overall["theta"] == pytest.approx(score.theta)

    def test_domain_rows_plus_overall(self, suite_dir):
        scores = score_suite(load_suite(suite_dir))
        summary = aggregate(scores)
        domains = {r["domain"] for r in summary.rows}
        assert "composition" in domains
        assert len(domains) == 6
        assert summary.overall["n"] == len(scores)
        table = summary.to_table()
        assert "Domain" in table and "overall" in table

    def test_outcome_counts_sum(self, suite_dir):
        scores = score_suite(load_suite(suite_dir))
        summary = aggregate(scores)
        counts = summary.overall["outcomes"]
        assert sum(counts.values()) == len(scores)
