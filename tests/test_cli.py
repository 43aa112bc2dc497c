"""CLI subcommands and the frozen exit-code contract."""

import json
import os
import shutil
import textwrap
from pathlib import Path

import pytest

from agentcontracts.assets import asset_path
from agentcontracts.cli import main
from agentcontracts.monitor import SessionReport

from helpers import BAD_MANIFESTS, BAD_SCENARIO_SHAPES, BAD_TRACE_SHAPES

FINANCIAL = asset_path("contracts", "financial-advisor.yaml")
DEMO_TRACE = asset_path("traces", "financial_advisor_demo.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_contract_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "validate", FINANCIAL)
        assert code == 0
        assert "valid" in out

    def test_schema_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text('contractspec: "1.0"\nname: x\n')  # missing kind
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "kind" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/nonexistent/contract.yaml")
        assert code == 2

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_ordering_operand_exits_one(self, capsys, tmp_path, value):
        doc = tmp_path / "nonfinite.yaml"
        doc.write_text(textwrap.dedent(f"""\
            contractspec: "1.0"
            kind: agent
            name: nonfinite
            invariants:
              hard:
                - name: cap
                  check: {{field: x, operator: lt, value: {value}}}
        """))
        code, _, err = run_cli(capsys, "validate", str(doc))
        assert code == 1
        assert "cap" in err and "finite" in err

    def test_json_format_is_machine_readable(self, capsys):
        code, out, _ = run_cli(capsys, "validate", FINANCIAL, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True


class TestRun:
    def clean_trace(self, tmp_path):
        doc = json.load(open(DEMO_TRACE))
        for state in doc["states"]:
            state["output"]["tone_score"] = 0.95
        for action in doc["actions"]:
            action["payload"]["latency_ms"] = 100
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_session_exits_zero(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", FINANCIAL, self.clean_trace(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"]["outcome"] == "compliant"

    def test_soft_violation_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, "run", FINANCIAL, DEMO_TRACE)
        assert code == 3
        payload = json.loads(out)
        assert payload["verdicts"]["outcome"] == "soft_violation"

    def test_hard_violation_exits_four(self, capsys, tmp_path):
        doc = json.load(open(DEMO_TRACE))
        doc["states"][3]["output"]["pii_detected"] = True
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "run", FINANCIAL, str(path))
        assert code == 4

    def test_bad_trace_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "run", FINANCIAL, str(path))
        assert code == 2

    def test_report_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "run", FINANCIAL, DEMO_TRACE,
                             "--out", str(out_path), "--format", "table")
        assert code == 3
        payload = json.loads(out_path.read_text())
        assert payload["contract"] == "financial-advisor"


    @pytest.mark.parametrize("out", [False, True])
    def test_table_format_prints_the_summary_line(self, capsys, tmp_path, out):
        extra = ("--out", str(tmp_path / "report.json")) if out else ()
        code, stdout, _ = run_cli(capsys, "run", FINANCIAL, DEMO_TRACE, "--format", "table",
                                  *extra)
        assert code == 3
        assert stdout.startswith("outcome: soft_violation  theta: ")
        assert stdout.count("\n") == 1
        assert (tmp_path / "report.json").exists() == out

    def test_table_format_without_out_builds_no_json(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(SessionReport, "to_json", lambda report: calls.append(report))
        code, stdout, _ = run_cli(capsys, "run", FINANCIAL, DEMO_TRACE, "--format", "table")
        assert code == 3 and stdout.startswith("outcome: soft_violation")
        assert calls == []

    @pytest.mark.parametrize("shape", [pytest.param(f, id=i) for i, f in BAD_TRACE_SHAPES])
    def test_malformed_trace_exits_two(self, capsys, tmp_path, shape):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(shape(json.load(open(DEMO_TRACE)))))
        code, out, err = run_cli(capsys, "run", FINANCIAL, str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: ") and not out

    def test_hook_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", FINANCIAL, DEMO_TRACE, "--hook", "none"])
        assert exc.value.code == 2
        assert "--hook" in capsys.readouterr().err


class TestRunBoundaries:
    def write_trace(self, tmp_path, suite_dir, boundaries):
        entry = next(e for e in json.load(open(os.path.join(suite_dir, "manifest.json")))
                     ["scenarios"] if e["domain"] == "composition")
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))["trace"]
        if boundaries is not None:
            doc["boundaries"] = boundaries
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        return os.path.join(suite_dir, "contracts", "loan-pipeline.yaml"), str(path)

    def test_valid_boundaries_run(self, capsys, tmp_path, suite_dir):
        pipe, trace = self.write_trace(tmp_path, suite_dir, [2, 4])
        code, out, _ = run_cli(capsys, "run", pipe, trace)
        assert code in (0, 3, 4)
        assert json.loads(out)["steps"]

    @pytest.mark.parametrize("boundaries", [
        None, [], [5, 3], [2], [2, 99], ["a", "b"], [2.0, 4.0], 7,
    ])
    def test_bad_boundaries_exit_two(self, capsys, tmp_path, suite_dir, boundaries):
        pipe, trace = self.write_trace(tmp_path, suite_dir, boundaries)
        code, out, err = run_cli(capsys, "run", pipe, trace)
        assert code == 2
        assert "boundar" in err and not out

    def test_agent_contract_with_boundaries_exits_two(self, capsys, tmp_path):
        doc = json.load(open(DEMO_TRACE))
        doc["boundaries"] = [1]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run", FINANCIAL, str(path))
        assert code == 2


class TestDrift:
    def test_design_matches_solver(self, capsys):
        code, out, _ = run_cli(capsys, "drift", "design", "--alpha", "0.05",
                               "--sigma", "0.1", "--dmax", "0.25",
                               "--epsilon", "0.05", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_min"] == pytest.approx(0.8312, abs=1e-4)
        assert payload["tail_probability_at_gamma_min"] == pytest.approx(0.05, abs=1e-9)

    def test_invalid_numerics_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "drift", "design", "--alpha", "0.05",
                               "--sigma", "0.1", "--dmax", "0.25",
                               "--epsilon", "1.5")
        assert code == 2

    def test_simulate_then_fit_round_trip_noiseless(self, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "drift", "simulate", "--alpha", "0.02",
                             "--gamma", "0.2", "--sigma", "0", "--d0", "0.5",
                             "--horizon", "40", "--dt", "0.01", "--seed", "3",
                             "--out", str(csv))
        assert code == 0
        code, out, _ = run_cli(capsys, "drift", "fit", str(csv), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["r_squared"] == pytest.approx(1.0, abs=1e-6)
        assert payload["gamma_hat"] == pytest.approx(0.2, abs=2e-3)

    def test_simulate_deterministic_given_seed(self, capsys, tmp_path):
        args = ("drift", "simulate", "--alpha", "0.02", "--gamma", "0.2",
                "--sigma", "0.05", "--d0", "0.1", "--horizon", "2",
                "--dt", "0.01", "--seed", "9")
        a = tmp_path / "a.csv"; b = tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_text() == b.read_text()


class TestCompose:
    def five_agent_pipeline(self, tmp_path):
        import yaml
        stage = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: stage-{i}
            invariants:
              hard:
                - name: s{i}-ok
                  check: {{field: data.ok, operator: eq, value: true}}
            satisfaction: {{p: 0.95, delta: 0.02, k: 1}}
        """)
        for i in range(5):
            (tmp_path / f"s{i}.yaml").write_text(stage.format(i=i))
        doc = {
            "contractspec": "1.0", "kind": "pipeline", "name": "five-chain",
            "stages": [{"name": f"st{i}", "contract": f"s{i}.yaml"} for i in range(5)],
            "handoffs": [{"from": f"st{i}", "to": f"st{i + 1}",
                          "p_h": 0.98, "delta_h": 0.01} for i in range(4)],
        }
        path = tmp_path / "pipe.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        return str(path)

    def test_broken_telephone_bounds(self, capsys, tmp_path):
        pipe = self.five_agent_pipeline(tmp_path)
        witnesses = tmp_path / "wit"
        witnesses.mkdir()
        (witnesses / "states.json").write_text(json.dumps([{"data": {"ok": True}}]))
        (witnesses / "actions.json").write_text(json.dumps([{"label": "go"}]))
        code, out, _ = run_cli(capsys, "compose", pipe, "--witnesses", str(witnesses),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        bounds = payload["chain_bounds"]
        assert bounds["p_chain_lower"] == pytest.approx(0.714, abs=1e-3)
        assert bounds["delta_chain_upper"] == pytest.approx(0.14)
        assert all(h["all_pass"] for h in payload["handoffs"])
        # JSON output round-trips into the report type.
        from agentcontracts.composition import ChainBounds
        rebuilt = ChainBounds(**bounds)
        assert rebuilt.to_dict() == bounds

    def test_generated_pipeline_with_witnesses(self, capsys, suite_dir):
        pipe = os.path.join(suite_dir, "contracts", "loan-pipeline.yaml")
        code, out, _ = run_cli(capsys, "compose", pipe, "--witnesses",
                               os.path.join(suite_dir, "witnesses"), "--format", "json")
        assert code == 0


    @pytest.mark.parametrize("name,content,named", [
        pytest.param("actions.json", [{"nolabel": 1}], "actions.json: [0].nolabel: unknown key",
                     id="action-without-label"),
        pytest.param("actions.json", {"label": "go"}, "document must be a sequence",
                     id="actions-not-a-list"),
        pytest.param("states.json", [5], "states.json: [0]: state must be a mapping",
                     id="state-not-a-mapping"),
    ])
    def test_malformed_witnesses_exit_two(self, capsys, tmp_path, name, content, named):
        pipe = self.five_agent_pipeline(tmp_path)
        witnesses = tmp_path / "wit"
        witnesses.mkdir()
        (witnesses / "states.json").write_text(json.dumps([{"data": {"ok": True}}]))
        (witnesses / name).write_text(json.dumps(content))
        code, out, err = run_cli(capsys, "compose", pipe, "--witnesses", str(witnesses))
        assert code == 2 and not out
        assert err.startswith("error: ") and name in err and named in err


class TestCertify:
    def test_all_success_decides_at_55(self, capsys, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([True] * 80))
        code, out, _ = run_cli(capsys, "certify", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["decisions"][0] == {"n": 55, "decision": "accept_h1"}

    def test_newline_format_accepted(self, capsys, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("\n".join(["1"] * 60))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == 0
        assert "accept_h1" in out

    def test_state_json_round_trips(self, capsys, tmp_path):
        from agentcontracts.certification import SprtState
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([True, False, True]))
        code, out, _ = run_cli(capsys, "certify", str(path), "--format", "json")
        payload = json.loads(out)
        state = SprtState(
            log_lambda=payload["state"]["log_lambda"], n=payload["state"]["n"],
            upper=payload["state"]["boundaries"]["upper"],
            lower=payload["state"]["boundaries"]["lower"],
            decision=payload["state"]["decision"])
        assert state.to_dict() == payload["state"]


    def test_json_outcomes_accepted(self, capsys, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([True, False, 1, 0]))
        code, out, _ = run_cli(capsys, "certify", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["observations"] == 4

    @pytest.mark.parametrize("name,text,bad", [
        pytest.param("obs.json", '[1, "a", [0], 2, null]', "[1]: observation must be 0 or 1",
                     id="json-mixed"),
        pytest.param("obs.json", "[1, 2]", "[1]: observation must be 0 or 1", id="json-two"),
        pytest.param("obs.json", "[1.0]", "[0]: observation must be 0 or 1", id="json-float"),
        pytest.param("obs.json", '["1"]', "[0]: observation must be 0 or 1", id="json-string"),
        pytest.param("obs.txt", "1\n7\n", "observation 1", id="line-seven"),
        pytest.param("obs.txt", "1\ntrue\n", "observation 1", id="line-word"),
    ])
    def test_observations_not_zero_or_one_exit_two(self, capsys, tmp_path, name, text, bad):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "certify", str(path))
        assert code == 2 and not out
        assert err.startswith("error: ") and name in err and bad in err


class TestBench:
    def test_generated_suite_scores_clean(self, capsys, suite_dir):
        code, out, _ = run_cli(capsys, "bench", suite_dir, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"]["detection_accuracy"] == 1.0
        assert payload["overall"]["n"] >= 50

    def test_seed7_suite_json_is_pinned(self, capsys, suite_dir):
        """The JSON report of generate_suite(seed=7) must stay byte-identical
        across refactors; the committed file is never regenerated to absorb
        a change."""
        code, out, _ = run_cli(capsys, "bench", suite_dir, "--format", "json")
        assert code == 0
        golden = Path(__file__).parent / "golden" / "suite_seed7_bench.json"
        assert out.encode("utf-8") == golden.read_bytes()

    def test_table_output(self, capsys, suite_dir):
        code, out, _ = run_cli(capsys, "bench", suite_dir)
        assert code == 0
        assert "Domain" in out and "overall" in out

    def test_jobs_flag_removed(self, capsys, suite_dir):
        with pytest.raises(SystemExit) as exc:
            main(["bench", suite_dir, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [pytest.param(f, id=i) for i, f in BAD_SCENARIO_SHAPES])
    def test_malformed_scenario_exits_two(self, capsys, suite_dir, tmp_path, shape):
        entry = json.load(open(os.path.join(suite_dir, "manifest.json")))["scenarios"][0]
        doc = json.load(open(os.path.join(suite_dir, entry["file"])))
        doc["contract"] = os.path.join(suite_dir, doc["contract"])
        (tmp_path / "bad.json").write_text(json.dumps(shape(doc)))
        (tmp_path / "manifest.json").write_text(json.dumps({"scenarios": [{"file": "bad.json"}]}))
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and "bad.json" in err and not out

    @pytest.mark.parametrize("manifest", [pytest.param(m, id=i) for i, m, _ in BAD_MANIFESTS])
    def test_malformed_manifest_exits_two(self, capsys, suite_dir, tmp_path, manifest):
        shutil.copytree(suite_dir, tmp_path, dirs_exist_ok=True)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and "manifest.json" in err and not out

    def test_generate_flag(self, capsys, tmp_path):
        target = tmp_path / "fresh"
        target.mkdir()
        code, out, _ = run_cli(capsys, "bench", str(target), "--generate", "--seed", "3")
        assert code == 0
        assert (target / "manifest.json").exists()
