"""Every JSON input is read by one schema rule: an unknown key anywhere but in
a free-form value (a state, a payload, a witness state) is refused with a
FormatError naming the file and the key path, and a file that does not
decode names itself."""

import copy
import json
import os

import pytest

from agentcontracts.assets import asset_path
from agentcontracts.bench import load_scenario, load_suite
from agentcontracts.cli import main
from agentcontracts.errors import FormatError
from agentcontracts.model import ExecutionTrace

FINANCIAL = asset_path("contracts", "financial-advisor.yaml")
DEMO_TRACE = asset_path("traces", "financial_advisor_demo.json")
UNKNOWN = "zz_unknown"

# Paths below which a value is free-form ("*" matches any list index).
SCENARIO_FREE = (("trace", "states", "*"), ("trace", "actions", "*", "payload"))
TRACE_FREE = (("states", "*"), ("actions", "*", "payload"))


def where(path) -> str:
    """A key path as the messages write it: ``trace.actions[1].label``."""
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else part)
    return out


def mapping_paths(value, free, path=()):
    """The path of every mapping in ``value`` outside the ``free`` paths."""
    if any(len(f) == len(path) and all(a in ("*", b) for a, b in zip(f, path)) for f in free):
        return
    if isinstance(value, dict):
        yield path
        for key, child in value.items():
            yield from mapping_paths(child, free, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from mapping_paths(child, free, path + (i,))


def with_key(doc, path, key=UNKNOWN):
    doc = copy.deepcopy(doc)
    node = doc
    for part in path:
        node = node[part]
    node[key] = 1
    return doc


def scenario_doc(suite_dir, domain):
    manifest = json.load(open(os.path.join(suite_dir, "manifest.json")))
    entry = next(e for e in manifest["scenarios"] if e["domain"] == domain)
    doc = json.load(open(os.path.join(suite_dir, entry["file"])))
    doc["contract"] = os.path.join(suite_dir, doc["contract"])
    return doc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUnknownKeys:
    @pytest.mark.parametrize("domain", ["financial-advisory", "composition"])
    def test_every_scenario_mapping_refuses_an_unknown_key(self, suite_dir, tmp_path, domain):
        doc = scenario_doc(suite_dir, domain)
        paths = list(mapping_paths(doc, SCENARIO_FREE))
        assert {(), ("trace",), ("expected",), ("trace", "actions", 0)} <= set(paths)
        for path in paths:
            bad = write(tmp_path, "s.json", with_key(doc, path))
            with pytest.raises(FormatError) as info:
                load_scenario(bad)
            assert str(info.value) == f"{bad}: {where(path + (UNKNOWN,))}: unknown key"

    def test_every_manifest_mapping_refuses_an_unknown_key(self, suite_dir, tmp_path):
        manifest = json.load(open(os.path.join(suite_dir, "manifest.json")))
        paths = list(mapping_paths(manifest, ()))
        assert len(paths) == 1 + len(manifest["scenarios"])
        for path in paths:
            bad = write(tmp_path, "manifest.json", with_key(manifest, path))
            with pytest.raises(FormatError) as info:
                load_suite(str(tmp_path))
            assert str(info.value) == f"{bad}: {where(path + (UNKNOWN,))}: unknown key"

    def test_every_trace_file_mapping_refuses_an_unknown_key(self, suite_dir, tmp_path, capsys):
        doc = scenario_doc(suite_dir, "composition")
        trace = dict(doc["trace"], boundaries=doc["boundaries"])
        pipeline = os.path.join(suite_dir, "contracts", "loan-pipeline.yaml")
        paths = list(mapping_paths(trace, TRACE_FREE))
        assert len(paths) == 1 + len(trace["actions"])
        for path in paths:
            bad = write(tmp_path, "t.json", with_key(trace, path))
            code, out, err = run_cli(capsys, "run", pipeline, bad)
            assert (code, out) == (2, "")
            assert err == f"error: {bad}: {where(path + (UNKNOWN,))}: unknown key\n"

    def test_unknown_keys_inside_free_form_values_still_load(self, suite_dir, tmp_path, capsys):
        doc = scenario_doc(suite_dir, "composition")
        for path in (("trace", "states", 0), ("trace", "actions", 0, "payload")):
            doc = with_key(doc, path)
        scenario = load_scenario(write(tmp_path, "s.json", doc))
        assert scenario.trace.states[0][UNKNOWN] == scenario.trace.actions[0].payload[UNKNOWN] == 1

        trace = with_key(with_key(json.load(open(DEMO_TRACE)), ("states", 0)),
                         ("actions", 0, "payload"))
        code, out, _ = run_cli(capsys, "run", FINANCIAL, write(tmp_path, "t.json", trace))
        assert code == 3 and json.loads(out)["verdicts"]["outcome"] == "soft_violation"

        witnesses = tmp_path / "witnesses"
        witnesses.mkdir()
        states = json.load(open(os.path.join(suite_dir, "witnesses", "states.json")))
        write(witnesses, "states.json", [dict(s, **{UNKNOWN: 1}) for s in states])
        pipeline = os.path.join(suite_dir, "contracts", "loan-pipeline.yaml")
        code, _, _ = run_cli(capsys, "compose", pipeline, "--witnesses", str(witnesses))
        assert code == 0

    def test_a_witness_action_refuses_an_unknown_key(self, suite_dir, tmp_path, capsys):
        witnesses = tmp_path / "witnesses"
        witnesses.mkdir()
        actions = json.load(open(os.path.join(suite_dir, "witnesses", "actions.json")))
        bad = write(witnesses, "actions.json", with_key(actions, (1,)))
        pipeline = os.path.join(suite_dir, "contracts", "loan-pipeline.yaml")
        code, out, err = run_cli(capsys, "compose", pipeline, "--witnesses", str(witnesses))
        assert (code, out, err) == (2, "", f"error: {bad}: [1].{UNKNOWN}: unknown key\n")


class TestMisspeltKeys:
    """Each of these loaded, and checked less than its author wrote."""

    def test_a_misspelt_expected_range(self, suite_dir, tmp_path):
        doc = scenario_doc(suite_dir, "financial-advisory")
        doc["expected"]["c_hard_rang"] = doc["expected"].pop("c_hard_range")
        bad = write(tmp_path, "s.json", doc)
        with pytest.raises(FormatError, match=r"s\.json: expected\.c_hard_rang: unknown key$"):
            load_scenario(bad)

    def test_an_unknown_top_level_scenario_key(self, suite_dir, tmp_path):
        doc = dict(scenario_doc(suite_dir, "financial-advisory"), boundries=[1])
        with pytest.raises(FormatError, match=r"s\.json: boundries: unknown key$"):
            load_scenario(write(tmp_path, "s.json", doc))

    def test_a_misspelt_actions_key(self):
        doc = {"states": [{}], "actions": [], "action": [{"label": "go"}]}
        with pytest.raises(FormatError, match=r"^action: unknown key$"):
            ExecutionTrace.from_dict(doc)

    @pytest.mark.parametrize("key", ["states", "actions"])
    def test_a_missing_states_or_actions_key(self, key):
        doc = {"states": [{}, {}], "actions": [{"label": "go"}]}
        del doc[key]
        with pytest.raises(FormatError, match=rf"^missing required field '{key}'$"):
            ExecutionTrace.from_dict(doc)

    def test_a_misspelt_payload(self):
        doc = {"states": [{}, {}], "actions": [{"label": "x", "payloda": {}}]}
        with pytest.raises(FormatError, match=r"^actions\[0\]\.payloda: unknown key$"):
            ExecutionTrace.from_dict(doc)

    def test_the_wire_shape_round_trips(self):
        doc = {"states": [{"x": 1}, {"x": 2}], "actions": [{"label": "go", "payload": {"a": 1}}]}
        assert ExecutionTrace.from_dict(doc).to_dict() == doc


# Inputs that do not decode, by command: (id, file name, content, argv with
# the file as "{}").  Each error names the file, and the command exits 2.
UNDECODABLE = [
    ("run-truncated", "t.json", b'{"states": [{}], "actions": ', ["run", FINANCIAL, "{}"]),
    ("run-not-utf8", "t.json", b'{"states": ["\xff"]}', ["run", FINANCIAL, "{}"]),
    ("certify-truncated", "obs.json", b"[1, 0", ["certify", "{}"]),
    ("certify-not-utf8", "obs.txt", b"1\n\xff\n", ["certify", "{}"]),
    ("bench-truncated", "manifest.json", b'{"scenarios": [', ["bench", "{dir}"]),
    ("bench-not-utf8", "manifest.json", b'{"scenarios": ["\xff"]}', ["bench", "{dir}"]),
]


@pytest.mark.parametrize("name,content,argv", [pytest.param(*c[1:], id=c[0]) for c in UNDECODABLE])
def test_an_undecodable_file_names_itself(capsys, tmp_path, name, content, argv):
    path = tmp_path / name
    path.write_bytes(content)
    argv = [a.format(path, dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid ")


@pytest.mark.parametrize("name", ["states.json", "actions.json"])
def test_an_undecodable_witness_file_names_itself(capsys, suite_dir, tmp_path, name):
    (tmp_path / name).write_text("[{")
    pipeline = os.path.join(suite_dir, "contracts", "loan-pipeline.yaml")
    code, out, err = run_cli(capsys, "compose", pipeline, "--witnesses", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path / name}: not valid JSON: ")

