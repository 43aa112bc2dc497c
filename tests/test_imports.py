"""Import surface: the lazily resolved names of the package, and the
commands that must start without numpy."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import agentcontracts
from agentcontracts.assets import asset_path

LAZY_NAMES = {
    "composition": ("ChainBounds", "ChainSpec", "ConditionReport", "HandoffSpec", "chain_bounds",
                    "check_conditions", "compose_chain", "compose_contracts",
                    "verify_chain_trace"),
    "bench": ("Scenario", "ScenarioScore", "aggregate", "load_scenario", "load_suite",
              "score_scenario", "score_suite"),
    "dynamics": ("DesignSpec", "OUFit", "OUParams", "design_gamma_approx", "fit_ou",
                 "mse_at_time", "simulate_ou", "simulate_ou_exact", "simulate_ou_paths",
                 "solve_design_gamma", "stationary_stats", "tail_probability"),
    "certification": ("CertificationStream", "SprtConfig", "SprtState",
                      "compliance_no_recovery", "compliance_with_recovery", "hoeffding_n",
                      "kl_bernoulli", "sprt_expected_n", "sprt_start", "sprt_update",
                      "sprt_update_batch"),
    "generator": ("generate_suite",),
}
LAZY = [(module, name) for module, names in LAZY_NAMES.items() for name in names]


class TestLazyNames:
    @pytest.mark.parametrize("module, name", LAZY)
    def test_name_is_the_submodule_object(self, module, name):
        owner = importlib.import_module(f"agentcontracts.{module}")
        assert getattr(agentcontracts, name) is getattr(owner, name)
        assert name in dir(agentcontracts)

    @pytest.mark.parametrize("module", sorted(LAZY_NAMES))
    def test_submodule_is_an_attribute(self, module):
        assert getattr(agentcontracts, module) is importlib.import_module(f"agentcontracts.{module}")
        assert module in dir(agentcontracts)

    def test_from_import(self):
        from agentcontracts import generate_suite, hoeffding_n, simulate_ou

        assert (simulate_ou.__module__, generate_suite.__module__, hoeffding_n.__module__) == (
            "agentcontracts.dynamics", "agentcontracts.generator", "agentcontracts.certification")

    def test_unknown_name(self):
        with pytest.raises(AttributeError,
                           match=r"^module 'agentcontracts' has no attribute 'nope'$"):
            agentcontracts.nope
        assert not hasattr(agentcontracts, "nope")
        assert "nope" not in dir(agentcontracts)


MODULES = ["agentcontracts"] + sorted(f"agentcontracts.{m.name}"
                                      for m in pkgutil.iter_modules(agentcontracts.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # A stale ``__all__`` entry (a name removed, its export left behind)
    # breaks ``from module import *`` and misleads readers.
    owner = importlib.import_module(module)
    assert [name for name in getattr(owner, "__all__", ()) if not hasattr(owner, name)] == []


# Runs in a fresh interpreter: each command line is a JSON argument.  Prints,
# after the imports and after each command, which of the modules off the
# paths of these commands are loaded: numpy and the modules that need it,
# certification, and the two modules CLI ``run`` does not use; and the block
# lengths drift has generated a sum for.
_CHILD = """
import contextlib, io, json, sys
HEAVY = ("numpy", "agentcontracts.dynamics", "agentcontracts.generator",
         "agentcontracts.certification", "agentcontracts.bench", "agentcontracts.composition")
loaded, blocks = {}, {}
import agentcontracts
loaded["import agentcontracts"] = [m for m in HEAVY if m in sys.modules]
blocks["import agentcontracts"] = sorted(agentcontracts.drift._BLOCKS)
import agentcontracts.cli
loaded["import agentcontracts.cli"] = [m for m in HEAVY if m in sys.modules]
codes = {}
for argv in map(json.loads, sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = agentcontracts.cli.main(argv)
    loaded[argv[0]] = [m for m in HEAVY if m in sys.modules]
    blocks[argv[0]] = sorted(agentcontracts.drift._BLOCKS)
print(json.dumps({"loaded": loaded, "codes": codes, "blocks": blocks}))
"""


def test_commands_load_no_numpy(suite_dir, tmp_path):
    observations = tmp_path / "observations.json"
    observations.write_text("[1, 1, 0, 1]")
    commands = [
        ["run", asset_path("contracts", "financial-advisor.yaml"),
         asset_path("traces", "financial_advisor_demo.json")],
        ["bench", suite_dir],
        ["validate", asset_path("contracts", "financial-advisor.yaml")],
        ["compose", os.path.join(suite_dir, "contracts", "loan-pipeline.yaml"),
         "--witnesses", os.path.join(suite_dir, "witnesses")],
        ["certify", str(observations)],
    ]
    src_dir = os.path.dirname(os.path.dirname(agentcontracts.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _CHILD] + [json.dumps(c) for c in commands]
    child = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout)
    assert result["codes"] == {"run": 3, "bench": 0, "validate": 0, "compose": 0, "certify": 0}
    suite = ["agentcontracts.bench", "agentcontracts.composition"]
    assert result["loaded"] == {"import agentcontracts": [], "import agentcontracts.cli": [],
                                "run": [], "bench": suite, "validate": suite, "compose": suite,
                                "certify": ["agentcontracts.certification"] + suite}
    # The demo's sums (6 steps, a support of 5) have fewer than 8 terms: a
    # cold ``run`` compiles no block sum.  ``bench`` on the seed-7 suite
    # meets three lengths (8, 15 and 55), each compiled once.
    assert result["blocks"]["import agentcontracts"] == result["blocks"]["run"] == []
    assert len(result["blocks"]["bench"]) <= 3


# Runs in a fresh interpreter: imports the schema module under a bare package
# (the package's own ``__init__`` not run) and prints which modules of the
# package, and whether yaml or numpy, it loaded.
_SCHEMA_CHILD = """
import json, sys, types
package = types.ModuleType("agentcontracts")
package.__path__ = [sys.argv[1]]
sys.modules["agentcontracts"] = package
import agentcontracts.schema
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("agentcontracts", "yaml", "numpy"))))
"""


def test_the_schema_module_imports_only_errors():
    package_dir = os.path.dirname(agentcontracts.__file__)
    child = subprocess.run([sys.executable, "-c", _SCHEMA_CHILD, package_dir],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr[-2000:]
    assert json.loads(child.stdout) == ["agentcontracts", "agentcontracts.errors",
                                        "agentcontracts.records", "agentcontracts.schema"]


# Runs in a fresh interpreter: prints whether ``dataclasses`` or ``inspect``
# (which ``dataclasses`` imports, with ``ast``, ``dis`` and ``tokenize``) is
# loaded after the imports and after each command.
_RECORDS_CHILD = """
import contextlib, io, json, sys
def loaded():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]
seen = {}
import agentcontracts
seen["import agentcontracts"] = loaded()
import agentcontracts.cli
seen["import agentcontracts.cli"] = loaded()
for argv in map(json.loads, sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[argv[0]] = (agentcontracts.cli.main(argv), loaded())
print(json.dumps(seen))
"""


def test_the_cli_loads_neither_dataclasses_nor_inspect(suite_dir):
    # Records are made by agentcontracts.records, so neither module is
    # imported until a caller asks for dataclasses.fields/replace/asdict.
    commands = [["run", asset_path("contracts", "financial-advisor.yaml"),
                 asset_path("traces", "financial_advisor_demo.json")],
                ["bench", suite_dir]]
    src_dir = os.path.dirname(os.path.dirname(agentcontracts.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", _RECORDS_CHILD]
                           + [json.dumps(c) for c in commands],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    assert json.loads(child.stdout) == {"import agentcontracts": [],
                                        "import agentcontracts.cli": [],
                                        "run": [3, []], "bench": [0, []]}
