"""Each script under ``demos/`` runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import agentcontracts

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    src_dir = os.path.dirname(os.path.dirname(agentcontracts.__file__))
    # 03_composition writes a suite under the temporary folder; no demo
    # leaves anything there.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                           env=env, cwd=tmp_path, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    assert list(tmpdir.iterdir()) == []
