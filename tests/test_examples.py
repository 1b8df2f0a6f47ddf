"""Every example script runs to completion.

The examples are end-to-end scenarios through the public package API that
nothing else executes, so a field a builder stops writing, or never wrote,
breaks one silently.  Each runs in its own interpreter, from a scratch
working directory, and must exit 0 within the timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
TIMEOUT_S = 120


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-4000:]
