"""The code-reach recorder (``benchmarks/reach.py``) over a tiny fixture
package, recorded in child interpreters started with the generated
``sitecustomize``: the same path the full drivers take, at a fraction of
their cost."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reach", ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = textwrap.dedent('''\
    import os


    def deco(fn):
        return fn


    def called():
        return 1


    def uncalled():
        def inner():
            return 2
        return inner


    @deco
    @deco
    def decorated_called():
        return 3


    @deco
    def decorated_uncalled():
        return 4


    def forked():
        return 5


    class Box:
        def method(self):
            return 6

        def never(self):
            return 7
''')

DRIVER = textwrap.dedent('''\
    import os
    from demo import mod

    mod.called()
    mod.decorated_called()
    mod.Box().method()
    pid = os.fork()
    if pid == 0:
        mod.forked()
        os._exit(0)
    os.waitpid(pid, 0)
''')


@pytest.fixture
def tree(tmp_path):
    """``src/demo/mod.py`` plus a recording ``sitecustomize``; returns
    ``(src, out_dir, env)``."""
    src = tmp_path / "src"
    (src / "demo").mkdir(parents=True)
    (src / "demo" / "__init__.py").write_text("")
    (src / "demo" / "mod.py").write_text(FIXTURE)
    out_dir = tmp_path / "records"
    out_dir.mkdir()
    site = reach.write_sitecustomize(str(tmp_path / "site"), str(out_dir),
                                     os.path.realpath(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([site, str(src)])
    return src, out_dir, env


@pytest.fixture
def report(tree):
    src, out_dir, env = tree
    subprocess.run([sys.executable, "-c", DRIVER], env=env, check=True,
                   timeout=60)
    reached, n_processes = reach.read_records(str(out_dir))
    assert n_processes == 2  # the driver and its forked child
    return reach.analyse(str(src), reached)


def _unreached(report):
    return {u["function"] for u in report["unreached"]}


def test_called_functions_are_reached(report):
    assert {"demo/mod.py:called", "demo/mod.py:deco",
            "demo/mod.py:Box.method"} <= set(report["reached"])


def test_uncalled_functions_are_unreached(report):
    assert _unreached(report) == {
        "demo/mod.py:uncalled", "demo/mod.py:decorated_uncalled",
        "demo/mod.py:Box.never"}


def test_decorated_function_matches_its_first_decorator_line(tree, report):
    src, _, _ = tree
    defs = {d["qualname"]: d for d in reach.functions(
        str(src / "demo" / "mod.py"))}
    lines = FIXTURE.splitlines()
    line = defs["decorated_called"]["line"]
    assert lines[line - 1] == "@deco"
    assert lines[line + 1] == "def decorated_called():"
    assert "demo/mod.py:decorated_called" in report["reached"]


def test_nested_function_under_unreached_parent_counts_once(report):
    assert "demo/mod.py:uncalled.<locals>.inner" not in _unreached(report)
    stats = report["packages"]["mod.py"]
    assert stats["functions"] == 9
    assert stats["unreached_functions"] == 3
    # body lines: uncalled 3 (inner's included), decorated_uncalled 1,
    # Box.never 1
    assert stats["unreached_lines"] == 3 + 1 + 1


def test_forked_child_records_through_os_exit(report):
    assert "demo/mod.py:forked" in report["reached"]


def test_killed_child_keeps_what_it_flushed(tree):
    """The ladder SIGKILLs servers: the once-a-second write must already
    hold their calls."""
    src, out_dir, env = tree
    mod = str(src / "demo" / "mod.py")
    called = next(d["line"] for d in reach.functions(mod)
                  if d["qualname"] == "called")
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import time; from demo import mod; mod.called(); time.sleep(60)"],
        env=env)
    try:
        record = out_dir / f"reach-{proc.pid}.json"
        deadline = time.monotonic() + 20
        pairs = []
        while [mod, called] not in pairs and time.monotonic() < deadline:
            time.sleep(0.05)
            if record.exists():
                pairs = json.loads(record.read_text())
        assert proc.poll() is None  # still running: no exit hook has run
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    assert [mod, called] in pairs
