"""Code reach: which functions under ``src/`` does any role ever enter?

    python benchmarks/reach.py --out reach.json

Three drivers stand in for the paper's roles:

* the seven ``examples/*.py`` scenarios, each from a scratch directory;
* the twelve paper benches (the ``bench_*.py`` files that are pytest
  modules) with ``--benchmark-disable``: pytest-benchmark switches the
  profiler off while it times, so a timed run records nothing.  Like any
  run of them, they rewrite ``benchmarks/results/*.txt``;
* ``benchmarks/ladder/run.py --smoke``, whose ``repro serve`` servers are
  processes of their own.

Every interpreter the drivers start records, because a generated
``sitecustomize.py`` on ``PYTHONPATH`` calls :func:`install`: it sets
``sys.setprofile`` and ``threading.setprofile``, keeps the code objects
entered, and writes the ``(file, co_firstlineno)`` pairs under ``src/`` to
``reach-<pid>.json`` every second and at exit.  The periodic write is what
survives a SIGKILL, and the ladder kills the servers whose data it throws
away.

A ``def`` is matched by the first line of its decorator list, because
that is a decorated function's ``co_firstlineno`` (``ast`` puts
``lineno`` on the ``def`` line).  Its body lines run from its first
statement (a docstring counts) to ``end_lineno``; decorators and the
signature do not count.  A function nested in an unreached function
cannot run either and is not counted again.  The report prints unreached
functions and body lines per package; the JSON report also lists every
unreached function and every reached one by ``file:qualname``, so two
checkouts can be compared.  The exit status is 1 when any driver exits
non-zero; the counts gate nothing.  The whole run takes about 80 s on two
cores.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import glob
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

#: The pytest-module benches, one per reproduced figure, table or study.
PAPER_BENCHES = (
    "bench_ablations.py",
    "bench_fig1_battery_screen.py",
    "bench_fig2_four_roles.py",
    "bench_fig3_lifecycle.py",
    "bench_fig4_materials_api.py",
    "bench_fig5_query_performance.py",
    "bench_mapreduce_engines.py",
    "bench_proxy_numa.py",
    "bench_store_population.py",
    "bench_table1_complexity.py",
    "bench_taskfarm.py",
    "bench_workflow_overhead.py",
)

FLUSH_INTERVAL_S = 1.0

Key = Tuple[str, int]


# -- recording (runs inside every driven interpreter) -------------------------


def install(out_dir: str, root: str) -> None:
    """Record every code object entered in this process from now on and
    write the ones under ``root`` to ``out_dir/reach-<pid>.json`` every
    second, at exit and before ``os._exit`` (how forked pool workers
    leave)."""
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def flush() -> None:
        pairs = sorted({
            (code.co_filename, code.co_firstlineno) for code in seen.copy()
            if code.co_filename.startswith(root)
            and not code.co_name.startswith("<")
        })
        path = os.path.join(out_dir, f"reach-{os.getpid()}.json")
        # One temporary file per writing thread: the flusher and the exit
        # hook can race, and each rename then lands a complete file.
        tmp = f"{path}.{threading.get_ident()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(pairs, fh)
        os.replace(tmp, path)

    def flush_forever() -> None:
        while True:
            time.sleep(FLUSH_INTERVAL_S)
            flush()

    def start_flusher() -> None:
        threading.Thread(target=flush_forever, name="reach-flush",
                         daemon=True).start()

    real_exit = os._exit

    def exit_after_flush(status: int) -> None:
        flush()
        real_exit(status)

    os._exit = exit_after_flush
    atexit.register(flush)
    os.register_at_fork(after_in_child=start_flusher)
    start_flusher()
    threading.setprofile(profile)
    sys.setprofile(profile)


def write_sitecustomize(site_dir: str, out_dir: str, root: str) -> str:
    """Write a ``sitecustomize.py`` into ``site_dir`` that loads this file
    by path (adding nothing to ``sys.path``) and calls :func:`install`.
    Returns ``site_dir``, to go first on ``PYTHONPATH``."""
    os.makedirs(site_dir, exist_ok=True)
    with open(os.path.join(site_dir, "sitecustomize.py"), "w",
              encoding="utf-8") as fh:
        fh.write(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location("
            f"'_reach_recorder', {os.path.abspath(__file__)!r})\n"
            "recorder = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(recorder)\n"
            f"recorder.install({out_dir!r}, {root!r})\n"
        )
    return site_dir


def read_records(out_dir: str) -> Tuple[Set[Key], int]:
    """The union of every process's recorded pairs, and how many
    processes wrote them."""
    reached: Set[Key] = set()
    paths = glob.glob(os.path.join(out_dir, "reach-*.json"))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reached.update((os.path.realpath(f), line)
                           for f, line in json.load(fh))
    return reached, len(paths)


# -- static side: every def under src/ ----------------------------------------


def functions(path: str) -> List[dict]:
    """Every ``def`` in one file: ``qualname``, ``line`` (first decorator
    or ``def``), ``body`` (first statement), ``end`` and ``parent`` (index
    of the innermost enclosing function, or None)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found: List[dict] = []

    def visit(node: ast.AST, prefix: str, parent: Optional[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found.append({"qualname": prefix + child.name, "line": line,
                              "body": child.body[0].lineno,
                              "end": child.end_lineno, "parent": parent})
                visit(child, f"{prefix}{child.name}.<locals>.",
                      len(found) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    visit(tree, "", None)
    return found


def package_of(rel: str) -> str:
    """``repro/obs/health.py`` -> ``obs``; ``repro/cli.py`` -> ``cli.py``."""
    parts = rel.split(os.sep)
    return parts[1] if len(parts) > 2 else parts[-1]


def analyse(root: str, reached: Set[Key]) -> dict:
    """Per-package totals plus the unreached and reached functions."""
    root = os.path.realpath(root)
    packages: Dict[str, Dict[str, int]] = {}
    unreached: List[dict] = []
    hit: List[str] = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, root)
        if ".egg-info" in rel:
            continue
        stats = packages.setdefault(
            package_of(rel),
            {"functions": 0, "unreached_functions": 0, "unreached_lines": 0})
        defs = functions(path)
        entered = [(path, d["line"]) in reached for d in defs]
        for d, was_entered in zip(defs, entered):
            stats["functions"] += 1
            name = f"{rel}:{d['qualname']}"
            if was_entered:
                hit.append(name)
            elif d["parent"] is None or entered[d["parent"]]:
                lines = d["end"] - d["body"] + 1
                stats["unreached_functions"] += 1
                stats["unreached_lines"] += lines
                unreached.append({"function": name, "line": d["line"],
                                  "lines": lines})
    totals = {k: sum(p[k] for p in packages.values())
              for k in ("functions", "unreached_functions", "unreached_lines")}
    unreached.sort(key=lambda u: (-u["lines"], u["function"]))
    return {"totals": totals, "packages": packages,
            "unreached": unreached, "reached": sorted(hit)}


def format_report(report: dict) -> str:
    rows = [f"{'package':<16s}{'functions':>10s}{'unreached':>10s}"
            f"{'lines':>8s}"]
    for name, p in sorted(report["packages"].items(),
                          key=lambda kv: -kv[1]["unreached_lines"]):
        rows.append(f"{name:<16s}{p['functions']:>10d}"
                    f"{p['unreached_functions']:>10d}"
                    f"{p['unreached_lines']:>8d}")
    t = report["totals"]
    rows.append(f"{'total':<16s}{t['functions']:>10d}"
                f"{t['unreached_functions']:>10d}{t['unreached_lines']:>8d}")
    return "\n".join(rows)


# -- drivers ------------------------------------------------------------------


def drivers() -> List[Tuple[str, List[str], Optional[str]]]:
    """``(name, argv, cwd)`` per run, in order; a ``None`` cwd is a
    scratch directory, so the examples leave nothing in the checkout."""
    runs = [(f"examples/{os.path.basename(script)}", [sys.executable, script],
             None)
            for script in sorted(glob.glob(os.path.join(REPO, "examples",
                                                        "*.py")))]
    runs.append(("paper benches",
                 [sys.executable, "-m", "pytest", "-q", "-p",
                  "no:cacheprovider", "--benchmark-disable"]
                 + [os.path.join("benchmarks", b) for b in PAPER_BENCHES],
                 REPO))
    runs.append(("ladder --smoke",
                 [sys.executable,
                  os.path.join("benchmarks", "ladder", "run.py"), "--smoke"],
                 REPO))
    return runs


def run_drivers(out_dir: str) -> List[dict]:
    site_dir = write_sitecustomize(os.path.join(out_dir, "site"), out_dir,
                                   os.path.realpath(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [site_dir, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else []))
    results = []
    for name, argv, cwd in drivers():
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory() as scratch:
            proc = subprocess.run(argv, cwd=cwd or scratch, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        seconds = time.monotonic() - t0
        results.append({"driver": name, "returncode": proc.returncode,
                        "seconds": round(seconds, 1)})
        print(f"# {name}: exit {proc.returncode} in {seconds:.1f} s",
              flush=True)
        if proc.returncode:
            print(proc.stderr[-4000:], file=sys.stderr)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as out_dir:
        runs = run_drivers(out_dir)
        reached, n_processes = read_records(out_dir)
    report = analyse(SRC, reached)
    report["drivers"] = runs
    report["processes"] = n_processes
    print(format_report(report))
    print(f"# {n_processes} processes recorded")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 1 if any(r["returncode"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
