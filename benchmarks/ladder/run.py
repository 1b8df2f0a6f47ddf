"""The socket-to-socket bench ladder: one runner, four role workloads.

    python3 benchmarks/ladder/run.py                       # all four, untraced
    python3 benchmarks/ladder/run.py --trace               # ... plus the traced pass
    python3 benchmarks/ladder/run.py --workload wire_fig5_read --seed 7 \
            --seconds 12 --trace 0                         # what the driver runs
    python3 benchmarks/ladder/run.py --smoke --aa          # A/A check, small sizes

Each workload boots the default deployment (``python -m repro.cli
--data-dir D serve --port P --wire-port W``) as a separate process on a
copy of a template data directory, drives it with two closed-loop client
threads from this process (one on ``wire_analytics_scan``), checks every answer against ``oracle.py`` and
prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
for _p in (SRC, HERE):
    if _p not in sys.path:
        sys.path.insert(0, _p)

N_CLIENTS = 2          # closed loop; never more than nproc
# The analytics role is one analyst's job issuing heavy reads one after the
# other.  A second client there only makes the two queue for the server's
# GIL: every class takes ~3x as long, by how much depends on how the two
# cycles happen to fall over each other, and p50 moved 30 % between runs of
# the same code.
CLIENTS = {"wire_analytics_scan": 1}
N_SETUPS = 3           # setup_s is the median of this many boots
WARMUP_FRACTION = 1 / 16   # of the timed window: 1 s at the contract's 16 s
SETTLE_S = 20.0        # ceiling on a graceful stop before SIGKILL


# -- machine context ----------------------------------------------------------

def machine_context() -> dict:
    """nproc, load average and a spin-loop calibration, printed with the
    results so a reader can tell a slow machine from a slow program."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    spins = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        spins.append((time.perf_counter() - t0) * 1e3)
    return {"nproc": nproc, "load1": load1,
            "calibration_ms": statistics.median(spins),
            "noisy": load1 > nproc}


# -- the server process -------------------------------------------------------

_LIVE_SERVERS: "set[ServerProcess]" = set()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class ServerProcess:
    """``repro serve`` in its own process group, reaped on every exit path."""

    def __init__(self, data_dir: str, log_path: str,
                 cpus: Optional[List[int]] = None):
        self.data_dir = data_dir
        self.log_path = log_path
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.http_port = self.wire_port = 0

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.http_port}"

    def start(self) -> "ServerProcess":
        self.http_port, self.wire_port = _free_port(), _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # --data-dir is a global flag of the CLI: it precedes the subcommand.
        argv = [sys.executable, "-m", "repro.cli", "--data-dir", self.data_dir,
                "serve", "--port", str(self.http_port),
                "--wire-port", str(self.wire_port)]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
        _LIVE_SERVERS.add(self)
        if self.cpus:
            # The child has one thread now; the ones it starts inherit this.
            os.sched_setaffinity(self.proc.pid, self.cpus)
        self._wait_ready()
        return self

    def _wait_ready(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        pending = [self.http_port, self.wire_port]
        while pending:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before it "
                    f"was ready; see {self.log_path}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become ready in time")
            try:
                socket.create_connection(("127.0.0.1", pending[0]),
                                         timeout=1.0).close()
                pending.pop(0)
            except OSError:
                time.sleep(0.01)

    def stop(self, graceful: bool = True) -> bool:
        """SIGINT for a graceful stop (journal closed, flight session marked
        clean); SIGKILL to the group if that takes too long, or at once when
        the data directory is about to be thrown away.  Returns whether the
        server exited by itself with status 0."""
        proc = self.proc
        if proc is None:
            return True
        try:
            if graceful and proc.poll() is None:
                os.kill(proc.pid, signal.SIGINT)
                try:
                    proc.wait(timeout=SETTLE_S)
                except subprocess.TimeoutExpired:
                    graceful = False
        finally:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
            _LIVE_SERVERS.discard(self)
            self.proc = None
        return graceful and proc.returncode == 0

    # Probes read from outside the program.

    def cpu_ms(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks * 1e3 / os.sysconf("SC_CLK_TCK")

    def rss_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def disk_bytes(self) -> int:
        """Size of the data directory without ``flight/``, whose growth is
        driven by the clock and not by requests."""
        total = 0
        for root, dirs, files in os.walk(self.data_dir):
            if root == self.data_dir and "flight" in dirs:
                dirs.remove("flight")
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(root, name))
                except FileNotFoundError:
                    pass  # a .tmp renamed under us
        return total


def _split_cpus() -> Optional[List[int]]:
    """Halve the CPUs this process may use: pin the load generator to the
    upper half and return the lower half for the server, so neither is
    scheduled over the other.  ``None`` on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    half = len(cpus) // 2
    os.sched_setaffinity(0, cpus[half:])
    return cpus[:half]


def _reap_all() -> None:
    for server in list(_LIVE_SERVERS):
        server.stop()


atexit.register(_reap_all)


# -- template -----------------------------------------------------------------

def build_template(dataset, directory: str) -> float:
    """Load the dataset through the public store API with the journal on,
    snapshot it, and return the materials bulk-load rate (docs/s)."""
    from repro.docstore import DocumentStore
    from repro.fireworks import LaunchPad
    from dataset import MATERIALS_INDEXES

    store = DocumentStore(persistence_dir=directory, fsync="interval")
    try:
        db = store["mp"]
        for name, unique in MATERIALS_INDEXES:
            db["materials"].create_index(name, unique=unique)
        db["batteries"].create_index("battery_id", unique=True)
        LaunchPad(db)  # the engines/tasks indexes the launcher relies on
        t0 = time.perf_counter()
        db["materials"].insert_many(dataset.materials)
        rate = len(dataset.materials) / (time.perf_counter() - t0)
        db["batteries"].insert_many(dataset.batteries)
        db["engines"].insert_many(dataset.engines)
        store.snapshot()
    finally:
        store.close()
    return rate


# -- executing requests -------------------------------------------------------

@dataclass
class Step:
    """One timed op of a client session: ``call`` is timed, ``check`` is not."""

    cls: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


class HttpTarget:
    """One new connection per request, as ``MPRester``/``urlopen`` does."""

    def __init__(self, base_url: str):
        self.base_url = base_url
        self.requests = 0
        self.response_bytes = 0
        # No proxy, whatever the environment says: the server is local.
        self._opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({}))

    def get(self, path: str) -> Tuple[int, Any]:
        try:
            with self._opener.open(self.base_url + path, timeout=30) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as err:
            status, raw = err.code, err.read()
        self.requests += 1
        self.response_bytes += len(raw)
        return status, json.loads(raw)


def wire_call(client, args: Dict[str, Any]) -> Any:
    coll = client["mp"][args["coll"]]
    method = args["method"]
    if method == "find":
        return coll.find(args["query"], args.get("projection"),
                         sort=args.get("sort"), skip=args.get("skip", 0),
                         limit=args.get("limit", 0))
    if method == "count":
        return coll.count_documents(args["query"])
    if method == "aggregate":
        return coll.aggregate(args["pipeline"])
    raise ValueError(f"unknown wire method {method!r}")


def static_session(ops: Iterator, target, oracle) -> Iterator[Step]:
    for op in ops:
        if op.kind == "http":
            call = lambda op=op: target.get(op.args["path"])  # noqa: E731
        else:
            call = lambda op=op: wire_call(target, op.args)  # noqa: E731
        yield Step(op.cls, call, lambda resp, op=op: oracle.check(op, resp))


def taskfarm_session(dataset, seed: int, idx: int, client, ledger,
                     first_loop: int = 0) -> Iterator[Step]:
    """The task-queue role at steady depth: submit one READY engine, claim
    with LaunchPad's exact query and sort, store a ~4 KB result, mark the
    engine COMPLETED; every tenth loop a monitor read.  A second session
    over the same store starts at a later ``first_loop`` so the fw_ids it
    submits are new."""
    from dataset import (CLAIM_SORT, MONITOR_EVERY, engine_doc,
                         first_fresh_fw_id, task_result_doc, taskfarm_rng)

    rng = taskfarm_rng(seed, idx)
    engines, tasks = client["mp"]["engines"], client["mp"]["tasks"]
    held: Dict[str, Any] = {}

    def check_ack(what: str, key: str) -> Callable[[Any], Optional[str]]:
        def check(resp: Any) -> Optional[str]:
            if not isinstance(resp, dict) or key not in resp:
                return f"{what}: no {key} in the reply"
            ledger.ack(what)
            held[key] = resp[key]
            return None
        return check

    def check_claim(resp: Any) -> Optional[str]:
        reason = ledger.claim(resp)
        if reason is None:
            held["fw_id"] = resp["fw_id"]
        return reason

    def check_complete(resp: Any) -> Optional[str]:
        if not isinstance(resp, dict) or resp.get("modified_count") != 1:
            return "complete: engine not modified exactly once"
        ledger.ack("acked_completes")
        return None

    for loop in itertools.count(first_loop):
        held.clear()
        material = rng.choice(dataset.materials)
        fresh = engine_doc(first_fresh_fw_id(dataset, idx, N_CLIENTS, loop),
                           rng.randint(0, 9), material["reduced_formula"],
                           material["elements"])
        yield Step("submit", lambda: engines.insert_one(fresh),
                   check_ack("acked_submits", "inserted_id"))
        claim_update = {"$set": {"state": "RUNNING", "worker": f"w{idx}",
                                 "checkout_time": time.time()},
                        "$inc": {"launches": 1}}
        yield Step("claim", lambda: engines.find_one_and_update(
            {"state": "READY"}, claim_update, sort=CLAIM_SORT,
            return_document="after"), check_claim)
        if "fw_id" not in held:
            continue
        fw_id = held["fw_id"]
        result = task_result_doc(fw_id, rng)
        yield Step("result_insert", lambda: tasks.insert_one(result),
                   check_ack("acked_results", "inserted_id"))
        done = {"$set": {"state": "COMPLETED",
                         "task_id": held.get("inserted_id")}}
        yield Step("complete", lambda: engines.update_one(
            {"fw_id": fw_id}, done), check_complete)
        if loop % MONITOR_EVERY == MONITOR_EVERY - 1:
            yield Step(
                "monitor",
                lambda: (engines.count_documents({"state": "READY"}),
                         tasks.find({"fw_id": fw_id})),
                lambda resp: ledger.check_monitor(resp[0], resp[1], fw_id,
                                                  N_CLIENTS))


# -- the load generator -------------------------------------------------------

Sample = Tuple[str, float, float, Optional[str]]  # class, start, end, failure


def drive(sessions: List[Iterator[Step]], t_first_timed: float,
          t_end: float) -> List[Sample]:
    """Run one closed-loop thread per session until ``t_end``; keep the ops
    that started at or after ``t_first_timed`` and ended by ``t_end``."""
    per_thread: List[List[Sample]] = [[] for _ in sessions]

    def client(i: int) -> None:
        out, session = per_thread[i], sessions[i]
        # The clock is read before a step is drawn: a drawn step always
        # runs, so a stateful session can be driven again later.
        while time.perf_counter() < t_end:
            step = next(session)
            t0 = time.perf_counter()
            try:
                response = step.call()
                t1 = time.perf_counter()
                reason = step.check(response)
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                t1 = time.perf_counter()
                reason = f"{type(exc).__name__}: {exc}"
            out.append((step.cls, t0, t1, reason))

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(len(sessions))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [s for out in per_thread for s in out
            if s[1] >= t_first_timed and s[2] <= t_end]


def percentile(sorted_values: List[float], q: float) -> float:
    """Mean of the order statistics within 2.5 points of ``q``.

    The workloads are mixtures of op classes whose latencies differ by
    10x and more; where ``q`` falls on the border between two classes a
    single order statistic jumps from one class to the other between runs.
    Averaging a 5-point band keeps the estimate at ``q`` and makes it a
    continuous function of the mix."""
    n = len(sorted_values)
    lo = max(0, int((q - 0.025) * n))
    hi = min(n, max(lo + 1, int((q + 0.025) * n) + 1))
    return statistics.fmean(sorted_values[lo:hi])


# -- one workload, end to end -------------------------------------------------

class Bench:
    """State shared by the workloads of one invocation: the dataset, the
    oracle, the template directory and the scratch directory."""

    def __init__(self, seed: int, seconds: float, smoke: bool):
        from dataset import CORPUS_SEED, FULL_SIZES, SMOKE_SIZES, Dataset
        from oracle import Oracle

        # A shell that backgrounds us leaves SIGINT ignored, and an ignored
        # signal survives exec: the server could then never be stopped
        # gracefully.  A caught signal is reset to default in the child.
        if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        self.server_cpus = _split_cpus()
        self.seed = seed
        self.seconds = seconds
        self.n_setups = 1 if smoke else N_SETUPS
        self.warmup_s = seconds * WARMUP_FRACTION
        self.run_dir = os.path.join(OUT, f"run-{os.getpid()}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        # The corpus is one fixed store, as the paper's was; --seed draws the
        # request streams over it.
        self.dataset = Dataset(CORPUS_SEED,
                               **(SMOKE_SIZES if smoke else FULL_SIZES))
        self.oracle = Oracle(self.dataset)
        self.template = os.path.join(self.run_dir, "template")
        self.bulk_load_docs_per_s = build_template(self.dataset, self.template)
        self._copies = itertools.count()

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def fresh_copy(self) -> str:
        path = os.path.join(self.run_dir, f"data-{next(self._copies)}")
        shutil.copytree(self.template, path)
        return path

    def boot(self, data_dir: str) -> ServerProcess:
        # The two free ports are picked before the child binds them; losing
        # that race is the one boot failure worth retrying.
        for _ in range(2):
            try:
                return ServerProcess(data_dir, data_dir + ".log",
                                     self.server_cpus).start()
            except RuntimeError:
                pass
        return ServerProcess(data_dir, data_dir + ".log",
                             self.server_cpus).start()

    def sessions(self, workload: str, server, ledger=None,
                 n_clients: Optional[int] = None, make_target=None,
                 first_loop: int = 0):
        """``(sessions, targets)`` for ``n_clients`` closed-loop clients
        (default: the workload's own count) of ``server`` (anything with
        ``base_url`` and ``wire_port``); each client has its own connection,
        like a worker node of its own."""
        from dataset import stream
        from repro.docstore.server import RemoteClient

        if n_clients is None:
            n_clients = CLIENTS.get(workload, N_CLIENTS)
        targets, sessions = [], []
        for idx in range(n_clients):
            if make_target is not None:
                target = make_target()
            elif workload == "http_portal_read":
                target = HttpTarget(server.base_url)
            else:
                target = RemoteClient("127.0.0.1", server.wire_port,
                                      pool_size=1)
            targets.append(target)
            if workload == "wire_taskfarm_mixed":
                sessions.append(taskfarm_session(
                    self.dataset, self.seed, idx, target, ledger, first_loop))
            else:
                sessions.append(static_session(
                    stream(self.dataset, workload, self.seed, idx),
                    target, self.oracle))
        return sessions, targets

    @staticmethod
    def close_targets(targets) -> None:
        for target in targets:
            if hasattr(target, "close"):
                target.close()

    def one_boot(self, workload: str, window_s: float) -> dict:
        """Copy the template, boot the server, warm up, drive for
        ``window_s``, stop.  ``setup_s`` runs from before the copy to the
        first timed op.  ``window_s == 0`` is a set-up measured for
        ``setup_s`` alone: its server is killed and its directory removed."""
        from oracle import TaskfarmLedger

        t_setup = time.perf_counter()
        data_dir = self.fresh_copy()
        server = self.boot(data_dir)
        out: Dict[str, Any] = {"data_dir": data_dir}
        try:
            ledger = TaskfarmLedger(self.dataset.queue_depth)
            sessions, targets = self.sessions(workload, server, ledger)
            t_first = time.perf_counter() + self.warmup_s
            t_end = t_first + window_s
            probes: List[Tuple[float, int]] = []

            def probe() -> None:
                for t in (t_first, t_end):
                    time.sleep(max(0.0, t - time.perf_counter()))
                    probes.append((server.cpu_ms(), server.disk_bytes()))

            prober = threading.Thread(target=probe, daemon=True)
            prober.start()
            samples = drive(sessions, t_first, t_end)
            prober.join()
            out["live_problems"] = (
                ledger.verify_live(targets[0])
                if workload == "wire_taskfarm_mixed" else [])
            self.close_targets(targets)
            out.update(
                setup_s=t_first - t_setup, samples=samples, ledger=ledger,
                cpu_ms=probes[1][0] - probes[0][0],
                disk_bytes=probes[1][1] - probes[0][1],
                rss_mb=server.rss_hwm_mb())
        finally:
            out["graceful"] = server.stop(graceful=window_s > 0)
            if not window_s:
                shutil.rmtree(data_dir, ignore_errors=True)
        return out

    def end_to_end(self, workload: str) -> dict:
        setups = []
        for _ in range(self.n_setups - 1):
            setups.append(self.one_boot(workload, 0.0)["setup_s"])
        run = self.one_boot(workload, self.seconds)
        setups.append(run["setup_s"])
        samples = run["samples"]
        failures = [s[3] for s in samples if s[3] is not None]
        n_bad_ops = len(failures)
        if workload == "wire_taskfarm_mixed":
            if not run["graceful"]:
                failures.append("server did not stop gracefully on SIGINT")
            failures.extend(run["live_problems"])
            failures.extend(run["ledger"].verify_on_disk(run["data_dir"]))
        shutil.rmtree(run["data_dir"], ignore_errors=True)
        good = max(1, len(samples) - n_bad_ops)
        latencies = sorted((s[2] - s[1]) * 1e3 for s in samples) or [0.0]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (good / self.seconds, "1/s"),
            "p50_ms": (percentile(latencies, 0.50), "ms"),
            "p95_ms": (percentile(latencies, 0.95), "ms"),
            "server_cpu_ms_per_op": (run["cpu_ms"] / good, "ms"),
            "server_rss_mb": (run["rss_mb"], "MB"),
            "disk_bytes_per_op": (run["disk_bytes"] / good, "B"),
        }
        return {"workload": workload, "attempted": max(1, len(samples)),
                "failed": len(failures), "failures": failures[:5],
                "n_ops": len(samples), "metrics": metrics}


# -- reporting ----------------------------------------------------------------

def print_result(result: dict, out=sys.stdout) -> None:
    w = result["workload"]
    print(f"# {w}: n_ops={result['n_ops']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac="
          f"{result['failed'] / result['attempted']:.6f}", file=out)
    for reason in result["failures"]:
        print(f"#   failure: {reason}", file=out)
    for note in result.get("notes", ()):
        print(f"#   {note}", file=out)
    for name, (value, unit) in result["metrics"].items():
        print(f"{w} {name} {value:.6g} {unit}", file=out)


def as_contract(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def load_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def compare_aa(first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """A/A: two sets of runs of the same code.  A metric whose two values
    differ by more than its bound is *unresolved*: the bench cannot tell a
    change of that size from noise."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in load_spec()["end_to_end"]}
    unresolved = []
    for workload, a in first.items():
        b = second[workload]
        for name, (bound, better) in bounds.items():
            va, vb = a["metrics"][name][0], b["metrics"][name][0]
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            verdict = "within" if abs(worse) <= bound else "UNRESOLVED"
            print(f"aa {workload} {name} {va:.6g} vs {vb:.6g} "
                  f"({worse:+.1%} of {bound:.0%}) {verdict}")
            if verdict != "within":
                unresolved.append(f"{workload}:{name}")
        if a["failed"] or b["failed"]:
            unresolved.append(f"{workload}:failed")
    return unresolved


# -- entry point --------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    from dataset import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=824)
    parser.add_argument("--seconds", type=float,
                        help="timed window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: run the traced pass and print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small dataset, 2 s windows, one boot")
    parser.add_argument("--aa", action="store_true",
                        help="two sets on the same code, second in reverse order")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(load_spec()["run_seconds"])
    context = machine_context()
    print("# nproc={nproc} load1={load1:.2f} calibration_ms="
          "{calibration_ms:.3f} noisy={noisy}".format(**context))
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    bench = Bench(args.seed, seconds, args.smoke)
    try:
        if args.trace and args.workload:
            from tracing import traced_run
            results = {w: traced_run(bench, w) for w in workloads}
        else:
            results = {w: bench.end_to_end(w) for w in workloads}
            if args.aa:
                second = {w: bench.end_to_end(w) for w in reversed(workloads)}
            if args.trace:
                from tracing import traced_run
                for w in workloads:
                    layers = traced_run(bench, w)
                    results[w]["metrics"].update(layers["metrics"])
                    results[w]["attempted"] += layers["attempted"]
                    results[w]["failed"] += layers["failed"]
                    results[w]["failures"] += layers["failures"]
                    results[w]["notes"] = layers["notes"]
    finally:
        bench.close()

    for result in results.values():
        print_result(result)
    if args.workload:
        final = as_contract(results[args.workload])
    else:
        final = {
            "correct": all(r["failed"] == 0 for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: as_contract(r)["metrics"]
                        for w, r in results.items()},
        }
    if args.aa:
        for result in second.values():
            print_result(result)
        final["unresolved"] = compare_aa(results, second)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the program under test is not at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
