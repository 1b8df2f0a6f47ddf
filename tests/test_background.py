"""The one background-thread lifecycle: PeriodicTask and ServerThread.

Thread-mode tests wait on ``threading.Event``s the task body sets, with a
timeout; simulated-clock tests drive ``SimClock.run_until`` and start no
thread.  Nothing here sleeps.
"""

import pathlib
import re
import threading
import time

import pytest

from repro.api import MaterialsAPI, MaterialsAPIServer, QueryEngine
from repro.background import PeriodicTask, task_table
from repro.docstore import DatastoreProxy, DatastoreServer, DocumentStore
from repro.hpc.simclock import SimClock
from repro.obs import get_registry

WAIT_S = 5.0


class _Body:
    """A task body that signals each successful call and can be told to fail."""

    def __init__(self, fail_on=()):
        self.calls = 0
        self.fail_on = set(fail_on)
        self.succeeded = threading.Event()

    def __call__(self):
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError(f"boom {self.calls}")
        self.succeeded.set()


def _error_count(task_name):
    return get_registry().counter(
        "repro_background_task_errors_total").value(task=task_name)


class TestThreadMode:
    def test_start_is_idempotent_and_stop_joins(self):
        body = _Body()
        task = PeriodicTask("t-idem", 0.005, body)
        before = threading.active_count()
        assert task.start() is task and task.start() is task
        assert task.running
        assert threading.active_count() == before + 1
        assert body.succeeded.wait(WAIT_S)
        task.stop()
        assert not task.running
        assert threading.active_count() == before
        task.stop()  # stopping a stopped task is a no-op

    def test_restart_after_stop_runs_again(self):
        body = _Body()
        task = PeriodicTask("t-restart", 0.005, body)
        task.start()
        assert body.succeeded.wait(WAIT_S)
        task.stop()
        body.succeeded.clear()
        task.start()
        assert body.succeeded.wait(WAIT_S), "restarted task never ran"
        task.stop()

    def test_error_is_counted_not_fatal(self):
        body = _Body(fail_on={1})
        task = PeriodicTask("t-error", 0.005, body)
        before = _error_count("t-error")
        task.start()
        assert body.succeeded.wait(WAIT_S), "task died with its first exception"
        task.stop()
        assert task.errors == 1
        assert task.runs >= 2
        assert task.last_error["type"] == "RuntimeError"
        assert task.last_error["message"] == "boom 1"
        assert task.last_error["ts"] is not None
        assert _error_count("t-error") == before + 1

    def test_slow_body_counts_an_overrun(self):
        done = threading.Event()

        def slow():
            threading.Event().wait(0.03)  # the body outlasts its interval
            done.set()

        task = PeriodicTask("t-slow", 0.001, slow).start()
        assert done.wait(WAIT_S)
        task.stop()
        assert task.overruns >= 1


class TestSimulatedClock:
    def test_ticks_run_in_the_callers_thread_in_time_order(self):
        clock = SimClock()
        order = []
        before = threading.active_count()
        fast = PeriodicTask("fast", 1.0, lambda: order.append(
            ("fast", clock.now, threading.current_thread())), clock).start()
        slow = PeriodicTask("slow", 2.5, lambda: order.append(
            ("slow", clock.now, threading.current_thread())), clock).start()
        assert fast.running and slow.running
        assert threading.active_count() == before
        clock.run_until(5.0)
        assert [(n, t) for n, t, _ in order] == [
            ("fast", 1.0), ("fast", 2.0), ("slow", 2.5), ("fast", 3.0),
            ("fast", 4.0), ("slow", 5.0), ("fast", 5.0)]
        assert {th for _, _, th in order} == {threading.current_thread()}
        assert fast.runs == 5 and slow.runs == 2
        assert fast.last_run_ts == 5.0 and fast.overruns == 0
        fast.stop()
        slow.stop()

    def test_stop_disarms_and_restart_rearms(self):
        clock = SimClock()
        body = _Body()
        task = PeriodicTask("sim-restart", 1.0, body, clock).start()
        clock.run_until(2.0)
        task.stop()
        assert not task.running
        clock.run_until(10.0)
        assert body.calls == 2
        task.start()
        task.start()  # idempotent: one re-arm chain, not two
        clock.run_until(12.0)
        assert body.calls == 4
        task.stop()

    def test_interval_is_read_at_every_rearm(self):
        clock = SimClock()
        body = _Body()
        task = PeriodicTask("sim-pace", 1.0, body, clock).start()
        clock.run_until(2.0)
        task.interval_s = 0.5
        clock.run_until(4.0)  # 3.0 was armed at the old pace; then 3.5, 4.0
        assert body.calls == 5
        task.stop()

    def test_raises_once_then_succeeds(self):
        clock = SimClock()
        body = _Body(fail_on={1})
        task = PeriodicTask("sim-error", 1.0, body, clock).start()
        clock.run_until(3.0)
        task.stop()
        assert (task.runs, task.errors) == (3, 1)
        assert task.last_error == {"type": "RuntimeError",
                                   "message": "boom 1", "ts": 1.0}


class TestTaskTable:
    def test_server_status_lists_running_tasks_only(self):
        clock = SimClock()
        store = DocumentStore(clock=clock)
        store.start_ttl_reaper(interval_s=2.0)
        clock.run_until(4.0)
        row = store.server_status()["tasks"]["repro-ttl-reaper"]
        assert row == {"interval_s": 2.0, "runs": 2, "errors": 0,
                       "overruns": 0, "last_run_ts": 4.0, "last_error": None}
        assert store.server_status()["ttl"]["sweeps"] == 2
        store.close()
        assert "repro-ttl-reaper" not in task_table()


_SERVERS = pytest.mark.parametrize("make", [
    lambda: DatastoreServer(DocumentStore()),
    lambda: DatastoreProxy("127.0.0.1", 1),
    lambda: MaterialsAPIServer(MaterialsAPI(QueryEngine(DocumentStore()["mp"]))),
], ids=["wire", "proxy", "http"])


class TestServers:
    """``with Server(...).start() as s:`` starts twice (``__enter__`` calls
    ``start`` again); that used to run two accept loops on one socket and
    make ``stop()`` sit out its 5 s join."""

    @_SERVERS
    def test_double_start_runs_one_thread_and_stops_promptly(self, make):
        before = threading.active_count()
        t0 = time.perf_counter()
        with make().start() as server:
            assert server.start() is server
            assert threading.active_count() == before + 1
        assert time.perf_counter() - t0 < 1.5
        assert threading.active_count() == before

    @_SERVERS
    def test_stop_wakes_the_accept_loop_without_serving(self, make):
        """``stop()`` does not wait out ``serve_forever``'s 0.5 s poll, and
        the wake-up is not a connection the server handles."""
        server = make().start()
        handled = []
        server._serve_server.process_request = (
            lambda *args: handled.append(args))
        t0 = time.perf_counter()
        server.stop()
        assert time.perf_counter() - t0 < 0.1
        assert handled == []

    def test_stop_without_start_closes_the_socket(self):
        server = DatastoreServer(DocumentStore())
        server.stop()
        assert server._tcp.socket.fileno() == -1


def test_one_spawn_site():
    """Every thread the package spawns goes through repro.background;
    the journal committer (condition-variable driven) is the one exception."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    sites = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if re.search(r"threading\.Thread\(", path.read_text())
    )
    assert sites == ["repro/background.py", "repro/docstore/persistence.py"]
