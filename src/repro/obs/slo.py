"""SLO engine: threshold and error-budget burn-rate rules with alerting.

AiiDA 1.0 ties daemon health checks to throughput guarantees; the SRE
formulation of the same idea is the *service-level objective*: "99% of
queries answer within 250 ms" plus an error budget (the tolerated 1%) and
a *burn rate* — how fast the budget is being spent over a trailing window.
Burning at rate 1.0 exactly exhausts the budget by the end of the SLO
period; sustained rates above that page someone.

Rules
-----
* :class:`ThresholdRule` — compare one health gauge (see
  :meth:`~repro.obs.health.HealthMonitor.gauges`) against a bound, e.g.
  ``replication_max_lag > 100``.
* :class:`BurnRateRule` — window ``(good, total)`` counts from a
  :class:`LatencyWindowSource` into ``burn_rate =
  bad_fraction / (1 - objective)`` and breach above a burn threshold.

Sources feed from timestamped latency events: the docstore profiler's
``system.profile`` (:meth:`LatencyWindowSource.from_profile`) or the
datastore proxy's forward log (:meth:`LatencyWindowSource.from_proxy`),
which includes any injected ``forward_latency_s`` — the failure-injection
hook the SLO tests lean on.

Alert lifecycle
---------------
:class:`SLOEngine.evaluate` opens an alert document in the alert history
collection (``system.alerts`` — exempt from observation like every
``system.*`` namespace) on the first breaching evaluation, updates
``last_seen``/``evaluations`` while the breach persists, and flips the
document to ``state: "resolved"`` when the rule recovers.  ``GET /alerts``
on the Materials API httpd serves the history.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .metrics import get_registry

__all__ = [
    "ThresholdRule",
    "BurnRateRule",
    "LatencyWindowSource",
    "AlertHistory",
    "SLOEngine",
    "default_rules",
]

#: Alert documents kept in the history collection before eviction.
ALERT_CAP = 2048

_SEVERITY_RANK = {"info": 0, "warn": 1, "critical": 2}

_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


class ThresholdRule:
    """Breach when a named health gauge crosses a bound.

    A missing gauge is not a breach — a deployment with no replica set
    simply has no ``replication_max_lag`` to judge.
    """

    def __init__(self, name: str, gauge: str, threshold: float,
                 op: str = ">", severity: str = "warn",
                 description: str = ""):
        if op not in _COMPARATORS:
            raise ValueError(f"unknown comparator {op!r}")
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}")
        self.name = name
        self.gauge = gauge
        self.threshold = float(threshold)
        self.op = op
        self.severity = severity
        self.description = description

    def evaluate(self, gauges: Dict[str, float],
                 now: float) -> Optional[dict]:
        value = gauges.get(self.gauge)
        if value is None:
            return None
        if not _COMPARATORS[self.op](value, self.threshold):
            return None
        return {
            "value": value,
            "threshold": self.threshold,
            "detail": {"gauge": self.gauge, "op": self.op},
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name, "type": "threshold", "gauge": self.gauge,
            "op": self.op, "threshold": self.threshold,
            "severity": self.severity,
        }


class LatencyWindowSource:
    """``(good, total)`` counts over timestamped latency events.

    ``events_fn`` yields ``(wall_ts, millis)`` pairs; an event is *good*
    when its latency is at or under ``threshold_ms``.
    """

    def __init__(self, threshold_ms: float,
                 events_fn: Callable[[], Iterable[Tuple[float, float]]],
                 description: str = ""):
        self.threshold_ms = float(threshold_ms)
        self.events_fn = events_fn
        self.description = description

    @classmethod
    def from_profile(cls, db: Any, threshold_ms: float,
                     ops: Optional[Iterable[str]] = None
                     ) -> "LatencyWindowSource":
        """Window over the docstore profiler's ``system.profile`` entries
        (enable with ``db.set_profiling_level``)."""
        wanted = frozenset(ops) if ops is not None else None

        def events() -> List[Tuple[float, float]]:
            return [
                (e["ts"], e["millis"]) for e in db.profile_log
                if wanted is None or e.get("op") in wanted
            ]

        return cls(threshold_ms, events,
                   description=f"system.profile of {db.name!r}")

    @classmethod
    def from_proxy(cls, proxy: Any,
                   threshold_ms: float) -> "LatencyWindowSource":
        """Window over the datastore proxy's forward timings — injected
        ``forward_latency_s`` shows up here, making the proxy the natural
        latency failure-injection hook for SLO tests."""
        return cls(threshold_ms, proxy.latency_events,
                   description="proxy forward latency")

    @classmethod
    def from_warehouse(cls, access_log: Any, threshold_ms: float,
                       endpoint: Any = None) -> "LatencyWindowSource":
        """Window over the telemetry warehouse's ``telemetry.access``
        records — the persistent counterpart of :meth:`from_profile`,
        so burn-rate evidence survives a server restart.

        ``access_log`` is a :class:`~repro.api.querylog.QueryLog` (or a
        ``TelemetryWarehouse``, whose ``.access`` log is used); pass
        ``endpoint`` (scalar or list) to judge one route's latency only.
        """
        log = getattr(access_log, "access", access_log)

        def events() -> List[Tuple[float, float]]:
            return [
                (rec["ts"], rec.get("duration_ms", 0.0))
                for rec in log.query_access_log(endpoint=endpoint)
            ]

        scope = f" endpoint={endpoint}" if endpoint is not None else ""
        return cls(threshold_ms, events,
                   description=f"telemetry.access warehouse{scope}")

    def window_counts(self, t0: float, t1: float) -> Tuple[int, int]:
        good = total = 0
        for ts, millis in self.events_fn():
            if t0 <= ts <= t1:
                total += 1
                if millis <= self.threshold_ms:
                    good += 1
        return good, total


class BurnRateRule:
    """Breach when the error budget burns faster than ``burn_threshold``.

    Over the trailing ``window_s``: ``bad_fraction = 1 - good/total`` and
    ``burn_rate = bad_fraction / (1 - objective)``.  No traffic in the
    window means nothing to judge (no breach), matching how burn-rate
    alerts behave on idle services.
    """

    def __init__(self, name: str, source: LatencyWindowSource,
                 objective: float = 0.99, window_s: float = 300.0,
                 burn_threshold: float = 1.0, severity: str = "critical",
                 description: str = ""):
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}")
        self.name = name
        self.source = source
        self.objective = objective
        self.window_s = float(window_s)
        self.burn_threshold = float(burn_threshold)
        self.severity = severity
        self.description = description

    def evaluate(self, gauges: Dict[str, float],
                 now: float) -> Optional[dict]:
        good, total = self.source.window_counts(now - self.window_s, now)
        if total == 0:
            return None
        bad = total - good
        bad_fraction = bad / total
        budget = 1.0 - self.objective
        burn_rate = bad_fraction / budget
        get_registry().gauge(
            "repro_slo_burn_rate", "error-budget burn rate per rule"
        ).set(burn_rate, rule=self.name)
        if burn_rate <= self.burn_threshold:
            return None
        return {
            "value": burn_rate,
            "threshold": self.burn_threshold,
            "detail": {
                "window_s": self.window_s,
                "good": good,
                "bad": bad,
                "total": total,
                "bad_fraction": bad_fraction,
                "objective": self.objective,
                "budget": budget,
                "burn_rate": burn_rate,
                "latency_threshold_ms": self.source.threshold_ms,
            },
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name, "type": "burn_rate",
            "objective": self.objective, "window_s": self.window_s,
            "burn_threshold": self.burn_threshold,
            "severity": self.severity,
        }


class AlertHistory:
    """Alert documents in a capped history collection."""

    def __init__(self, db: Any, collection: str = "system.alerts",
                 cap: int = ALERT_CAP):
        self.db = db
        self.collection_name = collection
        self.cap = cap

    @property
    def collection(self) -> Any:
        return self.db.get_collection(self.collection_name)

    def open(self, rule: Any, breach: dict, now: float) -> dict:
        doc = {
            "rule": rule.name,
            "severity": rule.severity,
            "state": "open",
            "opened_at": now,
            "last_seen": now,
            "evaluations": 1,
            "value": breach["value"],
            "threshold": breach["threshold"],
            "detail": breach.get("detail", {}),
        }
        coll = self.collection
        coll.insert_one(doc)
        while coll.count_documents() > self.cap:
            oldest = coll.find_one_and_delete({}, sort=[("opened_at", 1)])
            if oldest is None:
                break
        get_registry().counter(
            "repro_slo_alerts_total", "SLO alerts opened"
        ).inc(1, rule=rule.name, severity=rule.severity)
        return doc

    def touch(self, rule_name: str, breach: dict, now: float) -> None:
        self.collection.update_one(
            {"rule": rule_name, "state": "open"},
            {"$set": {"last_seen": now, "value": breach["value"],
                      "detail": breach.get("detail", {})},
             "$inc": {"evaluations": 1}},
        )

    def resolve(self, rule_name: str, now: float) -> None:
        self.collection.update_one(
            {"rule": rule_name, "state": "open"},
            {"$set": {"state": "resolved", "resolved_at": now}},
        )

    def open_alerts(self) -> List[dict]:
        return self.collection.find({"state": "open"}).sort(
            [("opened_at", -1)]).to_list()

    def recent(self, n: int = 50) -> List[dict]:
        return self.collection.find({}).sort(
            [("opened_at", -1)]).limit(n).to_list()


class SLOEngine:
    """Evaluates a rule set and maintains the alert lifecycle."""

    def __init__(self, db: Any, rules: Optional[List[Any]] = None,
                 collection: str = "system.alerts"):
        self.history = AlertHistory(db, collection)
        self._rules: List[Any] = list(rules or [])
        self._active: Dict[str, float] = {}  # rule name -> opened_at
        # Adopt alerts already open in the history collection: a
        # warehouse-backed engine reopening after a restart must keep
        # touching/resolving the persisted documents rather than opening
        # duplicates.  In-memory deployments start from an empty
        # collection, so this is a no-op there.
        for alert in self.history.open_alerts():
            self._active.setdefault(alert["rule"], alert.get("opened_at", 0.0))

    @property
    def rules(self) -> List[Any]:
        return list(self._rules)

    def evaluate(self, gauges: Optional[Dict[str, float]] = None,
                 now: Optional[float] = None) -> List[dict]:
        """Run every rule; returns alert documents opened *this* pass."""
        now = time.time() if now is None else now
        gauges = gauges or {}
        opened: List[dict] = []
        for rule in self._rules:
            breach = rule.evaluate(gauges, now)
            if breach is not None:
                if rule.name in self._active:
                    self.history.touch(rule.name, breach, now)
                else:
                    opened.append(self.history.open(rule, breach, now))
                    self._active[rule.name] = now
            elif rule.name in self._active:
                self.history.resolve(rule.name, now)
                del self._active[rule.name]
        return opened

    def status(self) -> str:
        """``green`` | ``warn`` | ``critical`` from currently open alerts."""
        worst = -1
        for alert in self.history.open_alerts():
            worst = max(worst, _SEVERITY_RANK.get(alert["severity"], 1))
        if worst >= _SEVERITY_RANK["critical"]:
            return "critical"
        if worst >= _SEVERITY_RANK["warn"]:
            return "warn"
        return "green"

    def open_alerts(self) -> List[dict]:
        return self.history.open_alerts()

    def recent_alerts(self, n: int = 50) -> List[dict]:
        return self.history.recent(n)

    def describe(self) -> List[dict]:
        """The rule set in its serializable form (documented format)."""
        return [r.to_dict() for r in self._rules]


def default_rules(db: Any) -> List[Any]:
    """The stock rule set a bare ``GET /health`` endpoint evaluates.

    Topology thresholds only fire when the matching component is watched
    (their gauges are absent otherwise), and the latency burn rule only
    fires once the database records profile entries — a freshly populated
    store is green by construction.
    """
    return [
        ThresholdRule(
            "replication-lag", gauge="replication_max_lag",
            threshold=100.0, op=">", severity="warn",
            description="a replica-set member missed >100 writes",
        ),
        ThresholdRule(
            "changestream-backlog",
            gauge="changestream_max_backlog_fraction",
            threshold=0.5, op=">", severity="warn",
            description="a change stream buffer is more than half full",
        ),
        ThresholdRule(
            "shard-imbalance", gauge="shard_max_balance_factor",
            threshold=2.0, op=">", severity="warn",
            description="the hottest shard holds 2x the mean",
        ),
        BurnRateRule(
            "query-latency-burn",
            LatencyWindowSource.from_profile(db, threshold_ms=250.0),
            objective=0.99, window_s=300.0, burn_threshold=1.0,
            severity="critical",
            description="99% of profiled ops under 250ms, 5m window",
        ),
    ]
