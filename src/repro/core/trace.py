"""Execution tracing — the demonstration view of the engine.

The SIGMOD demo of Lusail showcased what the engine *does* with a query:
which endpoints are relevant, which join variables come out global, how
the query decomposes, which subqueries are delayed, and how execution
proceeds.  :class:`QueryTrace` captures those events as structured data;
:func:`render_trace` turns them into the step-by-step narrative the demo
showed on screen (see ``examples/demo_walkthrough.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class TraceEvent:
    """One step of the execution narrative."""

    kind: str
    virtual_seconds: float
    detail: Dict[str, object] = field(default_factory=dict)


class QueryTrace:
    """Ordered trace of one federated query execution."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def record(self, kind: str, virtual_seconds: float, **detail) -> None:
        self.events.append(TraceEvent(kind, virtual_seconds, dict(detail)))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


_RENDERERS = {}


def _renders(kind: str):
    def decorator(fn):
        _RENDERERS[kind] = fn
        return fn
    return decorator


@_renders("source_selection")
def _render_source_selection(event: TraceEvent) -> str:
    lines = ["source selection (ASK per triple pattern):"]
    for pattern, sources in event.detail["selection"].items():
        lines.append(f"    {pattern:<70} -> {sources}")
    return "\n".join(lines)


@_renders("gjv")
def _render_gjv(event: TraceEvent) -> str:
    names = event.detail["variables"]
    checks = event.detail["check_queries"]
    if not names:
        return (f"locality analysis: no global join variables "
                f"({checks} check queries) — the whole query is local")
    pairs = event.detail["pairs"]
    lines = [
        f"locality analysis: global join variables {names} "
        f"({checks} check queries)"
    ]
    for pair in pairs:
        lines.append(f"    split: {pair}")
    return "\n".join(lines)


@_renders("decomposition")
def _render_decomposition(event: TraceEvent) -> str:
    lines = [f"decomposition: {len(event.detail['subqueries'])} subquery(ies)"]
    for info in event.detail["subqueries"]:
        delayed = "  [delayed]" if info["delayed"] else ""
        lines.append(
            f"    {info['label']}: {info['patterns']} pattern(s) "
            f"-> {info['sources']}"
            + (f", est. cardinality {info['estimated']:.0f}"
               if info["estimated"] is not None else "")
            + delayed
        )
    return "\n".join(lines)


@_renders("subquery_result")
def _render_subquery_result(event: TraceEvent) -> str:
    return (f"subquery {event.detail['label']}: {event.detail['rows']} rows "
            f"({event.detail['mode']})")


@_renders("join_order")
def _render_join_order(event: TraceEvent) -> str:
    return f"global join order: {' >< '.join(event.detail['order'])}"


@_renders("retry")
def _render_retry(event: TraceEvent) -> str:
    attempts = event.detail["failed_attempts"]
    where = event.detail["endpoint"]
    kind = event.detail.get("request_kind", "request")
    if event.detail.get("exhausted"):
        return (f"retry budget exhausted at {where}: {attempts} failed "
                f"{kind} attempt(s), giving up")
    return (f"transient failure(s) at {where}: {attempts} {kind} "
            f"attempt(s) absorbed by retries")


@_renders("breaker_open")
def _render_breaker_open(event: TraceEvent) -> str:
    return (f"circuit breaker OPEN for {event.detail['endpoint']} after "
            f"{event.detail['consecutive_failures']} consecutive failures; "
            f"failing fast until t={event.detail['open_until']:.3f}s")


@_renders("breaker_close")
def _render_breaker_close(event: TraceEvent) -> str:
    return (f"circuit breaker CLOSED for {event.detail['endpoint']} "
            f"(half-open probe succeeded)")


@_renders("timeout")
def _render_timeout(event: TraceEvent) -> str:
    reason = event.detail.get("reason", "timeout")
    what = ("query deadline" if reason == "deadline"
            else "per-request timeout")
    return (f"{what} CUT a {event.detail.get('request_kind', 'request')} at "
            f"{event.detail['endpoint']}: allowed "
            f"{event.detail['limit_seconds']:.3f}s of "
            f"{event.detail['cost_seconds']:.3f}s")


@_renders("deadline")
def _render_deadline(event: TraceEvent) -> str:
    stage = event.detail.get("stage", "execution")
    expires = event.detail.get("expires_at")
    suffix = f" (budget ran out at t={expires:.3f}s)" if expires is not None else ""
    if stage == "submit":
        return (f"deadline exceeded at submit: refused a new "
                f"{event.detail.get('request_kind', 'request')} to "
                f"{event.detail['endpoint']}{suffix}")
    if stage == "gjv_checks":
        return (f"analysis budget dry: skipped {event.detail['skipped']} "
                f"GJV check answer(s), variables conservatively "
                f"global{suffix}")
    if stage == "count_probes":
        return (f"analysis budget dry: skipped COUNT probes, assuming "
                f"{event.detail.get('fallback', 'worst-case cardinality')}"
                f"{suffix}")
    if stage == "sape":
        skipped = ", ".join(event.detail.get("skipped", ())) or "none"
        return (f"deadline exceeded during SAPE: skipped delayed "
                f"subquery(ies) {skipped}, degrading to PARTIAL{suffix}")
    return f"deadline exceeded during {stage}{suffix}"


@_renders("subquery_degraded")
def _render_subquery_degraded(event: TraceEvent) -> str:
    return (f"subquery {event.detail['label']} DEGRADED: dropped the "
            f"contribution of {event.detail['endpoint']} (down past its "
            f"retry budget)")


@_renders("completeness")
def _render_completeness(event: TraceEvent) -> str:
    failed = ", ".join(event.detail["endpoints_failed"]) or "none"
    degraded = ", ".join(event.detail["subqueries_degraded"]) or "none"
    lines = [
        "PARTIAL result — completeness report:",
        f"    endpoints failed:    {failed}",
        f"    subqueries degraded: {degraded}",
    ]
    if event.detail.get("rerouted"):
        routes = ", ".join(
            f"{primary} -> {replica}"
            for primary, replica in event.detail["rerouted"].items()
        )
        lines.append(f"    rerouted:            {routes}")
    counts = event.detail.get("status_counts") or {}
    if counts:
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        lines.append(f"    failure kinds:       {summary}")
    return "\n".join(lines)


@_renders("replan")
def _render_replan(event: TraceEvent) -> str:
    return (f"replan: {event.detail['relation']} observed "
            f"{event.detail['observed']} rows vs {event.detail['estimated']} "
            f"estimated; unstarted join suffix reordered "
            f"{' >< '.join(event.detail['old_suffix'])} -> "
            f"{' >< '.join(event.detail['new_suffix'])}")


@_renders("stream_first_result")
def _render_stream_first_result(event: TraceEvent) -> str:
    return (f"first result batch: {event.detail['rows']} rows at "
            f"{event.detail['ttfb_seconds'] * 1000:.2f} ms virtual time")


@_renders("stream_truncated")
def _render_stream_truncated(event: TraceEvent) -> str:
    status = event.detail.get("status")
    suffix = f" [{status}]" if status else ""
    return (f"stream truncated after {event.detail['emitted']} rows: "
            f"{event.detail['reason']}{suffix}")


@_renders("done")
def _render_done(event: TraceEvent) -> str:
    return (f"done: {event.detail['rows']} answers, "
            f"{event.detail['requests']} endpoint requests, "
            f"{event.virtual_seconds * 1000:.2f} ms virtual time")


def render_trace(trace: QueryTrace) -> str:
    """Human-readable execution narrative (the demo's storyline)."""
    lines: List[str] = []
    for index, event in enumerate(trace.events, start=1):
        renderer = _RENDERERS.get(event.kind)
        body = (
            renderer(event)
            if renderer
            else f"{event.kind}: {event.detail}"
        )
        lines.append(f"[{index}] {body}")
    return "\n".join(lines)
