"""An in-process engine wrapped as a federation endpoint.

:class:`EngineEndpoint` makes a whole
:class:`~repro.core.engine.LusailEngine` answer as a single federation
member — exactly what a :class:`~repro.serving.server.LusailHTTPServer`
does for remote clients, minus the HTTP.  Its purpose is the
transport-identity experiment: a front federation over
``RemoteEndpoint(server_i.url)`` must produce bit-identical rows to the
same front federation over ``EngineEndpoint(engine_i)`` where
``engine_i`` is the engine behind ``server_i``.  Any difference is, by
construction, introduced by the wire — which is precisely what the
chaos suite must prove never happens silently.

(Comparing against :class:`~repro.endpoint.local.LocalEndpoint` instead
would conflate transport with semantics: a served engine applies SELECT
``DISTINCT`` set semantics at its own boundary, the bare evaluator does
not.)

Like the remote client, this endpoint is wall-clock: the request handler
measures it rather than deferring to the virtual network model, so
schedulers treat both comparands the same way.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.endpoint import EndpointProtocolError, EndpointResponse, Region
from repro.serving.protocol import results_document


class EngineEndpoint:
    """A federation member answered by an in-process engine."""

    wall_clock = True

    def __init__(self, engine, endpoint_id: str = "engine",
                 region: Optional[Region] = None):
        self.engine = engine
        self.endpoint_id = endpoint_id
        self.region = region or Region(f"engine:{endpoint_id}")

    def execute(
        self, query_text: str, timeout_seconds: Optional[float] = None
    ) -> EndpointResponse:
        # timeout_seconds is the *caller-side* wall budget; the HTTP
        # client never forwards it to the server either, so the wrapped
        # engine runs exactly as a served one would.
        del timeout_seconds
        outcome = self.engine.execute(query_text)
        if outcome.status not in ("OK", "PARTIAL"):
            raise EndpointProtocolError(
                self.endpoint_id,
                f"remote query failed: {outcome.error or outcome.status}",
            )
        if outcome.boolean is not None:
            return EndpointResponse(
                value=outcome.boolean,
                rows_touched=1,
                bytes_received=32,
                partial=outcome.status == "PARTIAL",
            )
        result = outcome.result
        # Charge what the serialized document would have weighed, so the
        # comparison against the HTTP path sees similar byte accounting.
        body = json.dumps(results_document(result)).encode("utf-8")
        return EndpointResponse(
            value=result,
            rows_touched=len(result.rows),
            bytes_received=len(body),
            partial=outcome.status == "PARTIAL",
        )

    def triple_count(self) -> int:
        federation = getattr(self.engine, "federation", None)
        if federation is None:
            return 0
        return sum(
            endpoint.triple_count() for endpoint in federation.endpoints()
        )

    def reset_request_window(self) -> None:
        """Request-window budgeting stays inside the wrapped engine."""
