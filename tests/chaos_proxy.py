"""A deterministic fault-injecting TCP proxy for wire-level chaos tests.

:class:`ChaosProxy` sits between a SPARQL client and a real server and
injects the byte-level failures production federations actually see —
what :class:`~repro.endpoint.faults.FaultProfile` does for virtual time,
this does for real sockets:

- ``reset`` — hard TCP RST (``SO_LINGER(1,0)`` close) after the first
  *k* response bytes;
- ``truncate`` — clean FIN mid-body (the half-close every short-read /
  unterminated-chunked bug hides behind);
- ``stall`` — forward *k* bytes then go silent while holding the
  connection open (slow-loris from the server side);
- ``garbage`` — corrupt response **body** bytes (headers pass intact,
  so the payload parses as HTTP but not as SPARQL JSON);
- ``duplicate`` — replay a slice of body bytes (duplicated chunk);
- ``storm`` — answer ``503``/``429`` + ``Retry-After`` locally without
  ever contacting the upstream;
- bounded latency jitter on every forwarded slice.

Determinism: each accepted connection gets an ordinal *n*, and its
fault (if any) is drawn from ``random.Random(f"{seed}:{n}")`` — so a
chaos run is exactly reproducible from ``(profile, connection order)``,
and CI failures replay locally.  Faults are **per connection**: a
keep-alive connection carrying several requests lives or dies as one.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_SLICE = 16 * 1024
#: fixed evaluation order — part of the deterministic contract
_FAULT_KINDS = (
    "storm", "reset", "truncate", "stall", "garbage", "duplicate",
)


@dataclass
class ChaosProfile:
    """Fault rates (each 0..1) and their parameters.

    Rates are evaluated per connection in the fixed order ``storm,
    reset, truncate, stall, garbage, duplicate``; the first hit wins, so
    e.g. ``reset_rate=1.0`` makes every connection a reset.
    """

    seed: int = 0
    reset_rate: float = 0.0
    reset_after_bytes: int = 512
    truncate_rate: float = 0.0
    truncate_after_bytes: int = 512
    stall_rate: float = 0.0
    stall_after_bytes: int = 128
    stall_seconds: float = 30.0
    garbage_rate: float = 0.0
    duplicate_rate: float = 0.0
    storm_rate: float = 0.0
    storm_status: int = 503
    storm_retry_after: float = 0.05
    latency_jitter_seconds: float = 0.0

    def _rate(self, kind: str) -> float:
        return getattr(self, f"{kind}_rate")

    def fault_for_connection(self, ordinal: int) -> Tuple[Optional[str], random.Random]:
        """The (fault kind or None, per-connection rng) for connection n."""
        rng = random.Random(f"{self.seed}:{ordinal}")
        for kind in _FAULT_KINDS:
            if rng.random() < self._rate(kind):
                return kind, rng
        return None, rng

    @classmethod
    def quiet(cls) -> "ChaosProfile":
        """Pure pass-through (the fault-free control run)."""
        return cls()


@dataclass
class _Connection:
    client: socket.socket
    upstream: Optional[socket.socket] = None
    sockets: List[socket.socket] = field(default_factory=list)


class ChaosProxy:
    """A TCP proxy that deterministically injects wire faults."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        profile: Optional[ChaosProfile] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.profile = profile or ChaosProfile()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._closed = False
        self._ordinal = 0
        self._lock = threading.Lock()
        self._active: List[socket.socket] = []
        self._stats: Dict[str, int] = {"connections": 0, "passthrough": 0}
        for kind in _FAULT_KINDS:
            self._stats[kind] = 0
        self._thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            active, self._active = self._active, []
        for sock in active:
            _quiet_close(sock)

    # -- internals ---------------------------------------------------------

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._active.append(sock)

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                ordinal = self._ordinal
                self._ordinal += 1
                self._stats["connections"] += 1
            fault, rng = self.profile.fault_for_connection(ordinal)
            with self._lock:
                self._stats[fault if fault else "passthrough"] += 1
            self._track(client)
            threading.Thread(
                target=self._serve, args=(client, fault, rng),
                name=f"chaos-conn-{ordinal}", daemon=True,
            ).start()

    def _serve(self, client: socket.socket, fault: Optional[str],
               rng: random.Random) -> None:
        try:
            if fault == "storm":
                self._storm(client)
                return
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=5.0
                )
            except OSError:
                _quiet_close(client)
                return
            self._track(upstream)
            request_pump = threading.Thread(
                target=self._pump_plain, args=(client, upstream),
                daemon=True,
            )
            request_pump.start()
            self._pump_response(upstream, client, fault, rng)
        finally:
            _quiet_close(client)

    def _storm(self, client: socket.socket) -> None:
        """Answer a throttle response locally; never touch the upstream."""
        client.settimeout(5.0)
        try:
            # Drain the request head so the client finishes writing.
            data = b""
            while b"\r\n\r\n" not in data and len(data) < 64 * 1024:
                piece = client.recv(_SLICE)
                if not piece:
                    return
                data += piece
            status = self.profile.storm_status
            reason = "Service Unavailable" if status == 503 else "Too Many Requests"
            body = b'{"error": "chaos storm"}'
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Retry-After: {self.profile.storm_retry_after:g}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            client.sendall(head + body)
        except OSError:
            pass
        finally:
            _quiet_close(client)

    def _pump_plain(self, source: socket.socket, sink: socket.socket) -> None:
        """Forward the request direction verbatim."""
        try:
            while True:
                piece = source.recv(_SLICE)
                if not piece:
                    break
                sink.sendall(piece)
        except OSError:
            pass
        # Propagate the request-side FIN; the response pump keeps going.
        try:
            sink.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _pump_response(
        self, upstream: socket.socket, client: socket.socket,
        fault: Optional[str], rng: random.Random,
    ) -> None:
        """Forward response bytes, applying the connection's fault."""
        profile = self.profile
        trip_at = {
            "reset": profile.reset_after_bytes,
            "truncate": profile.truncate_after_bytes,
            "stall": profile.stall_after_bytes,
        }.get(fault)
        forwarded = 0
        header_done = False
        buffered = b""
        try:
            while True:
                piece = upstream.recv(_SLICE)
                if not piece:
                    _quiet_close(client)
                    return
                if fault in ("garbage", "duplicate") and not header_done:
                    # Let the response head through intact so the fault
                    # lands in the body, where strict decoding must
                    # catch it.
                    buffered += piece
                    marker = buffered.find(b"\r\n\r\n")
                    if marker < 0:
                        continue
                    head, body = buffered[: marker + 4], buffered[marker + 4:]
                    header_done = True
                    client.sendall(head)
                    piece = body
                    if not piece:
                        continue
                if fault == "garbage":
                    piece = bytes(
                        rng.randrange(256) if rng.random() < 0.3 else b
                        for b in piece
                    )
                elif fault == "duplicate":
                    cut = max(1, len(piece) // 2)
                    piece = piece[:cut] + piece[:cut] + piece[cut:]
                if profile.latency_jitter_seconds > 0:
                    time.sleep(rng.uniform(0, profile.latency_jitter_seconds))
                if trip_at is not None and forwarded + len(piece) >= trip_at:
                    keep = max(0, trip_at - forwarded)
                    if keep:
                        client.sendall(piece[:keep])
                    forwarded += keep
                    if fault == "reset":
                        _reset_close(client)
                    elif fault == "truncate":
                        _quiet_close(client)
                    else:  # stall: hold the socket open, send nothing
                        self._hold(profile.stall_seconds)
                        _quiet_close(client)
                    _quiet_close(upstream)
                    return
                client.sendall(piece)
                forwarded += len(piece)
        except OSError:
            _quiet_close(client)
            _quiet_close(upstream)

    def _hold(self, seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while not self._closed and time.monotonic() < deadline:
            time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))


def _quiet_close(sock: socket.socket) -> None:
    """Shutdown-then-close.

    The explicit ``shutdown`` matters: CPython defers the real ``close``
    (and with it the FIN) while another thread is blocked in ``recv`` on
    the same socket object — which the request pump always is.
    ``shutdown`` acts immediately and unblocks that thread.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _reset_close(sock: socket.socket) -> None:
    """Close with SO_LINGER(on, 0): the peer sees a hard RST.

    Only ``SHUT_RD`` here — a ``SHUT_WR`` would send a clean FIN first,
    and the peer might read it as an orderly half-close before the RST
    lands.  ``SHUT_RD`` has no wire effect; it just unblocks the request
    pump so CPython performs the (linger-armed) close promptly.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
