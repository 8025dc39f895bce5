"""Transports: how SOAP bytes travel between client and service.

Three byte movers, all sharing one interface (:class:`Transport`):

* :class:`InProcessTransport` — straight into a local
  :class:`~repro.ws.container.ServiceContainer` (still paying the SOAP
  encode/decode, like a co-located Axis client).
* :class:`HttpTransport` — real sockets to an
  :class:`~repro.ws.httpd.SoapHttpServer` (localhost stands in for the
  paper's campus network).
* :class:`SimulatedTransport` — wraps another transport and charges a
  latency + bandwidth cost per message, either as real ``sleep`` time or as
  an accumulated *virtual clock*.  This is the substitution for the paper's
  1 Gb/s testbed network: distribution effects are functions of message
  count and payload size, which the model captures explicitly.

Since the handler-chain refactor these classes are *pure* byte movers:
each implements only :meth:`ChainedTransport._exchange` (sockets,
container dispatch, cost modelling), while the cross-cutting concerns —
trace spans, metrics, deadline budgeting, payload-ref substitution,
gzip negotiation — run as a :mod:`repro.ws.pipeline` interceptor chain
around it.  Movers report telemetry only through the per-call
:class:`~repro.ws.pipeline.CallContext`; this module must not import
:mod:`repro.obs`, :mod:`repro.ws.breaker` or :mod:`repro.chaos`
(enforced by ``tools/layering_lint.py``).
"""

from __future__ import annotations

import asyncio
import http.client
import os
import socket
import threading
import time
from dataclasses import dataclass
from urllib.parse import quote, unquote, urlparse

from repro.errors import DeadlineExceeded, OverloadedError, TransportError
from repro.ws import payload, pipeline, shm, soap
from repro.ws.container import ServiceContainer
from repro.ws.pipeline import CallContext
from repro.ws.soap import SoapFault, SoapRequest, SoapResponse


def unix_url(socket_path: str, resource: str = "/") -> str:
    """The ``unix://`` endpoint URL for *socket_path* + *resource*.

    The socket path rides in the authority component, percent-encoded
    (``unix://%2Ftmp%2Fw.sock/services/Data``), so the resource path
    stays a plain HTTP request target and every URL-splitting consumer
    (proxies, registries, the WSDL re-pointer) works unchanged.
    """
    return "unix://" + quote(os.path.abspath(socket_path), safe="") + \
        (resource if resource.startswith("/") else "/" + resource)


def parse_unix_url(endpoint: str) -> tuple[str, str]:
    """``(socket_path, resource_path)`` of a ``unix://`` endpoint URL."""
    parsed = urlparse(endpoint)
    # netloc, not .hostname: hostname lowercases, and socket paths are
    # case-sensitive filesystem paths
    if parsed.scheme != "unix" or not parsed.netloc:
        raise TransportError(f"unsupported endpoint {endpoint!r}")
    return unquote(parsed.netloc), parsed.path or "/"


class Transport:
    """Send one SOAP request, receive one SOAP response."""

    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request; returns the SOAP response."""
        raise NotImplementedError

    async def send_async(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request from an event loop.

        Default: run the sync :meth:`send` on a worker thread, so any
        transport is awaitable; :class:`ChainedTransport` overrides
        this with a chain-running version and :class:`HttpTransport`
        moves bytes natively on asyncio streams.
        """
        return await asyncio.to_thread(self.send, request)

    def speaks(self, codec: str) -> bool:
        """True when the peer behind this transport is known to accept
        the named wire codec (e.g. ``"columnar"``).

        The default is conservative (``False`` → callers fall back to
        ARFF text, which every peer speaks).  :class:`HttpTransport`
        learns capabilities from the ``X-Repro-Codecs`` response header,
        so the first call to an un-probed peer ships ARFF and later
        calls upgrade — un-upgraded peers never see a frame.
        """
        return False

    def same_host(self) -> bool:
        """True when the peer is known to share this host's kernel.

        Drives the shared-memory payload tier: only a same-host peer
        can map a published segment, so the payload chain step consults
        this before sending ``via="shm"`` references.  Learned, not
        configured — :class:`HttpTransport` compares the peer's
        ``X-Repro-Boot`` response header against the local boot id, so
        the first exchange with any peer ships inline and later ones
        upgrade (cross-host peers simply never do).
        """
        return False

    def close(self) -> None:
        """Release any underlying resources (default: none)."""


class ChainedTransport(Transport):
    """A transport whose :meth:`send` runs an interceptor chain around a
    pure byte-moving :meth:`_exchange`.

    Pass ``interceptors`` to replace the default chain (see
    :func:`repro.ws.pipeline.default_transport_interceptors`); the list
    is consulted live, so tests may also mutate
    :attr:`interceptors` between calls.
    """

    kind = "chained"

    def __init__(self, interceptors=None):
        self.interceptors = list(interceptors) if interceptors is not None \
            else self.default_interceptors()

    def default_interceptors(self):
        """The chain installed when no explicit one is passed."""
        return pipeline.default_transport_interceptors()

    def endpoint_label(self) -> str:
        """Endpoint attribute for the chain's ``send:*`` span ("" = none)."""
        return ""

    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request; returns the SOAP response."""
        ctx = CallContext(kind=self.kind, endpoint=self.endpoint_label(),
                          service=request.service,
                          operation=request.operation)
        ctx.properties["same_host"] = self.same_host()
        return pipeline.run_chain(
            self.interceptors, request, ctx,
            lambda outbound: self._exchange(outbound, ctx))

    async def send_async(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request from an event loop.

        The same interceptor chain runs (async mirrors where steps
        provide them, thread-bridged otherwise) into
        :meth:`_exchange_async`, so sync and async callers get
        identical policy and telemetry.
        """
        ctx = CallContext(kind=self.kind, endpoint=self.endpoint_label(),
                          service=request.service,
                          operation=request.operation)
        ctx.properties["same_host"] = self.same_host()

        async def terminal(outbound: SoapRequest) -> SoapResponse:
            return await self._exchange_async(outbound, ctx)

        return await pipeline.run_chain_async(
            self.interceptors, request, ctx, terminal)

    async def _exchange_async(self, request: SoapRequest,
                              ctx: CallContext = None) -> SoapResponse:
        """Async byte move; default runs :meth:`_exchange` off-loop."""
        return await asyncio.to_thread(self._exchange, request, ctx)

    def _context_of(self, ctx) -> CallContext:
        """Normalise *ctx* for direct ``_exchange`` calls (tests poke the
        mover with legacy ``(request, span, start)`` arguments); a real
        per-call context from :meth:`send` passes through unchanged."""
        if isinstance(ctx, CallContext):
            return ctx
        return CallContext(kind=self.kind, endpoint=self.endpoint_label())

    def _exchange(self, request: SoapRequest, ctx: CallContext = None,
                  *_legacy) -> SoapResponse:
        raise NotImplementedError


class InProcessTransport(ChainedTransport):
    """Serialise through SOAP but dispatch into a local container."""

    kind = "inprocess"

    def __init__(self, container: ServiceContainer, interceptors=None):
        super().__init__(interceptors)
        self.container = container
        self.bytes_sent = 0
        self.bytes_received = 0

    def speaks(self, codec: str) -> bool:
        """Both ends are this process, so every local codec works."""
        return codec == "columnar"

    def _exchange(self, request: SoapRequest, ctx: CallContext = None,
                  *_legacy) -> SoapResponse:
        ctx = self._context_of(ctx)
        wire = soap.encode_request(request)
        self.bytes_sent += len(wire)
        decoded = soap.decode_request(wire)  # resolves payload refs
        try:
            response = self.container.invoke(decoded)
            wire_out = soap.encode_response(response)
        except SoapFault as fault:
            wire_out = soap.encode_fault(fault)
        except OverloadedError as exc:
            # same wire behaviour as the HTTP gateways: a shed becomes
            # the dedicated fault, decoded back into OverloadedError
            wire_out = soap.encode_fault(soap.fault_for(exc))
        self.bytes_received += len(wire_out)
        ctx.note("bytes_sent", len(wire))
        ctx.note("bytes_received", len(wire_out))
        ctx.note("payload_refs", len(payload.refs_in(request)))
        ctx.on_wire(len(wire), len(wire_out))
        return soap.decode_response(wire_out)


class HttpTransport(ChainedTransport):
    """SOAP POST over a persistent HTTP connection.

    Bodies above :data:`repro.ws.payload.COMPRESS_MIN_BYTES` go out
    gzip-compressed (``Content-Encoding: gzip``), and every request
    advertises ``Accept-Encoding: gzip`` so a compressing server can
    answer in kind; a peer that ignores both stays fully interoperable.
    Pass ``compress=False`` to negotiate identity encoding only (the
    flag feeds the chain's gzip step).
    """

    kind = "http"

    def __init__(self, endpoint: str, timeout: float = 30.0,
                 compress: bool = True, interceptors=None):
        self.endpoint = endpoint
        self._timeout = timeout
        self._configure(endpoint)
        # keep-alive pool: each logical call checks a connection out for
        # exclusive use and returns it after a clean exchange, so
        # concurrent callers never interleave request/response pairs on
        # one socket (and never misattribute another call's staleness)
        self._pool: list[http.client.HTTPConnection] = []
        self._pool_lock = threading.Lock()
        self._apool: list[tuple[asyncio.StreamReader,
                                asyncio.StreamWriter]] = []
        self.compress = compress
        self.bytes_sent = 0
        self.bytes_received = 0
        # wire codecs the peer has advertised via X-Repro-Codecs; grows
        # monotonically as responses come back (capability discovery)
        self.peer_codecs: frozenset[str] = frozenset()
        # the peer's host boot id (X-Repro-Boot); learned the same way
        self.peer_boot = ""
        super().__init__(interceptors)

    def _configure(self, endpoint: str) -> None:
        """Parse *endpoint* into dial coordinates (subclass seam)."""
        parsed = urlparse(endpoint)
        if parsed.scheme != "http" or not parsed.hostname:
            raise TransportError(f"unsupported endpoint {endpoint!r}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._path = parsed.path or "/"
        self._netloc = f"{self._host}:{self._port}"

    def _new_connection(self) -> http.client.HTTPConnection:
        """A fresh connection to the peer (subclass seam)."""
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout)

    def speaks(self, codec: str) -> bool:
        """True once the server has advertised *codec* in a response."""
        return codec in self.peer_codecs

    def same_host(self) -> bool:
        """True once the server has advertised this host's boot id."""
        return bool(self.peer_boot) and self.peer_boot == shm.boot_id()

    def default_interceptors(self):
        """The standard HTTP chain, with the gzip negotiation step."""
        return pipeline.default_transport_interceptors(
            compress=self.compress)

    def endpoint_label(self) -> str:
        """This transport's URL, tagged on its ``send:http`` spans."""
        return self.endpoint

    #: The pooled keep-alive connection was closed by the server between
    #: exchanges; a fresh connection deserves one silent retry.
    _STALE_ERRORS = (http.client.RemoteDisconnected,
                     http.client.BadStatusLine)

    def _checkout(self) -> tuple[http.client.HTTPConnection, bool]:
        """An exclusive connection for one logical call.

        Returns ``(conn, reused)``: a pooled keep-alive connection when
        one is idle (``reused=True`` — eligible for the one stale
        retry), a fresh one otherwise.
        """
        with self._pool_lock:
            if self._pool:
                return self._pool.pop(), True
        return self._new_connection(), False

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._pool_lock:
            self._pool.append(conn)

    def _deadline_timeout(self, request: SoapRequest) -> float:
        """Never wait on a socket longer than the remaining budget."""
        effective = self._timeout
        if request.deadline_s is not None:
            effective = min(effective, max(request.deadline_s, 1e-3))
        return effective

    def _post(self, conn: http.client.HTTPConnection,
              request: SoapRequest, wire: bytes, headers: dict):
        effective = self._deadline_timeout(request)
        conn.timeout = effective
        if conn.sock is not None:
            conn.sock.settimeout(effective)
        conn.request("POST", self._path, body=wire, headers=headers)
        http_response = conn.getresponse()
        return http_response, http_response.read()

    def _raise_unreachable(self, exc: Exception, request: SoapRequest,
                           ctx: CallContext) -> None:
        ctx.on_transport_error()
        if isinstance(exc, TimeoutError) and \
                request.deadline_s is not None and \
                request.deadline_s < self._timeout:
            raise DeadlineExceeded(
                f"{self.endpoint} did not answer within the "
                f"remaining {request.deadline_s:.3f}s budget"
            ) from exc
        raise TransportError(
            f"cannot reach {self.endpoint}: {exc}") from exc

    def _prepare(self, request: SoapRequest,
                 ctx: CallContext) -> tuple[bytes, dict]:
        """Encode one request to ``(wire, headers)``."""
        encoded = soap.encode_request(request)
        headers = {
            "Content-Type": "text/xml; charset=utf-8",
            "SOAPAction": f'"{request.operation}"',
            # advertise the columnar dataset codec; servers answer with
            # X-Repro-Codecs and callers check Transport.speaks() before
            # shipping binary frames instead of ARFF text
            "Accept": "text/xml, application/x-repro-columnar",
        }
        if request.principal:
            # mirrored out of the envelope so admission front doors can
            # identify the caller without an XML parse
            headers["X-Repro-Principal"] = request.principal
        if request.priority:
            headers["X-Repro-Priority"] = str(request.priority)
        wire = encoded
        if ctx.get("accept_gzip"):
            headers["Accept-Encoding"] = "gzip"
            wire, encoding = payload.maybe_compress(encoded)
            if encoding:
                headers["Content-Encoding"] = encoding
        return wire, headers

    def _finish(self, request: SoapRequest, ctx: CallContext, wire: bytes,
                body: bytes, status: int,
                content_encoding: str | None,
                codecs_header: str | None = None,
                boot_header: str | None = None) -> SoapResponse:
        """Account for + decode one completed exchange."""
        if codecs_header:
            advertised = {token.strip() for token in codecs_header.split(",")
                          if token.strip()}
            if not advertised <= self.peer_codecs:
                self.peer_codecs = self.peer_codecs | frozenset(advertised)
        if boot_header:
            self.peer_boot = boot_header.strip()
        self.bytes_received += len(body)
        ctx.note("bytes_sent", len(wire))
        ctx.note("bytes_received", len(body))
        ctx.note("payload_refs", len(payload.refs_in(request)))
        ctx.note("http_status", status)
        ctx.on_wire(len(wire), len(body))
        body = payload.decompress(body, content_encoding)
        return soap.decode_response(body)  # raises SoapFault on faults

    def _exchange(self, request: SoapRequest, ctx: CallContext = None,
                  *_legacy) -> SoapResponse:
        ctx = self._context_of(ctx)
        wire, headers = self._prepare(request, ctx)
        self.bytes_sent += len(wire)
        conn, reused = self._checkout()
        try:
            http_response, body = self._post(conn, request, wire, headers)
        except self._STALE_ERRORS as exc:
            conn.close()
            if not reused:
                self._raise_unreachable(exc, request, ctx)
            # a keep-alive connection pooled from an earlier exchange
            # went stale under us; that says nothing about endpoint
            # health, so retry once on a fresh connection instead of
            # surfacing a failure to the retry/breaker layers.  The
            # retry connection is this call's own — concurrent callers
            # hold their own checkouts, so exactly one retry happens
            # per logical call and the breaker sees at most one verdict
            conn, reused = self._new_connection(), False
            ctx.note("stale_retry", True)
            ctx.emit_counter("ws.transport.stale_retries")
            try:
                http_response, body = self._post(conn, request, wire,
                                                 headers)
            except (OSError, http.client.HTTPException) as retry_exc:
                conn.close()
                self._raise_unreachable(retry_exc, request, ctx)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            self._raise_unreachable(exc, request, ctx)
        self._checkin(conn)
        return self._finish(request, ctx, wire, body, http_response.status,
                            http_response.getheader("Content-Encoding"),
                            http_response.getheader("X-Repro-Codecs"),
                            http_response.getheader("X-Repro-Boot"))

    # -- native asyncio exchange --------------------------------------------

    _ASYNC_STALE_ERRORS = (ConnectionResetError, BrokenPipeError,
                           asyncio.IncompleteReadError)

    def _checkout_async(self) -> tuple[tuple[asyncio.StreamReader,
                                             asyncio.StreamWriter] | None,
                                       bool]:
        """A pooled stream pair, or ``(None, False)`` to dial fresh.

        Only ever called on the owning event loop, so the bare list
        needs no lock.
        """
        if self._apool:
            return self._apool.pop(), True
        return None, False

    async def _dial(self) -> tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]:
        return await asyncio.open_connection(self._host, self._port)

    async def _post_async(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          wire: bytes, headers: dict
                          ) -> tuple[int, dict, bytes]:
        """One raw HTTP/1.1 POST over asyncio streams.

        Returns ``(status, lowercased headers, body)``.  An empty read
        on the status line surfaces as ``IncompleteReadError`` — the
        stale-connection signal, same as the sync path's
        ``RemoteDisconnected``.
        """
        lines = [f"POST {self._path} HTTP/1.1",
                 f"Host: {self._netloc}",
                 f"Content-Length: {len(wire)}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(wire)
        await writer.drain()

        status_line = await reader.readuntil(b"\r\n")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise TransportError(
                f"malformed status line from {self.endpoint}: "
                f"{status_line!r}")
        status = int(parts[1])
        response_headers: dict[str, str] = {}
        while True:
            line = (await reader.readuntil(b"\r\n")).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = response_headers.get("content-length")
        if length is None:
            raise TransportError(
                f"{self.endpoint} answered without Content-Length")
        body = await reader.readexactly(int(length))
        return status, response_headers, body

    async def _exchange_async(self, request: SoapRequest,
                              ctx: CallContext = None) -> SoapResponse:
        """The sync exchange's semantics on asyncio streams.

        Same keep-alive pooling (per-loop), same single stale retry for
        pooled connections, same deadline-bounded socket wait — but no
        thread is held while the server works.
        """
        ctx = self._context_of(ctx)
        wire, headers = self._prepare(request, ctx)
        self.bytes_sent += len(wire)
        effective = self._deadline_timeout(request)

        async def attempt(pair, reused):
            if pair is None:
                pair = await self._dial()
            try:
                result = await asyncio.wait_for(
                    self._post_async(pair[0], pair[1], wire, headers),
                    timeout=effective)
            except BaseException:
                pair[1].close()
                raise
            return pair, result

        pair, reused = self._checkout_async()
        try:
            try:
                pair, (status, response_headers, body) = \
                    await attempt(pair, reused)
            except self._ASYNC_STALE_ERRORS as exc:
                if not reused:
                    self._raise_unreachable(exc, request, ctx)
                ctx.note("stale_retry", True)
                ctx.emit_counter("ws.transport.stale_retries")
                try:
                    pair, (status, response_headers, body) = \
                        await attempt(None, False)
                except (OSError, asyncio.IncompleteReadError) as retry_exc:
                    self._raise_unreachable(retry_exc, request, ctx)
        except asyncio.TimeoutError as exc:
            self._raise_unreachable(TimeoutError(str(exc) or "timed out"),
                                    request, ctx)
        except (OSError, asyncio.IncompleteReadError) as exc:
            self._raise_unreachable(exc, request, ctx)
        self._apool.append(pair)
        return self._finish(request, ctx, wire, body, status,
                            response_headers.get("content-encoding"),
                            response_headers.get("x-repro-codecs"),
                            response_headers.get("x-repro-boot"))

    def close(self) -> None:
        """Release underlying resources."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()
        apool, self._apool = self._apool, []
        for _, writer in apool:
            try:
                writer.close()
            except RuntimeError:
                pass  # owning event loop already closed; socket dies with it


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` plumbing over an ``AF_UNIX`` stream socket."""

    def __init__(self, socket_path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            self.sock.settimeout(self.timeout)
        self.sock.connect(self._socket_path)


class UnixSocketTransport(HttpTransport):
    """SOAP POST over a Unix domain socket (``unix://`` endpoints).

    The same HTTP/1.1 framing as :class:`HttpTransport` — and therefore
    the same keep-alive pooling, stale retry, gzip negotiation and
    interceptor chain — over an ``AF_UNIX`` stream instead of TCP
    loopback: no packetisation, no pseudo-congestion-control, roughly
    half the syscall cost per round trip.  Endpoint URLs look like
    ``unix://%2Ftmp%2Fworker.sock/services/Data`` (see
    :func:`unix_url`); the socket path is by construction same-machine,
    which is what makes the shared-memory payload tier safe to
    negotiate over it.
    """

    kind = "uds"

    def _configure(self, endpoint: str) -> None:
        self._socket_path, self._path = parse_unix_url(endpoint)
        # AF_UNIX has no authority; a fixed Host keeps HTTP/1.1 valid
        self._netloc = "localhost"

    def _new_connection(self) -> http.client.HTTPConnection:
        return _UnixHTTPConnection(self._socket_path, self._timeout)

    async def _dial(self) -> tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]:
        return await asyncio.open_unix_connection(self._socket_path)


def transport_for(endpoint: str, *, timeout: float = 30.0,
                  compress: bool = True,
                  interceptors=None) -> HttpTransport:
    """The right socket transport for *endpoint*'s URL scheme
    (``http://`` → :class:`HttpTransport`, ``unix://`` →
    :class:`UnixSocketTransport`)."""
    cls = UnixSocketTransport \
        if urlparse(endpoint).scheme == "unix" else HttpTransport
    return cls(endpoint, timeout=timeout, compress=compress,
               interceptors=interceptors)


@dataclass
class NetworkModel:
    """A latency + bandwidth cost model for one network path.

    ``latency_s`` is charged once per message; payloads additionally take
    ``len(payload) / bandwidth_bps`` seconds.  The defaults model the
    paper's testbed: ~1 ms campus RTT and a 1 Gb/s link.
    """

    latency_s: float = 0.001
    bandwidth_bps: float = 1e9 / 8  # 1 Gb/s in bytes per second

    def transfer_time(self, n_bytes: int) -> float:
        """Seconds to move *n_bytes* over this network path.

        Callers must bill the bytes that actually cross the wire:
        :class:`SimulatedTransport` charges post-compression envelope
        sizes (see :func:`repro.ws.payload.simulated_wire_size`), so
        ref-sized and gzip-shrunk messages cost what they would on the
        paper's testbed, not their uncompressed document size.
        """
        return self.latency_s + n_bytes / self.bandwidth_bps

    def wire_cost(self, wire: bytes) -> tuple[int, float]:
        """(billed bytes, seconds) for one encoded SOAP message,
        honouring link-level compression of large bodies."""
        n_bytes = payload.simulated_wire_size(wire)
        return n_bytes, self.transfer_time(n_bytes)


#: A slow wide-area path (50 ms RTT, 10 Mb/s) for the streaming ablation.
WAN = NetworkModel(latency_s=0.050, bandwidth_bps=10e6 / 8)
#: The paper's testbed (§5.1): 1 Gb/s, sub-millisecond campus latency.
LAN = NetworkModel(latency_s=0.001, bandwidth_bps=1e9 / 8)


class SimulatedTransport(ChainedTransport):
    """Charge a :class:`NetworkModel` cost around an inner transport.

    With ``real_sleep=True`` the cost is spent in ``time.sleep`` (so
    wall-clock benchmarks see it); otherwise it accumulates in
    :attr:`virtual_seconds`, which deterministic tests read.
    """

    kind = "simulated"

    def __init__(self, inner: Transport,
                 model: NetworkModel | None = None,
                 real_sleep: bool = False, interceptors=None):
        self.inner = inner
        self.model = model if model is not None else NetworkModel()
        self.real_sleep = real_sleep
        self.virtual_seconds = 0.0
        self.messages = 0
        self.bytes_on_wire = 0
        super().__init__(interceptors)

    def speaks(self, codec: str) -> bool:
        """The modelled network is codec-transparent; ask the peer."""
        return self.inner.speaks(codec)

    def default_interceptors(self):
        """The standard chain with the externalize-only miss fallback."""
        # the modelled network bills what the data plane really ships:
        # payload refs are substituted *before* costing, and a miss
        # surfacing from the inner transport propagates (only a miss
        # during externalisation is healed locally)
        return pipeline.default_transport_interceptors(
            resend_on_miss=False)

    def _charge(self, wire: bytes) -> int:
        """Bill one message; returns the post-compression billed bytes."""
        n_bytes, cost = self.model.wire_cost(wire)
        self.virtual_seconds += cost
        self.bytes_on_wire += n_bytes
        self.messages += 1
        if self.real_sleep:
            time.sleep(cost)
        return n_bytes

    def _exchange(self, request: SoapRequest, ctx: CallContext = None,
                  *_legacy) -> SoapResponse:
        ctx = self._context_of(ctx)
        cost_before = self.virtual_seconds
        bytes_before = self.bytes_on_wire
        wire = soap.encode_request(request)
        sent_bytes = 0
        try:
            sent_bytes = self._charge(wire)
            try:
                response = self.inner.send(request)
                wire_out = soap.encode_response(response)
            except SoapFault as fault:
                wire_out = soap.encode_fault(fault)
                self._charge(wire_out)
                raise
            self._charge(wire_out)
            return response
        finally:
            # the paper-model network cost this message pair incurred
            charged = self.virtual_seconds - cost_before
            wire_bytes = self.bytes_on_wire - bytes_before
            ctx.note("charge_seconds", round(charged, 6))
            ctx.note("wire_bytes", wire_bytes)
            ctx.note("payload_refs", len(payload.refs_in(request)))
            ctx.note("latency_s", self.model.latency_s)
            ctx.on_wire(sent_bytes, max(0, wire_bytes - sent_bytes))
            ctx.emit_counter("ws.transport.simulated_cost_seconds",
                             charged)

    def close(self) -> None:
        self.inner.close()


class FailingTransport(Transport):
    """Test double: fail the first *failures* sends, then delegate.

    Used by the fault-tolerance benches to exercise job migration.
    """

    def __init__(self, inner: Transport, failures: int = 1):
        self.inner = inner
        self.remaining_failures = failures
        self.attempts = 0

    def speaks(self, codec: str) -> bool:
        """Failures don't change what the peer can decode."""
        return self.inner.speaks(codec)

    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request; returns the SOAP response."""
        self.attempts += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise TransportError(
                f"simulated network failure (attempt {self.attempts})")
        return self.inner.send(request)

    def close(self) -> None:
        self.inner.close()

