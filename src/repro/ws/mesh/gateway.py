"""The mesh front door: one stable HTTP endpoint over a churning fleet.

Clients talk to the gateway exactly as they would to a single
:class:`~repro.ws.httpd.SoapHttpServer` — same paths, same envelopes,
same faults, same gzip negotiation — because the gateway *reuses* the
PR-4 :class:`~repro.ws.pipeline.HttpGateway` for all byte-level policy
and swaps only the thing behind it: instead of a local container,
:class:`MeshIngress` forwards each decoded request through a client
interceptor chain whose terminal step is the
:class:`~repro.ws.mesh.router.MeshRoute`.  Routing therefore composes
with the standard deadline / trace / metrics steps like any other
chain member — the tentpole's "routing as an interceptor-chain step".

WSDL requests are answered by fetching a live replica's document and
re-pointing its ``soap:address`` at the gateway, so
``ServiceProxy.from_wsdl_url(gateway.wsdl_url("Classifier"))`` binds a
proxy whose calls ride the mesh without knowing it exists.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.errors import TransportError
from repro.ws import shm
from repro.ws.client import fetch_url
from repro.ws.deadline import deadline_scope
from repro.ws.mesh.endpoints import RegistryEndpoints
from repro.ws.mesh.router import MeshRoute, MeshRouter
from repro.ws.pipeline import (CallContext, CallMetrics, CallTrace,
                               HttpGateway, ProxyDeadline, content_length,
                               run_chain)
from repro.ws.soap import SoapRequest, SoapResponse


def default_gateway_chain(router: MeshRouter) -> list:
    """The gateway's client chain: deadline → trace → metrics → route.

    The route step is terminal; everything before it is exactly what a
    direct client proxy runs, so routed calls get budget re-stamping,
    span parenting and per-call metrics for free.
    """
    return [ProxyDeadline(), CallTrace(), CallMetrics(),
            MeshRoute(router)]


def _unrouted(request: SoapRequest) -> SoapResponse:
    raise TransportError(
        "mesh gateway chain has no terminal route step")


class MeshIngress:
    """A duck-typed 'container' whose invoke() routes across the mesh.

    :class:`~repro.ws.pipeline.HttpGateway` only ever calls
    ``container.invoke(request)``, so satisfying that one method buys
    the whole ingress policy surface — decompression, front-door
    deadline shedding, payload-miss / overload / deadline fault
    mapping, response compression, ``ws.http.*`` metrics — unchanged.
    """

    def __init__(self, router: MeshRouter, chain: list | None = None):
        self.router = router
        self.chain = chain if chain is not None \
            else default_gateway_chain(router)

    def invoke(self, request: SoapRequest) -> SoapResponse:
        """Route one decoded request through the gateway's client chain."""
        ctx = CallContext(kind="mesh", endpoint="mesh",
                          service=request.service,
                          operation=request.operation)
        # re-anchor the caller's remaining budget so the deadline step
        # re-stamps it net of gateway time, and the routed send inherits
        # it as an ambient scope (timeout shrinks hop by hop)
        with deadline_scope(request.deadline_s):
            return run_chain(self.chain, request, ctx, _unrouted)


class _MeshHandler(BaseHTTPRequestHandler):
    server_version = "ReproMesh/1.0"
    protocol_version = "HTTP/1.1"
    # one coalesced send per response (headers + body), and no Nagle
    # stall on what remains: an un-buffered two-write response against
    # a keep-alive connection costs a ~40ms delayed-ACK pause per call
    wbufsize = -1
    disable_nagle_algorithm = True
    gateway: HttpGateway          # injected by MeshGateway
    discovery: RegistryEndpoints  # injected by MeshGateway
    base_url: str
    status_fn: object = None

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # mesh telemetry lives in metrics, not stderr

    def _send(self, status: int, body: bytes,
              content_type: str = "text/xml; charset=utf-8",
              encoding: str | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("X-Repro-Codecs", "columnar")
        self.send_header("X-Repro-Boot", shm.boot_id())
        if encoding:
            self.send_header("Content-Encoding", encoding)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _service_name(self) -> str | None:
        path = urlparse(self.path).path
        parts = [p for p in path.split("/") if p]
        if len(parts) == 2 and parts[0] == "services":
            return parts[1]
        return None

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/")
        if path == "/services":
            body = "\n".join(self.discovery.service_names()).encode()
            self._send(200, body, "text/plain; charset=utf-8")
            return
        if path == "/mesh/status":
            status = self.status_fn() if self.status_fn else {}
            self._send(200, json.dumps(status, indent=2).encode(),
                       "application/json")
            return
        name = self._service_name()
        if name is None or "wsdl" not in parsed.query.lower():
            self._send(404, b"not found", "text/plain")
            return
        endpoints = self.discovery.endpoints(name)
        if not endpoints:
            self._send(404, f"no live replica of {name!r}".encode(),
                       "text/plain")
            return
        replica = endpoints[0]
        try:
            document = fetch_url(replica.wsdl_url)
        except TransportError as exc:
            self._send(502, str(exc).encode(), "text/plain")
            return
        # the generated WSDL carries the replica's endpoint URL exactly
        # once, in soap:address/@location — re-point it at the gateway
        document = document.replace(
            replica.url, f"{self.base_url}/services/{name}")
        self._send(200, document.encode())

    def do_POST(self) -> None:  # noqa: N802
        name = self._service_name()
        if name is None:
            self._send(404, b"not found", "text/plain")
            return
        length = content_length(self.headers.get("Content-Length"))
        if length is None:
            # the body's extent is unknown, so the connection cannot
            # carry another request either
            self.close_connection = True
            self._send(400, b"malformed Content-Length", "text/plain")
            return
        raw = self.rfile.read(length)
        status, body, content_type, encoding = self.gateway.post(
            name, raw,
            content_encoding=self.headers.get("Content-Encoding"),
            accept_encoding=self.headers.get("Accept-Encoding"))
        self._send(status, body, content_type, encoding)


class MeshGateway:
    """The mesh's stable HTTP front, bound to 127.0.0.1.

    Same surface as :class:`~repro.ws.httpd.SoapHttpServer` — ``POST
    /services/<name>``, ``GET /services/<name>?wsdl``, ``GET
    /services`` — plus ``GET /mesh/status`` (JSON fleet/profile
    snapshot via the injected *status_fn*).
    """

    def __init__(self, router: MeshRouter,
                 discovery: RegistryEndpoints, port: int = 0,
                 compress: bool = True, chain: list | None = None,
                 status_fn=None):
        handler = type("BoundMeshHandler", (_MeshHandler,), {})
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), handler)
        self.port = self._httpd.server_address[1]
        self.base_url = f"http://127.0.0.1:{self.port}"
        self.router = router
        self.ingress = MeshIngress(router, chain=chain)
        handler.gateway = HttpGateway(self.ingress, compress=compress)
        handler.discovery = discovery
        handler.base_url = self.base_url
        if status_fn is not None:
            handler.status_fn = staticmethod(status_fn)
        self._thread: threading.Thread | None = None

    def start(self) -> "MeshGateway":
        """Start serving in a background thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name=f"mesh-gateway-{self.port}")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the front door and the router's pooled transports."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)
        self.router.close()

    def endpoint(self, service: str) -> str:
        """The mesh-fronted SOAP endpoint URL of *service*."""
        return f"{self.base_url}/services/{service}"

    def wsdl_url(self, service: str) -> str:
        """The mesh-fronted WSDL URL of *service*."""
        return f"{self.endpoint(service)}?wsdl"

    def __enter__(self) -> "MeshGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
