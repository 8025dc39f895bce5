"""HTTP hosting of SOAP services (the Tomcat/Axis substitution).

:class:`SoapHttpServer` hosts one :class:`~repro.ws.container
.ServiceContainer` on a localhost port using a threading HTTP server:

* ``POST /services/<name>``            — SOAP invocation
* ``GET  /services/<name>?wsdl``       — the service's WSDL document
* ``GET  /services``                   — plain-text service index

Addresses follow the paper's convention of one endpoint per service, so the
workflow engine can show "a URL specifying the location of the WSDL document"
for each imported tool.

Pass ``uds_path=...`` to additionally serve the same container over a
Unix domain socket (``unix://`` endpoints, see
:class:`~repro.ws.transport.UnixSocketTransport`) — the same-host fast
path that skips the TCP loopback stack entirely.

The handler here is pure HTTP mechanics (routing, header parsing, byte
I/O); everything between "POST body arrived" and "bytes to answer with"
— decompression, envelope decode, deadline shedding, tracing, fault
mapping, response compression, metrics — lives in
:class:`repro.ws.pipeline.HttpGateway`, keeping this module free of
policy imports (enforced by ``tools/layering_lint.py``).
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.errors import ServiceError
from repro.ws import shm, wsdl
from repro.ws.container import ServiceContainer
from repro.ws.pipeline import HttpGateway, content_length
from repro.ws.soap import SoapFault


class _Handler(BaseHTTPRequestHandler):
    server_version = "ReproSOAP/1.0"
    # HTTP/1.1 keep-alive: clients pool one connection across exchanges
    # (every response carries Content-Length, so pipelined framing is
    # unambiguous).  The client side heals pooled connections the server
    # has since dropped — see HttpTransport's stale-retry.
    protocol_version = "HTTP/1.1"
    # one coalesced send per response (headers + body), and no Nagle
    # stall on what remains: an un-buffered two-write response against
    # a keep-alive connection costs a ~40ms delayed-ACK pause per call
    wbufsize = -1
    disable_nagle_algorithm = True
    container: ServiceContainer  # injected by the server factory
    gateway: HttpGateway         # injected by the server factory
    base_url: str

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output clean; stats live on the container

    def _send(self, status: int, body: bytes,
              content_type: str = "text/xml; charset=utf-8",
              encoding: str | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        # capability advertisement: clients upgrade dataset arguments
        # from ARFF text to binary columnar frames once they see this
        self.send_header("X-Repro-Codecs", "columnar")
        # same-host advertisement: a client seeing its own boot id may
        # send shared-memory payload refs instead of inline bytes
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
        if parsed.path.rstrip("/") == "/services":
            body = "\n".join(self.container.services()).encode()
            self._send(200, body, "text/plain; charset=utf-8")
            return
        name = self._service_name()
        if name is None or "wsdl" not in parsed.query.lower():
            self._send(404, b"not found", "text/plain")
            return
        try:
            definition = self.container.definition(name)
        except (ServiceError, SoapFault):
            self._send(404, f"no service {name!r}".encode(), "text/plain")
            return
        address = f"{self.base_url}/services/{name}"
        self._send(200, wsdl.generate(definition, address).encode())

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


class _UnixHandler(_Handler):
    # TCP_NODELAY does not exist on AF_UNIX sockets (setup() would
    # raise); there is no Nagle to disable either
    disable_nagle_algorithm = False


class _UnixThreadingHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to an ``AF_UNIX`` stream socket."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # HTTPServer.server_bind unpacks (host, port) and resolves the
        # fqdn — meaningless for a filesystem address; bind raw and pin
        # the HTTP-level identity instead
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0


class SoapHttpServer:
    """A threaded SOAP-over-HTTP host bound to 127.0.0.1.

    With ``uds_path`` the same container is *also* served on a Unix
    domain socket at that path (stale socket files are replaced); both
    listeners share one :class:`~repro.ws.pipeline.HttpGateway`, so
    policy and metrics are identical across transports.
    """

    def __init__(self, container: ServiceContainer, port: int = 0,
                 compress: bool = True, uds_path: str | None = None):
        handler = type("BoundHandler", (_Handler,), {})
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), handler)
        self.port = self._httpd.server_address[1]
        self.base_url = f"http://127.0.0.1:{self.port}"
        handler.container = container
        handler.gateway = HttpGateway(container, compress=compress)
        handler.base_url = self.base_url
        self.container = container
        self.uds_path: str | None = None
        self._uds_httpd: _UnixThreadingHTTPServer | None = None
        if uds_path:
            uds_handler = type("BoundUnixHandler", (_UnixHandler,), {})
            uds_handler.container = container
            uds_handler.gateway = handler.gateway
            uds_handler.base_url = self.base_url
            if os.path.exists(uds_path):
                os.unlink(uds_path)
            self._uds_httpd = _UnixThreadingHTTPServer(
                uds_path, uds_handler)
            self.uds_path = uds_path
        self._thread: threading.Thread | None = None
        self._uds_thread: threading.Thread | None = None

    def start(self) -> "SoapHttpServer":
        """Start serving in a background thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name=f"soap-httpd-{self.port}")
        self._thread.start()
        if self._uds_httpd is not None:
            self._uds_thread = threading.Thread(
                target=self._uds_httpd.serve_forever, daemon=True,
                name=f"soap-httpd-uds-{self.port}")
            self._uds_thread.start()
        return self

    def stop(self) -> None:
        """Shut down and release resources."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)
        if self._uds_httpd is not None:
            self._uds_httpd.shutdown()
            self._uds_httpd.server_close()
            if self._uds_thread:
                self._uds_thread.join(timeout=5)
            if self.uds_path and os.path.exists(self.uds_path):
                os.unlink(self.uds_path)

    def endpoint(self, service: str) -> str:
        """The SOAP endpoint URL of *service*."""
        return f"{self.base_url}/services/{service}"

    def uds_endpoint(self, service: str) -> str:
        """The ``unix://`` endpoint URL of *service* (uds_path set)."""
        if not self.uds_path:
            raise ServiceError("server has no unix socket listener")
        from repro.ws.transport import unix_url
        return unix_url(self.uds_path, f"/services/{service}")

    def wsdl_url(self, service: str) -> str:
        """The WSDL URL of *service*."""
        return f"{self.endpoint(service)}?wsdl"

    def __enter__(self) -> "SoapHttpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
