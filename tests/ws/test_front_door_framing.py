"""Malformed ``Content-Length`` on the threaded front doors.

A negative length handed to ``rfile.read`` reads to EOF and pins the
handler thread; a non-numeric one raised out of ``do_POST``.  Both front
doors built on ``http.server`` — the container host and the mesh gateway
— must answer 400 and close the connection instead.
"""

import socket

import pytest

from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer
from repro.ws.mesh.endpoints import RegistryEndpoints
from repro.ws.mesh.gateway import MeshGateway
from repro.ws.mesh.router import MeshRouter
from repro.ws.pipeline import content_length
from repro.ws.registry import UDDIRegistry
from repro.ws.service import operation


class Echo:
    @operation
    def echo(self, text: str) -> str:
        return text


@pytest.fixture(params=["httpd", "mesh-gateway"])
def front_door(request):
    """``(host, port)`` of a running threaded front door."""
    if request.param == "httpd":
        container = ServiceContainer()
        container.deploy(Echo, name="Echo")
        server = SoapHttpServer(container).start()
        port = server.port
    else:
        discovery = RegistryEndpoints(UDDIRegistry())
        server = MeshGateway(MeshRouter(discovery), discovery).start()
        port = server.port
    try:
        yield "127.0.0.1", port
    finally:
        server.stop()


def exchange(address, head: bytes) -> bytes:
    """Send *head* (and no body), keep the write side open, and return
    everything the server answers before closing."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)  # socket.timeout if the thread hangs
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.mark.parametrize("length", ["-1", "abc", "1e3", "+5", "9" * 40])
def test_malformed_content_length_is_answered_400(front_door, length):
    head = (f"POST /services/Echo HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()
    reply = exchange(front_door, head)
    assert reply.startswith(b"HTTP/1.1 400"), reply[:80]
    assert b"malformed Content-Length" in reply


def test_well_formed_lengths_still_parse():
    assert content_length(None) == 0
    assert content_length("0") == 0
    assert content_length(" 1234 ") == 1234
    for bad in ("-1", "", "abc", "1.5", "+5", "٣", "9" * 19):
        assert content_length(bad) is None, bad
