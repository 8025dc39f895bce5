"""Content-addressed payload store and by-reference SOAP transfer.

The paper's §4.5 measurements put most remote-invocation overhead in
*data movement*: every call ships the full ARFF document, and a typical
workflow ships the same document many times (train here, cross-validate
there, summarise somewhere else).  The Grid-DDM literature's answer is
to move **references** instead of data; this module is that answer for
our SOAP data plane:

* :class:`PayloadStore` — a bounded, content-addressed blob store
  (SHA-256 digest → bytes) shared process-wide by clients and
  containers.
* ``externalize`` — before a send, large ``str``/``bytes`` parameters
  whose digest the peer is known to hold are replaced by a
  :class:`PayloadRef`; the SOAP layer encodes it as a tiny
  ``<param xsi:type="repro:payloadRef" digest=... size=... kind=.../>``
  element.  Unknown payloads travel inline once and are *absorbed* into
  the receiving store (see ``absorb_params``), so the next send can go
  by reference.
* ``resolve`` — the receiving side turns a ref back into the full
  value, verifying the content digest.  A digest the store does not
  hold raises :class:`PayloadMissError` (a transient
  :class:`~repro.errors.TransportError`): transports fall back to a
  transparent full-payload resend, and retry policies treat a corrupt
  ref exactly like any other delivery failure.
* gzip helpers — SOAP bodies above :data:`COMPRESS_MIN_BYTES` travel
  gzip-compressed when the peer negotiates ``Content-Encoding``;
  :func:`simulated_wire_size` lets :class:`~repro.ws.transport
  .SimulatedTransport` bill post-compression bytes honestly.
* the shared-memory tier — for a peer the transport knows to share
  this host (see :meth:`~repro.ws.transport.Transport.same_host`),
  large parameters are published once into a :mod:`repro.ws.shm`
  segment and shipped as ``via="shm"`` refs on the *first* send; the
  consumer maps — does not copy — the payload.  Every miss (segment
  evicted, shm unsupported, cross-host peer) falls back to the classic
  store/inline path transparently.

Counters (``repro metrics``): ``ws.payload.ref_sends`` /
``inline_sends`` / ``bytes_saved`` / ``absorbed`` / ``miss`` /
``integrity_failures``, ``ws.compress.*`` and ``ws.shm.publishes`` /
``publish_failures`` / ``hits`` / ``misses`` / ``bytes_mapped`` /
``swept``.

Disable the whole fast path with ``repro run --no-payload-cache`` or
``FAEHIM_NO_FASTPATH=1``; disable only the shared-memory tier with
``FAEHIM_NO_SHM=1`` (or :func:`set_shm_enabled`).
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import os
import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.data.cache import LruCache
from repro.errors import TransportError
from repro.obs import get_metrics
from repro.ws import shm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ws.soap import SoapRequest

#: Parameters below this many bytes stay inline (refs would not pay).
MIN_REF_BYTES = 1024

#: SOAP bodies above this size are gzip-compressed on negotiating
#: transports (and billed compressed by the simulated network).
COMPRESS_MIN_BYTES = 2048

#: A gzip body inflating past this many bytes is refused
#: (:class:`TransportError`, answered 400 by the HTTP gateway) rather
#: than buffered: the largest legitimate body, a payload-store-sized
#: dataset inline, stays well below it.
MAX_INFLATED_BYTES = 256 * 1024 * 1024

#: Bounds of the process-global payload store.
STORE_MAX_ENTRIES = 256
STORE_MAX_BYTES = 64 * 1024 * 1024

#: SOAP fault code signalling "peer does not hold that digest".
MISS_FAULTCODE = "repro:PayloadMiss"

_HEX = set("0123456789abcdef")


class PayloadMissError(TransportError):
    """A payload reference could not be resolved locally.

    Transient by design: the sender falls back to an inline resend, and
    the retry machinery treats it like any delivery failure (a corrupt
    ref injected by chaos lands here too).
    """

    def __init__(self, digest: str, message: str | None = None):
        self.digest = digest
        super().__init__(
            message or f"payload {digest[:12]}... not in local store")


@dataclass(frozen=True)
class PayloadRef:
    """A by-reference stand-in for one large parameter value.

    ``via=""`` is the classic contract (resolve from the receiver's
    content-addressed store); ``via="shm"`` additionally offers the
    named shared-memory segment for *digest*, which a same-host
    receiver maps zero-copy before falling back to its store.
    """

    digest: str
    size: int
    kind: str = "str"  # "str" | "bytes"
    via: str = ""      # "" (store) | "shm" (same-host segment)

    def __post_init__(self) -> None:
        if self.kind not in ("str", "bytes"):
            raise TransportError(f"bad payload kind {self.kind!r}")
        if self.via not in ("", "shm"):
            raise TransportError(f"bad payload via {self.via!r}")


def digest_bytes(data: bytes) -> str:
    """SHA-256 hex digest of *data*."""
    return hashlib.sha256(data).hexdigest()


def payload_digest_ok(digest: str) -> bool:
    """True when *digest* is a well-formed SHA-256 hex string."""
    return len(digest) == 64 and set(digest) <= _HEX


def _miss(digest: str, message: str | None = None) -> PayloadMissError:
    """Count and build (not raise) one unresolvable-reference miss."""
    get_metrics().counter("ws.payload.miss").inc()
    return PayloadMissError(digest, message)


class PayloadStore:
    """Thread-safe content-addressed blob store with LRU bounds."""

    def __init__(self, max_entries: int = STORE_MAX_ENTRIES,
                 max_bytes: int = STORE_MAX_BYTES):
        self._cache = LruCache(max_entries, max_bytes)

    def put(self, data: bytes) -> str:
        """Store *data*; returns its digest (idempotent)."""
        digest = digest_bytes(data)
        self._cache.put(digest, data, weight=len(data))
        return digest

    def get(self, digest: str) -> bytes | None:
        """The bytes stored under *digest*, verified, or ``None``.

        Verification guards the by-reference contract: a blob that no
        longer hashes to its key (memory corruption, a tampered store)
        must never be silently substituted for the caller's data.
        """
        data = self._cache.get(digest)
        if data is None:
            return None
        if digest_bytes(data) != digest:
            get_metrics().counter("ws.payload.integrity_failures").inc()
            raise TransportError(
                f"payload digest mismatch for {digest[:12]}... "
                f"(stored content does not hash to its key)")
        return data

    def __contains__(self, digest: str) -> bool:
        return digest in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def total_bytes(self) -> int:
        """Bytes currently held."""
        return self._cache.total_bytes

    def clear(self) -> None:
        """Drop every blob."""
        self._cache.clear()


_enabled = os.environ.get("FAEHIM_NO_FASTPATH", "") not in ("1", "true")
_shm_enabled = os.environ.get("FAEHIM_NO_SHM", "") not in ("1", "true")
_store = PayloadStore()


def set_enabled(on: bool) -> None:
    """Globally enable/disable by-reference transfer + wire compression."""
    global _enabled
    _enabled = bool(on)


def enabled() -> bool:
    """True when the payload fast path is active."""
    return _enabled


def set_shm_enabled(on: bool) -> None:
    """Enable/disable the shared-memory segment tier only."""
    global _shm_enabled
    _shm_enabled = bool(on)


def shm_enabled() -> bool:
    """True when same-host sends may use shared-memory segments."""
    return _shm_enabled and shm.supported()


def get_payload_store() -> PayloadStore:
    """The process-global content-addressed store."""
    return _store


def reset_payload_store() -> None:
    """Empty the global store (test isolation)."""
    _store.clear()


def sweep_shm_orphans() -> int:
    """Reclaim dead-owner ``repro-shm-*`` segments; returns the count.

    The supervisor's crash hygiene: run at fleet startup and whenever a
    worker is unpublished, so a SIGKILLed producer's segments never
    outlive the drill that killed it.
    """
    swept = shm.sweep_orphans()
    if swept:
        get_metrics().counter("ws.shm.swept").inc(swept)
    return swept


def release_shm_segments() -> int:
    """Unlink every segment this process published; returns the count."""
    return shm.get_segment_store().release_owned()


def reset_shm_segments() -> None:
    """Unlink owned segments, drop attached mappings (test isolation)."""
    shm.reset_segment_store()


def shm_counters() -> dict[str, float]:
    """The current ``ws.shm.*`` counter values (label-aggregated) —
    the ``/mesh/status`` evidence that the fast path engaged."""
    values: dict[str, float] = {}
    for name, _labels, counter in get_metrics().counters():
        if name.startswith("ws.shm."):
            values[name] = values.get(name, 0) + counter.value
    return values


class PeerState:
    """Which payload digests one transport's peer is believed to hold."""

    def __init__(self) -> None:
        self._known: set[str] = set()
        self._lock = threading.Lock()

    def knows(self, digest: str) -> bool:
        """True when the peer is believed to hold *digest*."""
        with self._lock:
            return digest in self._known

    def learn(self, digest: str) -> None:
        """Record that the peer now holds *digest*."""
        with self._lock:
            self._known.add(digest)

    def clear(self) -> None:
        """Forget everything (after a miss: the peer lost its store)."""
        with self._lock:
            self._known.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._known)


def _as_bytes(value: str | bytes | memoryview) -> bytes:
    if isinstance(value, str):
        return value.encode("utf-8", "surrogatepass")
    if isinstance(value, memoryview):
        return bytes(value)
    return value


def _local_bytes(digest: str, via: str = "") -> bytes | None:
    """The bytes behind one ref, from the store or (via="shm") a mapped
    segment — the sender-side resolution used to re-inline a ref."""
    data = _store.get(digest)
    if data is None and via == "shm":
        view = shm.get_segment_store().attach(digest)
        if view is not None:
            data = bytes(view)
    return data


def _from_bytes(data: bytes, kind: str) -> str | bytes:
    if kind == "str":
        return data.decode("utf-8", "surrogatepass")
    return data


def _multicall_calls(request: "SoapRequest"):
    """The sub-call list when *request* is a multicall, else ``None``.

    Imported lazily: this module is imported by :mod:`repro.ws.soap`
    itself, so the soap names are only touched at call time (when the
    package is fully loaded), never at import time.
    """
    from repro.ws import soap
    if request.operation != soap.MULTICALL_OP:
        return None
    calls = request.params.get("calls")
    if isinstance(calls, list) and all(
            isinstance(item, soap.SubCall) for item in calls):
        return calls
    return None


def externalize(request: "SoapRequest", peer: PeerState,
                min_bytes: int = MIN_REF_BYTES, *,
                same_host: bool = False) -> "SoapRequest":
    """Return a copy of *request* with large params sent by reference.

    A large ``str``/``bytes`` parameter whose digest *peer* already
    holds becomes a :class:`PayloadRef`; an unknown one stays inline
    (so the receiving side can absorb it) and the digest is recorded as
    known for the next send.  With ``same_host=True`` (the transport
    proved the peer shares this kernel) the value is instead published
    into a shared-memory segment and sent as a ``via="shm"`` ref on the
    *first* send already — any same-host process can map the segment,
    so there is nothing to absorb.  Parameters that are already refs
    are kept when the peer knows them and resolved back to inline
    values when it does not (raising :class:`PayloadMissError` if the
    blob is gone locally too).  With the fast path disabled the request
    passes through untouched (refs still get internalized, so a
    disabled receiver never sees one).  Multicall requests are handled
    per sub-call, so a batch repeating one large ARFF ships it inline
    once and by reference for every later item.
    """
    calls = _multicall_calls(request)
    if calls is not None:
        new_calls, changed = [], False
        for sub in calls:
            new_params, sub_changed = _externalize_params(
                sub.params, peer, min_bytes, same_host)
            new_calls.append(dataclasses.replace(sub, params=new_params)
                             if sub_changed else sub)
            changed = changed or sub_changed
        if not changed:
            return request
        return dataclasses.replace(request, params={"calls": new_calls})
    new_params, changed = _externalize_params(request.params, peer,
                                              min_bytes, same_host)
    if not changed:
        return request
    return dataclasses.replace(request, params=new_params)


def _externalize_params(params: dict, peer: PeerState, min_bytes: int,
                        same_host: bool = False) -> tuple[dict, bool]:
    metrics = get_metrics()
    use_shm = same_host and _enabled and _shm_enabled and shm.supported()
    new_params = {}
    changed = False
    for name, value in params.items():
        if isinstance(value, PayloadRef):
            if _enabled and peer.knows(value.digest):
                new_params[name] = value
            else:
                data = _local_bytes(value.digest, value.via)
                if data is None:
                    raise _miss(value.digest)
                new_params[name] = _from_bytes(data, value.kind)
                changed = True
            continue
        if not _enabled or \
                not isinstance(value, (str, bytes, memoryview)) or \
                len(value) < min_bytes:
            new_params[name] = value
            continue
        data = _as_bytes(value)
        digest = _store.put(data)
        kind = "str" if isinstance(value, str) else "bytes"
        if use_shm and shm.get_segment_store().publish(digest, data):
            # same-host: the segment itself is the transfer, so even a
            # first send goes by reference (a miss on the far side
            # falls back through the classic inline resend)
            peer.learn(digest)
            new_params[name] = PayloadRef(digest, len(data), kind,
                                          via="shm")
            changed = True
            metrics.counter("ws.shm.publishes").inc()
            metrics.counter("ws.payload.ref_sends").inc()
            metrics.counter("ws.payload.bytes_saved").inc(len(data))
            continue
        if use_shm:
            metrics.counter("ws.shm.publish_failures").inc()
        if peer.knows(digest):
            new_params[name] = PayloadRef(digest, len(data), kind)
            changed = True
            metrics.counter("ws.payload.ref_sends").inc()
            metrics.counter("ws.payload.bytes_saved").inc(len(data))
        else:
            peer.learn(digest)
            new_params[name] = value
            metrics.counter("ws.payload.inline_sends").inc()
    return new_params, changed


def internalize(request: "SoapRequest") -> "SoapRequest":
    """Resolve every :class:`PayloadRef` in *request* back to its value
    (the transparent full-payload fallback after a peer miss)."""
    calls = _multicall_calls(request)
    if calls is not None:
        if not refs_in(request):
            return request
        new_calls = [dataclasses.replace(
            sub, params=_internalize_params(sub.params)) for sub in calls]
        return dataclasses.replace(request, params={"calls": new_calls})
    if not any(isinstance(v, PayloadRef)
               for v in request.params.values()):
        return request
    return dataclasses.replace(request,
                               params=_internalize_params(request.params))


def _internalize_params(params: dict) -> dict:
    new_params = {}
    for name, value in params.items():
        if isinstance(value, PayloadRef):
            data = _local_bytes(value.digest, value.via)
            if data is None:
                raise _miss(value.digest)
            value = _from_bytes(data, value.kind)
        new_params[name] = value
    return new_params


def resolve(digest: str, kind: str,
            via: str = "") -> str | bytes | memoryview:
    """Receiving side: a ref element back to its full value.

    A ``via="shm"`` ref is answered from the named shared-memory
    segment when it maps and verifies — ``kind="bytes"`` payloads come
    back as a read-only :class:`memoryview` **into the shared pages**
    (zero-copy; the columnar codec decodes straight from it) — falling
    back to the local store otherwise.  Unknown digests (including
    chaos-corrupted ones) raise :class:`PayloadMissError`; the
    transport layer converts that into the ``repro:PayloadMiss`` fault
    / an inline resend.
    """
    if not payload_digest_ok(digest):
        raise _miss(digest or "(empty)",
                    f"malformed payload digest {digest!r}")
    if via == "shm":
        metrics = get_metrics()
        view = shm.get_segment_store().attach(digest) \
            if _shm_enabled else None
        if view is not None:
            metrics.counter("ws.shm.hits").inc()
            metrics.counter("ws.shm.bytes_mapped").inc(len(view))
            if kind == "str":
                return bytes(view).decode("utf-8", "surrogatepass")
            return view
        metrics.counter("ws.shm.misses").inc()
    data = _store.get(digest)
    if data is None:
        raise _miss(digest)
    get_metrics().counter("ws.payload.ref_hits").inc()
    return _from_bytes(data, kind)


def absorb_params(params: dict, min_bytes: int = MIN_REF_BYTES) -> int:
    """Receiving side: store large inline values so future sends of the
    same content can travel by reference.  Returns the blob count."""
    if not _enabled:
        return 0
    absorbed = 0
    for value in params.values():
        if isinstance(value, (str, bytes)) and len(value) >= min_bytes:
            _store.put(_as_bytes(value))
            absorbed += 1
    if absorbed:
        get_metrics().counter("ws.payload.absorbed").inc(absorbed)
    return absorbed


def refs_in(request: "SoapRequest") -> list[PayloadRef]:
    """Every :class:`PayloadRef` among the request's parameters
    (including those nested inside multicall sub-calls)."""
    calls = _multicall_calls(request)
    if calls is not None:
        return [v for sub in calls for v in sub.params.values()
                if isinstance(v, PayloadRef)]
    return [v for v in request.params.values()
            if isinstance(v, PayloadRef)]


# -- wire compression ---------------------------------------------------------

def maybe_compress(body: bytes,
                   min_bytes: int = COMPRESS_MIN_BYTES
                   ) -> tuple[bytes, str | None]:
    """gzip *body* when it is large enough to pay; returns
    ``(wire_bytes, content_encoding_or_None)``."""
    if not _enabled or len(body) < min_bytes:
        return body, None
    compressed = gzip.compress(body, compresslevel=1)
    if len(compressed) >= len(body):
        return body, None
    metrics = get_metrics()
    metrics.counter("ws.compress.messages").inc()
    metrics.counter("ws.compress.bytes_in").inc(len(body))
    metrics.counter("ws.compress.bytes_out").inc(len(compressed))
    return compressed, "gzip"


def decompress(body: bytes, content_encoding: str | None) -> bytes:
    """Undo :func:`maybe_compress` per the Content-Encoding header."""
    if not content_encoding or content_encoding.lower() == "identity":
        return body
    if content_encoding.lower() != "gzip":
        raise TransportError(
            f"unsupported Content-Encoding {content_encoding!r}")
    inflater = zlib.decompressobj(wbits=31)  # gzip framing
    try:
        out = inflater.decompress(body, MAX_INFLATED_BYTES + 1)
    except zlib.error as exc:
        raise TransportError(f"corrupt gzip body: {exc}") from exc
    if len(out) > MAX_INFLATED_BYTES:
        raise TransportError(
            f"gzip body inflates past {MAX_INFLATED_BYTES} bytes")
    if not inflater.eof or inflater.unused_data:
        raise TransportError("corrupt gzip body: truncated or trailing data")
    return out


def simulated_wire_size(body: bytes) -> int:
    """Bytes this SOAP body occupies on a compressing link.

    :class:`~repro.ws.transport.SimulatedTransport` bills this size so
    the network model reflects the real data plane (post-compression,
    ref-sized envelopes) instead of the uncompressed document.
    """
    wire, _ = maybe_compress(body)
    return len(wire)
