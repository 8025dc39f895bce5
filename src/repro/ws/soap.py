"""SOAP 1.1-style message envelopes.

The paper's toolkit speaks SOAP between Triana and every data-mining service
("interaction between the workflow engine and each Web Service instance is
supported through pre-defined SOAP messages").  This module implements the
document shapes those interactions need: request envelopes carrying one
operation element with typed parameter children, response envelopes carrying
one ``<operation>Response`` element, and fault envelopes.

Typing uses XML-Schema primitives (``xsd:string``/``int``/``double``/
``boolean``), ``xsd:base64Binary`` for byte payloads and a toolkit extension
type ``repro:json`` for structured values (option lists, tree graphs), which
the 2005 toolkit would have modelled as nested complex types.

Large float matrices — a ``list`` whose items are each ``None`` or a
``list`` of the same number of ``float`` objects, with at least
:data:`FLOAT_MATRIX_MIN_FLOATS` floats in all — travel as one
``repro:floatMatrix`` element instead: ``rows``/``cols``/``missing``
attributes (``missing`` lists the ``None`` positions) and base64
little-endian IEEE-754 doubles as text.  A dict with identifier keys that
holds such a list directly becomes a ``repro:struct`` element with one
typed child per key — the nested complex type, for the values where JSON
text costs most.  Both decode to exactly the value encoded, types
included; anything else (ints, bools, float subclasses, ragged rows,
non-identifier keys, small matrices) stays ``repro:json``.
"""

from __future__ import annotations

import base64
import json
import re as _re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from repro.errors import DeadlineExceeded, OverloadedError, ServiceError
from repro.ws import payload
from repro.ws.payload import PayloadMissError, PayloadRef

#: Fault code carried by a SOAP fault caused by an expired time budget;
#: :func:`decode_response` resurfaces it as :class:`DeadlineExceeded`.
DEADLINE_FAULTCODE = "repro:DeadlineExceeded"

#: Fault code for a call shed by admission control before dispatch;
#: :func:`decode_response` resurfaces it as
#: :class:`~repro.errors.OverloadedError` (with the server's
#: retry-after hint, when given, carried in the fault detail).
OVERLOAD_FAULTCODE = "repro:Overloaded"

#: Reserved operation name for the batched-invocation envelope: one
#: ``<repro:Multicall>`` body element carries an ordered list of
#: sub-invocations against the same service (mixed operations allowed),
#: so one parse/serialize and one wire exchange covers many calls.
MULTICALL_OP = "Multicall"

ENVELOPE_NS = "http://schemas.xmlsoap.org/soap/envelope/"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
REPRO_NS = "http://repro.example.org/faehim"

ET.register_namespace("soapenv", ENVELOPE_NS)
ET.register_namespace("xsd", XSD_NS)
ET.register_namespace("xsi", XSI_NS)
ET.register_namespace("repro", REPRO_NS)


#: A float matrix with at least this many floats travels as one
#: ``repro:floatMatrix`` element; below it, JSON text encodes and
#: decodes faster than the typed element's pack, base64 and attribute
#: overhead.  Set from the measured crossover (EXPERIMENTS.md
#: §PERF-FLOATMATRIX), with ``Math.tabulate``-sized tables (tens of
#: floats) kept on JSON.
FLOAT_MATRIX_MIN_FLOATS = 64

_F8 = np.dtype("<f8")
_COUNT_OK = _re.compile(r"[0-9]{1,18}")


def _qname(ns: str, local: str) -> str:
    return f"{{{ns}}}{local}"


_NAME_OK = _re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
# characters XML 1.0 cannot carry verbatim (plus \r, which parsers
# normalise to \n) and lone surrogates
_XML_UNSAFE = _re.compile(
    "[\x00-\x08\x0b-\x1f\x7f\r\ud800-\udfff]")


def _check_name(name: str, what: str) -> str:
    """Operation/parameter names become XML element names; they originate
    from Python identifiers, so enforce that shape up front."""
    if not _NAME_OK.match(name):
        raise ServiceError(f"invalid {what} name {name!r} "
                           f"(must be an identifier)")
    return name


def _float_matrix(value: list) -> tuple[list, list[int], int] | None:
    """``(present rows, missing positions, cols)`` when *value* qualifies
    for the ``repro:floatMatrix`` element, else ``None``.

    Only exact types qualify — every item ``None`` or a ``list`` of the
    same number of ``float`` objects — so the decoded value is always
    the encoded one, types included."""
    kinds = set(map(type, value))
    if kinds == {list}:
        present, missing = value, []
    elif kinds == {list, type(None)}:
        present = [row for row in value if row is not None]
        missing = [i for i, row in enumerate(value) if row is None]
    else:
        return None
    widths = set(map(len, present))
    if len(widths) != 1:
        return None
    (cols,) = widths
    if len(present) * cols < FLOAT_MATRIX_MIN_FLOATS:
        return None
    if set(map(type, chain.from_iterable(present))) != {float}:
        return None
    return present, missing, cols


def _set_float_matrix(el: ET.Element, rows: int, present: list,
                      missing: list[int], cols: int) -> None:
    el.set(_qname(XSI_NS, "type"), "repro:floatMatrix")
    el.set("rows", str(rows))
    el.set("cols", str(cols))
    if missing:
        el.set("missing", " ".join(map(str, missing)))
    el.text = base64.b64encode(
        np.array(present, dtype=_F8).tobytes()).decode("ascii")


def _encode_value(parent: ET.Element, name: str, value: Any) -> None:
    el = ET.SubElement(parent, name)
    type_attr = _qname(XSI_NS, "type")
    import numbers
    if isinstance(value, PayloadRef):
        # by-reference transfer (see repro.ws.payload): the receiving
        # side resolves the digest against its local payload store, or
        # maps the named shared-memory segment when via="shm"
        el.set(type_attr, "repro:payloadRef")
        el.set("digest", value.digest)
        el.set("size", str(value.size))
        el.set("kind", value.kind)
        if value.via:
            el.set("via", value.via)
    elif value is None:
        el.set(_qname(XSI_NS, "nil"), "true")
    elif isinstance(value, bool):
        el.set(type_attr, "xsd:boolean")
        el.text = "true" if value else "false"
    elif isinstance(value, numbers.Integral):
        # covers int and numpy integer scalars alike
        el.set(type_attr, "xsd:int")
        el.text = str(int(value))
    elif isinstance(value, numbers.Real):
        el.set(type_attr, "xsd:double")
        el.text = repr(float(value))
    elif isinstance(value, str):
        if _XML_UNSAFE.search(value):
            # XML 1.0 cannot carry control characters, and parsers
            # normalise \r; ship such strings base64-encoded instead
            el.set(type_attr, "repro:stringb64")
            el.text = base64.b64encode(
                value.encode("utf-8", "surrogatepass")).decode("ascii")
        else:
            el.set(type_attr, "xsd:string")
            el.text = value
    elif isinstance(value, (bytes, memoryview)):
        # memoryview: a shm-mapped payload being re-encoded (e.g. a
        # relay hop) — b64encode reads any buffer without copying first
        el.set(type_attr, "xsd:base64Binary")
        el.text = base64.b64encode(value).decode("ascii")
    elif isinstance(value, (dict, list, tuple)):
        _encode_structured(el, value)
    else:
        raise ServiceError(
            f"cannot encode value of type {type(value).__name__} "
            f"for parameter {name!r}")


def _encode_structured(el: ET.Element, value: dict | list | tuple) -> None:
    """A float matrix, a struct holding one, or ``repro:json`` text."""
    if type(value) is list:
        matrix = _float_matrix(value)
        if matrix is not None:
            _set_float_matrix(el, len(value), *matrix)
            return
    elif type(value) is dict and all(
            type(key) is str and _NAME_OK.match(key) for key in value):
        matrices = {key: _float_matrix(item)
                    for key, item in value.items() if type(item) is list}
        if any(m is not None for m in matrices.values()):
            el.set(_qname(XSI_NS, "type"), "repro:struct")
            for key, item in value.items():
                matrix = matrices.get(key)
                if matrix is None:
                    _encode_value(el, key, item)
                else:
                    _set_float_matrix(ET.SubElement(el, key), len(item),
                                      *matrix)
            return
    el.set(_qname(XSI_NS, "type"), "repro:json")
    el.text = json.dumps(value)


def _count(text: str, what: str) -> int:
    if not _COUNT_OK.fullmatch(text):
        raise ServiceError(
            f"floatMatrix {what} must be a non-negative integer, "
            f"got {text[:32]!r}")
    return int(text)


def _decode_float_matrix(el: ET.Element, text: str) -> list:
    """Rebuild the list :func:`_set_float_matrix` encoded.

    The attributes are untrusted: the buffer must hold exactly the
    present rows, missing positions must be strictly increasing and in
    range, and nothing is allocated from a declared size alone — the
    output has one row per 8*cols buffer bytes plus one ``None`` per
    listed position."""
    rows = _count(el.get("rows", ""), "rows")
    cols = _count(el.get("cols", ""), "cols")
    missing = [_count(p, "missing position")
               for p in el.get("missing", "").split()]
    if cols == 0:
        raise ServiceError("floatMatrix cols must be positive")
    if any(b <= a for a, b in zip(missing, missing[1:])) \
            or (missing and missing[-1] >= rows):
        raise ServiceError("floatMatrix missing positions must be "
                           "strictly increasing and below rows")
    present = rows - len(missing)
    try:
        buf = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ServiceError(f"malformed floatMatrix data: {exc}") from exc
    if len(buf) != present * cols * _F8.itemsize:
        raise ServiceError(
            f"floatMatrix data holds {len(buf)} bytes, expected "
            f"{present} x {cols} doubles")
    data = np.frombuffer(buf, dtype=_F8).reshape(present, cols).tolist() \
        if present else []
    if not missing:
        return data
    out = np.full(rows, None, dtype=object)
    keep = np.ones(rows, dtype=bool)
    keep[missing] = False
    out[keep] = np.fromiter(data, dtype=object, count=present)
    return out.tolist()


def _decode_struct(el: ET.Element) -> dict:
    out = {child.tag.rsplit("}", 1)[-1]: _decode_value(child)
           for child in el}
    if len(out) != len(el):
        raise ServiceError("struct element repeats a member name")
    return out


def _decode_value(el: ET.Element) -> Any:
    if el.get(_qname(XSI_NS, "nil")) == "true":
        return None
    # dispatch on the exact local name: a suffix test would read a
    # type such as "repro:floatMatrix" as whatever it happens to end in
    local = el.get(_qname(XSI_NS, "type"), "xsd:string").rsplit(":", 1)[-1]
    text = el.text or ""
    if local == "boolean":
        return text.strip().lower() == "true"
    if local == "int":
        return int(text)
    if local == "double":
        return float(text)
    if local == "base64Binary":
        return base64.b64decode(text)
    if local == "stringb64":
        return base64.b64decode(text).decode("utf-8", "surrogatepass")
    if local == "json":
        return json.loads(text) if text else None
    if local == "floatMatrix":
        return _decode_float_matrix(el, text)
    if local == "struct":
        return _decode_struct(el)
    if local == "payloadRef":
        return payload.resolve(el.get("digest", ""),
                               el.get("kind", "str"),
                               el.get("via", ""))
    return text


@dataclass
class SoapFault(ServiceError):
    """A SOAP fault (also raised client-side when a response carries one)."""

    faultcode: str = "soapenv:Server"
    faultstring: str = "internal error"
    detail: str = ""

    def __post_init__(self) -> None:
        super().__init__(f"{self.faultcode}: {self.faultstring}")


@dataclass
class SoapRequest:
    """One operation invocation.

    ``trace_id``/``parent_span_id`` carry the observability trace context
    (see :mod:`repro.obs`); when set they travel in a SOAP header element
    ``<repro:TraceContext>`` so server-side spans join the client's trace.

    ``deadline_s`` is the remaining time budget at send time (see
    :mod:`repro.ws.deadline`); when set it travels in a
    ``<repro:Deadline remainingMs="..."/>`` header so the callee — and
    every call *it* makes — stays bounded by the caller's budget.
    """

    service: str
    operation: str
    params: dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""
    parent_span_id: str = ""
    deadline_s: float | None = None
    #: Admission identity/weight (see :mod:`repro.ws.admission`): when
    #: set they travel in a ``<repro:Caller>`` header so per-principal
    #: rate limits and priority shedding apply across hops.  The HTTP
    #: transports mirror them into ``X-Repro-Principal`` /
    #: ``X-Repro-Priority`` headers so a front door can shed without
    #: parsing XML.
    principal: str = ""
    priority: int = 0


@dataclass
class SoapResponse:
    """The result of one invocation."""

    service: str
    operation: str
    result: Any = None


@dataclass
class SubCall:
    """One item of a multicall batch: an operation plus its parameters."""

    operation: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class CallOutcome:
    """Per-item outcome of a multicall: a result or a captured fault.

    Item faults are *carried*, not raised — one malformed sub-call must
    not fail its siblings.  :meth:`unwrap` raises the stored exception
    for callers that want single-call semantics back.
    """

    result: Any = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def fault(self) -> SoapFault | None:
        return self.error if isinstance(self.error, SoapFault) else None

    def unwrap(self) -> Any:
        """The result, or raise the stored per-item error."""
        if self.error is not None:
            raise self.error
        return self.result


def multicall_request(service: str, calls: list[SubCall], *,
                      trace_id: str = "", parent_span_id: str = "",
                      deadline_s: float | None = None,
                      principal: str = "", priority: int = 0
                      ) -> SoapRequest:
    """Build the batch request; it flows through the ordinary interceptor
    chains as one :class:`SoapRequest` whose operation is
    :data:`MULTICALL_OP`, so deadlines, breaker state, tracing, gzip,
    payload-refs and admission control all apply to the batch as a
    unit."""
    return SoapRequest(service=service, operation=MULTICALL_OP,
                       params={"calls": list(calls)}, trace_id=trace_id,
                       parent_span_id=parent_span_id, deadline_s=deadline_s,
                       principal=principal, priority=priority)


def is_multicall(request: SoapRequest) -> bool:
    """True when *request* is a batched-invocation envelope."""
    return (request.operation == MULTICALL_OP
            and isinstance(request.params.get("calls"), list))


def calls_of(request: SoapRequest) -> list[SubCall]:
    """The ordered sub-calls of a multicall request."""
    calls = request.params.get("calls")
    if not isinstance(calls, list) or not all(
            isinstance(item, SubCall) for item in calls):
        raise ServiceError("multicall request carries no sub-call list")
    return calls


def batch_size_of(request: SoapRequest) -> int | None:
    """Number of sub-calls if *request* is a multicall, else ``None``."""
    if not is_multicall(request):
        return None
    return len(request.params["calls"])


_TRACE_ID_OK = _re.compile(r"^[0-9a-f]{1,64}$")


def encode_request(request: SoapRequest) -> bytes:
    """Serialise a SoapRequest as an envelope."""
    envelope = ET.Element(_qname(ENVELOPE_NS, "Envelope"))
    if request.trace_id or request.deadline_s is not None \
            or request.principal or request.priority:
        header = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Header"))
        if request.trace_id:
            ctx = ET.SubElement(header, _qname(REPRO_NS, "TraceContext"))
            ctx.set("traceId", request.trace_id)
            if request.parent_span_id:
                ctx.set("parentSpanId", request.parent_span_id)
        if request.deadline_s is not None:
            dl = ET.SubElement(header, _qname(REPRO_NS, "Deadline"))
            dl.set("remainingMs",
                   f"{max(0.0, request.deadline_s) * 1000.0:.3f}")
        if request.principal or request.priority:
            caller = ET.SubElement(header, _qname(REPRO_NS, "Caller"))
            if request.principal:
                caller.set("principal", request.principal)
            if request.priority:
                caller.set("priority", str(int(request.priority)))
    body = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Body"))
    if is_multicall(request):
        batch = ET.SubElement(body, _qname(REPRO_NS, MULTICALL_OP))
        batch.set("service", request.service)
        for sub in calls_of(request):
            call = ET.SubElement(batch, _qname(REPRO_NS, "Call"))
            call.set("operation", _check_name(sub.operation, "operation"))
            for name, value in sub.params.items():
                _encode_value(call, _check_name(name, "parameter"), value)
        return ET.tostring(envelope, encoding="utf-8",
                           xml_declaration=True)
    op = ET.SubElement(body, _qname(
        REPRO_NS, _check_name(request.operation, "operation")))
    op.set("service", request.service)
    for name, value in request.params.items():
        _encode_value(op, _check_name(name, "parameter"), value)
    return ET.tostring(envelope, encoding="utf-8",
                       xml_declaration=True)


def decode_request(document: bytes) -> SoapRequest:
    """Parse a request envelope into a SoapRequest."""
    envelope = _envelope_of(document)
    body = _body_in(envelope)
    op = _single_child(body, "request")
    local = op.tag.rsplit("}", 1)[-1]
    service = op.get("service", "")
    if local == MULTICALL_OP:
        calls = []
        for call_el in op:
            if call_el.tag.rsplit("}", 1)[-1] != "Call":
                raise ServiceError(
                    "multicall body may only carry <repro:Call> items")
            sub_params = {child.tag.rsplit("}", 1)[-1]: _decode_value(child)
                          for child in call_el}
            payload.absorb_params(sub_params)
            calls.append(SubCall(call_el.get("operation", ""), sub_params))
        trace_id, parent_span_id = _decode_trace_header(envelope)
        principal, priority = _decode_caller_header(envelope)
        return SoapRequest(service=service, operation=MULTICALL_OP,
                           params={"calls": calls}, trace_id=trace_id,
                           parent_span_id=parent_span_id,
                           deadline_s=_decode_deadline_header(envelope),
                           principal=principal, priority=priority)
    params = {child.tag.rsplit("}", 1)[-1]: _decode_value(child)
              for child in op}
    # remember large inline payloads so the peer's next send of the
    # same content can travel as a <repro:payloadRef> element
    payload.absorb_params(params)
    trace_id, parent_span_id = _decode_trace_header(envelope)
    principal, priority = _decode_caller_header(envelope)
    return SoapRequest(service=service, operation=local, params=params,
                       trace_id=trace_id, parent_span_id=parent_span_id,
                       deadline_s=_decode_deadline_header(envelope),
                       principal=principal, priority=priority)


def _decode_trace_header(envelope: ET.Element) -> tuple[str, str]:
    """Extract (trace id, parent span id) from the envelope header.

    Ill-formed ids are dropped rather than faulted: trace context is
    advisory metadata and must never break an invocation.
    """
    header = envelope.find(_qname(ENVELOPE_NS, "Header"))
    if header is None:
        return "", ""
    ctx = header.find(_qname(REPRO_NS, "TraceContext"))
    if ctx is None:
        return "", ""
    trace_id = ctx.get("traceId", "")
    parent = ctx.get("parentSpanId", "")
    if not _TRACE_ID_OK.match(trace_id):
        return "", ""
    if parent and not _TRACE_ID_OK.match(parent):
        parent = ""
    return trace_id, parent


def _decode_deadline_header(envelope: ET.Element) -> float | None:
    """Extract the remaining-budget header as seconds, if present.

    A malformed value is dropped (treated as "no deadline") rather than
    faulted: a broken header must not take down an otherwise valid call,
    and the caller still has its own client-side expiry.
    """
    header = envelope.find(_qname(ENVELOPE_NS, "Header"))
    if header is None:
        return None
    dl = header.find(_qname(REPRO_NS, "Deadline"))
    if dl is None:
        return None
    try:
        remaining_ms = float(dl.get("remainingMs", ""))
    except ValueError:
        return None
    if remaining_ms < 0:
        remaining_ms = 0.0
    return remaining_ms / 1000.0


def _decode_caller_header(envelope: ET.Element) -> tuple[str, int]:
    """Extract (principal, priority) from the envelope header.

    Like the trace context, caller identity is advisory: a malformed
    priority is dropped (treated as 0) rather than faulted.
    """
    header = envelope.find(_qname(ENVELOPE_NS, "Header"))
    if header is None:
        return "", 0
    caller = header.find(_qname(REPRO_NS, "Caller"))
    if caller is None:
        return "", 0
    principal = caller.get("principal", "")
    try:
        priority = int(caller.get("priority", "0"))
    except ValueError:
        priority = 0
    return principal, priority


def _fault_fields(error: Exception) -> tuple[str, str, str]:
    """(faultcode, faultstring, detail) for a per-item multicall fault."""
    if isinstance(error, SoapFault):
        return error.faultcode, error.faultstring, error.detail
    if isinstance(error, DeadlineExceeded):
        return DEADLINE_FAULTCODE, str(error), ""
    if isinstance(error, OverloadedError):
        detail = "" if error.retry_after_s is None \
            else f"{error.retry_after_s:.3f}"
        return OVERLOAD_FAULTCODE, str(error), detail
    return "soapenv:Server", str(error) or type(error).__name__, ""


def fault_for(error: Exception) -> SoapFault:
    """The :class:`SoapFault` a server answers with for *error*.

    Maps the dedicated non-retriable exceptions (deadline expiry,
    admission sheds) onto their reserved fault codes so
    :func:`decode_response` resurfaces the same exception type
    client-side; anything else becomes a generic server fault.
    """
    if isinstance(error, SoapFault):
        return error
    code, string, detail = _fault_fields(error)
    return SoapFault(code, string, detail)


def _fault_to_exception(code: str, string: str, detail: str) -> Exception:
    """Map fault fields back to the exception a single call would raise."""
    if code == DEADLINE_FAULTCODE:
        # the dedicated (non-retriable) exception so clients do not
        # burn retries on an already-spent budget
        return DeadlineExceeded(string)
    if code == OVERLOAD_FAULTCODE:
        # the dedicated back-off exception: not a ServiceError, so the
        # transient-retry set and circuit breakers leave it alone
        try:
            retry_after = float(detail)
        except ValueError:
            retry_after = None
        return OverloadedError(string, retry_after_s=retry_after)
    if code == payload.MISS_FAULTCODE:
        # the peer does not hold a referenced payload: transports
        # catch this and fall back to a full inline resend
        return PayloadMissError(detail, string)
    return SoapFault(code, string, detail)


def encode_response(response: SoapResponse) -> bytes:
    """Serialise a SoapResponse as an envelope."""
    envelope = ET.Element(_qname(ENVELOPE_NS, "Envelope"))
    body = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Body"))
    op = ET.SubElement(body,
                       _qname(REPRO_NS, f"{response.operation}Response"))
    op.set("service", response.service)
    if response.operation == MULTICALL_OP:
        outcomes = response.result or []
        if not all(isinstance(o, CallOutcome) for o in outcomes):
            raise ServiceError(
                "multicall response result must be CallOutcome items")
        for outcome in outcomes:
            if outcome.ok:
                item = ET.SubElement(op, _qname(REPRO_NS, "Result"))
                _encode_value(item, "return", outcome.result)
            else:
                item = ET.SubElement(op, _qname(REPRO_NS, "Fault"))
                code, string, detail = _fault_fields(outcome.error)
                ET.SubElement(item, "faultcode").text = code
                ET.SubElement(item, "faultstring").text = string
                if detail:
                    ET.SubElement(item, "detail").text = detail
        return ET.tostring(envelope, encoding="utf-8",
                           xml_declaration=True)
    _encode_value(op, "return", response.result)
    return ET.tostring(envelope, encoding="utf-8", xml_declaration=True)


def encode_fault(fault: SoapFault) -> bytes:
    """Serialise a SoapFault as a fault envelope."""
    envelope = ET.Element(_qname(ENVELOPE_NS, "Envelope"))
    body = ET.SubElement(envelope, _qname(ENVELOPE_NS, "Body"))
    el = ET.SubElement(body, _qname(ENVELOPE_NS, "Fault"))
    code = ET.SubElement(el, "faultcode")
    code.text = fault.faultcode
    string = ET.SubElement(el, "faultstring")
    string.text = fault.faultstring
    if fault.detail:
        detail = ET.SubElement(el, "detail")
        detail.text = fault.detail
    return ET.tostring(envelope, encoding="utf-8", xml_declaration=True)


def decode_response(document: bytes) -> SoapResponse:
    """Decode a response envelope, raising :class:`SoapFault` on faults."""
    body = _body_of(document)
    child = _single_child(body, "response")
    local = child.tag.rsplit("}", 1)[-1]
    if local == "Fault":
        code = child.findtext("faultcode", "soapenv:Server")
        string = child.findtext("faultstring", "unknown fault")
        detail = child.findtext("detail", "") or ""
        raise _fault_to_exception(code, string, detail)
    if not local.endswith("Response"):
        raise ServiceError(f"unexpected response element {local!r}")
    if local == f"{MULTICALL_OP}Response":
        outcomes: list[CallOutcome] = []
        for item in child:
            kind = item.tag.rsplit("}", 1)[-1]
            if kind == "Result":
                result_el = item.find("return")
                outcomes.append(CallOutcome(
                    result=_decode_value(result_el)
                    if result_el is not None else None))
            elif kind == "Fault":
                outcomes.append(CallOutcome(error=_fault_to_exception(
                    item.findtext("faultcode", "soapenv:Server"),
                    item.findtext("faultstring", "unknown fault"),
                    item.findtext("detail", "") or "")))
            else:
                raise ServiceError(
                    f"unexpected multicall item element {kind!r}")
        return SoapResponse(service=child.get("service", ""),
                            operation=MULTICALL_OP, result=outcomes)
    result_el = child.find("return")
    result = _decode_value(result_el) if result_el is not None else None
    return SoapResponse(service=child.get("service", ""),
                        operation=local[:-len("Response")],
                        result=result)


def _body_of(document: bytes) -> ET.Element:
    return _body_in(_envelope_of(document))


def _envelope_of(document: bytes) -> ET.Element:
    try:
        envelope = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ServiceError(f"malformed SOAP document: {exc}") from exc
    if envelope.tag != _qname(ENVELOPE_NS, "Envelope"):
        raise ServiceError(f"not a SOAP envelope: {envelope.tag}")
    return envelope


def _body_in(envelope: ET.Element) -> ET.Element:
    body = envelope.find(_qname(ENVELOPE_NS, "Body"))
    if body is None:
        raise ServiceError("SOAP envelope has no Body")
    return body


def _single_child(body: ET.Element, what: str) -> ET.Element:
    children = list(body)
    if len(children) != 1:
        raise ServiceError(
            f"SOAP {what} body must carry exactly one element, "
            f"got {len(children)}")
    return children[0]
