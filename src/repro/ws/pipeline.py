"""Composable interceptor pipelines — the Axis handler-chain analogue.

The paper's services run under Tomcat/Axis, where every message passes
through configurable *handler chains* before and after the actual
transport/dispatch.  This module is our equivalent: the cross-cutting
concerns that used to live inline in ``HttpTransport.send``,
``ServiceProxy.call`` and ``ServiceContainer.invoke`` are each one named
:class:`ClientInterceptor` / :class:`ServerHandler`, composed into
ordered chains around a *terminal* (the pure byte mover or the actual
method dispatch).

Every step sees the :class:`~repro.ws.soap.SoapRequest`, a per-call
context, and a ``proceed(request)`` continuation for the rest of the
chain — so a step may observe, rewrite, short-circuit (return without
calling ``proceed``), or wrap the call in ``try``/``finally``.

Default orders (outermost first; names are stable API):

* client proxy   (``ServiceProxy.call``):
  ``deadline → breaker → trace → metrics → transport.send``
* client transport (any :class:`~repro.ws.transport.ChainedTransport`):
  ``trace → metrics → deadline → [gzip] → payload → _exchange``
* server container (``ServiceContainer.invoke``):
  ``trace → resolve → deadline → multicall → stats → cache →
  lifecycle → faults → dispatch`` (``ServiceContainer(admission=...)``
  splices the ``admission`` load-shedding step in after ``deadline``)

Every step also runs from an event loop (:func:`run_chain_async`):
steps that define ``intercept_async`` / ``handle_async`` are awaited
natively, and plain sync steps are bridged through a worker thread
whose ``proceed`` re-enters the loop — so custom sync interceptors
keep working, unchanged, under the async serving plane
(:mod:`repro.ws.aserve`).

Byte movers stay free of policy imports (no :mod:`repro.obs`, no
breaker, no chaos — enforced by ``tools/layering_lint.py``): they report
wire telemetry through :meth:`CallContext.note` (picked up by the trace
step) and the :attr:`CallContext.on_wire` /
:attr:`CallContext.on_transport_error` / :attr:`CallContext.emit_counter`
callbacks (installed by the metrics step), so a chain without those
steps simply records nothing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import copy
import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro.data import cache as datacache
from repro.errors import (DeadlineExceeded, OverloadedError, ServiceError,
                          TransportError)
from repro.obs import SpanContext, get_metrics, get_tracer
from repro.ws import payload, soap
from repro.ws.deadline import current_deadline, deadline_scope
from repro.ws.payload import PayloadMissError
from repro.ws.soap import (DEADLINE_FAULTCODE, SoapFault, SoapRequest,
                           SoapResponse)

Proceed = Callable[[SoapRequest], SoapResponse]
AsyncProceed = Callable[[SoapRequest], Awaitable[SoapResponse]]


def _noop_on_wire(bytes_sent: int, bytes_received: int) -> None:
    pass


def _noop_on_transport_error() -> None:
    pass


def _noop_emit_counter(name: str, amount: float = 1.0) -> None:
    pass


@dataclass
class CallContext:
    """Per-call state shared along one client chain.

    ``notes`` is the telemetry side channel from the byte mover to the
    trace step (copied onto the ``send:*`` span when the chain has one);
    the three callbacks are installed by :class:`TransportMetrics` and
    default to no-ops, so movers can report without importing any
    metrics machinery.
    """

    kind: str                      # "http" | "inprocess" | "simulated" | …
    endpoint: str = ""
    service: str = ""
    operation: str = ""
    properties: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    on_wire: Callable[[int, int], None] = _noop_on_wire
    on_transport_error: Callable[[], None] = _noop_on_transport_error
    emit_counter: Callable[..., None] = _noop_emit_counter

    def note(self, key: str, value: Any) -> None:
        """Record one span attribute for the chain's trace step."""
        self.notes[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        """Read one chain property (e.g. the gzip step's flag)."""
        return self.properties.get(key, default)


@dataclass
class DispatchContext:
    """Per-call state shared along one server (container) chain."""

    container: Any                 # the owning ServiceContainer
    deployment: Any = None         # set by ResolveDeployment
    span: Any = None               # set by DispatchTrace
    properties: dict[str, Any] = field(default_factory=dict)


class ClientInterceptor:
    """One client-side chain step; subclass and override :meth:`intercept`.

    ``name`` identifies the step for :func:`chain_names` /
    :func:`chain_without` / :func:`chain_insert_before` composition.
    Steps that are safe to await natively additionally override
    :meth:`intercept_async`; the base implementation bridges the sync
    :meth:`intercept` through a worker thread (see
    :func:`run_sync_step_async`), so any third-party sync-only step —
    chaos injection included — keeps working on the async plane.
    """

    name = "interceptor"

    def intercept(self, request: SoapRequest, ctx: CallContext,
                  proceed: Proceed) -> SoapResponse:
        """Handle one call; delegate to the rest of the chain via
        ``proceed(request)`` (or short-circuit by not calling it)."""
        return proceed(request)

    async def intercept_async(self, request: SoapRequest, ctx: CallContext,
                              proceed: AsyncProceed) -> SoapResponse:
        """Async mirror of :meth:`intercept` (default: thread bridge)."""
        return await run_sync_step_async(self.intercept, request, ctx,
                                         proceed)

    def __call__(self, request: SoapRequest, ctx: Any,
                 proceed: Proceed) -> SoapResponse:
        return self.intercept(request, ctx, proceed)


class ServerHandler:
    """One server-side chain step; subclass and override :meth:`handle`."""

    name = "handler"

    def handle(self, request: SoapRequest, ctx: DispatchContext,
               proceed: Proceed) -> SoapResponse:
        """Handle one dispatch; delegate to the rest of the chain via
        ``proceed(request)`` (or short-circuit by not calling it)."""
        return proceed(request)

    async def handle_async(self, request: SoapRequest, ctx: DispatchContext,
                           proceed: AsyncProceed) -> SoapResponse:
        """Async mirror of :meth:`handle` (default: thread bridge)."""
        return await run_sync_step_async(self.handle, request, ctx, proceed)

    def __call__(self, request: SoapRequest, ctx: Any,
                 proceed: Proceed) -> SoapResponse:
        return self.handle(request, ctx, proceed)


def run_chain(steps, request: SoapRequest, ctx: Any,
              terminal: Proceed) -> SoapResponse:
    """Thread *request* through *steps* (outermost first) into *terminal*.

    Each step receives the continuation of everything after it; a step
    that never calls ``proceed`` short-circuits the rest of the chain.
    """
    def at(index: int, req: SoapRequest) -> SoapResponse:
        if index == len(steps):
            return terminal(req)
        return steps[index](req, ctx, lambda r: at(index + 1, r))
    return at(0, request)


async def run_sync_step_async(call, request: SoapRequest, ctx: Any,
                              proceed: AsyncProceed) -> SoapResponse:
    """Run one sync-only chain step inside an async chain.

    The step executes on a worker thread (its sleeps and blocking work
    leave the event loop free); the ``proceed`` continuation it is
    handed marshals back into the running loop and blocks the worker —
    not the loop — until the rest of the chain answers.  The loop-side
    continuation runs under the worker's :mod:`contextvars` snapshot,
    so ambient state (deadline scope, trace context) survives the
    double hop.
    """
    loop = asyncio.get_running_loop()

    def sync_proceed(req: SoapRequest) -> SoapResponse:
        snapshot = contextvars.copy_context()
        done: concurrent.futures.Future = concurrent.futures.Future()

        def start() -> None:
            task = snapshot.run(asyncio.ensure_future, proceed(req))

            def relay(finished: asyncio.Task) -> None:
                if finished.cancelled():
                    done.cancel()
                elif finished.exception() is not None:
                    done.set_exception(finished.exception())
                else:
                    done.set_result(finished.result())

            task.add_done_callback(relay)

        loop.call_soon_threadsafe(start)
        return done.result()

    return await asyncio.to_thread(call, request, ctx, sync_proceed)


async def run_chain_async(steps, request: SoapRequest, ctx: Any,
                          terminal: AsyncProceed) -> SoapResponse:
    """Async twin of :func:`run_chain` with identical semantics.

    Steps exposing ``intercept_async`` / ``handle_async`` are awaited
    natively on the event loop; a bare sync callable is bridged through
    :func:`run_sync_step_async` so mixed chains (e.g. with a sync-only
    chaos step) behave exactly like their sync counterparts.
    """
    async def at(index: int, req: SoapRequest) -> SoapResponse:
        if index == len(steps):
            return await terminal(req)
        step = steps[index]

        async def proceed(r: SoapRequest,
                          _next: int = index + 1) -> SoapResponse:
            return await at(_next, r)

        runner = getattr(step, "intercept_async", None) \
            or getattr(step, "handle_async", None)
        if runner is not None:
            return await runner(req, ctx, proceed)
        return await run_sync_step_async(step, req, ctx, proceed)
    return await at(0, request)


# -- chain composition helpers ---------------------------------------------

def chain_names(steps) -> list[str]:
    """The stable step names of a chain, outermost first."""
    return [step.name for step in steps]


def _position(steps, name: str) -> int:
    for index, step in enumerate(steps):
        if step.name == name:
            return index
    raise ValueError(f"chain has no step named {name!r}; "
                     f"present: {chain_names(steps)}")


def chain_without(steps, name: str) -> list:
    """A copy of *steps* with every step named *name* removed."""
    return [step for step in steps if step.name != name]


def chain_insert_before(steps, name: str, step) -> list:
    """A copy of *steps* with *step* inserted before the step *name*."""
    out = list(steps)
    out.insert(_position(out, name), step)
    return out


def chain_insert_after(steps, name: str, step) -> list:
    """A copy of *steps* with *step* inserted after the step *name*."""
    out = list(steps)
    out.insert(_position(out, name) + 1, step)
    return out


# -- shared helpers (formerly in repro.ws.transport) ------------------------

def stamp_trace_context(request: SoapRequest, span) -> None:
    """Inject *span*'s trace context into an unstamped request.

    A request already carrying a trace id keeps it (the outermost hop —
    usually the client proxy — wins), so wrapped transports don't
    overwrite the caller's context.
    """
    if span.recording and not request.trace_id:
        request.trace_id = span.trace_id
        request.parent_span_id = span.span_id


def apply_deadline(request: SoapRequest) -> None:
    """Enforce + propagate the ambient deadline on an outgoing request.

    Fails fast (:class:`~repro.errors.DeadlineExceeded`) when the budget
    is already spent, and stamps the remaining seconds onto an unstamped
    request so every hop below this one inherits the (shrinking) budget.
    An explicit ``deadline_s`` set by the caller wins.
    """
    deadline = current_deadline()
    if deadline is None:
        return
    deadline.check(f"send {request.service}.{request.operation}")
    if request.deadline_s is None:
        request.deadline_s = deadline.remaining()


def record_transport_metrics(transport: str, seconds: float,
                             bytes_sent: int, bytes_received: int) -> None:
    """File one send's latency + byte counts under the global registry."""
    metrics = get_metrics()
    metrics.histogram("ws.transport.seconds",
                      transport=transport).observe(seconds)
    metrics.counter("ws.transport.messages", transport=transport).inc()
    metrics.counter("ws.transport.bytes_sent",
                    transport=transport).inc(bytes_sent)
    metrics.counter("ws.transport.bytes_received",
                    transport=transport).inc(bytes_received)


def payload_fallback(send_once, request: SoapRequest,
                     peer: payload.PeerState,
                     same_host: bool = False) -> SoapResponse:
    """Externalize + send, with the transparent full-payload fallback.

    First attempt goes out with by-reference params for everything the
    peer is believed to hold (with *same_host* peers additionally
    offered shared-memory segment refs for first-time payloads).  A
    :class:`PayloadMissError` (the peer lost — or never had — a
    referenced blob, or a ref was corrupted in flight) clears the peer
    record and resends the original request fully inline, so callers
    never observe the miss.
    """
    try:
        return send_once(payload.externalize(request, peer,
                                             same_host=same_host))
    except PayloadMissError:
        get_metrics().counter("ws.payload.fallbacks").inc()
        peer.clear()
        return send_once(payload.internalize(request))


# -- client transport interceptors ------------------------------------------

class TransportTrace(ClientInterceptor):
    """Open the ``send:<kind>`` span and stamp the trace context.

    The byte mover's :meth:`CallContext.note` entries become span
    attributes when the send finishes (successfully or not), mirroring
    the attribute sets the pre-chain transports recorded inline.
    """

    name = "trace"

    def intercept(self, request, ctx, proceed):
        attrs = {"endpoint": ctx.endpoint} if ctx.endpoint else None
        with get_tracer().span(f"send:{ctx.kind}", attrs) as span:
            stamp_trace_context(request, span)
            try:
                return proceed(request)
            finally:
                for key, value in ctx.notes.items():
                    span.set_attribute(key, value)

    async def intercept_async(self, request, ctx, proceed):
        # spans live in contextvars, which are task-local: safe to open
        # directly on the event loop
        attrs = {"endpoint": ctx.endpoint} if ctx.endpoint else None
        with get_tracer().span(f"send:{ctx.kind}", attrs) as span:
            stamp_trace_context(request, span)
            try:
                return await proceed(request)
            finally:
                for key, value in ctx.notes.items():
                    span.set_attribute(key, value)


class TransportMetrics(ClientInterceptor):
    """Install the metric callbacks the byte mover reports through.

    The mover decides *when* a message pair counts (e.g. the simulated
    transport files its cost even for fault responses, HTTP only once
    the body was read) by invoking ``ctx.on_wire`` at exactly that
    point — this step only decides *where* the numbers go.
    """

    name = "metrics"

    @staticmethod
    def _install(ctx) -> None:
        start = time.perf_counter()
        metrics = get_metrics()

        def on_wire(bytes_sent: int, bytes_received: int) -> None:
            record_transport_metrics(ctx.kind,
                                     time.perf_counter() - start,
                                     bytes_sent, bytes_received)

        def on_transport_error() -> None:
            metrics.counter("ws.transport.errors",
                            transport=ctx.kind).inc()

        def emit_counter(name: str, amount: float = 1.0) -> None:
            metrics.counter(name).inc(amount)

        ctx.on_wire = on_wire
        ctx.on_transport_error = on_transport_error
        ctx.emit_counter = emit_counter

    def intercept(self, request, ctx, proceed):
        self._install(ctx)
        return proceed(request)

    async def intercept_async(self, request, ctx, proceed):
        self._install(ctx)
        return await proceed(request)


class DeadlineBudget(ClientInterceptor):
    """Fail fast on a spent budget; stamp the remainder on the request."""

    name = "deadline"

    def intercept(self, request, ctx, proceed):
        apply_deadline(request)
        return proceed(request)

    async def intercept_async(self, request, ctx, proceed):
        apply_deadline(request)
        return await proceed(request)


class GzipNegotiation(ClientInterceptor):
    """Advertise/request gzip content coding (HTTP transports only).

    The mover honours ``ctx.properties["accept_gzip"]``; without this
    step in the chain it defaults to identity encoding.
    """

    name = "gzip"

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def intercept(self, request, ctx, proceed):
        ctx.properties["accept_gzip"] = self.enabled
        return proceed(request)

    async def intercept_async(self, request, ctx, proceed):
        ctx.properties["accept_gzip"] = self.enabled
        return await proceed(request)


class PayloadRefs(ClientInterceptor):
    """Substitute by-reference params for payloads the peer already holds.

    Owns the per-connection :class:`~repro.ws.payload.PeerState`.  With
    ``resend_on_miss=True`` (HTTP / in-process) a miss raised anywhere
    below — including from the far side of the wire — clears the peer
    record and transparently resends fully inline.  With ``False`` (the
    simulated transport) only a miss during externalisation is healed;
    a miss surfacing from the inner transport propagates, matching the
    modelled network's pre-chain semantics.
    """

    name = "payload"

    def __init__(self, resend_on_miss: bool = True):
        self.peer = payload.PeerState()
        self.resend_on_miss = resend_on_miss

    def intercept(self, request, ctx, proceed):
        same_host = bool(ctx.get("same_host"))
        if self.resend_on_miss:
            return payload_fallback(proceed, request, self.peer,
                                    same_host=same_host)
        try:
            outbound = payload.externalize(request, self.peer,
                                           same_host=same_host)
        except PayloadMissError:
            get_metrics().counter("ws.payload.fallbacks").inc()
            self.peer.clear()
            outbound = payload.internalize(request)
        return proceed(outbound)

    async def intercept_async(self, request, ctx, proceed):
        same_host = bool(ctx.get("same_host"))
        if self.resend_on_miss:
            try:
                return await proceed(payload.externalize(
                    request, self.peer, same_host=same_host))
            except PayloadMissError:
                get_metrics().counter("ws.payload.fallbacks").inc()
                self.peer.clear()
                return await proceed(payload.internalize(request))
        try:
            outbound = payload.externalize(request, self.peer,
                                           same_host=same_host)
        except PayloadMissError:
            get_metrics().counter("ws.payload.fallbacks").inc()
            self.peer.clear()
            outbound = payload.internalize(request)
        return await proceed(outbound)


def default_transport_interceptors(*, compress: bool | None = None,
                                   resend_on_miss: bool = True
                                   ) -> list[ClientInterceptor]:
    """The standard transport chain: trace → metrics → deadline
    → [gzip] → payload.  ``compress`` adds the gzip step (HTTP);
    ``resend_on_miss=False`` selects the simulated transport's
    externalize-only miss fallback."""
    steps: list[ClientInterceptor] = [TransportTrace(), TransportMetrics(),
                                      DeadlineBudget()]
    if compress is not None:
        steps.append(GzipNegotiation(compress))
    steps.append(PayloadRefs(resend_on_miss=resend_on_miss))
    return steps


# -- client proxy interceptors ----------------------------------------------

class ProxyDeadline(ClientInterceptor):
    """Fail fast before building any wire bytes; stamp the budget."""

    name = "deadline"

    def intercept(self, request, ctx, proceed):
        self._stamp(request, ctx)
        return proceed(request)

    async def intercept_async(self, request, ctx, proceed):
        self._stamp(request, ctx)
        return await proceed(request)

    @staticmethod
    def _stamp(request, ctx) -> None:
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(f"{ctx.service}.{ctx.operation}")
            request.deadline_s = deadline.remaining()


class BreakerGate(ClientInterceptor):
    """Per-endpoint circuit breaking around the rest of the chain.

    Only delivery failures (:class:`TransportError` / ``OSError``)
    count against the breaker — a SOAP fault proves the endpoint is
    alive, and a spent budget says nothing about endpoint health.
    With no breaker configured the gate is a no-op.
    """

    name = "breaker"

    def __init__(self, breaker=None):
        self.breaker = breaker

    def intercept(self, request, ctx, proceed):
        if self.breaker is None:
            return proceed(request)
        self.breaker.ensure_closed(f"{ctx.service}.{ctx.operation}")
        try:
            response = proceed(request)
        except (TransportError, OSError):
            self.breaker.record_failure()
            raise
        except DeadlineExceeded:
            raise
        except Exception:
            # the endpoint answered (a fault is still an answer — an
            # admission shed included: an overloaded endpoint is alive)
            self.breaker.record_success()
            raise
        self.breaker.record_success()
        return response

    async def intercept_async(self, request, ctx, proceed):
        if self.breaker is None:
            return await proceed(request)
        self.breaker.ensure_closed(f"{ctx.service}.{ctx.operation}")
        try:
            response = await proceed(request)
        except (TransportError, OSError):
            self.breaker.record_failure()
            raise
        except DeadlineExceeded:
            raise
        except Exception:
            self.breaker.record_success()
            raise
        self.breaker.record_success()
        return response


class CallTrace(ClientInterceptor):
    """Open the client-side ``soap:<service>.<op>`` span.

    Client-side injection: this span becomes the parent of every
    server-side span for the invocation.
    """

    name = "trace"

    def intercept(self, request, ctx, proceed):
        with get_tracer().span(
                f"soap:{ctx.service}.{ctx.operation}") as span:
            batch = soap.batch_size_of(request)
            if batch is not None:
                span.set_attribute("batch_size", batch)
            stamp_trace_context(request, span)
            return proceed(request)

    async def intercept_async(self, request, ctx, proceed):
        with get_tracer().span(
                f"soap:{ctx.service}.{ctx.operation}") as span:
            batch = soap.batch_size_of(request)
            if batch is not None:
                span.set_attribute("batch_size", batch)
            stamp_trace_context(request, span)
            return await proceed(request)


class CallMetrics(ClientInterceptor):
    """Per-call count + latency, filed whether the call succeeds or not."""

    name = "metrics"

    def intercept(self, request, ctx, proceed):
        start = time.perf_counter()
        try:
            return proceed(request)
        finally:
            self._file(ctx, time.perf_counter() - start)

    async def intercept_async(self, request, ctx, proceed):
        start = time.perf_counter()
        try:
            return await proceed(request)
        finally:
            self._file(ctx, time.perf_counter() - start)

    @staticmethod
    def _file(ctx, elapsed: float) -> None:
        metrics = get_metrics()
        metrics.counter("ws.client.calls", service=ctx.service,
                        operation=ctx.operation).inc()
        metrics.histogram("ws.client.seconds", service=ctx.service,
                          operation=ctx.operation).observe(elapsed)


def default_proxy_interceptors(breaker=None) -> list[ClientInterceptor]:
    """The standard proxy chain: deadline → breaker → trace → metrics.

    Order is behavioural API: a spent deadline or an open breaker fails
    the call before any span or metric is recorded.
    """
    return [ProxyDeadline(), BreakerGate(breaker), CallTrace(),
            CallMetrics()]


# -- server (container) handlers --------------------------------------------

#: Idempotent results kept process-wide (LRU beyond this).
RESULT_CACHE_ENTRIES = 256

#: Process-global idempotent-result cache.  ``cacheable=True`` declares
#: an operation *pure* — its result is a function of its arguments — so
#: results are shareable across every container hosting the same
#: implementation class (the class is part of the key).
_result_cache = datacache.LruCache(RESULT_CACHE_ENTRIES)


def reset_result_cache() -> None:
    """Drop all cached operation results (test isolation)."""
    _result_cache.clear()


def _params_digest(params: dict[str, Any]) -> str:
    """Order-independent content digest of one call's arguments."""
    canonical = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _count_server_fault(request: SoapRequest) -> None:
    get_metrics().counter("ws.server.faults", service=request.service,
                          operation=request.operation).inc()


class DispatchTrace(ServerHandler):
    """Open the ``dispatch:`` span, joining the client's trace.

    The request's ``<repro:TraceContext>`` header parents this span when
    no local span (an HTTP handler or in-process transport span) is
    already active.
    """

    name = "trace"

    def handle(self, request, ctx, proceed):
        tracer = get_tracer()
        parent = tracer.current_span()
        if parent is None and request.trace_id:
            parent = SpanContext(request.trace_id, request.parent_span_id)
        name = f"dispatch:{request.service}.{request.operation}"
        with tracer.span(name, {"container": ctx.container.name},
                         parent=parent) as span:
            ctx.span = span
            return proceed(request)


class ResolveDeployment(ServerHandler):
    """Bind the request's service name to a live deployment (or fault)."""

    name = "resolve"

    def handle(self, request, ctx, proceed):
        ctx.deployment = ctx.container._deployment(request.service)
        if ctx.span is not None:
            ctx.span.set_attribute("lifecycle", ctx.deployment.lifecycle)
        return proceed(request)


class DeadlineAnchor(ServerHandler):
    """Re-anchor the caller's remaining budget on this host's clock.

    Every call the service itself makes inherits the scope; a budget
    already spent is rejected before any lifecycle work happens.
    """

    name = "deadline"

    def handle(self, request, ctx, proceed):
        with deadline_scope(request.deadline_s) as deadline:
            if deadline is not None and deadline.expired:
                _count_server_fault(request)
                get_metrics().counter(
                    "ws.server.deadline_rejections",
                    service=request.service).inc()
                raise SoapFault(
                    DEADLINE_FAULTCODE,
                    f"time budget exhausted before dispatching "
                    f"{request.service}.{request.operation}")
            return proceed(request)


class MulticallExpand(ServerHandler):
    """Expand a ``<repro:Multicall>`` batch into per-item dispatches.

    Each sub-call re-enters the rest of the chain (stats → cache →
    lifecycle → faults → dispatch) as its own single-operation request,
    so invocation counts, result-cache hits and ``op:`` spans stay
    item-wise while parse/serialize and the wire exchange happened once
    for the whole batch.  Per-item faults are captured as
    :class:`~repro.ws.soap.CallOutcome` items — one bad row cannot fail
    its siblings — and a budget that expires mid-batch turns the
    remaining items into deadline faults without touching dispatch.
    """

    name = "multicall"

    def handle(self, request, ctx, proceed):
        if not soap.is_multicall(request):
            return proceed(request)
        calls = soap.calls_of(request)
        metrics = get_metrics()
        metrics.histogram("ws.batch.size",
                          service=request.service).observe(len(calls))
        if len(calls) > 1:
            metrics.counter("ws.batch.calls_saved",
                            service=request.service).inc(len(calls) - 1)
        if ctx.span is not None:
            ctx.span.set_attribute("batch_size", len(calls))
        deadline = current_deadline()
        outcomes: list[soap.CallOutcome] = []
        for index, sub in enumerate(calls):
            item = SoapRequest(service=request.service,
                               operation=sub.operation,
                               params=dict(sub.params),
                               trace_id=request.trace_id,
                               parent_span_id=request.parent_span_id)
            if deadline is not None and deadline.expired:
                _count_server_fault(item)
                metrics.counter("ws.server.deadline_rejections",
                                service=request.service).inc()
                outcomes.append(soap.CallOutcome(error=SoapFault(
                    DEADLINE_FAULTCODE,
                    f"time budget exhausted before multicall item "
                    f"{index} ({request.service}.{sub.operation})")))
                continue
            try:
                outcomes.append(
                    soap.CallOutcome(result=proceed(item).result))
            except SoapFault as fault:
                outcomes.append(soap.CallOutcome(error=fault))
        return SoapResponse(service=request.service,
                            operation=soap.MULTICALL_OP, result=outcomes)


class InvocationStats(ServerHandler):
    """Count the invocation (cache hits and faults included)."""

    name = "stats"

    def handle(self, request, ctx, proceed):
        dep = ctx.deployment
        with dep.lock:
            dep.stats.invocations += 1
        return proceed(request)


class ResultCache(ServerHandler):
    """Answer repeat invocations of ``cacheable`` operations from cache.

    A hit short-circuits the rest of the chain (no lifecycle work, no
    dispatch); results are deep-copied both ways so callers own their
    objects.
    """

    name = "cache"

    def handle(self, request, ctx, proceed):
        dep = ctx.deployment
        info = dep.definition.operations.get(request.operation)
        cache_key = None
        if info is not None and info.cacheable and datacache.enabled():
            metrics = get_metrics()
            cache_key = (dep.definition.cls, request.operation,
                         _params_digest(request.params))
            hit = _result_cache.get(cache_key)
            if hit is not None:
                result, approx_bytes = hit
                with dep.lock:
                    dep.stats.cache_hits += 1
                metrics.counter("ws.cache.result.hits",
                                service=request.service).inc()
                metrics.counter("ws.cache.result.bytes_saved",
                                service=request.service).inc(approx_bytes)
                return SoapResponse(service=request.service,
                                    operation=request.operation,
                                    result=copy.deepcopy(result))
            metrics.counter("ws.cache.result.misses",
                            service=request.service).inc()
        response = proceed(request)
        if cache_key is not None:
            # estimate the dispatch cost a future hit avoids by the
            # canonical size of the answer
            approx_bytes = len(json.dumps(response.result, default=repr))
            _result_cache.put(
                cache_key, (copy.deepcopy(response.result), approx_bytes))
        return response


class Lifecycle(ServerHandler):
    """Acquire/release the instance per the deployment's §4.5 lifecycle.

    * ``harness`` — the deployment lock guards only instance creation
      and stats mutation; dispatches run concurrently (one in-memory
      instance serves parallel callers).
    * ``serialize`` — the lock is held across the whole
      unpickle → dispatch → pickle round-trip: the state file *is* the
      serialisation point this 2005-era lifecycle models, so calls stay
      one-at-a-time by design.
    """

    name = "lifecycle"

    def handle(self, request, ctx, proceed):
        dep = ctx.deployment
        if dep.lifecycle == "serialize":
            with dep.lock:
                return self._cycle(dep, request, ctx, proceed)
        return self._cycle(dep, request, ctx, proceed)

    def _cycle(self, dep, request, ctx, proceed):
        container = ctx.container
        with dep.lock:  # re-entrant: already held in serialize lifecycle
            instance = container._acquire(dep)
        ctx.properties["instance"] = instance
        start = time.perf_counter()
        try:
            return proceed(request)
        finally:
            elapsed = time.perf_counter() - start
            with dep.lock:
                dep.stats.dispatch_seconds += elapsed
            get_metrics().histogram(
                "ws.server.dispatch.seconds",
                service=request.service,
                operation=request.operation).observe(elapsed)
            container._release(dep, instance)


class FaultMapper(ServerHandler):
    """Map dispatch exceptions onto SOAP faults and count them.

    A nested call that ran out of budget mid-dispatch surfaces under
    the dedicated deadline fault code so the caller's client resurfaces
    :class:`DeadlineExceeded`, not a retriable server fault.
    """

    name = "faults"

    def handle(self, request, ctx, proceed):
        try:
            return proceed(request)
        except SoapFault:
            self._record(request, ctx)
            raise
        except DeadlineExceeded as exc:
            self._record(request, ctx)
            raise SoapFault(DEADLINE_FAULTCODE, str(exc)) from exc
        except Exception as exc:
            self._record(request, ctx)
            raise SoapFault("soapenv:Server", str(exc),
                            detail=type(exc).__name__) from exc

    @staticmethod
    def _record(request, ctx) -> None:
        dep = ctx.deployment
        with dep.lock:
            dep.stats.faults += 1
        _count_server_fault(request)


def default_server_handlers() -> list[ServerHandler]:
    """The standard container chain: trace → resolve → deadline →
    multicall → stats → cache → lifecycle → faults.

    Order is behavioural API: a deadline rejection counts no
    invocation, multicall expansion happens before stats and the result
    cache so each sub-call is counted and cached item-wise, a cache hit
    does no lifecycle work, and instance acquisition failures propagate
    unmapped (they are host errors, not operation faults)."""
    return [DispatchTrace(), ResolveDeployment(), DeadlineAnchor(),
            MulticallExpand(), InvocationStats(), ResultCache(),
            Lifecycle(), FaultMapper()]


# -- server HTTP gateway -----------------------------------------------------

_LENGTH_OK = re.compile(r"[0-9]{1,18}")


def content_length(value: str | None) -> int | None:
    """The body length a request's ``Content-Length`` header declares
    (0 when absent), or ``None`` when it is not a decimal count.

    The threaded front doors answer ``None`` with 400: handing a
    negative length to ``rfile.read`` would read to EOF and pin the
    handler thread."""
    value = "0" if value is None else value.strip()
    return int(value) if _LENGTH_OK.fullmatch(value) else None


class HttpGateway:
    """The policy half of SOAP-over-HTTP hosting.

    Everything between "bytes arrived on a POST" and "bytes to answer
    with" lives here — decompression, envelope decode, front-door
    deadline shedding, the ``http:POST`` span, fault mapping, response
    compression and the ``ws.http.*`` metrics — leaving
    :mod:`repro.ws.httpd` as pure HTTP mechanics.
    """

    def __init__(self, container, compress: bool = True):
        self.container = container
        self.compress = compress

    def post(self, name: str, raw: bytes,
             content_encoding: str | None = None,
             accept_encoding: str | None = None
             ) -> tuple[int, bytes, str, str | None]:
        """Serve one ``POST /services/<name>`` body.

        Returns ``(status, body, content_type, response_encoding)``.
        """
        start = time.perf_counter()
        status = 200
        content_type = "text/xml; charset=utf-8"
        try:
            try:
                raw = payload.decompress(raw, content_encoding)
            except TransportError as exc:
                status = 400
                return 400, str(exc).encode(), "text/plain", None
            request = soap.decode_request(raw)
            request.service = name  # the URL wins over the envelope
            if request.deadline_s is not None and request.deadline_s <= 0:
                # budget already spent: reject before dispatch so a
                # hammered server sheds doomed work at the front door
                get_metrics().counter("ws.http.deadline_rejections",
                                      service=name).inc()
                raise DeadlineExceeded(
                    f"time budget exhausted before dispatching "
                    f"POST /services/{name}")
            # tag the handler span with the trace context the SOAP
            # header carried, so server-side spans join the client trace
            parent = SpanContext(request.trace_id,
                                 request.parent_span_id) \
                if request.trace_id else None
            with get_tracer().span(f"http:POST /services/{name}",
                                   {"request_bytes": len(raw)},
                                   parent=parent) as span:
                response = self.container.invoke(request)
                body = soap.encode_response(response)
                span.set_attribute("response_bytes", len(body))
                span.set_attribute("http_status", status)
            encoding = None
            if self.compress and "gzip" in (accept_encoding or "").lower():
                body, encoding = payload.maybe_compress(body)
            return 200, body, content_type, encoding
        except PayloadMissError as exc:
            # the client referenced a blob this process does not hold:
            # answer with the dedicated fault so it resends inline
            status = 500
            return 500, soap.encode_fault(SoapFault(
                payload.MISS_FAULTCODE, str(exc),
                detail=exc.digest)), content_type, None
        except SoapFault as fault:
            status = 500
            return 500, soap.encode_fault(fault), content_type, None
        except OverloadedError as exc:
            # admission control shed the call: answer 503 with the
            # dedicated fault so clients back off instead of retrying
            status = 503
            return 503, soap.encode_fault(
                soap.fault_for(exc)), content_type, None
        except DeadlineExceeded as exc:
            status = 500
            return 500, soap.encode_fault(
                SoapFault(DEADLINE_FAULTCODE,
                          str(exc))), content_type, None
        except ServiceError as exc:
            status = 500
            return 500, soap.encode_fault(
                SoapFault("soapenv:Server",
                          str(exc))), content_type, None
        finally:
            metrics = get_metrics()
            metrics.counter("ws.http.requests", service=name,
                            status=status).inc()
            metrics.histogram("ws.http.seconds", service=name).observe(
                time.perf_counter() - start)
