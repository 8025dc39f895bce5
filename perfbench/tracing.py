"""Span recording around each layer's public entry point, and the
per-layer metrics derived from the spans.

The program is not instrumented: :class:`Recorder` replaces each public
entry point listed in :data:`LAYERS` with a wrapper that records a span
(id, parent, name, start, end, thread, domain) while the recorder is
active.  Spans stay in memory and are written out when the run ends.

Parents are tracked per thread, so a span's self time is its duration
minus the spans nested inside it on the same thread.  Work handed to
another thread or process is joined by subtraction instead:

* ``ws.http.self_ms`` -- the client transport's self time (HTTP framing
  plus the wait for the server) minus the server's ``HttpGateway.post``;
* ``ws.mesh.hop_ms`` -- the gateway's routed send minus the worker-side
  ``HttpGateway.post``;
* ``workflow.engine_self_ms`` -- ``WorkflowEngine.run`` minus its tasks,
  which run on the engine's pool thread.

Each span belongs to a *domain*: ``client`` (the load generator's
threads), ``server`` (spans under an ``HttpGateway.post`` root), ``hop``
(the mesh gateway's send to its worker and everything under it) and
``worker`` (the replay of worker-side requests, see ``run.py``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

from repro.obs import get_metrics
from repro.ws import payload


def _tool_name(args, kwargs):
    return args[0].name


def _doc_bytes(args, kwargs, result):
    return len(args[0])


def _rows_scored(args, kwargs, result):
    return result["scored"]


#: (span name, module, class or None, attribute, label fn, result fn)
LAYERS = [
    ("ws.client", "repro.ws.client", "ServiceProxy", "call", None, None),
    ("ws.transport", "repro.ws.transport", "ChainedTransport", "send",
     None, None),
    ("ws.soap.encode_request", "repro.ws.soap", None, "encode_request",
     None, None),
    ("ws.soap.decode_request", "repro.ws.soap", None, "decode_request",
     None, None),
    ("ws.soap.encode_response", "repro.ws.soap", None, "encode_response",
     None, None),
    ("ws.soap.decode_response", "repro.ws.soap", None, "decode_response",
     None, _doc_bytes),
    ("ws.pipeline", "repro.ws.pipeline", "HttpGateway", "post", None, None),
    ("ws.container", "repro.ws.container", "ServiceContainer", "invoke",
     None, None),
    ("services", "repro.ws.service", "ServiceDefinition", "dispatch",
     None, None),
    ("ws.payload.externalize", "repro.ws.payload", None, "externalize",
     None, None),
    ("ws.payload.resolve", "repro.ws.payload", None, "resolve", None, None),
    ("ws.payload.gzip", "repro.ws.payload", None, "maybe_compress",
     None, None),
    ("ws.payload.gzip", "repro.ws.payload", None, "decompress", None, None),
    ("ws.mesh.route", "repro.ws.mesh.gateway", "MeshIngress", "invoke",
     None, None),
    ("data.codec.decode", "repro.data.codec", None, "decode", None, None),
    ("data.arff.loads", "repro.data.arff", None, "loads", None, None),
    ("ml.fit", "repro.ml.classifiers.j48", "J48", "fit", None, None),
    ("ml.score", "repro.ml.evaluation", None, "bulk_score", None,
     _rows_scored),
    ("viz.plot", "repro.viz.treeviz", None, "tree_svg", None, None),
    ("workflow.engine", "repro.workflow.engine", "WorkflowEngine", "run",
     None, None),
    ("workflow.task", "repro.workflow.wsimport", "WebServiceTool", "run",
     _tool_name, None),
    ("workflow.task", "repro.workflow.model", "FunctionTool", "run",
     _tool_name, None),
]

#: Tasks of the case-study composition, reported one metric each.
TASKS = ("Data.readURL", "J48.classifyGraph", "ExtractGraph",
         "TreeVisualizer.plotTree")

#: The per-layer self times along the blocking path must add up to the
#: traced run's mean latency within this share of it.  The mesh worker's
#: side is timed by a replay in this process, which runs the worker's
#: code up to ~6% of bulk_score's latency slower or faster than the
#: worker does, so ``ws.mesh.hop_ms`` may read that far below zero.
RECONCILE_TOLERANCE = 0.10


class Recorder:
    """Wraps the layer entry points and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        #: domain given to root spans while set (the worker replay)
        self.root_domain: str | None = None
        #: (peer, digest) already sent by reference, for the repeat ratio
        self.sent_refs: set[tuple[int, str]] = set()
        #: (large parameter bytes, of which repeats) per externalize call
        self.ref_bytes = [0, 0]
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for name, module, cls, attr, label, measure in LAYERS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            own = attr in vars(owner)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, label, measure)
            if name == "ws.payload.externalize":
                wrapper = self._watch_refs(wrapper)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # inherited: drop the shadowing wrapper
        self._patches.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, label, measure):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if stack:
                parent, domain = stack[-1]
                if name == "ws.transport" and domain == "server":
                    domain = "hop"
            else:
                parent = 0
                domain = recorder.root_domain or (
                    "server" if name == "ws.pipeline" else "client")
            span_id = next(recorder._ids)
            stack.append((span_id, domain))
            tag = label(args, kwargs) if label else ""
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, name, start, end,
                     threading.get_ident(), domain, tag, value))
        return wrapper

    def _watch_refs(self, wrapper):
        """Count large parameters, and the bytes of those sent by
        reference to a peer that was sent the same content before."""
        recorder = self

        @functools.wraps(wrapper)
        def watched(request, peer, *args, **kwargs):
            outbound = wrapper(request, peer, *args, **kwargs)
            if recorder.active:
                for value in request.params.values():
                    if isinstance(value, (str, bytes, memoryview)) and \
                            len(value) >= payload.MIN_REF_BYTES:
                        recorder.ref_bytes[0] += len(value)
            for value in outbound.params.values():
                if isinstance(value, payload.PayloadRef):
                    key = (id(peer), value.digest)
                    if key in recorder.sent_refs:
                        if recorder.active:
                            recorder.ref_bytes[1] += value.size
                    else:
                        recorder.sent_refs.add(key)
            return outbound
        return watched

    def root(self, call):
        """*call* wrapped in the per-operation root span."""
        return self._wrap("op", call, None, None)

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        fields = ("id", "parent", "name", "start", "end", "thread",
                  "domain", "label", "value")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def counter_totals() -> dict[str, float]:
    """The process's repro counters, summed over labels; transport bytes
    are kept only for the client's HTTP transport."""
    totals: dict[str, float] = defaultdict(float)
    for name, labels, counter in get_metrics().counters():
        if name.startswith("ws.transport.bytes_"):
            if dict(labels).get("transport") != "http":
                continue
        totals[name] += counter.value
    return totals


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in set(before) | set(after)}


class Aggregate:
    """Per-operation self time, duration and count of each span name in
    each domain."""

    def __init__(self, spans, ops: int, replay_ops: int = 0):
        child = defaultdict(float)
        for span in spans:
            if span[1]:
                child[span[1]] += span[4] - span[3]
        self.self_s = defaultdict(float)
        self.dur_s = defaultdict(float)
        self.count = defaultdict(int)
        self.value = defaultdict(float)
        self.by_label = defaultdict(float)
        for span_id, _, name, start, end, _, domain, tag, value in spans:
            key = (name, domain)
            self.self_s[key] += end - start - child[span_id]
            self.dur_s[key] += end - start
            self.count[key] += 1
            if value is not None:
                self.value[key] += value
            if tag:
                self.by_label[tag] += end - start
        self.ops = ops
        self.replay_ops = replay_ops

    def _per_op(self, table, name, domains) -> float:
        total = 0.0
        for (span, domain), amount in table.items():
            if span == name and (not domains or domain in domains):
                base = self.replay_ops if domain == "worker" else self.ops
                if base:
                    total += amount / base
        return total

    def self_ms(self, name, *domains) -> float:
        return 1000.0 * self._per_op(self.self_s, name, domains)

    def dur_ms(self, name, *domains) -> float:
        return 1000.0 * self._per_op(self.dur_s, name, domains)

    def total_self_ms(self) -> float:
        """Sum of every span's self time, per operation."""
        return sum(1000.0 * self._per_op(self.self_s, name, (domain,))
                   for name, domain in set(self.self_s))


def layer_metrics(agg: Aggregate, counters: dict, replay_counters: dict,
                  recorder: Recorder, latency_mean_ms: float
                  ) -> tuple[dict[str, float], bool]:
    """The per-layer metrics of one traced run, and whether the layer
    self times reconcile with the measured latency."""
    ops = max(agg.ops, 1)
    replay_ops = max(agg.replay_ops, 1)

    def per_op(name: str) -> float:
        return counters.get(name, 0.0) / ops + \
            replay_counters.get(name, 0.0) / replay_ops

    http_self = agg.self_ms("ws.transport", "client") - \
        agg.dur_ms("ws.pipeline", "server")
    hop = agg.self_ms("ws.transport", "hop") - \
        agg.dur_ms("ws.pipeline", "worker")
    engine_self = agg.dur_ms("workflow.engine", "client") - \
        agg.dur_ms("workflow.task", "client")
    invocations = agg.count[("ws.container", "server")] + \
        agg.count[("ws.container", "worker")]
    cache_hits = counters.get("ws.cache.result.hits", 0.0) + \
        replay_counters.get("ws.cache.result.hits", 0.0)
    parse_hits = counters.get("ws.cache.parse.hits", 0.0) + \
        replay_counters.get("ws.cache.parse.hits", 0.0)
    parses = parse_hits + counters.get("ws.cache.parse.misses", 0.0) + \
        replay_counters.get("ws.cache.parse.misses", 0.0)
    score_s = sum(v for (n, _), v in agg.dur_s.items() if n == "ml.score")
    rows = sum(v for (n, _), v in agg.value.items() if n == "ml.score")
    large, repeated = recorder.ref_bytes

    metrics = {
        "ws.client.self_ms": agg.self_ms("ws.client"),
        "ws.transport.self_ms": agg.self_ms("ws.transport", "client"),
        "ws.transport.bytes_out": counters.get(
            "ws.transport.bytes_sent", 0.0) / ops,
        "ws.transport.bytes_in": counters.get(
            "ws.transport.bytes_received", 0.0) / ops,
        "ws.transport.stale_retries": per_op("ws.transport.stale_retries"),
        "ws.soap.encode_request_ms": agg.self_ms("ws.soap.encode_request"),
        "ws.soap.decode_request_ms": agg.self_ms("ws.soap.decode_request"),
        "ws.soap.encode_response_ms": agg.self_ms("ws.soap.encode_response"),
        "ws.soap.decode_response_ms": agg.self_ms("ws.soap.decode_response"),
        "ws.soap.response_bytes": agg.value[
            ("ws.soap.decode_response", "client")] / ops,
        "ws.pipeline.gateway_self_ms": agg.self_ms("ws.pipeline"),
        "ws.http.self_ms": http_self,
        "ws.container.self_ms": agg.self_ms("ws.container"),
        "ws.cache.result.hit_ratio":
            cache_hits / invocations if invocations else 0.0,
        "ws.payload.externalize_ms": agg.self_ms("ws.payload.externalize"),
        "ws.payload.resolve_ms": agg.self_ms("ws.payload.resolve"),
        "ws.payload.gzip_ms": agg.self_ms("ws.payload.gzip"),
        "ws.payload.ref_hit_ratio": repeated / large if large else 0.0,
        "ws.payload.fallbacks": per_op("ws.payload.fallbacks"),
        "ws.shm.publishes": per_op("ws.shm.publishes"),
        "ws.shm.hits": per_op("ws.shm.hits"),
        "ws.shm.misses": per_op("ws.shm.misses"),
        "ws.shm.bytes_mapped": per_op("ws.shm.bytes_mapped"),
        "ws.mesh.hop_ms": hop,
        "ws.mesh.route_self_ms": agg.self_ms("ws.mesh.route"),
        "ws.mesh.routed": per_op("ws.mesh.routed"),
        "ws.mesh.failovers": per_op("ws.mesh.failovers"),
        "data.codec.decode_ms": agg.self_ms("data.codec.decode"),
        "data.arff.loads_ms": agg.self_ms("data.arff.loads"),
        "data.cache.parse_hit_ratio": parse_hits / parses if parses else 0.0,
        "ml.fit_ms": agg.self_ms("ml.fit"),
        "ml.score_ms": agg.self_ms("ml.score"),
        "ml.rows_scored_per_s": rows / score_s if score_s else 0.0,
        "services.op_self_ms": agg.self_ms("services"),
        "viz.plot_ms": agg.self_ms("viz.plot"),
        "workflow.engine_self_ms": engine_self,
    }
    for task in TASKS:
        metrics[f"workflow.task_ms.{task}"] = \
            1000.0 * agg.by_label[task] / ops

    # the blocking path: every self time, with the cross-thread and
    # cross-process waits replaced by the remainders derived above
    blocking = agg.total_self_ms() \
        - agg.self_ms("ws.transport", "client") + http_self \
        - agg.self_ms("ws.transport", "hop") + hop \
        - agg.self_ms("workflow.engine") + engine_self
    gap = (latency_mean_ms - blocking) / latency_mean_ms
    metrics["trace.unaccounted_ratio"] = abs(gap)
    floor = -RECONCILE_TOLERANCE * latency_mean_ms
    reconciled = abs(gap) <= RECONCILE_TOLERANCE and \
        min(http_self, hop, engine_self) >= floor
    return metrics, reconciled
