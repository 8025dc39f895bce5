"""The three workloads: seeded inputs, reference answers and operations.

Every input derives from the workload seed; the SUT only ever receives
the generated documents.  Reference answers are computed in this
process along with the inputs, outside any timed call.

Each workload exposes the same small surface to the driver in
``run.py``:

* ``sut_args``   -- the ``repro`` command line that deploys the SUT;
* ``host()``     -- the same deployment hosted in this process through
  its entry function (``serve_toolbox`` / ``start_mesh``), for the
  traced run;
* ``connect(base_url)`` / ``close(clients)`` -- one client state per
  load thread, built the way a workflow tool builds it (WSDL import into
  a sync ``ServiceProxy``);
* ``next_op(client)`` -- ``(call, check)``: ``call()`` performs one
  operation (the timed part) and ``check(result)`` compares its output
  with the reference, returning True when it is correct.
"""

from __future__ import annotations

import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from repro.data import arff, codec, synthetic
from repro.data.attribute import Attribute
from repro.data.dataset import Dataset
from repro.ml.classifiers import J48
from repro.services.classifier_service import ClassifierService
from repro.workflow import TaskGraph, ToolBox, WorkflowEngine, import_wsdl_url
from repro.workflow.model import FunctionTool
from repro.ws.client import ServiceProxy


def _wsdl(base_url: str, service: str) -> str:
    return f"{base_url}/services/{service}?wsdl"


class Hosted:
    """An in-process deployment: its URL, how to stop it, and the pids
    of any child processes it owns."""

    def __init__(self, base_url: str, stop, child_pids=()):
        self.base_url = base_url
        self.stop = stop
        self.child_pids = list(child_pids)


# -- rpc_small ----------------------------------------------------------------

#: Local evaluations of the Math.tabulate expressions the workload uses.
_TABULATE = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "square": lambda v: v * v, "abs": abs,
    "sinc": lambda v: 1.0 if abs(v) < 1e-12 else math.sin(v) / v,
}


class RpcSmall:
    """Two closed-loop clients alternating ``Classifier.getOptions(ZeroR)``
    (a result-cache hit after the first call) and ``Math.tabulate`` (not
    cacheable) against ``repro serve``.  Every request parameter is far
    below the 1 KiB by-reference threshold."""

    name = "rpc_small"
    clients = 2
    tail_pct = 75.0
    rss_after_ops = 2000
    sut_args = ["serve", "--port", "0"]
    POOL = 256

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        names = sorted(_TABULATE)
        self.tabulate = []
        for _ in range(self.POOL):
            lo = round(float(rng.uniform(-3.0, 0.0)), 3)
            params = {"expression": names[int(rng.integers(len(names)))],
                      "lo": lo,
                      "hi": round(lo + float(rng.uniform(0.5, 3.0)), 3),
                      "steps": int(rng.integers(5, 10))}
            fn = _TABULATE[params["expression"]]
            xs = np.linspace(params["lo"], params["hi"], params["steps"])
            expected = [[float(x), float(fn(float(x)))] for x in xs]
            self.tabulate.append((params, expected))
        self.options = ClassifierService().getOptions("ZeroR")
        self.phase = int(rng.integers(2))
        self.orders = [[int(i) for i in rng.permutation(self.POOL)]
                       for _ in range(self.clients)]

    def host(self) -> Hosted:
        from repro.services import serve_toolbox
        hosted = serve_toolbox(port=0)
        return Hosted(hosted.server.base_url, hosted.stop)

    def connect(self, base_url: str) -> list[dict]:
        return [{"classifier": ServiceProxy.from_wsdl_url(
                     _wsdl(base_url, "Classifier")),
                 "math": ServiceProxy.from_wsdl_url(_wsdl(base_url, "Math")),
                 "order": self.orders[k], "n": 0, "k": k}
                for k in range(self.clients)]

    def close(self, clients) -> None:
        for client in clients:
            client["classifier"].close()
            client["math"].close()

    def next_op(self, client):
        n = client["n"]
        client["n"] = n + 1
        if (n + client["k"] + self.phase) % 2 == 0:
            proxy = client["classifier"]
            return (lambda: proxy.call("getOptions", classifier="ZeroR"),
                    lambda result: result == self.options)
        params, expected = self.tabulate[
            client["order"][(n // 2) % self.POOL]]
        proxy = client["math"]
        return (lambda: proxy.call("tabulate", **params),
                lambda result: result == expected)


# -- bulk_score ---------------------------------------------------------------

_ATTRS = [Attribute.numeric(f"f{j}") for j in range(8)] + \
    [Attribute.nominal("class", ("neg", "pos"))]


def _frame(rng: np.random.Generator, rows: int, learnable: bool) -> bytes:
    features = rng.normal(size=(rows, 8))
    if learnable:
        score = features[:, 0] + 0.5 * features[:, 1] - 0.3 * features[:, 2]
        labels = (score + rng.normal(0.0, 0.3, rows) > 0).astype(float)
    else:
        labels = rng.integers(0, 2, size=rows).astype(float)
    ds = Dataset("bulk", _ATTRS)
    ds._bulk_extend(np.column_stack([features, labels]))
    ds.set_class("class")
    return codec.encode(ds)


class BulkScore:
    """One client scoring every row of a distinct ~1.3 MB columnar frame
    per call with ``J48.classifyBatch`` through ``repro mesh --transport
    uds`` and one worker.  Each call's frame is drawn fresh from a seeded
    stream, so no call can hit a transfer, mapping or parse cache (the
    shm tier keeps attached mappings without bound, so a cycled pool
    would).  The fixed training frame keeps the service's one-model
    cache warm."""

    name = "bulk_score"
    clients = 1
    tail_pct = 75.0
    rss_after_ops = 30
    sut_args = ["mesh", "--port", "0", "--workers", "1",
                "--services", "J48", "--transport", "uds"]
    ROWS = 20_000
    TRAIN_ROWS = 200
    TRAIN_SEED = 2005

    def __init__(self, seed: int):
        # the training frame is fixed, not seeded: the tree it grows sets
        # the cost of scoring and of the response, which must not vary
        # from seed to seed
        self.train = _frame(np.random.default_rng(self.TRAIN_SEED),
                            self.TRAIN_ROWS, learnable=True)
        train = codec.decode(self.train)
        train.set_class("class")
        self.model = J48()
        self.model.fit(train)
        self.seed = seed
        self.n = 0

    def _next_frame(self) -> tuple[bytes, list]:
        """The next frame of the seeded stream, and the labels a local
        J48 trained on the same training frame gives its rows."""
        frame = _frame(np.random.default_rng([self.seed, self.n]),
                       self.ROWS, learnable=False)
        self.n += 1
        test = codec.decode(frame)
        test.set_class("class")
        dists = self.model.distribution_many(test, list(range(self.ROWS)))
        values = self.model.header.class_attribute.values
        return frame, [values[int(i)] for i in np.argmax(dists, axis=1)]

    def host(self) -> Hosted:
        from repro.ws.mesh import start_mesh
        mesh = start_mesh(workers=1, services=["J48"], transport="uds",
                          port=0)
        pids = [w["pid"] for w in mesh.supervisor.status()["workers"]]
        return Hosted(mesh.base_url, mesh.stop, pids)

    def connect(self, base_url: str) -> list[dict]:
        return [{"j48": ServiceProxy.from_wsdl_url(_wsdl(base_url, "J48"))}]

    def close(self, clients) -> None:
        for client in clients:
            client["j48"].close()

    def next_op(self, client):
        frame, labels = self._next_frame()
        proxy, train = client["j48"], self.train

        def call():
            return proxy.call("classifyBatch", dataset=frame,
                              attribute="class", train=train)

        def check(result) -> bool:
            return result["errors"] == [] and \
                result["scored"] == self.ROWS and result["labels"] == labels
        return call, check

    def replay(self, recorder, seconds: float) -> tuple[int, dict]:
        """Time the worker side, which runs in another interpreter and
        cannot be wrapped: send the workload's next requests, shaped as
        the gateway sends them (frames by shared-memory reference, gzip
        accepted), to the worker's own container builder and
        ``HttpGateway`` in this process.  Returns the replayed operation
        count and the counter deltas of the replayed posts."""
        from repro.ws import payload, soap
        from repro.ws.mesh.worker import build_container
        from repro.ws.pipeline import HttpGateway
        from tracing import counter_delta, counter_totals

        gateway = HttpGateway(build_container(["J48"]))
        peer = payload.PeerState()

        def next_request() -> tuple[bytes, list]:
            frame, labels = self._next_frame()
            request = soap.SoapRequest("J48", "classifyBatch", {
                "dataset": frame, "attribute": "class",
                "train": self.train})
            return soap.encode_request(payload.externalize(
                request, peer, same_host=True)), labels

        def check(reply, labels: list) -> None:
            status, body, _, encoding = reply
            result = soap.decode_response(
                payload.decompress(body, encoding)).result
            if status != 200 or result["labels"] != labels:
                raise RuntimeError("worker replay answered wrongly")

        raw, labels = next_request()  # fits the model, as set-up did
        check(gateway.post("J48", raw, accept_encoding="gzip"), labels)
        totals: dict[str, float] = {}
        ops = 0
        deadline = time.perf_counter() + seconds
        while ops == 0 or time.perf_counter() < deadline:
            raw, labels = next_request()
            before = counter_totals()
            recorder.root_domain = "worker"
            recorder.active = True
            try:
                reply = gateway.post("J48", raw, accept_encoding="gzip")
            finally:
                recorder.active = False
                recorder.root_domain = None
            for name, delta in counter_delta(before,
                                             counter_totals()).items():
                totals[name] = totals.get(name, 0.0) + delta
            check(reply, labels)
            ops += 1
        return ops, totals


# -- case_study ---------------------------------------------------------------

def extract_graph(result):
    """The case study's local analysis step: the tree graph of J48's
    answer."""
    return result["graph"]


class CaseStudy:
    """The paper's section-5 composition enacted by ``WorkflowEngine``
    with WSDL-imported tools against ``repro serve``, one enactment at a
    time: ``Data.readURL`` -> ``J48.classifyGraph`` -> ``ExtractGraph``
    -> ``TreeVisualizer.plotTree``.  Enactments cycle over published
    variants of the breast-cancer dataset, so J48's one-model cache
    always misses."""

    name = "case_study"
    clients = 1
    tail_pct = 90.0
    rss_after_ops = 150
    sut_args = ["serve", "--port", "0"]
    #: below the parse cache's 64 entries, so re-sent documents hit it
    VARIANTS = 48

    def __init__(self, seed: int):
        # the variants are seeded row orders of one dataset: distinct
        # documents whose trees, and so training times, are the same.
        # Trees of different breast_cancer(seed) datasets train in 20 to
        # 60 ms, which would make a run's cost depend on its seed.
        base = synthetic.breast_cancer()
        rng = np.random.default_rng(seed)
        self.variants = []
        for i in range(self.VARIANTS):
            dataset = base.shuffled(rng)
            model = J48()
            model.fit(dataset)
            root = model.root_attribute \
                if model.root and not model.root.is_leaf else None
            self.variants.append((f"bc-{seed}-{i}", arff.dumps(dataset),
                                  root))
        self.order = [int(i) for i in rng.permutation(self.VARIANTS)]
        self.n = 0

    def host(self) -> Hosted:
        from repro.services import serve_toolbox
        hosted = serve_toolbox(port=0)
        return Hosted(hosted.server.base_url, hosted.stop)

    def connect(self, base_url: str) -> list[dict]:
        data = ServiceProxy.from_wsdl_url(_wsdl(base_url, "Data"))
        try:
            urls = [data.call("publishDataset", name=name, dataset=text)
                    for name, text, _ in self.variants]
        finally:
            data.close()
        box = ToolBox()
        tools = {}
        for service in ("Data", "J48", "TreeVisualizer"):
            tools.update({tool.name: tool for tool in
                          import_wsdl_url(_wsdl(base_url, service), box)})
        return [{"tools": tools, "urls": urls,
                 "engine": WorkflowEngine(max_workers=1)}]

    def close(self, clients) -> None:
        for client in clients:
            for tool in client["tools"].values():
                tool.proxy.close()

    def next_op(self, client):
        index = self.order[self.n % self.VARIANTS]
        self.n += 1
        tools = client["tools"]
        graph = TaskGraph("case-study")
        read = graph.add(tools["Data.readURL"], url=client["urls"][index])
        classify = graph.add(tools["J48.classifyGraph"], attribute="Class")
        analyse = graph.add(FunctionTool("ExtractGraph", extract_graph,
                                         ["result"], ["graph"]))
        plot = graph.add(tools["TreeVisualizer.plotTree"], format="svg",
                         title="Figure 4: C4.5 tree")
        graph.connect(read, classify, target_index=0)
        graph.connect(classify, analyse)
        graph.connect(analyse, plot, target_index=0)
        engine, root = client["engine"], self.variants[index][2]

        def check(result) -> bool:
            if result.failed or result.skipped:
                return False
            svg = result.output(plot)
            try:
                element = ET.fromstring(svg)
            except ET.ParseError:
                return False
            return result.output(classify)["root_attribute"] == root and \
                element.tag.endswith("svg")
        return (lambda: engine.run(graph)), check


WORKLOADS = {cls.name: cls for cls in (RpcSmall, BulkScore, CaseStudy)}
