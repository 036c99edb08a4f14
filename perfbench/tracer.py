"""In-memory span tracer that wraps the public functions of each repro layer.

The tracer patches functions and methods from the outside: nothing under
``src/`` changes.  Every wrapped call records one span ``(id, name, parent,
thread, start, end, attrs)``; the parent is the innermost traced call still
open on the same thread, so spans nest the way the calls do.  Spans stay in
memory and are written out as JSON when the traced program ends.

``install_layers`` wraps the layers the benchmark reports on: datasets, core,
engine, backend (NumPy), comm (process transport, rank 0 only: workers
are fresh interpreters the patches never reach), checkpoint and serving.
Kernel FLOPs come from :class:`repro.instrumentation.BCPNNCostModel` and the
bytes from the same per-term accounting the cost model documents; both are
*computed*, not measured.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

DTYPE_BYTES = 8


class Tracer:
    """Records spans of wrapped calls; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [
            next(self._ids),
            name,
            stack[-1][0] if stack else -1,
            threading.get_ident(),
            time.perf_counter(),
            None,
            None,
        ]
        self.spans.append(record)
        stack.append(record)
        return record

    def _close(self, record: list, attrs: Optional[dict]) -> None:
        record[5] = time.perf_counter()
        record[6] = attrs
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record, attrs or None)

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``measure(result, *args, **kw)`` adds attrs."""

        def traced(*args, **kwargs):
            record = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = None
                if measure is not None:
                    try:
                        attrs = measure(result, *args, **kwargs)
                    except Exception:  # noqa: BLE001 - never break the traced call
                        attrs = None
                self._close(record, attrs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------- patching
    def patch_method(self, cls: type, attr: str, name: str, measure=None) -> None:
        """Wrap ``cls.attr`` (resolved through the MRO) on ``cls`` itself."""
        own = attr in cls.__dict__
        original = cls.__dict__[attr] if own else getattr(cls, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr}: only plain methods are traced")
        setattr(cls, attr, self.wrap(name, original, measure))
        self._patches.append((cls, attr, original, own))

    def patch_function(self, fn: Callable, name: str, measure=None) -> None:
        """Wrap a module-level function under every module name bound to it."""
        wrapped = self.wrap(name, fn, measure)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    self._patches.append((module, key, fn, True))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------ i/o
    def dump(self, path: str) -> None:
        closed = [s for s in self.spans if s[5] is not None]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": closed}, handle)


def load_spans(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


# ---------------------------------------------------------------- kernel cost
_COST_CACHE: Dict[tuple, Tuple[float, float]] = {}


def kernel_cost(kind: str, n_rows: int, n_in: int, n_hid: int, density: Optional[float]):
    """Computed ``(flops, bytes)`` of one backend kernel call.

    FLOPs are the :class:`BCPNNCostModel` terms of the kernel: support GEMM
    plus softmax for ``forward`` (GEMM scaled by the density on a sparse
    dispatch), statistics GEMM plus trace EMA for ``update_traces``.  Bytes
    split the cost model's ``bytes_touched`` terms between the two kernels:
    the forward reads the inputs and weights and writes the activations; the
    trace update reads the activity and reads and writes ``p_ij``, ``p_i``
    and ``p_j``.
    """
    key = (kind, n_rows, n_in, n_hid, density)
    cost = _COST_CACHE.get(key)
    if cost is None:
        from repro.instrumentation import BCPNNCostModel

        sparse = density is not None
        model = BCPNNCostModel(
            n_in, 1, n_hid, n_rows, density=density if sparse else 1.0, sparse_gemm=sparse
        )
        batch = model.batch_cost()
        n_weights = n_in * n_hid * (density if sparse else 1.0)
        if kind == "forward":
            flops = batch.support_gemm_flops + batch.softmax_flops
            nbytes = n_rows * n_in + n_rows * n_hid + n_weights
        else:
            flops = batch.statistics_gemm_flops + batch.trace_update_flops
            nbytes = n_rows * n_hid + 2 * n_in * n_hid + 2 * (n_in + n_hid)
        cost = _COST_CACHE[key] = (float(flops), float(DTYPE_BYTES * nbytes))
    return cost


def _shape(x) -> Tuple[int, int]:
    shape = getattr(x, "shape", None)
    return (int(shape[0]), int(shape[1])) if shape is not None and len(shape) == 2 else (0, 0)


def _measure_forward(result, self, x, weights, bias, mask_expanded, hidden_sizes, *args, **kwargs):
    sparse = kwargs.get("sparse", args[3] if len(args) > 3 else None)
    n_rows, n_in = _shape(x)
    density = float(sparse.layout.density) if sparse is not None else None
    flops, nbytes = kernel_cost("forward", n_rows, n_in, int(sum(hidden_sizes)), density)
    return {"flops": flops, "bytes": nbytes, "rows": n_rows}


def _measure_update(result, self, x, a, *args, **kwargs):
    n_rows, n_in = _shape(x)
    flops, nbytes = kernel_cost("update", n_rows, n_in, _shape(a)[1], None)
    return {"flops": flops, "bytes": nbytes}


def _nbytes(value) -> int:
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


def _measure_payload(result, self, value, *args, **kwargs):
    return {"bytes": _nbytes(value)}


def _measure_commit(result, self, name, data, *args, **kwargs):
    return {"bytes": len(data)}


def _measure_swaps(result, *args, **kwargs):
    return {"swaps": int(result or 0)}


def _measure_rows(result, self, source, *args, **kwargs):
    return {"rows": _shape(source)[0]}


def _measure_batch(result, self, matrix, *args, **kwargs):
    return {"rows": _shape(matrix)[0]}


def _measure_allocate(result, *args, **kwargs):
    return {"bytes": int(result.nbytes())}


def _measure_queue_wait(result, self, *args, **kwargs):
    now = time.monotonic()
    return {"waits": [now - item.enqueued_at for item in result or ()]}


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports on."""
    from repro.backend.base import Backend
    from repro.backend.numpy_backend import NumpyBackend
    from repro.checkpoint.manager import CheckpointManager
    from repro.checkpoint.training import TrainingCheckpointer
    from repro.comm.base import CompletedRequest
    from repro.comm.process import ProcessComm, _ProcessRequest
    from repro.core import SGDClassifier, StructuralPlasticityLayer
    from repro.core.execution import BackendExecutionMixin
    from repro.core.network import Network
    from repro.core.serialization import load_network
    from repro.core.traces import ProbabilityTraces
    from repro.datasets import QuantileOneHotEncoder
    from repro.datasets.higgs import make_higgs_splits
    from repro.engine.plan import ExecutionPlan, LayerEngine
    from repro.serving.batcher import MicroBatcher
    from repro.serving.predictor import StreamingPredictor
    from repro.serving.server import ModelRunner

    tracer.patch_function(make_higgs_splits, "datasets.generate")
    tracer.patch_method(QuantileOneHotEncoder, "fit", "datasets.encode")
    tracer.patch_method(QuantileOneHotEncoder, "transform", "datasets.encode")

    tracer.patch_method(Network, "fit", "core.fit")
    tracer.patch_method(StructuralPlasticityLayer, "train_batch", "core.train_batch")
    tracer.patch_method(StructuralPlasticityLayer, "_training_activity", "core.competition")
    tracer.patch_method(ProbabilityTraces, "apply_statistics", "core.apply_statistics")
    tracer.patch_method(BackendExecutionMixin, "refresh_weights", "core.refresh_weights")
    tracer.patch_method(StructuralPlasticityLayer, "end_epoch", "core.end_epoch", _measure_swaps)
    tracer.patch_method(SGDClassifier, "train_batch", "core.head_train_batch")

    tracer.patch_method(ExecutionPlan, "allocate", "engine.allocate", _measure_allocate)
    tracer.patch_method(LayerEngine, "fused_update", "engine.fused_update")
    tracer.patch_method(LayerEngine, "forward", "engine.forward")
    tracer.patch_method(LayerEngine, "update_traces", "engine.update_traces")

    tracer.patch_method(NumpyBackend, "forward", "backend.forward")
    tracer.patch_method(NumpyBackend, "forward_into", "backend.forward_into", _measure_forward)
    tracer.patch_method(NumpyBackend, "update_traces", "backend.update_traces", _measure_update)
    tracer.patch_method(NumpyBackend, "traces_to_weights", "backend.traces_to_weights")
    tracer.patch_method(Backend, "pack_weights", "backend.pack_weights")

    tracer.patch_method(ProcessComm, "__init__", "comm.spawn")
    tracer.patch_method(ProcessComm, "allreduce", "comm.allreduce", _measure_payload)
    tracer.patch_method(ProcessComm, "iallreduce", "comm.iallreduce", _measure_payload)
    tracer.patch_method(ProcessComm, "bcast", "comm.bcast")
    tracer.patch_method(ProcessComm, "barrier", "comm.barrier")
    tracer.patch_method(_ProcessRequest, "wait", "comm.wait")
    tracer.patch_method(CompletedRequest, "wait", "comm.wait")

    tracer.patch_method(TrainingCheckpointer, "save", "checkpoint.save")
    tracer.patch_method(TrainingCheckpointer, "flush", "checkpoint.flush")
    tracer.patch_method(CheckpointManager, "commit", "checkpoint.commit", _measure_commit)

    tracer.patch_function(load_network, "serving.load_network")
    tracer.patch_method(StreamingPredictor, "predict_stream", "serving.predict_stream", _measure_rows)
    tracer.patch_method(
        StreamingPredictor, "predict_proba_stream", "serving.predict_stream", _measure_rows
    )
    tracer.patch_method(ModelRunner, "run_batch", "serving.run_batch", _measure_batch)
    tracer.patch_method(MicroBatcher, "_collect", "serving.batcher.collect", _measure_queue_wait)


# ------------------------------------------------------------------ analysis
class SpanIndex:
    """Durations, self times and per-op attribution over a list of spans."""

    def __init__(self, spans: Iterable[list]) -> None:
        self.spans = [s for s in spans if s[5] is not None]
        self.by_id = {s[0]: s for s in self.spans}
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[2] in self.by_id:
                covered[s[2]] += s[5] - s[4]
        self.child_time = covered

    @staticmethod
    def duration(span: list) -> float:
        return span[5] - span[4]

    def self_time(self, span: list) -> float:
        return self.duration(span) - self.child_time.get(span[0], 0.0)

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[1] == name]

    def within(self, windows: List[Tuple[float, float]]) -> "SpanIndex":
        """Spans that start inside any of the ``(start, end)`` windows."""
        keep = [s for s in self.spans if any(lo <= s[4] <= hi for lo, hi in windows)]
        return SpanIndex(keep)

    def subtree(self, root: list) -> List[list]:
        children: Dict[int, List[list]] = defaultdict(list)
        for s in self.spans:
            children[s[2]].append(s)
        out, todo = [], [root]
        while todo:
            node = todo.pop()
            out.append(node)
            todo.extend(children.get(node[0], ()))
        return out

    # ------------------------------------------------------------ summaries
    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        return sum(self.duration(s) for s in self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum((s[6] or {}).get(key, 0) for s in self.named(name)))

    def self_of(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))


def layer_self_times(index: SpanIndex, root: list) -> Dict[str, float]:
    """Self time per layer prefix over ``root``'s subtree (root excluded)."""
    totals: Dict[str, float] = defaultdict(float)
    for span in index.subtree(root):
        if span is root:
            continue
        totals[span[1].split(".", 1)[0]] += index.self_time(span)
    return dict(totals)
