"""Child processes of the benchmark: one fresh interpreter per measured run.

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --launched-at T --out RESULT.json

``WORKLOAD`` is ``higgs_train``, ``higgs_train_dp``, ``predict_bulk`` or
``prepare_model`` (trains and saves the model ``predict_bulk`` and
``serve_open`` use, once per seed).  ``--launched-at`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
includes interpreter start and imports.  The result is written as JSON to
``--out``; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (  # first: pins the BLAS before NumPy loads
    CACHE_DIR,
    DP_COMM,
    MODEL,
    MODEL_SEED,
    PREDICT_BATCH,
    SERVE_EVENTS,
    SERVE_MODEL_EPOCHS,
    TRAIN_EPOCHS,
    TRAIN_EVENTS,
    median,
    tree_peak_rss_mb,
    write_json,
)
from repro.core.training import TrainingCallback
from tracer import SpanIndex, Tracer, install_layers, layer_self_times

MIN_TRACED_FITS = 3  # cold untraced, traced, untraced
MIN_PREDICT_PASSES = 20
SLICE_CHECKS = 4


def model_paths(seed: int):
    return CACHE_DIR / f"model-{seed}.npz", CACHE_DIR / f"serve-pool-{seed}.npz"


def higgs_config(n_events: int, epochs: Dict[str, int]):
    """The benchmark's model; ``seed`` is the fixed initialisation seed."""
    from repro.experiments import HiggsExperimentConfig

    return HiggsExperimentConfig(seed=MODEL_SEED, n_events=n_events, **MODEL, **epochs)


def serve_data(seed: int):
    from repro.experiments import prepare_higgs_data

    return prepare_higgs_data(n_events=SERVE_EVENTS, test_fraction=0.5, seed=seed)


def quality(proba, labels) -> Dict[str, float]:
    import numpy as np
    from repro.metrics.roc import roc_auc

    return {
        "auc": float(roc_auc(labels, proba[:, 1])),
        "accuracy": float(np.mean(np.argmax(proba, axis=1) == labels)),
    }


# ------------------------------------------------------------------ tracing
def start_tracer(args):
    """A tracer with the layers wrapped when ``--trace 1``, so set-up is traced too."""
    if not args.trace:
        return None
    tracer = Tracer()
    install_layers(tracer)
    return tracer


class PhaseClock(TrainingCallback):
    """``on_epoch_end`` hook: the times each training phase last ended."""

    def __init__(self) -> None:
        self.ends: Dict[str, float] = {}

    def on_epoch_end(self, context) -> None:
        self.ends[str(context["phase"])] = time.perf_counter()


def train_layer_metrics(tracer, phases: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-fit means of the traced fits' layer metrics, plus set-up spans."""
    index = SpanIndex(tracer.spans)
    ops = index.named("bench.op")
    n = max(1, len(ops))
    inop = index.within([(s[4], s[5]) for s in ops])
    unattributed, self_by_layer = [], []
    for op in ops:
        fit = [s for s in index.subtree(op) if s[1] == "core.fit"]
        layers = layer_self_times(index, op)
        own = index.self_time(op) + sum(index.self_time(s) for s in fit)
        layers["core"] = layers.get("core", 0.0) - sum(index.self_time(s) for s in fit)
        unattributed.append(own)
        self_by_layer.append(layers)
    out = op_metrics(inop, n)
    out.update(setup_metrics(index))
    if phases:
        out["core.hidden_phase_s"] = median([p["hidden"] for p in phases])
        out["core.head_phase_s"] = median([p["head"] for p in phases])
    out["trace.unattributed_s"] = median(unattributed) if unattributed else 0.0
    out["_self_by_layer"] = {
        layer: median([d.get(layer, 0.0) for d in self_by_layer])
        for layer in sorted({k for d in self_by_layer for k in d})
    }
    return out


def op_metrics(index, n_ops: int) -> Dict[str, float]:
    """Per-operation counts, busy times and kernel rates over ``index``."""
    out: Dict[str, float] = {}
    for name in (
        "core.train_batch", "core.refresh_weights", "core.end_epoch", "core.head_train_batch",
        "engine.fused_update", "backend.forward_into", "backend.update_traces",
        "backend.traces_to_weights", "backend.pack_weights", "comm.allreduce",
        "comm.iallreduce", "comm.bcast", "comm.barrier", "comm.wait", "checkpoint.save",
        "checkpoint.flush", "checkpoint.commit", "serving.predict_stream", "serving.run_batch",
    ):
        out[f"{name}.calls"] = index.calls(name) / n_ops
        out[f"{name}.busy_s"] = index.busy(name) / n_ops
    for name in ("comm.allreduce", "comm.iallreduce", "checkpoint.commit"):
        out[f"{name}.bytes"] = index.attr_sum(name, "bytes") / n_ops
    out["core.end_epoch.swaps"] = index.attr_sum("core.end_epoch", "swaps") / n_ops
    out["serving.predict_stream.rows"] = index.attr_sum("serving.predict_stream", "rows") / n_ops
    batches = out["core.train_batch.calls"]
    out["core.refreshes_per_batch"] = (
        out["core.refresh_weights.calls"] / batches if batches else 0.0
    )
    out["core.competition.self_s"] = index.self_of("core.competition") / n_ops
    for name in ("backend.forward_into", "backend.update_traces"):
        flops = index.attr_sum(name, "flops")
        nbytes = index.attr_sum(name, "bytes")
        busy = index.busy(name)
        out[f"{name}.gflops"] = flops / busy / 1e9 if busy else 0.0
        out[f"{name}.flops_per_byte"] = flops / nbytes if nbytes else 0.0
    allocated = index.attr_sum("engine.allocate", "bytes") / n_ops
    out["engine.workspace_bytes"] = allocated
    return out


def setup_metrics(index) -> Dict[str, float]:
    return {
        "datasets.generate_s": index.busy("datasets.generate"),
        "datasets.encode_s": index.busy("datasets.encode"),
        "comm.spawn_s": index.busy("comm.spawn"),
        "serving.load_network_s": index.busy("serving.load_network"),
    }


def self_time_table(train_s: float, metrics: Dict[str, float]) -> str:
    rows = [f"  train_s (traced fit, median)      {train_s:9.4f} s"]
    total = 0.0
    for layer, seconds in metrics["_self_by_layer"].items():
        rows.append(f"  self {layer:<28} {seconds:9.4f} s")
        total += seconds
    rows.append(f"  unattributed (Network.fit glue)   {metrics['trace.unattributed_s']:9.4f} s")
    total += metrics["trace.unattributed_s"]
    rows.append(f"  sum of the above                  {total:9.4f} s")
    return "\n".join(rows)


# ------------------------------------------------------------------ training
def run_train(args, distributed: bool) -> Dict[str, object]:
    tracer = start_tracer(args)
    from repro.comm import resolve_comm
    from repro.experiments import prepare_higgs_data
    from repro.experiments.higgs_pipeline import build_higgs_network

    config = higgs_config(TRAIN_EVENTS, TRAIN_EPOCHS)
    data = prepare_higgs_data(n_events=config.n_events, n_bins=config.n_bins, seed=args.seed)
    comm = resolve_comm(DP_COMM) if distributed else None
    setup_s = time.monotonic() - args.launched_at
    result: Dict[str, object] = {"setup_s": setup_s, "n_train": data.n_train}
    try:
        if tracer is not None:
            tracer.uninstall()
        fits: List[float] = []
        untraced: List[float] = []
        traced: List[float] = []
        scores: List[Dict[str, float]] = []
        phases: List[Dict[str, float]] = []
        start = time.perf_counter()
        while True:
            # Traced runs alternate: cold untraced fit, traced, untraced, ...
            tracing = tracer is not None and len(fits) % 2 == 1
            if tracing:
                install_layers(tracer)
            clock = PhaseClock()
            checkpoint_dir = (
                tempfile.mkdtemp(prefix="ckpt-", dir=CACHE_DIR) if distributed else None
            )
            network = build_higgs_network(config)
            try:
                with tracer.span("bench.op") if tracing else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    network.fit(
                        data.x_train, data.y_train, input_spec=data.input_spec,
                        schedule=config.schedule(), comm=comm,
                        callbacks=[clock] if tracing else None,
                        checkpoint_dir=checkpoint_dir, checkpoint_every=1,
                    )
                    elapsed = time.perf_counter() - t0
            finally:
                if tracing:
                    tracer.uninstall()
                if checkpoint_dir is not None:
                    shutil.rmtree(checkpoint_dir, ignore_errors=True)
            fits.append(elapsed)
            (traced if tracing else untraced).append(elapsed)
            if tracing:
                phases.append({
                    "hidden": clock.ends["hidden"] - t0,
                    "head": clock.ends["classifier"] - clock.ends["hidden"],
                })
            evaluation = network.evaluate(data.x_test, data.y_test)
            scores.append({"auc": float(evaluation["auc"]), "accuracy": float(evaluation["accuracy"])})
            elapsed_total = time.perf_counter() - start
            enough = len(fits) >= (MIN_TRACED_FITS if tracer is not None else 1)
            if enough and elapsed_total + median(fits) > args.seconds:
                break
        result.update(ops_s=fits, scores=scores, peak_rss_mb=tree_peak_rss_mb())
        if tracer is not None:
            metrics = train_layer_metrics(tracer, phases)
            baseline = median(untraced[1:] or untraced)
            metrics["trace.overhead_pct"] = 100.0 * (median(traced) - baseline) / baseline
            result["report"] = self_time_table(median(traced), metrics)
            metrics.pop("_self_by_layer")
            metrics["trace.spans"] = len(tracer.spans)
            result["layers"] = metrics
            tracer.dump(str(CACHE_DIR / f"trace-{args.workload}.json"))
        return result
    finally:
        if comm is not None:
            comm.close()


# ------------------------------------------------------------- bulk predict
def run_predict(args) -> Dict[str, object]:
    tracer = start_tracer(args)
    import numpy as np
    from repro.core import load_network
    from repro.serving import StreamingPredictor

    model_path, _ = model_paths(args.seed)
    network = load_network(model_path)
    data = serve_data(args.seed)
    x, labels = data.x_test, data.y_test
    predictor = StreamingPredictor(network, batch_size=PREDICT_BATCH)
    setup_s = time.monotonic() - args.launched_at
    result: Dict[str, object] = {"setup_s": setup_s, "n_rows": int(x.shape[0])}
    if tracer is not None:
        tracer.uninstall()
    passes: List[float] = []
    untraced: List[float] = []
    traced: List[float] = []
    first: Optional[np.ndarray] = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced passes.
        tracing = tracer is not None and len(passes) % 2 == 1
        if tracing:
            install_layers(tracer)
        with tracer.span("bench.op") if tracing else contextlib.nullcontext():
            t0 = time.perf_counter()
            proba = predictor.predict_proba_stream(x)
            elapsed = time.perf_counter() - t0
        if tracing:
            tracer.uninstall()
        passes.append(elapsed)
        (traced if tracing else untraced).append(elapsed)
        attempted += 1
        if first is None:
            first = proba.copy()
        elif not np.array_equal(proba, first):
            failed += 1
        if len(passes) >= MIN_PREDICT_PASSES and time.perf_counter() - start > args.seconds:
            break
    # Sampled whole-batch slices must equal Network.predict_proba bitwise.
    rng = np.random.default_rng(args.seed)
    n_batches = x.shape[0] // PREDICT_BATCH
    for b in rng.choice(n_batches, size=min(SLICE_CHECKS, n_batches), replace=False):
        rows = slice(int(b) * PREDICT_BATCH, (int(b) + 1) * PREDICT_BATCH)
        attempted += 1
        if not np.array_equal(network.predict_proba(x[rows]), first[rows]):
            failed += 1
    result.update(
        ops_s=passes,
        scores=[quality(first, labels)],
        attempted=attempted,
        failed=failed,
        peak_rss_mb=tree_peak_rss_mb(),
    )
    if tracer is not None:
        index = SpanIndex(tracer.spans)
        ops = index.named("bench.op")
        metrics = op_metrics(index.within([(s[4], s[5]) for s in ops]), max(1, len(ops)))
        metrics.update(setup_metrics(index))
        metrics["engine.workspace_bytes"] = float(predictor.workspace_nbytes())
        baseline = median(untraced)
        metrics["trace.overhead_pct"] = 100.0 * (median(traced) - baseline) / baseline
        metrics["trace.spans"] = len(tracer.spans)
        result["layers"] = metrics
        tracer.dump(str(CACHE_DIR / f"trace-{args.workload}.json"))
    return result


# ------------------------------------------------------------ model for serving
def prepare_model(args) -> Dict[str, object]:
    """Train, save and pool once per seed: the served model and its request rows."""
    import numpy as np
    from repro.core import save_network
    from repro.experiments.higgs_pipeline import build_higgs_network

    from loadgen import POOL_REQUESTS, ROWS_PER_REQUEST

    model_path, pool_path = model_paths(args.seed)
    config = higgs_config(SERVE_EVENTS, SERVE_MODEL_EPOCHS)
    data = serve_data(args.seed)
    network = build_higgs_network(config)
    network.fit(data.x_train, data.y_train, input_spec=data.input_spec, schedule=config.schedule())
    n_rows = POOL_REQUESTS * ROWS_PER_REQUEST
    pick = np.random.default_rng(args.seed).choice(data.n_test, size=n_rows, replace=False)
    rows = data.x_test[pick]
    tmp = CACHE_DIR / f"pool-{args.seed}.tmp.npz"
    np.savez(tmp, rows=rows.astype(np.uint8), proba=network.predict_proba(rows),
             labels=data.y_test[pick])
    tmp.replace(pool_path)
    save_network(network, model_path)
    return {"model": str(model_path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launched-at", type=float, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.launched_at is None:
        args.launched_at = time.monotonic()
    runners = {
        "higgs_train": lambda: run_train(args, distributed=False),
        "higgs_train_dp": lambda: run_train(args, distributed=True),
        "predict_bulk": lambda: run_predict(args),
        "prepare_model": lambda: prepare_model(args),
    }
    write_json(args.out, runners[args.workload]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
