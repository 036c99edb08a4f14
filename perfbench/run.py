"""The repro benchmark: one command, four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads (see ``perfbench/README.md``):
``higgs_train``, ``higgs_train_dp``, ``predict_bulk`` and ``serve_open``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric instead, from a run whose layer calls are traced.
Human-readable lines (environment, checks, the self-time table) come first.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List

import common
from common import BENCH_DIR, CACHE_DIR, PROCESSES, ROOT, child_env, median, tail

WORKLOADS = ("higgs_train", "higgs_train_dp", "predict_bulk", "serve_open")
CHILD_TIMEOUT_S = 100.0
IMPORT_TIMEOUT_S = 60.0
IMPORT_SAMPLES = 3


def spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run ``workloads.py`` in a fresh interpreter and return its JSON result."""
    out = CACHE_DIR / f"result-{os.getpid()}-{time.monotonic_ns()}.json"
    script = str(BENCH_DIR / "workloads.py")
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.Popen(
        [sys.executable, script, workload, *args, "--out", str(out),
         "--launched-at", repr(time.monotonic())],
        cwd=ROOT, env=child_env(), start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        if code != 0:
            raise RuntimeError(f"{workload} child exited with code {code}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)


def ensure_model(seed: int):
    """The served model and request pool for ``seed``, trained once per checkout."""
    from workloads import model_paths

    model_path, pool_path = model_paths(seed)
    if not (model_path.is_file() and pool_path.is_file()):
        run_child("prepare_model", seed, 0, trace=False)
    return model_path, pool_path


def import_seconds() -> float:
    """Median fresh-interpreter ``import repro.cli`` time."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=IMPORT_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


# ------------------------------------------------------------------ checks
def train_checks(workload: str, seed: int, scores: List[Dict[str, float]]):
    """``(attempted, failed, note)``: every fit against the recorded reference.

    Seeds without a recorded reference check that every fit of the run
    reproduces the first one exactly.
    """
    from make_reference import settings

    with open(BENCH_DIR / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["settings"] != json.loads(json.dumps(settings())):
        raise RuntimeError(
            "perfbench/reference.json was recorded with other settings; "
            "re-record it with perfbench/make_reference.py"
        )
    expected = reference[workload].get(str(seed))
    note = "recorded reference"
    if expected is None:
        expected, note = scores[0], "no recorded reference for this seed: fits must agree"
    failed = sum(
        1 for s in scores
        if s["auc"] != expected["auc"] or s["accuracy"] != expected["accuracy"]
    )
    return len(scores), failed, note


def serve_end_to_end(seed: int, seconds: float) -> Dict[str, object]:
    """Untraced serve_open: set-ups, reference latencies, ramp and served quality."""
    import numpy as np
    import loadgen
    from workloads import quality

    model_path, pool_path = ensure_model(seed)
    result = loadgen.run_serve(seed, seconds, False, model_path, pool_path)
    labels, per = np.load(pool_path)["labels"], loadgen.ROWS_PER_REQUEST
    truth = np.concatenate([labels[k * per : (k + 1) * per] for k, _ in result["served"]])
    served = np.asarray([p for _, probabilities in result["served"] for p in probabilities])
    score = quality(served, truth)
    values = {
        "setup_s": median(result["setup_samples"]),
        "op_p50_ms": 1e3 * result["latency_p50_s"],
        "op_tail_ms": 1e3 * result["latency_tail_s"],
        "throughput_per_s": result["max_rate"],
        "auc": score["auc"],
        "accuracy": score["accuracy"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(
        f"serve_open: {result['samples']} reference requests at "
        f"{loadgen.REFERENCE_RATE:g}/s, p90 {1e3 * result['latency_p90_s']:.2f} ms, "
        f"p99 {1e3 * result['latency_p99_s']:.2f} ms, "
        f"tail at q{result['tail_q']:.0f}; ramp (rate/s, passed): {result['steps']}; "
        f"generator median lateness {1e3 * result['generator_late_s']:.3f} ms "
        f"(valid={result['generator_valid']})"
    )
    return {"values": values, "attempted": result["attempted"], "failed": result["failed"]}


def end_to_end(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Untraced run: set-up samples, timed operations and correctness checks."""
    if workload == "serve_open":
        return serve_end_to_end(seed, seconds)
    if workload == "predict_bulk":
        ensure_model(seed)
    results = [
        run_child(workload, seed, seconds / PROCESSES, trace=False) for _ in range(PROCESSES)
    ]
    ops = [t for r in results for t in r["ops_s"]]
    op_p50 = median([median(r["ops_s"]) for r in results])
    op_tail, q = tail(ops)
    units = results[0].get("n_train", results[0].get("n_rows"))
    scores = [s for r in results for s in r["scores"]]
    values = {
        "setup_s": median([r["setup_s"] for r in results]),
        "op_p50_ms": 1e3 * op_p50,
        "op_tail_ms": 1e3 * op_tail,
        "throughput_per_s": units / op_p50,
        "auc": scores[0]["auc"],
        "accuracy": scores[0]["accuracy"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    if workload == "predict_bulk":
        # One more check: every process predicted the same probabilities.
        attempted = sum(r["attempted"] for r in results) + 1
        failed = sum(r["failed"] for r in results) + int(scores.count(scores[0]) != len(scores))
        note = (
            "passes agree bitwise within and across processes; "
            "sampled batches equal Network.predict_proba bitwise"
        )
    else:
        attempted, failed, note = train_checks(workload, seed, scores)
    print(
        f"{workload}: {len(ops)} timed operations in {PROCESSES} processes "
        f"(tail at q{q:.0f}); checks: {note}"
    )
    return {"values": values, "attempted": attempted, "failed": failed}


def per_layer(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Traced run: per-layer metrics plus the tracing overhead."""
    if workload == "serve_open":
        from loadgen import run_serve

        model_path, pool_path = ensure_model(seed)
        result = run_serve(seed, seconds, True, model_path, pool_path)
    else:
        if workload == "predict_bulk":
            ensure_model(seed)
        result = run_child(workload, seed, seconds, trace=True)
        if workload != "predict_bulk":
            attempted, failed, _ = train_checks(workload, seed, result["scores"])
            result["attempted"], result["failed"] = attempted, failed
            print(f"{workload}: per-layer self time along the blocking path of a fit")
            print(result["report"])
    values = dict(result["layers"])
    values["cli.import_s"] = import_seconds()
    return {"values": values, "attempted": result["attempted"], "failed": result["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a repro checkout (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    CACHE_DIR.mkdir(exist_ok=True)
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    print("environment:", json.dumps(common.environment(args.seed)))
    measure = per_layer if args.trace else end_to_end
    outcome = measure(args.workload, args.seed, args.seconds)
    metrics = {}
    for metric in wanted:
        value = outcome["values"].get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            raise RuntimeError(f"{args.workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
        print(f"  {metric['name']:<40} {float(value):>16.6f} {metric['unit']}")
    attempted, failed = int(outcome["attempted"]), int(outcome["failed"])
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
