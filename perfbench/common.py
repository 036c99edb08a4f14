"""Shared settings and helpers of the repro benchmark (no repro imports here).

Every benchmark process pins the BLAS to one thread before NumPy loads, and
passes the pins on to every process it starts.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
for _name, _value in BLAS_PINS.items():
    os.environ[_name] = _value

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
CACHE_DIR = ROOT / ".perfbench_cache"

# The paper-shaped Higgs network: 28 features x 10 quantile bins = 280 one-hot
# inputs, 1 HCU x 300 MCUs, SGD head, NumPy backend, exact weight refresh.
MODEL = dict(
    n_hypercolumns=1,
    n_minicolumns=300,
    density=0.4,
    head="sgd",
    n_bins=10,
    batch_size=128,
    backend="numpy",
    weight_refresh_tol=0.0,
)
# The seed of a run draws the events; the network's initialisation seed is
# fixed configuration, as a user's `--seed` would be.  (Quality depends far
# more on it than on the event draw: see README.md.)
MODEL_SEED = 0
TRAIN_EVENTS = 50_000
TRAIN_EPOCHS = dict(hidden_epochs=4, classifier_epochs=8)
# predict_bulk / serve_open: one seeded draw split in half; the model trains
# on the first half once per seed (cached), the held-out half is the input.
SERVE_EVENTS = 60_000
SERVE_MODEL_EPOCHS = dict(hidden_epochs=2, classifier_epochs=4)
PREDICT_BATCH = 1024  # the `repro predict --batch-size` default
DP_COMM = "process:2"
# Fresh processes per run of a child workload: set-up time and speed differ
# from process to process (huge-page placement, for one), so a run reports
# medians over several.  The serve server is cheap to start, so it is
# started more often.
PROCESSES = 3
SERVE_SETUPS = 5


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: BLAS pins and ``src`` on the path."""
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(BENCH_DIR), env.get("PYTHONPATH", "")) if p
    )
    return env


def environment(seed: int) -> Dict[str, object]:
    """What a result depends on besides the code: pins, cores, versions, seed."""
    import numpy

    return {
        "seed": int(seed),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
    }


# ------------------------------------------------------------------- memory
def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> List[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def tree_peak_rss_mb(pid: Optional[int] = None) -> float:
    """Sum of the peak resident sets of ``pid`` and its live descendants, MB."""
    todo, total_kb = [pid or os.getpid()], 0
    while todo:
        current = todo.pop()
        total_kb += _vm_hwm_kb(current)
        todo.extend(_children(current))
    return total_kb / 1024.0


# -------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: Sequence[float]) -> tuple:
    """``(value, q)``: the highest percentile up to p75 with ten samples beyond it.

    With fewer than 20 samples no percentile above the median qualifies, so
    the median is returned (``q = 50``).  The cap at p75 keeps the figure
    steady on a small shared machine: there requests slowed by other
    tenants' load make up 5-25% of a run, so p90 and p99 jump between the
    fast and the slow mode from run to run.
    """
    q = min(75.0, max(50.0, 100.0 * (1.0 - 10.0 / len(values))))
    return percentile(values, q), q


def write_json(path: Path, payload: Dict[str, object]) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)
