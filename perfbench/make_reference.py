"""Record the reference test-split AUC and accuracy of the train workloads.

    python3 perfbench/make_reference.py --seeds 0-39

For each seed, one ``higgs_train`` fit and one ``higgs_train_dp`` fit with the
benchmark's settings; the scores go to ``perfbench/reference.json``, which
``run.py`` checks every fit against.  Re-record only when a change is meant
to alter the trained model, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

from common import (  # first: pins the BLAS before NumPy loads
    BENCH_DIR, CACHE_DIR, DP_COMM, MODEL, MODEL_SEED, ROOT, TRAIN_EPOCHS, TRAIN_EVENTS,
)


def settings() -> dict:
    return {
        "model": MODEL, "model_seed": MODEL_SEED, "events": TRAIN_EVENTS,
        "epochs": TRAIN_EPOCHS, "dp_comm": DP_COMM,
    }


def score(seed: int, comm) -> dict:
    from repro.experiments import prepare_higgs_data
    from repro.experiments.higgs_pipeline import build_higgs_network
    from workloads import higgs_config

    config = higgs_config(TRAIN_EVENTS, TRAIN_EPOCHS)
    data = prepare_higgs_data(n_events=config.n_events, n_bins=config.n_bins, seed=seed)
    network = build_higgs_network(config)
    checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=CACHE_DIR) if comm else None
    try:
        network.fit(
            data.x_train, data.y_train, input_spec=data.input_spec,
            schedule=config.schedule(), comm=comm,
            checkpoint_dir=checkpoint_dir, checkpoint_every=1,
        )
    finally:
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    evaluation = network.evaluate(data.x_test, data.y_test)
    return {"auc": float(evaluation["auc"]), "accuracy": float(evaluation["accuracy"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-39", help="inclusive range LO-HI")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(ROOT / "src"))
    CACHE_DIR.mkdir(exist_ok=True)
    from repro.comm import resolve_comm

    reference = {"settings": settings(), "higgs_train": {}, "higgs_train_dp": {}}
    comm = resolve_comm(DP_COMM)
    try:
        for seed in range(lo, hi + 1):
            reference["higgs_train"][str(seed)] = score(seed, None)
            reference["higgs_train_dp"][str(seed)] = score(seed, comm)
            print(seed, reference["higgs_train"][str(seed)], reference["higgs_train_dp"][str(seed)])
    finally:
        comm.close()
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
