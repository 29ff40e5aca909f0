"""Regenerate the golden run documents that ``tests/test_golden.py`` checks.

    PYTHONPATH=src python tests/golden/regenerate.py [MODEL ...]

Each ``<model>.json`` here is the float64 ``run_experiment`` document of one
model on a tiny fixed synthetic dataset, with ``config.manifest`` (a path)
left out and the wall clock nulled. The script rewrites only the models named
on its command line, or all six when none is named: the last digits of the
``logreg`` and ``logreg_bin`` documents depend on the BLAS thread count, so a
change that moves only the deep models names them and leaves those two files
alone. A change that alters the numerics on purpose reruns this script,
commits the new files and records in CHANGES.md what moved, old -> new, as a
test-data change. Any other change must leave the test passing against the
files as they are.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))  # runs from a checkout without installing

from stgnn import autodiff as ad  # noqa: E402
from stgnn.evaluation import ExperimentConfig, HyperGrid, run_experiment  # noqa: E402
from stgnn.synth import SynthConfig, generate_dataset  # noqa: E402

MODELS = ("mean_CNN", "mean_CNN_GCN5", "mean_TCN", "diff5_TCN", "logreg", "logreg_bin")
DATA = SynthConfig(n_subjects=12, n_nodes=12, session_length=64, n_sessions=4, seed=19)
# two learning rates, so each fold's selection has a choice to make
GRID = HyperGrid(dropouts=(0.0,), learning_rates=(1e-2, 1e-3), weight_decays=(0.0,),
                 epochs=3, batch_size=8)


def golden_path(model: str) -> Path:
    return HERE / f"{model}.json"


def golden_run(model: str, manifest: Path) -> dict:
    """The document stored for ``model``: an f64 run, as JSON reads it back."""
    with ad.default_dtype("f64"):
        doc = run_experiment(ExperimentConfig(manifest=str(manifest), model=model,
                                              k_folds=3, seed=7, grid=GRID))
    del doc["config"]["manifest"]
    doc["wall_clock_seconds"] = None
    return json.loads(json.dumps(doc))


def golden_runs(workdir: Path, models=MODELS) -> dict[str, dict]:
    manifest = generate_dataset(DATA, Path(workdir))
    return {model: golden_run(model, manifest) for model in models}


def main(argv: list[str]) -> int:
    unknown = sorted(set(argv) - set(MODELS))
    if unknown:
        print(f"unknown models {unknown}; expected some of {list(MODELS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        for model, doc in golden_runs(Path(workdir), argv or MODELS).items():
            golden_path(model).write_text(json.dumps(doc, indent=1) + "\n")
            print(golden_path(model))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
