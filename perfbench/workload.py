"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this file with the BLAS thread count fixed in the
environment and kills it at its deadline. It sets up the workload's
inputs, then repeats the workload's operation until ``--seconds`` have
passed, and appends one JSON line per event to ``--events`` as it goes, so
that a killed run still leaves what it measured.

The program sees only generated inputs: ``synth`` output and its manifest,
written under ``--workdir``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import stgnn  # noqa: E402
from stgnn import cli, evaluation, models, nn, prep, synth  # noqa: E402,F401

import tracing  # noqa: E402

clock = time.perf_counter

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

# The three `run` workloads call the CLI exactly as a user would. Epoch
# counts keep one call to a few seconds: at 1-5 epochs the best-validation
# epoch of the deep models is often the first, so their mean fold AUC is
# near chance on some seeds (0.40-0.99 over seeds 1-5) and their floor only
# rejects a systematically inverted ranking; logreg learns the synthetic
# signal at any seed (0.98-0.99 over seeds 1-3).
WORKLOADS = {
    "cv_gcn_small": {
        "kind": "run", "model": "mean_CNN_GCN5", "splits": 4, "folds": 5, "epochs": 3,
        "data": {"n_subjects": 40, "n_nodes": 20, "n_sessions": 4, "session_length": 160,
                 "fmt": "bin"},
        "auc_floor": 0.25,
    },
    "cv_diffpool_tcn": {
        "kind": "run", "model": "diff5_TCN", "splits": 4, "folds": 5, "epochs": 1,
        "data": {"n_subjects": 40, "n_nodes": 20, "n_sessions": 4, "session_length": 160,
                 "fmt": "bin"},
        "auc_floor": 0.25,
    },
    "prep_csv_64split": {
        "kind": "run", "model": "logreg", "splits": 64, "folds": 5, "epochs": None,
        "data": {"n_subjects": 16, "n_nodes": 50, "n_sessions": 4, "session_length": 1200,
                 "fmt": "csv"},
        "auc_floor": 0.9,
    },
    # Paper geometry. The first 16 subjects (64 samples) are the training
    # pool, the last 8 (32 samples) the held-out set; labels alternate, so
    # both sides are balanced. An operation is one round of training steps
    # followed by one scoring pass over the held-out set. A few steps do not
    # train the model, so the held-out AUC has no floor here.
    "train_paper_cnn": {
        "kind": "train", "model": "mean_CNN", "batch": 32, "steps_per_round": 3,
        "heldout_subjects": 8, "lr": 1e-4,
        "data": {"n_subjects": 24, "n_nodes": 50, "n_sessions": 4, "session_length": 1200,
                 "fmt": "bin"},
    },
}

# Sizes for the harness self-test: every code path in seconds.
TINY_DATA = {"n_subjects": 8, "n_nodes": 6, "n_sessions": 2, "session_length": 64}
TINY = {
    "cv_gcn_small": {"folds": 2, "epochs": 1, "auc_floor": 0.0},
    "cv_diffpool_tcn": {"folds": 2, "epochs": 1, "auc_floor": 0.0},
    "prep_csv_64split": {"folds": 2, "auc_floor": 0.0},
    "train_paper_cnn": {"batch": 4, "steps_per_round": 2, "heldout_subjects": 2},
}


def workload_spec(name: str, tiny: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[name])
        spec["data"] = dict(spec["data"], **TINY_DATA)
    return spec


class Events:
    """Append-only JSON lines, flushed per line."""

    def __init__(self, path: Path):
        self._fh = open(path, "a", encoding="utf-8")

    def write(self, **record) -> None:
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


# output checks ------------------------------------------------------------------


def finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def check_roc(points) -> str | None:
    """A ROC sweeps thresholds downward: fpr and tpr never fall, and it ends at (1, 1)."""
    thresholds = [p[0] for p in points]
    fpr = [p[1] for p in points]
    tpr = [p[2] for p in points]
    if not (finite(thresholds) and finite(fpr) and finite(tpr)):
        return "non-finite ROC point"
    if any(b > a for a, b in zip(thresholds, thresholds[1:])):
        return "ROC thresholds not descending"
    if any(b < a for a, b in zip(fpr, fpr[1:])) or any(b < a for a, b in zip(tpr, tpr[1:])):
        return "ROC not monotone"
    if (fpr[-1], tpr[-1]) != (1.0, 1.0):
        return f"ROC ends at ({fpr[-1]}, {tpr[-1]}), not (1, 1)"
    return None


def check_run_outputs(out_dir: Path, auc_floor: float) -> tuple[str | None, float, str]:
    """Validate one `stgnn run` output directory; returns (error, auc, digest)."""
    raw = (out_dir / "results.json").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    doc = json.loads(raw)
    auc = float(doc["aggregate"]["auc"]["mean"])
    for fold in doc["folds"]:
        if not finite([fold["auc"], fold["sensitivity"], fold["specificity"],
                       fold["best_val_loss"]]):
            return f"fold {fold['fold']}: non-finite metric", auc, digest
        if not (finite(fold["train_curve"]) and finite(fold["val_curve"])):
            return f"fold {fold['fold']}: non-finite loss", auc, digest
        with open(out_dir / f"roc_fold{fold['fold']}.csv", newline="") as fh:
            rows = [(float(r["threshold"]), float(r["fpr"]), float(r["tpr"]))
                    for r in csv.DictReader(fh)]
        problem = check_roc(rows)
        if problem:
            return f"fold {fold['fold']}: {problem}", auc, digest
    if not math.isfinite(auc) or auc < auc_floor:
        return f"mean AUC {auc:.4f} below the floor {auc_floor}", auc, digest
    return None, auc, digest


# workloads ------------------------------------------------------------------------


def synth_config(spec: dict, seed: int) -> synth.SynthConfig:
    data = spec["data"]
    return synth.SynthConfig(n_subjects=data["n_subjects"], n_nodes=data["n_nodes"],
                             session_length=data["session_length"],
                             n_sessions=data["n_sessions"], effect_size=1.0, seed=seed)


class RunWorkload:
    """One `stgnn run` call per operation, on a dataset written in set-up."""

    def __init__(self, spec: dict, seed: int, workdir: Path):
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.first_digest: str | None = None

    def setup(self) -> None:
        self.manifest = synth.generate_dataset(synth_config(self.spec, self.seed),
                                               self.workdir / "data",
                                               fmt=self.spec["data"]["fmt"])

    def operation(self, index: int) -> dict:
        spec = self.spec
        out_dir = self.workdir / f"out{index}"
        argv = ["run", "--data", str(self.manifest), "--model", spec["model"],
                "--splits", str(spec["splits"]), "--folds", str(spec["folds"]),
                "--grid-fast", "--no-timestamp", "--seed", str(self.seed),
                "--jobs", "1", "--out", str(out_dir)]
        if spec["epochs"] is not None:
            argv += ["--epochs", str(spec["epochs"])]
        start = clock()
        code = cli.main(argv)
        wall = clock() - start
        if code != 0:
            return {"wall_s": wall, "error": f"stgnn run exited with {code}"}
        error, auc, digest = check_run_outputs(out_dir, spec["auc_floor"])
        shutil.rmtree(out_dir)
        # same inputs and seed, so under --no-timestamp the same bytes
        self.first_digest = self.first_digest or digest
        if error is None and digest != self.first_digest:
            error = "results.json differs from the run's first operation"
        return {"wall_s": wall, "error": error, "auc": auc, "digest": digest}


class TrainWorkload:
    """Training steps and held-out scoring at the paper geometry.

    Each step makes the public calls ``evaluation.train_classifier`` makes
    per batch, in its order: model call, ``bce_loss``, ``zero_grad``,
    ``Tensor.backward``, ``Adam.step``.
    """

    def __init__(self, spec: dict, seed: int, workdir: Path):
        self.spec, self.seed, self.workdir = spec, seed, workdir

    def setup(self) -> None:
        manifest = synth.generate_dataset(synth_config(self.spec, self.seed),
                                          self.workdir / "data")
        records = prep.load_manifest(manifest)
        samples = prep.prepare_graph_samples(records, windows_per_scan=1,
                                             threshold_percent=5, balance_seed=self.seed)
        features, _, labels, subjects = prep.stack_samples(samples)
        heldout = {r.subject_id for r in records[-self.spec["heldout_subjects"]:]}
        test = np.array([s in heldout for s in subjects])
        self.train_x, self.train_y = features[~test], labels[~test]
        self.test_x, self.test_y = features[test], labels[test]

    def prepare(self) -> None:
        """Untimed: build the model and optimizer once, after set-up."""
        n_nodes, length = self.train_x.shape[1:]
        spec = models.ModelSpec.from_name(self.spec["model"], seed=self.seed)
        self.model = models.build_model(spec, n_nodes, length)
        self.optimizer = nn.Adam(self.model.parameters(), lr=self.spec["lr"])
        self.rng = np.random.default_rng(self.seed)
        self.order: list[int] = []

    def _batch(self) -> np.ndarray:
        batch = self.spec["batch"]
        if len(self.order) < batch:  # epochs of shuffled batches, as in training
            self.order = list(self.rng.permutation(len(self.train_y)))
        idx, self.order = self.order[:batch], self.order[batch:]
        return np.array(idx)

    def operation(self, index: int) -> dict:
        losses = []
        start = clock()
        for _ in range(self.spec["steps_per_round"]):
            idx = self._batch()
            probs, _ = self.model(self.train_x[idx], None, train=True)
            loss = models.bce_loss(probs, self.train_y[idx])
            losses.append(loss.item())
            self.model.zero_grad()
            loss.backward()
            self.optimizer.step()
        scores = evaluation.predict_scores(self.model, self.test_x, None)
        report = evaluation.compute_metrics(scores, self.test_y)
        wall = clock() - start
        digest = hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()
        result = {"wall_s": wall, "error": None, "auc": report.auc, "digest": digest,
                  "losses": losses}
        if not finite(losses):
            result["error"] = "non-finite training loss"
        elif not (finite(scores) and np.all((scores >= 0) & (scores <= 1))):
            result["error"] = "held-out scores not finite probabilities"
        else:
            result["error"] = check_roc(report.roc)
        return result


# entry point ---------------------------------------------------------------------------


def main() -> int:
    if sys.argv[1:] == ["--import-only"]:  # start-up probe: report when imports finished
        print(repr(time.time()))
        return 0
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started this process")
    args = parser.parse_args()

    events = Events(args.workdir / "events.jsonl")
    import_s = time.time() - args.spawned_at
    spec = workload_spec(args.workload, args.tiny)
    workload = (TrainWorkload if spec["kind"] == "train" else RunWorkload)(
        spec, args.seed, args.workdir)

    instrument = tracing.Tracer() if args.trace else tracing.Probe()
    instrument.install(stgnn)
    repeats = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(args.workdir / "data", ignore_errors=True)
        start = clock()
        workload.setup()
        repeats.append(clock() - start)
    events.write(event="setup", import_s=import_s, repeats_s=repeats)
    if isinstance(workload, TrainWorkload):
        workload.prepare()

    body_start = clock()
    index = 0
    with open(args.workdir / "program.log", "a") as log, contextlib.redirect_stdout(log):
        while True:
            if args.trace:
                instrument.run_id = index
                span = instrument.open("bench.op")
            try:
                record = workload.operation(index)
            except Exception as exc:  # a raising operation is a counted failure
                record = {"wall_s": None, "error": f"{type(exc).__name__}: {exc}"}
            finally:
                if args.trace:
                    instrument.close(span)
            if not args.trace:
                record.update(instrument.take())
            events.write(event="op", index=index, **record)
            index += 1
            if clock() - body_start >= args.seconds:
                break
    events.write(event="end", body_s=clock() - body_start)
    if args.trace:
        instrument.uninstall()
        with open(args.workdir / "spans.json", "w") as fh:
            json.dump(instrument.dump(), fh)
    events.close()
    shutil.rmtree(args.workdir / "data", ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
