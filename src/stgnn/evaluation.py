"""Cross-validation protocol: subject-grouped stratified folds, inner
validation grid search, rank-statistic metrics, ROC emission and a
flattened-correlation logistic baseline.

Subjects are the unit of assignment everywhere, so no sample of a subject
can appear on both sides of any split.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, HarnessError, MetricError
from .graph import entropy_loss, link_loss
from .models import ModelSpec, bce_loss, build_model
from .nn import Adam, Linear
from .prep import (GraphSample, SubjectRecord, balance_by_subject, build_samples,
                   load_manifest, stack_samples, window_adjacency, window_correlation)


def derived_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# fold planning -----------------------------------------------------------------


@dataclass
class FoldPlan:
    """Outer fold per subject plus an inner train/validation split per fold."""

    k: int
    folds: dict[str, int]
    inner: dict[int, dict[str, str]]

    def test_subjects(self, fold: int) -> set[str]:
        return {s for s, f in self.folds.items() if f == fold}

    def inner_subjects(self, fold: int, role: str) -> set[str]:
        return {s for s, r in self.inner[fold].items() if r == role}

    def rows(self, subjects: list[str], fold: int) -> dict[str, np.ndarray]:
        """Ascending indices into a sample stack whose rows belong to ``subjects``,
        per role of ``fold``: inner "train" and "val", outer "test"."""
        assert_no_leakage(self, fold)
        roles = {"train": self.inner_subjects(fold, "train"),
                 "val": self.inner_subjects(fold, "val"), "test": self.test_subjects(fold)}
        return {role: np.flatnonzero([s in members for s in subjects])
                for role, members in roles.items()}


def _subject_labels(samples: list[GraphSample]) -> list[tuple[str, int]]:
    seen: dict[str, int] = {}
    order: list[str] = []
    for s in samples:
        if s.subject_id in seen:
            if seen[s.subject_id] != s.label:
                raise ConfigError(f"subject {s.subject_id} has inconsistent labels")
        else:
            seen[s.subject_id] = s.label
            order.append(s.subject_id)
    return [(sid, seen[sid]) for sid in order]


def _greedy_assign(subjects: list[tuple[str, int]], k: int,
                   rng: np.random.Generator) -> dict[str, int]:
    """Shuffle, then place each subject in the fold with the fewest of its class."""
    shuffled = [subjects[i] for i in rng.permutation(len(subjects))]
    class_counts = {label: [0] * k for label in {lab for _, lab in subjects}}
    totals = [0] * k
    assignment: dict[str, int] = {}
    for sid, label in shuffled:
        counts = class_counts[label]
        best = min(range(k), key=lambda f: (counts[f], totals[f], f))
        assignment[sid] = best
        counts[best] += 1
        totals[best] += 1
    return assignment


def plan_folds(samples: list[GraphSample], k: int = 5, seed: int = 0) -> FoldPlan:
    """Stratified assignment of whole subjects to k outer folds, plus an
    inner split that reserves one fifth of each training fold's subjects
    (stratified the same way) for validation."""
    if k < 2:
        raise ConfigError(f"cross-validation needs at least 2 folds; got {k}")
    subjects = _subject_labels(samples)
    per_class: dict[int, int] = {}
    for _, label in subjects:
        per_class[label] = per_class.get(label, 0) + 1
    if any(count < k for count in per_class.values()):
        raise ConfigError(f"need at least k={k} subjects per class; have {per_class}")
    folds = _greedy_assign(subjects, k, derived_rng(seed, 0xF01D))
    inner: dict[int, dict[str, str]] = {}
    for fold in range(k):
        train_pool = [(sid, label) for sid, label in subjects if folds[sid] != fold]
        val_rng = derived_rng(seed, 0x1AEA, fold)
        roles: dict[str, str] = {sid: "train" for sid, _ in train_pool}
        for label in sorted({lab for _, lab in train_pool}):
            members = [sid for sid, lab in train_pool if lab == label]
            n_val = max(1, int(round(len(members) / 5)))
            chosen = val_rng.permutation(len(members))[:n_val]
            for idx in chosen:
                roles[members[idx]] = "val"
        inner[fold] = roles
    return FoldPlan(k=k, folds=folds, inner=inner)


def assert_no_leakage(plan: FoldPlan, fold: int) -> None:
    test = plan.test_subjects(fold)
    train = plan.inner_subjects(fold, "train")
    val = plan.inner_subjects(fold, "val")
    if test & train or test & val or train & val:
        raise HarnessError(f"subject leakage detected in fold {fold}")


# metrics -------------------------------------------------------------------------


@dataclass
class MetricReport:
    auc: float
    sensitivity: float
    specificity: float
    roc: list[tuple[float, float, float]]  # (threshold, fpr, tpr)


def _tie_groups(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of every run of equal values in a sorted array."""
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return starts, np.r_[starts[1:], ordered.size] - 1


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    starts, ends = _tie_groups(values[order])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def compute_metrics(scores, labels) -> MetricReport:
    """AUC by the rank statistic (ties count one half), sensitivity and
    specificity at the 0.5 probability cut, and one ROC point per distinct score."""
    scores = np.asarray(scores, dtype=np.float64)
    # NaN never equals itself, so it would sit in a tie group of its own
    if not np.all(np.isfinite(scores)):
        raise MetricError("scores must be finite to compute metrics")
    labels = np.asarray(labels)
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("both classes must be present to compute metrics")
    ranks = _tied_ranks(scores)
    auc = (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    predicted = scores >= 0.5
    tp = int(np.sum(predicted & positive))
    tn = int(np.sum(~predicted & ~positive))
    sensitivity = tp / n_pos
    specificity = tn / n_neg
    order = np.argsort(-scores, kind="mergesort")
    starts, ends = _tie_groups(scores[order])
    tp_c = np.cumsum(positive[order])[ends]
    fp_c = ends + 1 - tp_c
    roc: list[tuple[float, float, float]] = [(float(scores.max()) + 1.0, 0.0, 0.0)]
    roc += [(value, false_pos / n_neg, true_pos / n_pos) for value, false_pos, true_pos
            in zip(scores[order[starts]].tolist(), fp_c.tolist(), tp_c.tolist())]
    return MetricReport(auc=float(auc), sensitivity=sensitivity,
                        specificity=specificity, roc=roc)


# hyperparameter grid --------------------------------------------------------------


@dataclass(frozen=True)
class HyperPoint:
    dropout: float
    lr: float
    weight_decay: float

    def to_dict(self) -> dict:
        return {"dropout": self.dropout, "lr": self.lr, "weight_decay": self.weight_decay}


@dataclass(frozen=True)
class HyperGrid:
    """Search space; the default reproduces the full 27-point protocol."""

    dropouts: tuple = (0.0, 0.5, 0.7)
    learning_rates: tuple = (1e-4, 1e-5, 1e-6)
    weight_decays: tuple = (0.005, 0.5, 0.0)
    epochs: int = 30
    batch_size: int | None = None  # None: pick per model variant

    def points(self) -> list[HyperPoint]:
        return [HyperPoint(d, lr, wd) for d, lr, wd in
                itertools.product(self.dropouts, self.learning_rates, self.weight_decays)]

    @classmethod
    def fast(cls, lr: float = 1e-3, epochs: int = 30, batch_size: int | None = 32) -> "HyperGrid":
        """Single sensible point for desk-scale runs (no dropout, no weight
        decay); small batches so tiny datasets still take enough optimizer
        steps per epoch."""
        return cls(dropouts=(0.0,), learning_rates=(lr,), weight_decays=(0.0,),
                   epochs=epochs, batch_size=batch_size)


def default_batch_size(spec: ModelSpec) -> int:
    if spec.encoder == "tcn":
        return 400
    if spec.windows_per_scan == 16:
        return 1000
    return 500


# training ---------------------------------------------------------------------------


@dataclass
class TrainSettings:
    lr: float
    weight_decay: float
    dropout: float
    epochs: int
    batch_size: int
    link_weight: float = 0.0
    entropy_weight: float = 0.0
    select_final_epoch: bool = False


@dataclass
class TrainOutcome:
    state: dict | None
    best_epoch: int
    best_val_loss: float
    train_curve: list[float]
    val_curve: list[float]
    failed: bool
    link_curve: list[float] = field(default_factory=list)
    entropy_curve: list[float] = field(default_factory=list)
    failed_epoch: int = -1  # the epoch a failed training stopped in
    failure: str = ""  # why it failed


def _batch_loss(model, features, adjacency, labels, settings: TrainSettings,
                train: bool) -> tuple[Tensor, dict[str, float]]:
    probs, levels = model(features, adjacency, train=train)
    loss = bce_loss(probs, labels)
    logged = {"link": 0.0, "entropy": 0.0}
    for name, term, weight in (("link", link_loss, settings.link_weight),
                               ("entropy", entropy_loss, settings.entropy_weight)):
        if levels and (weight or train):  # logged in training, taped only when weighted
            with contextlib.nullcontext() if weight else ad.no_tape():
                value = term(levels)
            if weight:
                loss = ad.add(loss, ad.mul(weight, value))
            logged[name] = value.item()
    return loss, logged


def evaluate_loss(model, features, adjacency, labels, settings: TrainSettings,
                  chunk: int = 256) -> float:
    total = 0.0
    with ad.no_tape():
        for start in range(0, len(labels), chunk):
            sl = slice(start, start + chunk)
            adj = adjacency[sl] if adjacency is not None else None
            loss, _ = _batch_loss(model, features[sl], adj, labels[sl], settings, train=False)
            total += loss.item() * (min(start + chunk, len(labels)) - start)
    return total / len(labels)


def predict_scores(model, features, adjacency, chunk: int = 256) -> np.ndarray:
    out = []
    with ad.no_tape():
        for start in range(0, len(features), chunk):
            sl = slice(start, start + chunk)
            adj = adjacency[sl] if adjacency is not None else None
            probs, _ = model(features[sl], adj, train=False)
            out.append(probs.numpy())
    return np.concatenate(out)


def _take(data, rows: np.ndarray) -> tuple:
    """The (features, adjacency, labels) stack at ``rows``; no adjacency stays None."""
    return tuple(None if array is None else array[rows] for array in data)


@np.errstate(all="ignore")  # a diverging point fails on its non-finite loss, not a warning
def train_classifier(spec: ModelSpec, data, train_index: np.ndarray, val_index: np.ndarray,
                     settings: TrainSettings, seed: int) -> TrainOutcome:
    """Train one model on the ``train_index`` rows of the ``data`` stack
    (features, adjacency, labels), tracking the ``val_index`` rows' loss per
    epoch and keeping the best-epoch state (or the final state when
    ``select_final_epoch``)."""
    val_data = _take(data, val_index)
    model = build_model(replace(spec, dropout=settings.dropout, seed=seed),
                        *data[0].shape[1:])
    optimizer = Adam(model.parameters(), lr=settings.lr,
                     weight_decay=settings.weight_decay)
    shuffle_rng = derived_rng(seed, 0x5EED)
    best_val = np.inf
    best_epoch = -1
    best_state: dict | None = None
    train_curve: list[float] = []
    val_curve: list[float] = []
    link_curve: list[float] = []
    entropy_curve: list[float] = []
    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(len(train_index))
        epoch_loss = 0.0
        epoch_aux = {"link": 0.0, "entropy": 0.0}
        for start in range(0, len(order), settings.batch_size):
            idx = train_index[order[start:start + settings.batch_size]]
            loss, aux = _batch_loss(model, *_take(data, idx), settings, train=True)
            value = loss.item()
            if not np.isfinite(value):
                return TrainOutcome(None, -1, np.inf, train_curve, val_curve, failed=True,
                                    failed_epoch=epoch,
                                    failure=f"non-finite training loss at batch start {start}")
            model.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += value * len(idx)
            for key in epoch_aux:
                epoch_aux[key] += aux[key] * len(idx)
        train_curve.append(epoch_loss / len(train_index))
        link_curve.append(epoch_aux["link"] / len(train_index))
        entropy_curve.append(epoch_aux["entropy"] / len(train_index))
        val_loss = evaluate_loss(model, *val_data, settings)
        val_curve.append(val_loss)
        if not np.isfinite(val_loss):
            return TrainOutcome(None, -1, np.inf, train_curve, val_curve, failed=True,
                                failed_epoch=epoch, failure="non-finite validation loss")
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            if not settings.select_final_epoch:
                best_state = model.state_dict()
    if settings.select_final_epoch:
        return TrainOutcome(model.state_dict(), settings.epochs - 1,
                            val_curve[-1], train_curve, val_curve, failed=False,
                            link_curve=link_curve, entropy_curve=entropy_curve)
    return TrainOutcome(best_state, best_epoch, best_val, train_curve, val_curve,
                        failed=False, link_curve=link_curve, entropy_curve=entropy_curve)


# grid selection ------------------------------------------------------------------------


@dataclass
class GridRecord:
    index: int
    point: HyperPoint
    outcome: TrainOutcome


def select_grid_winner(records: list[GridRecord]) -> GridRecord:
    """The point with the lowest (best-epoch) validation loss; ties go to the
    earlier point and failed points never win."""
    winner: GridRecord | None = None
    for record in records:
        if record.outcome.failed:
            continue
        if winner is None or record.outcome.best_val_loss < winner.outcome.best_val_loss:
            winner = record
    if winner is None:
        reasons = "; ".join(
            f"point {r.index} {r.point.to_dict()}: "
            f"{r.outcome.failure or 'non-finite loss'} in epoch {r.outcome.failed_epoch}"
            for r in records)
        raise HarnessError(f"every grid point failed: {reasons}")
    return winner


# experiment orchestration ---------------------------------------------------------------


@dataclass(kw_only=True)
class FoldReport:
    """One outer fold's outcome; the field order is its key order in results.json."""

    fold: int
    hyperparameters: dict
    auc: float
    sensitivity: float
    specificity: float
    best_epoch: int
    best_val_loss: float
    train_curve: list[float]
    val_curve: list[float]
    link_curve: list[float] = field(default_factory=list)
    entropy_curve: list[float] = field(default_factory=list)
    roc: list[tuple[float, float, float]]


@dataclass
class ExperimentConfig:
    manifest: str
    model: str = "mean_CNN"
    threshold_percent: int = 5
    windows_per_scan: int = 1
    k_folds: int = 5
    seed: int = 0
    grid: HyperGrid = field(default_factory=HyperGrid)
    permute_labels: bool = False
    select_final_epoch: bool = False
    link_weight: float = 0.0
    entropy_weight: float = 0.0
    jobs: int = 1


BASELINE_MODELS = ("logreg", "logreg_bin")


def _permute_subject_labels(records: list[SubjectRecord], seed: int) -> None:
    labels = [r.label for r in records]
    rng = derived_rng(seed, 0x9E12)
    shuffled = rng.permutation(len(labels))
    new = [labels[i] for i in shuffled]
    for record, label in zip(records, new):
        record.label = label


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full protocol and return the results document."""
    start_time = time.perf_counter()
    if config.jobs < 1:
        raise ConfigError(f"jobs must be at least 1; got {config.jobs}")
    if config.grid.epochs < 1:
        raise ConfigError(f"epochs must be at least 1; got {config.grid.epochs}")
    if config.grid.batch_size is not None and config.grid.batch_size < 1:
        raise ConfigError(f"batch size must be at least 1; got {config.grid.batch_size}")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative; got {config.seed}")
    for lr in config.grid.learning_rates:
        if not (np.isfinite(lr) and lr > 0):
            raise ConfigError(f"lr must be finite and positive; got {lr}")
    for name, weight in (("link", config.link_weight), ("entropy", config.entropy_weight)):
        if not (np.isfinite(weight) and weight >= 0):
            raise ConfigError(f"aux {name} weight must be finite and non-negative; got {weight}")

    is_baseline = config.model in BASELINE_MODELS
    spec: ModelSpec | None = None
    if not is_baseline:
        spec = ModelSpec.from_name(config.model, threshold_percent=config.threshold_percent,
                                   seed=config.seed)
        # a threshold or a 64split suffix in the name wins over the flag
        config = replace(config, threshold_percent=spec.threshold_percent)
        if spec.windows_per_scan == 16:
            config = replace(config, windows_per_scan=16)
        else:
            spec = replace(spec, windows_per_scan=config.windows_per_scan)
    if (config.link_weight or config.entropy_weight) and (spec is None or spec.pooling == "mean"):
        raise ConfigError(f"aux link and entropy weights apply only to DiffPool models; "
                          f"{config.model} has no pooling terms")
    records = load_manifest(config.manifest)
    records = balance_by_subject(records, seed=derived_seed(config.seed, 0xBA1A))
    if config.permute_labels:
        _permute_subject_labels(records, config.seed)

    # only graph models read an adjacency; the baseline builds its own correlations
    threshold = spec.threshold_percent if spec is not None and spec.needs_graph else None
    samples = build_samples(records, config.windows_per_scan, threshold)
    del records  # the windows are copies: nothing reads the raw sessions again
    plan = plan_folds(samples, k=config.k_folds, seed=config.seed)

    if is_baseline:
        fold_reports = baseline_flat_correlation(samples, plan, binarize=config.model == "logreg_bin",
                                                 seed=config.seed)
        model_name = f"{config.model}_{4 * config.windows_per_scan}split"
    else:
        fold_reports = _run_deep_folds(samples, plan, spec, config)
        model_name = spec.name()

    aggregate = {}
    for metric in ("auc", "sensitivity", "specificity"):
        values = np.array([getattr(r, metric) for r in fold_reports], dtype=np.float64)
        aggregate[metric] = {"mean": float(values.mean()),
                             "sd": float(values.std(ddof=1)) if len(values) > 1 else 0.0}

    wall_clock = time.perf_counter() - start_time
    return {
        "config": {
            "manifest": str(config.manifest),
            "model": model_name,
            "threshold_percent": config.threshold_percent,
            "windows_per_scan": config.windows_per_scan,
            "adjacency_scope": "per_window",
            "k_folds": config.k_folds,
            "grid": {
                "dropouts": list(config.grid.dropouts),
                "learning_rates": list(config.grid.learning_rates),
                "weight_decays": list(config.grid.weight_decays),
                "epochs": config.grid.epochs,
                "batch_size": config.grid.batch_size,
            },
            "permute_labels": config.permute_labels,
            "select_final_epoch": config.select_final_epoch,
            "link_weight": config.link_weight,
            "entropy_weight": config.entropy_weight,
        },
        "seed": config.seed,
        "folds": [{**asdict(r), "roc": [list(point) for point in r.roc]} for r in fold_reports],
        "aggregate": aggregate,
        "wall_clock_seconds": wall_clock,
    }


def _run_deep_folds(samples: list[GraphSample], plan: FoldPlan, spec: ModelSpec,
                    config: ExperimentConfig) -> list[FoldReport]:
    features, adjacency, labels, subjects = stack_samples(samples)
    data = (features, adjacency, labels)
    rows = [plan.rows(subjects, fold) for fold in range(plan.k)]
    outcomes = _train_grid(data, rows, spec, config)

    points = config.grid.points()
    reports = []
    for fold in range(plan.k):
        records = [GridRecord(index=i, point=points[i], outcome=outcomes[(fold, i)])
                   for i in range(len(points))]
        winner = select_grid_winner(records)
        model = build_model(replace(spec, dropout=winner.point.dropout,
                                    seed=derived_seed(config.seed, fold, winner.index)),
                            *features.shape[1:])
        model.load_state_dict(winner.outcome.state)
        test_x, test_a, test_y = _take(data, rows[fold]["test"])
        metrics = compute_metrics(predict_scores(model, test_x, test_a), test_y)
        reports.append(FoldReport(
            fold=fold,
            hyperparameters=winner.point.to_dict(),
            auc=metrics.auc, sensitivity=metrics.sensitivity,
            specificity=metrics.specificity, roc=metrics.roc,
            train_curve=winner.outcome.train_curve, val_curve=winner.outcome.val_curve,
            best_epoch=winner.outcome.best_epoch,
            best_val_loss=winner.outcome.best_val_loss,
            link_curve=winner.outcome.link_curve,
            entropy_curve=winner.outcome.entropy_curve))
    return reports


# grid training ------------------------------------------------------------------------------

# what a process needs to train any (fold, index) key; filled by _install_grid_context
_grid_context: dict = {}


def _install_grid_context(data, rows, spec: ModelSpec, config: ExperimentConfig,
                          dtype_name: str) -> None:
    """Hand a process everything its trainings read, once: the one sample
    stack and each fold's row indices. Pool workers run this as their
    initializer, so tasks carry only (fold, index)."""
    ad.set_default_dtype(dtype_name)
    _grid_context.update(data=data, rows=rows, spec=spec, config=config)


def _train_key(key: tuple[int, int]) -> TrainOutcome:
    fold, index = key
    ctx = _grid_context
    config, spec = ctx["config"], ctx["spec"]
    point = config.grid.points()[index]
    settings = TrainSettings(lr=point.lr, weight_decay=point.weight_decay,
                             dropout=point.dropout, epochs=config.grid.epochs,
                             batch_size=config.grid.batch_size or default_batch_size(spec),
                             link_weight=config.link_weight,
                             entropy_weight=config.entropy_weight,
                             select_final_epoch=config.select_final_epoch)
    rows = ctx["rows"][fold]
    return train_classifier(spec, ctx["data"], rows["train"], rows["val"], settings,
                            seed=derived_seed(config.seed, fold, index))


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _spawn_pool(workers: int, initializer=None, initargs=()):
    """A pool of ``workers`` spawned processes that share this process's
    cores: each gets ``cores // workers`` BLAS threads (at least one), so the
    pool does not run more BLAS threads than cores.

    Workers read the thread variables when they import numpy, so they are
    set before the pool starts and taken back after it has closed; a variable
    that is already set is left as it is.
    """
    threads = str(max(1, len(os.sched_getaffinity(0)) // workers))
    added = [name for name in BLAS_THREAD_VARIABLES if name not in os.environ]
    os.environ.update({name: threads for name in added})
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=initializer, initargs=initargs) as pool:
            yield pool
    finally:
        for name in added:
            os.environ.pop(name, None)


def _train_grid(data, rows, spec: ModelSpec,
                config: ExperimentConfig) -> dict[tuple[int, int], TrainOutcome]:
    """Train every grid point of every fold, serially or on at most
    ``config.jobs`` worker processes; both run ``_train_key`` over the same keys.

    Workers are spawned, not forked, so they inherit no state of this process:
    the initializer's arguments are all they know.
    """
    keys = [(fold, index) for fold in range(len(rows))
            for index in range(len(config.grid.points()))]
    dtype_name = next(name for name, dtype in ad._DTYPES.items()
                      if dtype is ad.get_default_dtype())
    context = (data, rows, spec, config, dtype_name)
    workers = min(config.jobs, len(keys))
    try:
        if workers > 1:
            with _spawn_pool(workers, _install_grid_context, context) as pool:
                outcomes = list(pool.map(_train_key, keys))
        else:
            _install_grid_context(*context)
            outcomes = list(map(_train_key, keys))
    finally:
        _grid_context.clear()
    return dict(zip(keys, outcomes))


# baseline ---------------------------------------------------------------------------------


BASELINE_LR = 0.05
BASELINE_WEIGHT_DECAY = 1e-4
BASELINE_EPOCHS = 300


def flat_correlation_features(samples: list[GraphSample], binarize: bool) -> np.ndarray:
    """Upper-triangle correlation values per sample; optionally the binary
    5-percent-strongest-edge indicator instead."""
    n = samples[0].features.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.asarray([(window_adjacency(s, 5.0) if binarize else window_correlation(s))[iu]
                       for s in samples], dtype=np.float32)


def baseline_flat_correlation(samples: list[GraphSample], plan: FoldPlan,
                              binarize: bool, seed: int = 0) -> list[FoldReport]:
    """L2-regularized logistic regression on flattened correlations, trained
    and scored on exactly the same folds as the deep models."""
    table = flat_correlation_features(samples, binarize=binarize)
    labels = np.array([s.label for s in samples], dtype=np.float32)
    subjects = [s.subject_id for s in samples]
    reports = []
    hyper = {"estimator": "logistic", "lr": BASELINE_LR,
             "weight_decay": BASELINE_WEIGHT_DECAY, "epochs": BASELINE_EPOCHS,
             "binarize": binarize}
    for fold in range(plan.k):
        rows = plan.rows(subjects, fold)
        train = np.union1d(rows["train"], rows["val"])
        test = rows["test"]
        rng = derived_rng(seed, 0xBA5E, fold)
        linear = Linear(table.shape[1], 1, rng)
        optimizer = Adam([linear.weight, linear.bias], lr=BASELINE_LR,
                         weight_decay=BASELINE_WEIGHT_DECAY)
        x_train = table[train]
        y_train = labels[train]
        train_curve = []
        for _ in range(BASELINE_EPOCHS):
            probs = ad.reshape(ad.sigmoid(linear(Tensor(x_train))), (len(y_train),))
            loss = bce_loss(probs, y_train)
            train_curve.append(loss.item())
            linear.zero_grad()
            loss.backward()
            optimizer.step()
        with ad.no_tape():
            probs = ad.reshape(ad.sigmoid(linear(Tensor(table[test]))), (len(test),))
        metrics = compute_metrics(probs.numpy(), labels[test])
        reports.append(FoldReport(
            fold=fold, hyperparameters=dict(hyper),
            auc=metrics.auc, sensitivity=metrics.sensitivity,
            specificity=metrics.specificity, roc=metrics.roc,
            train_curve=train_curve, val_curve=[], best_epoch=BASELINE_EPOCHS - 1,
            best_val_loss=train_curve[-1]))
    return reports
