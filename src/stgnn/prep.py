"""Turn raw per-subject node timeseries into balanced, windowed graph samples.

Pipeline: balance classes at the subject level, split sessions into
contiguous windows, robust-scale each node within each window, then derive
a binary adjacency per window from the shrinkage-correlation matrix so every
sample is self-contained (no statistics leak across windows or subjects).
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError

MAGIC = b"STGM"
BINARY_VERSION = 1
MANIFEST_VERSION = 1


@dataclass
class SubjectRecord:
    """All sessions of one subject; rows are timesteps, columns are nodes."""

    subject_id: str
    label: int
    sessions: list[np.ndarray]


@dataclass
class GraphSample:
    """One window of one subject: nodes x timesteps float32 features and a dense
    float32 N x N adjacency, which is None for models that never read a graph."""

    subject_id: str
    label: int
    features: np.ndarray
    adjacency: np.ndarray | None = None


# scaling and windowing -------------------------------------------------------


def robust_scale(series: np.ndarray) -> np.ndarray:
    """(x - median) / IQR along the last axis, with linear-interpolation quartiles.

    Every 1D slice along the last axis is scaled on its own, so a stack of
    windows scales in one call. A slice whose IQR is zero maps to all zeros.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 0 or series.size == 0:
        raise ContractError("robust_scale expects non-empty series along the last axis")
    q1, median, q3 = np.quantile(series, [0.25, 0.5, 0.75], axis=-1, keepdims=True)
    iqr = q3 - q1
    degenerate = iqr == 0.0
    return np.where(degenerate, 0.0, (series - median) / np.where(degenerate, 1.0, iqr))


def window_split(record: SubjectRecord, windows_per_scan: int) -> list[GraphSample]:
    """Cut every session into contiguous non-overlapping windows, in session
    then window order, with no adjacency yet.

    Each window is transposed to nodes x timesteps and robust-scaled per
    node, so samples are self-contained. A session's windows are scaled
    together as one windows x nodes x timesteps stack.
    """
    if windows_per_scan < 1:
        raise ConfigError("windows_per_scan must be >= 1")
    out: list[GraphSample] = []
    for session_index, session in enumerate(record.sessions):
        length, n_nodes = session.shape
        if length % windows_per_scan != 0:
            raise ConfigError(
                f"session length {length} is not divisible by windows_per_scan={windows_per_scan}")
        blocks = session.reshape(windows_per_scan, length // windows_per_scan, n_nodes)
        with np.errstate(over="ignore"):  # a tiny IQR can push a finite cell past float32
            scaled = robust_scale(blocks.transpose(0, 2, 1)).astype(np.float32, order="C")
        if not np.all(np.isfinite(scaled)):
            raise DataError(f"subject {record.subject_id}, session {session_index + 1} "
                            f"(counting from 1): a robust-scaled value overflows float32")
        out.extend(GraphSample(record.subject_id, record.label, window) for window in scaled)
    return out


# correlation graphs ----------------------------------------------------------


def ledoit_wolf_covariance(data: np.ndarray) -> np.ndarray:
    """Shrinkage covariance rho*m*I + (1-rho)*S from a T x N data matrix.

    S is the empirical covariance with divisor T, m = trace(S)/N, and rho is
    the analytically optimal shrinkage intensity in [0, 1].
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ContractError("ledoit_wolf_covariance expects a T x N matrix")
    t, n = data.shape
    if t < 2:
        raise ContractError("need at least two observations")
    xc = data - data.mean(axis=0)
    emp = xc.T @ xc / t
    m = np.trace(emp) / n
    d2 = ((emp - m * np.eye(n)) ** 2).sum() / n
    if d2 == 0.0:
        return emp
    x2 = xc * xc
    b_bar2 = ((x2.T @ x2) / t - emp * emp).sum() / (t * n)
    b2 = min(b_bar2, d2)
    rho = b2 / d2
    out = rho * m * np.eye(n) + (1.0 - rho) * emp
    return (out + out.T) / 2.0


def covariance_to_correlation(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=np.float64)
    diag = np.diag(cov)
    if np.any(diag <= 0):
        raise ContractError("covariance diagonal must be strictly positive")
    scale = np.sqrt(diag)
    corr = cov / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr


def threshold_edges(corr: np.ndarray, percent: float) -> np.ndarray:
    """Keep the strongest percent of off-diagonal pairs by |r|, binarized.

    Keeps floor(percent/100 * N(N-1)/2) pairs; ties break on ascending
    (i, j). Output is a dense float32 N x N matrix, symmetric with a zero
    diagonal.
    """
    if not 0.0 < percent <= 100.0:
        raise ConfigError(f"threshold percent must lie in (0, 100]; got {percent}")
    corr = np.asarray(corr, dtype=np.float64)
    n = corr.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    strength = np.abs(corr[ii, jj])
    keep = int(np.floor(percent / 100.0 * ii.size))
    order = np.lexsort((jj, ii, -strength))
    chosen = order[:keep]
    dense = np.zeros((n, n), dtype=np.float32)
    dense[ii[chosen], jj[chosen]] = 1.0
    dense[jj[chosen], ii[chosen]] = 1.0
    return dense


def window_correlation(window: np.ndarray) -> np.ndarray:
    """Shrinkage correlation of one nodes x timesteps window."""
    return covariance_to_correlation(ledoit_wolf_covariance(window.T))


def window_adjacency(window: np.ndarray, percent: float) -> np.ndarray:
    """Adjacency of one (scaled) nodes x timesteps window from its own correlations."""
    return threshold_edges(window_correlation(window), percent)


# class balancing --------------------------------------------------------------


def balance_by_subject(records: list[SubjectRecord], seed: int) -> list[SubjectRecord]:
    """Randomly drop whole subjects from the dominant class until counts match."""
    by_class: dict[int, list[int]] = {}
    for idx, rec in enumerate(records):
        by_class.setdefault(rec.label, []).append(idx)
    if len(by_class) != 2 or any(len(v) == 0 for v in by_class.values()):
        raise ContractError("balancing needs two non-empty classes")
    (label_a, idx_a), (label_b, idx_b) = sorted(by_class.items())
    if len(idx_a) == len(idx_b):
        return list(records)
    majority = idx_a if len(idx_a) > len(idx_b) else idx_b
    surplus = abs(len(idx_a) - len(idx_b))
    rng = np.random.default_rng(seed)
    dropped = set(rng.choice(majority, size=surplus, replace=False).tolist())
    return [rec for idx, rec in enumerate(records) if idx not in dropped]


def build_samples(records: list[SubjectRecord], windows_per_scan: int,
                  threshold_percent: float | None) -> list[GraphSample]:
    """Window and scale every record; give each window its own adjacency
    unless ``threshold_percent`` is None. The windows are copies, so each
    record's ``sessions`` is emptied (released) as soon as it is windowed."""
    samples = []
    for record in records:
        samples += window_split(record, windows_per_scan)
        record.sessions = []
    if threshold_percent is not None:
        for sample in samples:
            sample.adjacency = window_adjacency(sample.features, threshold_percent)
    return samples


def prepare_graph_samples(records: list[SubjectRecord], windows_per_scan: int,
                          threshold_percent: float, balance_seed: int) -> list[GraphSample]:
    """Full preprocessing: balance, window, scale, per-window adjacency."""
    return build_samples(balance_by_subject(records, seed=balance_seed), windows_per_scan,
                         threshold_percent)


def stack_samples(samples: list[GraphSample]
                  ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, list[str]]:
    """Stack a homogeneous sample list into (features, adjacency, labels, subjects).

    The adjacency stack is None when the samples carry no adjacency.
    """
    features = np.stack([s.features for s in samples], dtype=np.float32)
    adjacency = None
    if samples[0].adjacency is not None:
        adjacency = np.stack([s.adjacency for s in samples], dtype=np.float32)
    labels = np.array([s.label for s in samples], dtype=np.float32)
    subjects = [s.subject_id for s in samples]
    return features, adjacency, labels, subjects


# dataset files -----------------------------------------------------------------


def write_matrix_binary(path: Path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", BINARY_VERSION))
        fh.write(struct.pack("<II", rows, cols))
        fh.write(matrix.tobytes())


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    """One line per row, ``%.9g`` per value, comma-separated: np.savetxt's text.

    %.9g round-trips float32 exactly through decimal text. Rows are
    formatted from Python floats (``tolist``), the doubles savetxt reads
    from each float32 scalar. The lists are made 64 rows at a time: a
    whole-matrix list, or one format call per 64 rows, fragments the heap
    and raised the peak RSS of a ``stgnn run`` later in the same process by
    1 to 5 MB."""
    matrix = np.asarray(matrix, dtype=np.float32)
    line = ",".join(["%.9g"] * matrix.shape[1]) + "\n"
    with open(path, "w") as fh:
        for start in range(0, len(matrix), 64):
            for row in matrix[start:start + 64].tolist():
                fh.write(line % tuple(row))


def _read_header(fh, fmt: str, path: Path) -> tuple:
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise DataError(f"truncated matrix file {path}: the header ends early")
    return struct.unpack(fmt, raw)


def read_matrix(path: Path) -> np.ndarray:
    """Read a binary or CSV timeseries matrix; every cell must be finite."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:  # a missing file, a directory, no permission
        raise DataError(f"cannot read session file {path}: {exc.strerror}") from None
    with fh:
        binary = fh.read(4) == MAGIC
        if binary:
            version, = _read_header(fh, "<H", path)
            if version != BINARY_VERSION:
                raise DataError(f"unsupported matrix file version {version} in {path}")
            rows, cols = _read_header(fh, "<II", path)
            if rows == 0:
                raise DataError(f"{path} has no rows")
            payload = fh.read(rows * cols * 4)
            if len(payload) != rows * cols * 4:
                raise DataError(f"truncated matrix file {path}")
            matrix = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float32)
        else:
            fh.seek(0)
            # stops at the first data line; np.loadtxt only warns on a file without one
            if not any(line.split(b"#", 1)[0].strip() for line in fh):
                raise DataError(f"{path} has no rows")
    if not binary:
        try:
            matrix = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataError(f"cannot parse {path} as CSV timeseries: {exc}") from None
        with np.errstate(over="ignore"):  # out-of-range cells become inf, rejected below
            matrix = matrix.astype(np.float32)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        row, col = bad[0]
        raise DataError(f"{path}: non-finite value {matrix[row, col]} at row {row + 1}, "
                        f"column {col + 1} (counting from 1)")
    return matrix


def write_manifest(path: Path, n_nodes: int, subjects: list[dict]) -> None:
    doc = {"version": MANIFEST_VERSION, "n_nodes": n_nodes, "subjects": subjects}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path: Path) -> list[SubjectRecord]:
    """Read a dataset manifest and all session matrices it references."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} must be a JSON object")
    for key in ("version", "n_nodes", "subjects"):
        if key not in doc:
            raise DataError(f"manifest {path} is missing required field {key!r}")
    if doc["version"] != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {doc['version']}")
    n_nodes = doc["n_nodes"]
    if type(n_nodes) is not int or n_nodes < 1:
        raise DataError(f"manifest {path}: n_nodes must be a positive integer; got {n_nodes!r}")
    if not isinstance(doc["subjects"], list):
        raise DataError(f"manifest {path}: subjects must be a list; got {doc['subjects']!r}")
    # a repeated id would merge two subjects' sessions into one fold subject
    ids = Counter(str(e["id"]) for e in doc["subjects"] if isinstance(e, dict) and "id" in e)
    for sid, count in ids.items():
        if count > 1:
            raise DataError(f"manifest {path}: subject id {sid!r} is listed {count} times")
    base = path.parent
    records: list[SubjectRecord] = []
    first: tuple[str, int] | None = None  # (path, timesteps) of the first session
    for entry in doc["subjects"]:
        if not isinstance(entry, dict):
            raise DataError(f"manifest {path}: a subject entry must be an object; got {entry!r}")
        for key in ("id", "label", "sessions"):
            if key not in entry:
                raise DataError(f"subject entry missing field {key!r} in {path}")
        if entry["label"] not in (0, 1):
            raise DataError(f"subject {entry['id']}: label must be 0 or 1")
        rels = entry["sessions"]
        if not (isinstance(rels, list) and rels and all(isinstance(rel, str) for rel in rels)):
            raise DataError(f"subject {entry['id']}: sessions must be a non-empty list of "
                            f"file paths; got {rels!r}")
        sessions = []
        for rel in rels:
            matrix = read_matrix(base / rel)
            if matrix.shape[1] != n_nodes:
                raise DataError(f"{rel}: expected {n_nodes} columns, found {matrix.shape[1]}")
            first = first or (rel, matrix.shape[0])
            if matrix.shape[0] != first[1]:
                raise DataError(f"{rel}: {matrix.shape[0]} timesteps, but {first[0]} has "
                                f"{first[1]}; every session must have the same length")
            sessions.append(matrix)
        records.append(SubjectRecord(subject_id=str(entry["id"]), label=int(entry["label"]),
                                     sessions=sessions))
    return records
