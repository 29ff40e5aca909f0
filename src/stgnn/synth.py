"""Synthetic multi-subject node-timeseries datasets with a tunable class signal.

Every node carries AR(1) noise (coefficient 0.3, unit innovations). The
positive class additionally receives, on a fixed random subset of 20% of
the nodes, a shared smooth latent timeseries scaled by the effect size
(covariance signal) and/or an AR-coefficient shift of 0.3 * effect size
(spectral signal). The latent is itself AR(1) with coefficient 0.9 and unit
marginal variance, so it both correlates the subset nodes and leaves a
per-node temporal signature that survives robust scaling. Effect size zero
makes the classes identically distributed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .prep import SubjectRecord, write_manifest, write_matrix_binary, write_matrix_csv

AR_COEFFICIENT = 0.3
LATENT_AR_COEFFICIENT = 0.9
SUBSET_FRACTION = 0.2
SIGNAL_KINDS = ("covariance", "spectral", "both")


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int
    n_nodes: int
    session_length: int
    n_sessions: int = 4
    effect_size: float = 1.0
    signal: str = "covariance"
    seed: int = 0

    def validate(self) -> None:
        if self.n_subjects < 2 or self.n_subjects % 2 != 0:
            raise ConfigError("n_subjects must be even and >= 2 for exact class balance")
        if self.n_nodes < 2:
            raise ConfigError("n_nodes must be >= 2")
        if self.session_length < 32:
            raise ConfigError("session_length must be >= 32")
        if self.n_sessions < 1:
            raise ConfigError("n_sessions must be >= 1")
        if not 0.0 <= self.effect_size <= 1.0:
            raise ConfigError("effect_size must lie in [0, 1]")
        if self.signal not in SIGNAL_KINDS:
            raise ConfigError(f"signal must be one of {SIGNAL_KINDS}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def signal_subset(config: SynthConfig) -> np.ndarray:
    """Node subset carrying the class signal; fixed per dataset seed."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5B5E7]))
    size = max(1, round(SUBSET_FRACTION * config.n_nodes))
    return np.sort(rng.choice(config.n_nodes, size=size, replace=False))


def _subject(config: SynthConfig, subset: np.ndarray, index: int) -> SubjectRecord:
    """One subject's sessions from one draw and one AR(1) recursion over time.

    Each session is laid out as W columns: the N nodes, then on a positive
    covariance subject the latent. The subject's generator yields the
    sessions' innovations in turn, each the (T, N) node block followed by
    the (T, 1) latent, so one (S, T * W) draw holds them all. The recursion
    runs once over a (T, S, W) block, at rate 0.3 (plus the spectral shift)
    per node and 0.9 for the latent. ``x[t] += rate * x[t - 1]`` adds the
    same two doubles as ``rate * x[t - 1] + innovation``, so every value is
    the one a per-session, per-step loop gives."""
    label = index % 2
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, index]))
    length, n_nodes, n_sessions = config.session_length, config.n_nodes, config.n_sessions
    has_latent = label == 1 and config.signal in ("covariance", "both")
    width = n_nodes + 1 if has_latent else n_nodes
    rates = np.full(width, AR_COEFFICIENT)
    if label == 1 and config.signal in ("spectral", "both"):
        rates[subset] += AR_COEFFICIENT * config.effect_size
    if has_latent:
        rates[n_nodes] = LATENT_AR_COEFFICIENT
    draws = rng.standard_normal((n_sessions, length * width))
    series = np.empty((length, n_sessions, width))
    node_draws, latent_draws = np.split(draws, [length * n_nodes], axis=1)
    series[:, :, :n_nodes] = node_draws.reshape(n_sessions, length, n_nodes).transpose(1, 0, 2)
    series[:, :, n_nodes:] = latent_draws.reshape(n_sessions, length, -1).transpose(1, 0, 2)
    for t in range(1, length):
        series[t] += rates * series[t - 1]
    if has_latent:
        # the latent scaled to unit marginal variance, shared by the subset nodes
        latent = series[:, :, n_nodes] * np.sqrt(1.0 - LATENT_AR_COEFFICIENT ** 2)
        series[:, :, subset] += config.effect_size * latent[:, :, None]
    sessions = [series[:, s, :n_nodes].astype(np.float32) for s in range(n_sessions)]
    return SubjectRecord(subject_id=f"subj{index:04d}", label=label, sessions=sessions)


def _subjects(config: SynthConfig) -> Iterator[SubjectRecord]:
    """Validate now; then each subject in turn, generated as it is asked for."""
    config.validate()
    subset = signal_subset(config)
    return (_subject(config, subset, index) for index in range(config.n_subjects))


def generate(config: SynthConfig) -> list[SubjectRecord]:
    """Deterministic class-balanced records: labels alternate 0, 1, 0, 1, ..."""
    return list(_subjects(config))


def _write(path: Path, write, *args, **kwargs) -> None:
    """``write(path, ...)``, with an OS failure turned into a ConfigError
    naming the path."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def generate_dataset(config: SynthConfig, out_dir: Path, fmt: str = "bin") -> Path:
    """Write session matrices and the manifest; returns the manifest path.

    Each subject's sessions are written as soon as they are generated, so
    one subject is held at a time, not the dataset."""
    if fmt not in ("bin", "csv"):
        raise ConfigError("format must be 'bin' or 'csv'")
    records = _subjects(config)  # validates the config before anything is written
    out_dir = Path(out_dir)
    writer = write_matrix_binary if fmt == "bin" else write_matrix_csv
    _write(out_dir / "matrices", Path.mkdir, parents=True, exist_ok=True)
    entries = []
    for record in records:
        paths = []
        for scan, session in enumerate(record.sessions):
            rel = f"matrices/{record.subject_id}_scan{scan}.{fmt}"
            _write(out_dir / rel, writer, session)
            paths.append(rel)
        entries.append({"id": record.subject_id, "label": record.label, "sessions": paths})
    manifest = out_dir / "manifest.json"
    _write(manifest, write_manifest, n_nodes=config.n_nodes, subjects=entries)
    return manifest
