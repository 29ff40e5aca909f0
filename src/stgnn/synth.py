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


def _ar1_series(rng: np.random.Generator, length: int, n_nodes: int,
                coefficients: np.ndarray) -> np.ndarray:
    innovations = rng.standard_normal((length, n_nodes))
    series = np.empty((length, n_nodes))
    series[0] = innovations[0]
    for t in range(1, length):
        series[t] = coefficients * series[t - 1] + innovations[t]
    return series


def _latent_series(rng: np.random.Generator, length: int) -> np.ndarray:
    """Smooth shared latent: AR(1) at 0.9, scaled to unit marginal variance."""
    raw = _ar1_series(rng, length, 1, np.array([LATENT_AR_COEFFICIENT]))[:, 0]
    return raw * np.sqrt(1.0 - LATENT_AR_COEFFICIENT ** 2)


def generate(config: SynthConfig) -> list[SubjectRecord]:
    """Deterministic class-balanced records: labels alternate 0, 1, 0, 1, ..."""
    config.validate()
    subset = signal_subset(config)
    records: list[SubjectRecord] = []
    for index in range(config.n_subjects):
        label = index % 2
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, index]))
        coefficients = np.full(config.n_nodes, AR_COEFFICIENT)
        if label == 1 and config.signal in ("spectral", "both"):
            coefficients[subset] += AR_COEFFICIENT * config.effect_size
        sessions = []
        for _ in range(config.n_sessions):
            session = _ar1_series(rng, config.session_length, config.n_nodes, coefficients)
            if label == 1 and config.signal in ("covariance", "both"):
                latent = _latent_series(rng, config.session_length)
                session[:, subset] += config.effect_size * latent[:, None]
            sessions.append(session.astype(np.float32))
        records.append(SubjectRecord(subject_id=f"subj{index:04d}", label=label,
                                     sessions=sessions))
    return records


def write_dataset(records: list[SubjectRecord], out_dir: Path, n_nodes: int,
                  fmt: str = "bin") -> Path:
    """Write session matrices and the manifest; returns the manifest path."""
    if fmt not in ("bin", "csv"):
        raise ConfigError("format must be 'bin' or 'csv'")
    out_dir = Path(out_dir)
    matrices = out_dir / "matrices"
    matrices.mkdir(parents=True, exist_ok=True)
    entries = []
    ext = "bin" if fmt == "bin" else "csv"
    writer = write_matrix_binary if fmt == "bin" else write_matrix_csv
    for record in records:
        paths = []
        for scan, session in enumerate(record.sessions):
            rel = f"matrices/{record.subject_id}_scan{scan}.{ext}"
            writer(out_dir / rel, session)
            paths.append(rel)
        entries.append({"id": record.subject_id, "label": record.label, "sessions": paths})
    manifest = out_dir / "manifest.json"
    write_manifest(manifest, n_nodes=n_nodes, subjects=entries)
    return manifest


def generate_dataset(config: SynthConfig, out_dir: Path, fmt: str = "bin") -> Path:
    return write_dataset(generate(config), out_dir, n_nodes=config.n_nodes, fmt=fmt)
