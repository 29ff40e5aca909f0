"""Synthetic dataset generator: determinism, balance, round trips, null behavior."""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stgnn.errors import ConfigError
from stgnn.prep import SubjectRecord, load_manifest, write_matrix_csv
from stgnn.synth import SynthConfig, generate, generate_dataset, signal_subset


def small_config(**overrides):
    base = dict(n_subjects=6, n_nodes=5, session_length=48, n_sessions=2,
                effect_size=1.0, seed=3)
    base.update(overrides)
    return SynthConfig(**base)


def test_generate_is_exactly_balanced():
    records = generate(small_config())
    labels = [r.label for r in records]
    assert labels.count(0) == labels.count(1) == 3


def test_generate_shapes_and_ids():
    records = generate(small_config())
    assert [r.subject_id for r in records] == [f"subj{i:04d}" for i in range(6)]
    for record in records:
        assert len(record.sessions) == 2
        assert all(s.shape == (48, 5) for s in record.sessions)


def test_generate_rejects_odd_subject_count():
    with pytest.raises(ConfigError):
        generate(small_config(n_subjects=5))


def test_generate_rejects_short_sessions():
    with pytest.raises(ConfigError):
        generate(small_config(session_length=16))


def test_signal_subset_is_fixed_per_seed():
    a = signal_subset(small_config())
    b = signal_subset(small_config())
    np.testing.assert_array_equal(a, b)
    assert len(a) == 1  # round(0.2 * 5)


def test_effect_zero_classes_identically_generated():
    records = generate(small_config(effect_size=0.0))
    # with no effect the per-subject generator ignores the label entirely:
    # regenerating subject 1's stream with label flipped changes nothing
    rng = np.random.default_rng(np.random.SeedSequence([3, 1, 1]))
    base = rng.standard_normal((48, 5))
    series = np.empty((48, 5))
    series[0] = base[0]
    for t in range(1, 48):
        series[t] = 0.3 * series[t - 1] + base[t]
    np.testing.assert_allclose(records[1].sessions[0], series.astype(np.float32))


def test_covariance_signal_correlates_subset_nodes():
    config = small_config(n_nodes=10, session_length=512, effect_size=1.0)
    subset = signal_subset(config)
    assert len(subset) == 2
    records = generate(config)
    pos = [r for r in records if r.label == 1]
    neg = [r for r in records if r.label == 0]
    pos_corr = np.mean([np.corrcoef(r.sessions[0][:, subset].T)[0, 1] for r in pos])
    neg_corr = np.mean([np.corrcoef(r.sessions[0][:, subset].T)[0, 1] for r in neg])
    assert pos_corr > 0.3
    assert abs(neg_corr) < 0.2


def test_covariance_latent_is_temporally_smooth():
    # the shared latent leaves a lag-1 signature on subset nodes well above
    # the 0.3 baseline, so the temporal encoders can see the covariance class
    config = small_config(n_nodes=10, session_length=512, effect_size=1.0)
    subset = signal_subset(config)
    records = generate(config)

    def lag1(series):
        return np.corrcoef(series[:-1], series[1:])[0, 1]

    pos = np.mean([lag1(r.sessions[0][:, subset[0]]) for r in records if r.label == 1])
    neg = np.mean([lag1(r.sessions[0][:, subset[0]]) for r in records if r.label == 0])
    assert pos > neg + 0.15


def test_spectral_signal_raises_autocorrelation():
    config = small_config(n_nodes=10, session_length=512, effect_size=1.0,
                          signal="spectral")
    subset = signal_subset(config)
    records = generate(config)

    def lag1(series):
        return np.corrcoef(series[:-1], series[1:])[0, 1]

    pos = np.mean([lag1(r.sessions[0][:, subset[0]]) for r in records if r.label == 1])
    neg = np.mean([lag1(r.sessions[0][:, subset[0]]) for r in records if r.label == 0])
    assert pos > neg + 0.15


def test_effect_zero_statistics_indistinguishable():
    # pooled over 20 seeds: per-subject node means and variances from both
    # classes come from the same distribution (two-sided z-test, p > 0.01)
    means = {0: [], 1: []}
    variances = {0: [], 1: []}
    for seed in range(20):
        for record in generate(small_config(effect_size=0.0, seed=seed)):
            data = np.concatenate([s.reshape(-1) for s in record.sessions])
            means[record.label].append(float(data.mean()))
            variances[record.label].append(float(data.var()))
    for stat in (means, variances):
        a = np.array(stat[0])
        b = np.array(stat[1])
        pooled = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        z = (a.mean() - b.mean()) / pooled
        p = math.erfc(abs(z) / math.sqrt(2.0))
        assert p > 0.01


def test_dataset_files_round_trip(tmp_path):
    config = small_config()
    manifest = generate_dataset(config, tmp_path / "ds")
    records = load_manifest(manifest)
    expected = generate(config)
    assert [r.subject_id for r in records] == [r.subject_id for r in expected]
    assert [r.label for r in records] == [r.label for r in expected]
    for got, want in zip(records, expected):
        for a, b in zip(got.sessions, want.sessions):
            np.testing.assert_array_equal(a, b)


def test_dataset_csv_round_trip(tmp_path):
    manifest = generate_dataset(small_config(), tmp_path / "ds", fmt="csv")
    records = load_manifest(manifest)
    expected = generate(small_config())
    np.testing.assert_array_equal(records[0].sessions[0], expected[0].sessions[0])


def test_dataset_bytes_are_deterministic(tmp_path):
    m1 = generate_dataset(small_config(), tmp_path / "a")
    m2 = generate_dataset(small_config(), tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    for f1 in sorted((tmp_path / "a" / "matrices").iterdir()):
        f2 = tmp_path / "b" / "matrices" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_generate_dataset_holds_one_subject_at_a_time(tmp_path, fmt):
    # 60 subjects x 2 sessions x 200 steps x 10 nodes of float32 is 960 KB;
    # written one subject at a time, the traced peak stays near one subject
    config = SynthConfig(n_subjects=60, n_nodes=10, session_length=200, n_sessions=2, seed=1)
    generate_dataset(small_config(n_subjects=2), tmp_path / "warm", fmt=fmt)  # one-time costs
    tracemalloc.start()
    try:
        generate_dataset(config, tmp_path / "ds", fmt=fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2 * 200 * 10 * 4 / 4


# pinned bytes ---------------------------------------------------------------------

# (signal, effect, nodes, length, sessions); every config has 4 subjects, so
# both classes appear, and seed = its index in this list
DIGEST_CONFIGS = [
    ("covariance", 0.0, 7, 33, 1),
    ("covariance", 0.37, 5, 48, 3),
    ("covariance", 1.0, 11, 35, 3),
    ("spectral", 0.0, 6, 40, 3),
    ("spectral", 0.37, 7, 33, 1),
    ("spectral", 1.0, 9, 37, 3),
    ("both", 0.0, 5, 33, 3),
    ("both", 0.37, 8, 41, 1),
    ("both", 1.0, 13, 39, 3),
]


def digest_config(index):
    signal, effect, nodes, length, sessions = DIGEST_CONFIGS[index]
    return SynthConfig(n_subjects=4, n_nodes=nodes, session_length=length,
                       n_sessions=sessions, effect_size=effect, signal=signal, seed=index)


def records_digest(records):
    """SHA-256 over every record's id, label, and each session's shape and bytes."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{record.subject_id},{record.label},{len(record.sessions)};".encode())
        for session in record.sessions:
            digest.update(f"{session.dtype.str}{session.shape};".encode())
            digest.update(session.tobytes())
    return digest.hexdigest()


def tree_digest(root):
    """SHA-256 over the relative path and bytes of every file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def config_digests(config, tmp_path):
    """(records, bin tree, csv tree) digests of one config."""
    digests = [records_digest(generate(config))]
    for fmt in ("bin", "csv"):
        generate_dataset(config, tmp_path / fmt, fmt=fmt)
        digests.append(tree_digest(tmp_path / fmt))
    return tuple(digests)


# (records, bin tree, csv tree) digests of each DIGEST_CONFIGS entry, as the per-step
# generator (reference_generate below) wrote them
PINNED_DIGESTS = [
    ('d4180b4d767e096b354fe4ecd766891b784e34ca17778111e2f58f571ba7b4d2',
     '066e3ef37bee114bad3f0ec709e9a5d83adc32312eaf79d4f7a876674c48bbb0',
     '8199548eee8000b15fd05279523ea7c913438031d325cf1e08c2d39eb727f6cb'),
    ('030aedbb4c97761509027a95efd9933808e13528be59073f169dfbb625da6206',
     'c128c24c8b4d320760ddb078b11ad89783705aa674b17a04e69e00cdddbfa492',
     '13dfa38cf3c94c9c978174d8ae15ad440b11c7618c8abf69e6f579b028b318f3'),
    ('fef591e2f2baf58f59331c4216570cf8de40304a09272cbefac535cd32e905b0',
     '2e2f8442dee114bf9c7e3c3a4e517440b3a1665892ba57a78ee373e4d060db25',
     'c9c4eacd5b584be8869226d1887ec0c893776b262e2425d0af1bbc904d1d6ff0'),
    ('9574d0e6050a8f18c4e812358fdd5614ced0dad909f680986e6128c7280a09f1',
     'f10013a7d18d01b1c5e76164163e5762ee47d0f20a92109fe2fc4493220776d2',
     'b0d13c0e914bcf1df65bfab43a72cc6d3f17178febd878e29791a002fcf167fa'),
    ('e10b90af9e90ff28dcf6c6524dfff71003bae6f44ad2cc522c465abb2ecdca0e',
     'c12e15453ad7d8bec607216503f834ebea96d7221217a412cec36a29f18d402e',
     '37ec3dc2fcf212aeec21f0dcd60a9a6d86ebc9f00f059186bd47777d3a69b283'),
    ('18ba64f56a1a06d6f184cdfb7122c1dd43c62f69afd4525d37b56f59d138d084',
     '0f0422b6c744a864bece1b37847f2a5c48fdcce38d32a5337ddef3f2c10a7be8',
     '6e6fa8d632be374d3bbaa1d1cafe167e6673c877245be0ce7f99a0066b5ff1bb'),
    ('0c94f15ac4989492173507d03f8b1211cab1dd21e99bfb385e59fd6d1ed04ddc',
     '46f42818ec0444a3c56b56b65a5514b55eaedf27a0c0ebb230da2ceafb42c93b',
     'fafd35502a5a1bfd6b8bd2b7e3515413355b2a4bc06c0574c6f250c7c5cc6210'),
    ('7bb59061511d7c4bea77ccbdefb7fe5edaf671d3590cd95625daf6ca621bb933',
     '2eb065d8280839a1805bdbd63d151bcd3e9e2987d44bbcefaf4da72910f586bd',
     '2791d126297b8cb9d894183de5189e63283414726f2e480822c0ffe0c8751f8f'),
    ('6dd6b0274c53108b154e57c7c4dccc3700d28cad035ec390c40f91cd266a82c4',
     'f4cb2737d06bed11c26a6d627e3b633371d1431bf2e16e061225ee5506ab3763',
     'f75c0e64150180cdf4bea6ee5373c29f6ef228eab7fb53af393d5e572da64a7b'),
]


@pytest.mark.parametrize("index", range(len(DIGEST_CONFIGS)))
def test_generated_and_written_bytes_match_pinned_digests(tmp_path, index):
    assert config_digests(digest_config(index), tmp_path) == PINNED_DIGESTS[index]


def _reference_ar1(rng, length, n_nodes, coefficients):
    innovations = rng.standard_normal((length, n_nodes))
    series = np.empty((length, n_nodes))
    series[0] = innovations[0]
    for t in range(1, length):
        series[t] = coefficients * series[t - 1] + innovations[t]
    return series


def reference_generate(config):
    """The generator one draw and one AR step at a time: per session the
    nodes' (T, N) innovations, then, on a positive covariance subject, the
    latent's (T, 1)."""
    subset = signal_subset(config)
    records = []
    for index in range(config.n_subjects):
        label = index % 2
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, index]))
        coefficients = np.full(config.n_nodes, 0.3)
        if label == 1 and config.signal in ("spectral", "both"):
            coefficients[subset] += 0.3 * config.effect_size
        sessions = []
        for _ in range(config.n_sessions):
            session = _reference_ar1(rng, config.session_length, config.n_nodes, coefficients)
            if label == 1 and config.signal in ("covariance", "both"):
                raw = _reference_ar1(rng, config.session_length, 1, np.array([0.9]))[:, 0]
                latent = raw * np.sqrt(1.0 - 0.9 ** 2)
                session[:, subset] += config.effect_size * latent[:, None]
            sessions.append(session.astype(np.float32))
        records.append(SubjectRecord(subject_id=f"subj{index:04d}", label=label,
                                     sessions=sessions))
    return records


def test_reference_generator_matches_the_pinned_digests():
    for index in range(len(DIGEST_CONFIGS)):
        records = reference_generate(digest_config(index))
        assert records_digest(records) == PINNED_DIGESTS[index][0]


@settings(max_examples=40, deadline=None)
@given(n_subjects=st.sampled_from([2, 4]), n_nodes=st.integers(2, 12),
       length=st.integers(32, 50), sessions=st.integers(1, 3),
       effect=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       signal=st.sampled_from(["covariance", "spectral", "both"]),
       seed=st.integers(0, 2**31))
def test_generate_writes_the_reference_generators_bytes(n_subjects, n_nodes, length, sessions,
                                                        effect, signal, seed):
    config = SynthConfig(n_subjects=n_subjects, n_nodes=n_nodes, session_length=length,
                         n_sessions=sessions, effect_size=effect, signal=signal, seed=seed)
    assert records_digest(generate(config)) == records_digest(reference_generate(config))


SPECIAL_VALUES = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38, -3.4028235e38,
                  np.nan, np.inf, -np.inf, 1.0, -0.1]


@settings(max_examples=60, deadline=None)
@given(matrix=arrays(np.float32, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
                     elements=st.one_of(st.floats(width=32), st.sampled_from(SPECIAL_VALUES))))
def test_write_matrix_csv_writes_savetxts_bytes(tmp_path_factory, matrix):
    root = tmp_path_factory.mktemp("csv")
    write_matrix_csv(root / "ours.csv", matrix)
    np.savetxt(root / "numpy.csv", matrix, delimiter=",", fmt="%.9g")
    assert (root / "ours.csv").read_bytes() == (root / "numpy.csv").read_bytes()


@pytest.mark.parametrize("matrix", [
    np.array(SPECIAL_VALUES, dtype=np.float32)[:, None],  # one column
    np.array(SPECIAL_VALUES, dtype=np.float32).reshape(3, 4),
    np.zeros((0, 5), dtype=np.float32),  # no rows: an empty file
])
def test_write_matrix_csv_writes_savetxts_bytes_on_edge_matrices(tmp_path, matrix):
    write_matrix_csv(tmp_path / "ours.csv", matrix)
    np.savetxt(tmp_path / "numpy.csv", matrix, delimiter=",", fmt="%.9g")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
