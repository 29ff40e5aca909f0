"""Preprocessing: scaling, windowing, shrinkage correlation graphs, balancing, IO."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stgnn.errors import ConfigError, ContractError, DataError
from stgnn.prep import (SubjectRecord, balance_by_subject, build_samples,
                        covariance_to_correlation, ledoit_wolf_covariance, load_manifest,
                        prepare_graph_samples, read_matrix, robust_scale, stack_samples,
                        threshold_edges, window_adjacency, window_split, write_manifest,
                        write_matrix_binary, write_matrix_csv)


# robust scaling -----------------------------------------------------------------


def test_robust_scale_linear_ramp():
    np.testing.assert_allclose(robust_scale(np.array([1.0, 2, 3, 4, 5])),
                               [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_robust_scale_degenerate_iqr_gives_zeros():
    np.testing.assert_array_equal(robust_scale(np.array([7.0, 7, 7])), np.zeros(3))


def test_robust_scale_output_statistics():
    rng = np.random.default_rng(0)
    for _ in range(20):
        series = rng.normal(3.0, 2.5, size=rng.integers(5, 200))
        out = robust_scale(series)
        assert abs(np.quantile(out, 0.5)) < 1e-6
        q1, q3 = np.quantile(out, [0.25, 0.75])
        assert abs((q3 - q1) - 1.0) < 1e-6


def test_robust_scale_empty_raises():
    with pytest.raises(ContractError):
        robust_scale(np.array([]))
    with pytest.raises(ContractError):
        robust_scale(np.zeros((3, 0)))


def test_robust_scale_scales_each_row_of_a_stack_on_its_own():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 4, 9))
    stack[1, 2] = 5.0  # constant row
    out = robust_scale(stack)
    for index in np.ndindex(stack.shape[:-1]):
        np.testing.assert_array_equal(out[index], robust_scale(stack[index]))
    np.testing.assert_array_equal(out[1, 2], np.zeros(9))


# windowing ---------------------------------------------------------------------


def _record(n_sessions=4, length=1200, nodes=5, label=0, sid="s0", seed=0):
    rng = np.random.default_rng(seed)
    sessions = [rng.normal(size=(length, nodes)).astype(np.float32)
                for _ in range(n_sessions)]
    return SubjectRecord(subject_id=sid, label=label, sessions=sessions)


def test_window_split_full_sessions():
    record = _record(length=1200, nodes=5)
    windows = window_split(record, windows_per_scan=1)
    assert len(windows) == 4
    assert all(w.features.shape == (5, 1200) for w in windows)
    for w, session in zip(windows, record.sessions):  # one window per session, in order
        np.testing.assert_array_equal(w.features, robust_scale(session.T).astype(np.float32))
    assert all(w.adjacency is None for w in windows)


def test_window_split_sixteen_per_scan():
    record = _record(length=1200, nodes=3)
    windows = window_split(record, windows_per_scan=16)
    assert len(windows) == 64
    assert all(w.features.shape == (3, 75) for w in windows)


def test_window_split_is_a_partition():
    record = _record(n_sessions=2, length=8, nodes=2)
    windows = window_split(record, windows_per_scan=2)
    assert len(windows) == 4
    # session then window order
    raw_blocks = [session[start:start + 4, :].T
                  for session in record.sessions for start in (0, 4)]
    for w, raw_block in zip(windows, raw_blocks):
        expected = np.vstack([robust_scale(row) for row in raw_block])
        np.testing.assert_array_equal(w.features, expected.astype(np.float32))


def reference_window_split(record, windows_per_scan):
    """Per-row scaling with one np.quantile call per statistic, window by window.

    A value that overflows the float32 cast comes back as inf."""
    out = []
    for session in record.sessions:
        width = session.shape[0] // windows_per_scan
        for w in range(windows_per_scan):
            rows = []
            for row in session[w * width:(w + 1) * width, :].T.astype(np.float64):
                median = np.quantile(row, 0.5)
                q1, q3 = np.quantile(row, [0.25, 0.75])
                iqr = q3 - q1
                rows.append(np.zeros_like(row) if iqr == 0.0 else (row - median) / iqr)
            with np.errstate(over="ignore"):
                out.append(np.vstack(rows).astype(np.float32))
    return out


# few distinct values make ties and zero-IQR windows common
_cells = st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                   st.floats(-1e3, 1e3, allow_nan=False, width=32))


@st.composite
def _records(draw):
    windows_per_scan = draw(st.sampled_from([1, 2, 4, 16]))
    width = draw(st.integers(1, 9))
    nodes = draw(st.integers(1, 4))
    n_sessions = draw(st.integers(1, 2))
    data = draw(arrays(np.float32, (n_sessions, windows_per_scan * width, nodes),
                       elements=_cells))
    constant = draw(st.integers(0, nodes - 1))
    data[:, :, constant] = draw(_cells)
    return SubjectRecord("s", 0, list(data)), windows_per_scan


@settings(max_examples=150, deadline=None)
@given(_records())
def test_window_split_matches_per_row_reference_bytes(case):
    record, windows_per_scan = case
    expected = reference_window_split(record, windows_per_scan)
    if not all(np.all(np.isfinite(ref)) for ref in expected):
        with pytest.raises(DataError, match="overflows float32"):
            window_split(record, windows_per_scan)
        return
    windows = window_split(record, windows_per_scan)
    assert len(windows) == len(expected)
    for window, ref in zip(windows, expected):
        assert window.features.dtype == np.float32
        assert window.features.flags.c_contiguous
        assert window.features.shape == ref.shape
        assert window.features.tobytes() == ref.tobytes()


def test_window_split_zero_iqr_window_scales_to_zeros():
    session = np.zeros((16, 2), dtype=np.float32)
    session[:, 1] = np.tile(np.arange(8), 2)
    session[5, 0] = 9.0  # a spike: window 0 of node 0 is not constant, but its IQR is zero
    windows = window_split(SubjectRecord("s", 0, [session]), windows_per_scan=2)
    np.testing.assert_array_equal(windows[0].features[0], np.zeros(8))
    np.testing.assert_array_equal(windows[1].features[0], np.zeros(8))
    expected = ((np.arange(8) - 3.5) / 3.5).astype(np.float32)  # quartiles 1.75, 3.5, 5.25
    np.testing.assert_array_equal(windows[0].features[1], expected)
    np.testing.assert_array_equal(windows[1].features[1], expected)


def test_window_split_rejects_indivisible_length():
    with pytest.raises(ConfigError):
        window_split(_record(length=10), windows_per_scan=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(1, 16), st.integers(1, 3))
def test_window_split_accepts_exactly_the_divisible_lengths(length, windows_per_scan, n_sessions):
    record = _record(n_sessions=n_sessions, length=length, nodes=2)
    if length % windows_per_scan:
        with pytest.raises(ConfigError):
            window_split(record, windows_per_scan)
        return
    windows = window_split(record, windows_per_scan)
    assert len(windows) == n_sessions * windows_per_scan
    assert all(w.features.shape == (2, length // windows_per_scan) for w in windows)


def test_window_features_are_scaled_per_node():
    windows = window_split(_record(length=100, nodes=4), windows_per_scan=2)
    for w in windows:
        for row in w.features:
            assert abs(np.quantile(row.astype(np.float64), 0.5)) < 1e-5


# Ledoit-Wolf -------------------------------------------------------------------


def ledoit_wolf_oracle(data):
    """Direct textbook formula with explicit per-observation loops."""
    t, n = data.shape
    xc = data - data.mean(axis=0)
    s = np.zeros((n, n))
    for k in range(t):
        s += np.outer(xc[k], xc[k])
    s /= t
    m = np.trace(s) / n
    d2 = ((s - m * np.eye(n)) ** 2).sum() / n
    if d2 == 0.0:
        return s, 0.0
    b_bar2 = 0.0
    for k in range(t):
        b_bar2 += ((np.outer(xc[k], xc[k]) - s) ** 2).sum()
    b_bar2 /= t * t * n
    b2 = min(b_bar2, d2)
    rho = b2 / d2
    return rho * m * np.eye(n) + (1.0 - rho) * s, rho


def test_ledoit_wolf_identity_target_is_fixed_point():
    # empirical covariance exactly m*I: orthogonal, equal-variance columns
    data = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    out = ledoit_wolf_covariance(data)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-12)


def test_ledoit_wolf_single_node_is_sample_variance():
    data = np.array([[1.0], [2.0], [4.0]])
    out = ledoit_wolf_covariance(data)
    expected = np.var(data[:, 0])  # divisor T
    np.testing.assert_allclose(out, [[expected]], atol=1e-12)


def test_ledoit_wolf_matches_independent_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        scale = np.diag(rng.uniform(0.5, 2.0, size=5))
        data = rng.normal(size=(500, 5)) @ scale
        ours = ledoit_wolf_covariance(data)
        expected, rho = ledoit_wolf_oracle(data)
        np.testing.assert_allclose(ours, expected, atol=1e-10)
        assert 0.0 <= rho <= 1.0


def test_ledoit_wolf_output_is_symmetric_psd():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        data = rng.normal(size=(40, 6))
        out = ledoit_wolf_covariance(data)
        np.testing.assert_array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_ledoit_wolf_requires_two_rows():
    with pytest.raises(ContractError):
        ledoit_wolf_covariance(np.ones((1, 3)))


# correlation -------------------------------------------------------------------


def test_correlation_of_diagonal_covariance_is_identity():
    np.testing.assert_allclose(covariance_to_correlation(np.diag([4.0, 9.0])), np.eye(2))


def test_correlation_fixed_point():
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(covariance_to_correlation(c), c)


def test_correlation_unit_diagonal_and_symmetry():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    corr = covariance_to_correlation(spd)
    np.testing.assert_array_equal(np.diag(corr), np.ones(6))
    np.testing.assert_allclose(corr, corr.T)
    assert np.all(np.abs(corr) <= 1.0 + 1e-12)


def test_correlation_rejects_nonpositive_diagonal():
    with pytest.raises(ContractError):
        covariance_to_correlation(np.array([[0.0, 0.0], [0.0, 1.0]]))


# thresholding ------------------------------------------------------------------


def test_threshold_keeps_strongest_pair():
    corr = np.eye(3)
    corr[0, 1] = corr[1, 0] = 0.9
    corr[0, 2] = corr[2, 0] = -0.5
    corr[1, 2] = corr[2, 1] = 0.1
    adj = threshold_edges(corr, percent=100 / 3)  # keep top 1 of 3
    assert adj.dtype == np.float32
    np.testing.assert_array_equal(adj, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_threshold_edge_counts_at_50_nodes():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 50))
    corr = covariance_to_correlation(ledoit_wolf_covariance(a))
    assert threshold_edges(corr, 5).sum() / 2 == 61    # floor(0.05 * 1225)
    assert threshold_edges(corr, 20).sum() / 2 == 245  # floor(0.20 * 1225)


def test_threshold_full_percent_gives_complete_graph():
    corr = covariance_to_correlation(np.eye(4) + 0.1)
    adj = threshold_edges(corr, 100)
    np.testing.assert_array_equal(adj, 1 - np.eye(4))


def test_threshold_tie_break_is_lexicographic():
    corr = np.eye(3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        corr[i, j] = corr[j, i] = 0.5
    adj = threshold_edges(corr, percent=100 * 2 / 3)  # keep 2 of 3 equal pairs
    np.testing.assert_array_equal(adj, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])


def test_threshold_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        data = rng.normal(size=(50, n))
        corr = covariance_to_correlation(ledoit_wolf_covariance(data))
        percent = float(rng.choice([5, 20, 50]))
        adj = threshold_edges(corr, percent)
        assert adj.shape == (n, n) and adj.dtype == np.float32
        np.testing.assert_array_equal(adj, adj.T)
        np.testing.assert_array_equal(np.diag(adj), 0)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        expected = int(np.floor(percent / 100 * n * (n - 1) / 2))
        assert adj.sum() == 2 * expected


@st.composite
def _correlations(draw):
    n = draw(st.integers(2, 60))
    pairs = n * (n - 1) // 2
    # few distinct magnitudes of either sign make ties common
    values = draw(st.one_of(
        arrays(np.float64, pairs, elements=st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.9, 0.9])),
        arrays(np.float64, pairs, elements=st.floats(-1.0, 1.0))))
    corr = np.eye(n)
    ii, jj = np.triu_indices(n, k=1)
    corr[ii, jj] = corr[jj, ii] = values
    percent = draw(st.floats(0.0, 100.0, exclude_min=True))
    return corr, percent


@settings(max_examples=150, deadline=None)
@given(_correlations())
def test_threshold_edges_counts_symmetry_and_tie_break(case):
    corr, percent = case
    n = corr.shape[0]
    adj = threshold_edges(corr, percent)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = math.floor(percent / 100 * len(pairs))
    assert adj.sum() == 2 * keep
    # strongest |r| first, ties on ascending (i, j)
    expected = sorted(pairs, key=lambda p: (-abs(corr[p]), p))[:keep]
    np.testing.assert_array_equal(adj, adj.T)
    np.testing.assert_array_equal(np.diag(adj), 0)
    rebuilt = np.zeros((n, n), dtype=np.float32)
    for i, j in expected:
        rebuilt[i, j] = rebuilt[j, i] = 1
    np.testing.assert_array_equal(adj, rebuilt)


def test_threshold_rejects_bad_percent():
    with pytest.raises(ConfigError):
        threshold_edges(np.eye(3), 0)


# balancing ---------------------------------------------------------------------


def _light_records(n0, n1):
    recs = [SubjectRecord(f"a{i}", 0, []) for i in range(n0)]
    recs += [SubjectRecord(f"b{i}", 1, []) for i in range(n1)]
    return recs


def test_balance_produces_paper_scale_counts():
    balanced = balance_by_subject(_light_records(534, 469), seed=0)
    labels = [r.label for r in balanced]
    assert labels.count(0) == labels.count(1) == 469
    # 938 subjects -> 3752 samples at 4 windows, 60032 at 64 windows
    assert len(balanced) * 4 == 3752
    assert len(balanced) * 64 == 60032


def test_balance_keeps_already_balanced_input():
    records = _light_records(3, 3)
    assert balance_by_subject(records, seed=1) == records


def test_balance_is_deterministic_and_whole_subject():
    a = balance_by_subject(_light_records(10, 6), seed=42)
    b = balance_by_subject(_light_records(10, 6), seed=42)
    assert [r.subject_id for r in a] == [r.subject_id for r in b]
    assert len({r.subject_id for r in a}) == len(a)


def test_balance_requires_two_classes():
    with pytest.raises(ContractError):
        balance_by_subject([SubjectRecord("a", 0, [])], seed=0)


def test_prepare_graph_samples_end_to_end():
    records = [_record(n_sessions=2, length=64, nodes=6, label=i % 2, sid=f"s{i}", seed=i)
               for i in range(4)]
    samples = prepare_graph_samples(records, windows_per_scan=1, threshold_percent=20,
                                    balance_seed=0)
    assert len(samples) == 8
    for sample in samples:
        assert sample.features.shape == (6, 64)
        assert sample.adjacency.shape == (6, 6) and sample.adjacency.dtype == np.float32
        assert sample.adjacency.sum() / 2 == int(0.2 * 15)
        np.testing.assert_array_equal(sample.adjacency, sample.adjacency.T)


def test_build_samples_without_threshold_has_no_adjacency():
    records = [_record(n_sessions=2, length=32, nodes=4, label=i % 2, sid=f"s{i}", seed=i)
               for i in range(2)]
    samples = build_samples(records, windows_per_scan=2, threshold_percent=None)
    assert len(samples) == 8
    assert all(sample.adjacency is None for sample in samples)
    features, adjacency, labels, subjects = stack_samples(samples)
    assert features.shape == (8, 4, 16) and adjacency is None
    assert labels.tolist() == [0] * 4 + [1] * 4 and subjects[-1] == "s1"


# file formats -------------------------------------------------------------------


def test_binary_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(13, 7)).astype(np.float32)
    path = tmp_path / "m.bin"
    write_matrix_binary(path, matrix)
    np.testing.assert_array_equal(read_matrix(path), matrix)


def test_csv_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(9, 4)).astype(np.float32)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix)
    np.testing.assert_array_equal(read_matrix(path), matrix)


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    sessions = [rng.normal(size=(16, 3)).astype(np.float32) for _ in range(2)]
    for i, s in enumerate(sessions):
        write_matrix_binary(tmp_path / f"s{i}.bin", s)
    write_manifest(tmp_path / "manifest.json", n_nodes=3,
                   subjects=[{"id": "s0", "label": 1, "sessions": ["s0.bin", "s1.bin"]}])
    records = load_manifest(tmp_path / "manifest.json")
    assert len(records) == 1 and records[0].label == 1
    np.testing.assert_array_equal(records[0].sessions[0], sessions[0])


def test_manifest_rejects_missing_fields(tmp_path):
    (tmp_path / "manifest.json").write_text('{"version": 1}')
    with pytest.raises(DataError):
        load_manifest(tmp_path / "manifest.json")


def test_manifest_rejects_wrong_column_count(tmp_path):
    write_matrix_binary(tmp_path / "s.bin", np.zeros((4, 2), dtype=np.float32))
    write_manifest(tmp_path / "manifest.json", n_nodes=3,
                   subjects=[{"id": "x", "label": 0, "sessions": ["s.bin"]}])
    with pytest.raises(DataError):
        load_manifest(tmp_path / "manifest.json")


def test_read_matrix_rejects_garbage(tmp_path):
    (tmp_path / "bad.csv").write_text("not,a;number\n")
    with pytest.raises(DataError):
        read_matrix(tmp_path / "bad.csv")


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_matrix_rejects_non_finite_cells(tmp_path, fmt, value):
    matrix = np.ones((5, 3), dtype=np.float32)
    matrix[3, 1] = value
    path = tmp_path / f"m.{fmt}"
    (write_matrix_csv if fmt == "csv" else write_matrix_binary)(path, matrix)
    with pytest.raises(DataError, match=r"m\.%s.*row 4, column 2" % fmt):
        read_matrix(path)


@pytest.mark.parametrize("content, message", [
    (b"STGM", "truncated matrix file"),  # no version
    (b"STGM\x01\x00\x07", "truncated matrix file"),  # a version, then 1 of 8 shape bytes
    (b"STGM\x01\x00" + struct.pack("<II", 0, 3), "has no rows"),
    (b"", "has no rows"),
    (b"\n\n", "has no rows"),
    (b"# a comment line only\n", "has no rows"),
])
def test_read_matrix_rejects_truncated_and_empty_files(tmp_path, content, message):
    path = tmp_path / "m.dat"
    path.write_bytes(content)
    with pytest.raises(DataError, match=message):
        read_matrix(path)


def test_read_matrix_rejects_csv_values_beyond_float32(tmp_path):
    (tmp_path / "big.csv").write_text("1,2\n3,1e39\n")
    with pytest.raises(DataError, match="row 2, column 2"):
        read_matrix(tmp_path / "big.csv")


def test_manifest_rejects_ragged_sessions(tmp_path):
    write_matrix_binary(tmp_path / "a.bin", np.zeros((16, 3), dtype=np.float32))
    write_matrix_binary(tmp_path / "b.bin", np.zeros((12, 3), dtype=np.float32))
    write_manifest(tmp_path / "manifest.json", n_nodes=3,
                   subjects=[{"id": "x", "label": 0, "sessions": ["a.bin"]},
                             {"id": "y", "label": 1, "sessions": ["b.bin"]}])
    with pytest.raises(DataError, match="b.bin: 12 timesteps, but a.bin has 16"):
        load_manifest(tmp_path / "manifest.json")
