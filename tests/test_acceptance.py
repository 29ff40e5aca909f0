"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``; always
visible on failure). The expensive end-to-end runs share a module-scoped
fixture so the suite stays within its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from gradcheck import gradcheck, random_projection_loss

from stgnn import autodiff as ad
from stgnn.autodiff import Tensor
from stgnn.cli import main as cli_main
from stgnn.encoders import TcnEncoder
from stgnn.evaluation import (ExperimentConfig, HyperGrid, baseline_flat_correlation,
                              compute_metrics, plan_folds, run_experiment)
from stgnn.graph import (DiffPoolLevel, GCNLayer, GraphSAGELayer, entropy_loss, link_loss,
                         normalized_adjacency)
from stgnn.models import ModelSpec, bce_loss, build_model
from stgnn.nn import Linear
from stgnn.prep import (covariance_to_correlation, ledoit_wolf_covariance,
                        prepare_graph_samples, threshold_edges)
from stgnn.synth import SynthConfig, generate, generate_dataset

GRAD_TOLERANCE = 1e-4
TRIALS = 100


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def refined(check, seed, h_fallback=1e-7):
    """FD error for one seeded trial, with kink detection by h-refinement.

    A rectifier pre-activation that lands within h of zero makes central
    differences straddle the kink (an artifact of FD, not of the tape);
    shrinking h collapses the straddle window while a genuinely wrong
    analytic gradient keeps failing at any h.
    """
    err = check(seed)
    if err >= GRAD_TOLERANCE:
        err = min(err, check(seed, h=h_fallback))
    return err


# -- criterion 1: parameter-count oracles (exact) ---------------------------------


def test_criterion_1_parameter_counts():
    checks = {
        ("mean_CNN", 1200): 1_248_545,
        ("mean_CNN_GCN5", 1200): 1_314_337,
        ("mean_CNN", 75): 101_665,
    }
    ok = True
    for (name, length), expected in checks.items():
        got = build_model(ModelSpec.from_name(name), 50, length).parameter_count()
        ok &= got == expected
    for t in (75, 160, 480, 1200):
        plain = build_model(ModelSpec.from_name("mean_CNN"), 50, t).parameter_count()
        gcn = build_model(ModelSpec.from_name("mean_CNN_GCN5"), 50, t).parameter_count()
        ok &= (gcn - plain) == 65_792
    report(1, "parameter-count oracles exact, GCN delta 65,792 for every T", ok)


# -- criterion 2: gradient suite ----------------------------------------------------


def _check_conv(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    geometry = [
        {"stride": 1, "padding": 0, "dilation": 1},
        {"stride": 2, "padding": 3, "dilation": 1},
        {"stride": 1, "padding": 1, "dilation": 3},
        {"stride": 2, "dilation": 2, "causal": True},
        {"stride": 1, "dilation": 4, "causal": True},
    ][seed % 5]
    x = Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    loss = random_projection_loss(lambda: ad.conv1d(x, w, b, **geometry), rng)
    return gradcheck(loss, [x, w, b], h=h)


def _check_batchnorm(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
    beta = Tensor(rng.normal(size=2), requires_grad=True)
    rm, rv = np.zeros(2), np.ones(2)
    loss = random_projection_loss(
        lambda: ad.batchnorm1d(x, gamma, beta, rm, rv, train=True), rng)
    return gradcheck(loss, [x, gamma, beta], h=h)


def _check_weight_norm(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    v = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    g = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
    loss = random_projection_loss(lambda: ad.weight_norm(v, g), rng)
    return gradcheck(loss, [v, g], h=h)


def _check_linear(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    layer = Linear(4, 3, rng)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    loss = random_projection_loss(lambda: layer(x), rng)
    return gradcheck(loss, [x, layer.weight, layer.bias], h=h)


def _ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return a


def _check_gcn(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    layer = GCNLayer(3, rng)
    nodes = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    op = Tensor(normalized_adjacency(_ring(4)))
    loss = random_projection_loss(lambda: layer(nodes, op), rng)
    return gradcheck(loss, [nodes, layer.weight, layer.bias], h=h)


def _check_sage(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    layer = GraphSAGELayer(3, 2, rng)
    nodes = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    a = Tensor(np.abs(rng.normal(size=(4, 4))) + 0.1, requires_grad=True)
    loss = random_projection_loss(lambda: layer(nodes, a), rng)
    return gradcheck(loss, [nodes, a, layer.w_self, layer.w_neigh, layer.bias], h=h)


def _check_diffpool(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    level = DiffPoolLevel(3, 2, rng, hidden=4, out_features=3)
    for _, p in level.named_parameters():
        p.data = rng.normal(0.0, 0.5, size=p.data.shape)
    x = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
    a = Tensor(_ring(5)[None])

    def loss_fn():
        px, s, s_t = level(x, a, train=False)
        pa = ad.matmul(ad.matmul(s_t, a), s)
        link, ent = link_loss([(a, s, s_t)]), entropy_loss([(a, s, s_t)])
        return ad.add(ad.add(ad.tmean(ad.square(px)), ad.tmean(ad.square(pa))),
                      ad.add(link, ent))

    return gradcheck(loss_fn, [x] + level.parameters(), sample=6,
                     rng=np.random.default_rng(seed + 1), h=h)


def _check_bce_head(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    layer = Linear(5, 1, rng)
    x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    y = (rng.random(6) > 0.5).astype(np.float64)

    def loss_fn():
        logits = layer(x)
        probs = ad.reshape(ad.sigmoid(logits), (6,))
        return bce_loss(probs, y)

    return gradcheck(loss_fn, [x, layer.weight, layer.bias])


def test_criterion_2_gradient_suite():
    started = time.monotonic()
    suites = {
        "conv1d": _check_conv,
        "batchnorm": _check_batchnorm,
        "weight_norm": _check_weight_norm,
        "linear": _check_linear,
        "gcn": _check_gcn,
        "graphsage": _check_sage,
        "diffpool": _check_diffpool,
        "bce_head": _check_bce_head,
    }
    worst = {}
    with ad.default_dtype("f64"):
        for name, check in suites.items():
            worst[name] = max(refined(check, seed) for seed in range(TRIALS))
    elapsed = time.monotonic() - started
    ok = all(err < GRAD_TOLERANCE for err in worst.values()) and elapsed < 120.0
    detail = f"max rel err {max(worst.values()):.2e} over {TRIALS} shapes/op, {elapsed:.0f}s"
    report(2, "finite-difference gradient suite < 1e-4", ok, detail)


# -- criterion 3: AUC oracle ----------------------------------------------------------


def test_criterion_3_auc_rank_statistic():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # heavy ties
        auc = compute_metrics(scores, labels).auc
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        brute = float(((pos > neg) + 0.5 * (pos == neg)).mean())
        worst = max(worst, abs(auc - brute))
    report(3, "AUC matches pairwise brute force within 1e-12", worst < 1e-12,
           f"max |diff| {worst:.2e} over 200 draws")


# -- criterion 4: Ledoit-Wolf oracle ---------------------------------------------------


def _lw_oracle(data):
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
    rho = min(b_bar2, d2) / d2
    return rho * m * np.eye(n) + (1.0 - rho) * s, rho


def test_criterion_4_ledoit_wolf_oracle():
    worst = 0.0
    min_eig = np.inf
    intensities_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mix = rng.normal(size=(5, 5)) * 0.4 + np.eye(5)
        data = rng.normal(size=(500, 5)) @ mix
        ours = ledoit_wolf_covariance(data)
        expected, rho = _lw_oracle(data)
        worst = max(worst, float(np.abs(ours - expected).max()))
        intensities_ok &= 0.0 <= rho <= 1.0
        min_eig = min(min_eig, float(np.linalg.eigvalsh(ours).min()))
    ok = worst < 1e-10 and intensities_ok and min_eig >= -1e-10
    report(4, "Ledoit-Wolf matches direct formula within 1e-10, PSD, rho in [0,1]",
           ok, f"max entry diff {worst:.2e}, min eig {min_eig:.2e}")


# -- criterion 5: protocol guards ---------------------------------------------------------


def test_criterion_5_fold_protocol_guards():
    from test_evaluation import fake_samples  # same lightweight sample builder
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n0 = 5 * int(rng.integers(2, 9))
        n1 = 5 * int(rng.integers(2, 9))
        labels = {f"a{i}": 0 for i in range(n0)}
        labels.update({f"b{i}": 1 for i in range(n1)})
        plan = plan_folds(fake_samples(labels, per_subject=1), k=5, seed=seed)
        seen = set()
        global_p = n1 / (n0 + n1)
        for fold in range(5):
            test = plan.test_subjects(fold)
            train = plan.inner_subjects(fold, "train")
            val = plan.inner_subjects(fold, "val")
            ok &= not (test & seen)
            seen |= test
            ok &= not (test & train) and not (test & val) and not (train & val)
            p = sum(labels[s] for s in test) / len(test)
            ok &= abs(p - global_p) <= 0.05 + 1e-9
        ok &= seen == set(labels)
    report(5, "no subject leakage, fold class proportions within 5%", ok, "50 seeds")


# -- criterion 6: TCN causality --------------------------------------------------------------


def test_criterion_6_tcn_causality():
    ok = True
    with ad.default_dtype("f64"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            encoder = TcnEncoder(64, np.random.default_rng(1000 + seed))
            x = rng.normal(size=(1, 1, 64))
            t = int(rng.integers(0, 64))
            bumped = x.copy()
            bumped[0, 0, t] += 1.0
            base = encoder.block_activations(Tensor(x), train=False)
            diff = encoder.block_activations(Tensor(bumped), train=False)
            for depth, (a, b) in enumerate(zip(base, diff), start=1):
                reach = 2 ** depth
                changed = np.any(a.numpy() != b.numpy(), axis=(0, 1))
                for pos in np.nonzero(changed)[0]:
                    ok &= int(pos) * reach >= t
    report(6, "causal encoder activations never react to later inputs (exact, f64)",
           ok, "50 seeds")


# -- criteria 7 and 8: end-to-end synthetic reproduction ---------------------------------------


@pytest.fixture(scope="module")
def synthetic_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    config = SynthConfig(n_subjects=40, n_nodes=20, session_length=160,
                         n_sessions=4, effect_size=1.0, signal="covariance", seed=7)
    manifest = generate_dataset(config, out)
    grid = HyperGrid.fast()
    started = time.monotonic()
    deep = run_experiment(ExperimentConfig(
        manifest=str(manifest), model="mean_CNN_GCN5", threshold_percent=5,
        k_folds=5, seed=7, grid=grid))
    null = run_experiment(ExperimentConfig(
        manifest=str(manifest), model="mean_CNN_GCN5", threshold_percent=5,
        k_folds=5, seed=7, grid=grid, permute_labels=True))
    elapsed = time.monotonic() - started
    records = generate(config)
    samples = prepare_graph_samples(records, windows_per_scan=1, threshold_percent=5,
                                    balance_seed=0)
    plan = plan_folds(samples, k=5, seed=7)
    flat = baseline_flat_correlation(samples, plan, binarize=False, seed=7)
    binarized = baseline_flat_correlation(samples, plan, binarize=True, seed=7)
    return {"deep": deep, "null": null, "elapsed": elapsed,
            "flat": flat, "binarized": binarized}


def test_criterion_7_end_to_end_reproduction(synthetic_runs):
    deep_auc = synthetic_runs["deep"]["aggregate"]["auc"]["mean"]
    null_auc = synthetic_runs["null"]["aggregate"]["auc"]["mean"]
    elapsed = synthetic_runs["elapsed"]
    ok = deep_auc >= 0.90 and 0.40 <= null_auc <= 0.60 and elapsed <= 600.0
    report(7, "mean_CNN_GCN5 fast grid: AUC >= 0.90, permuted null in [0.40, 0.60]",
           ok, f"AUC {deep_auc:.3f}, null {null_auc:.3f}, {elapsed:.0f}s for both runs")


def test_criterion_8_baseline_echo(synthetic_runs):
    deep_auc = synthetic_runs["deep"]["aggregate"]["auc"]["mean"]
    flat_auc = float(np.mean([r.auc for r in synthetic_runs["flat"]]))
    bin_auc = float(np.mean([r.auc for r in synthetic_runs["binarized"]]))
    ok = flat_auc >= deep_auc - 0.05 and bin_auc >= 0.75
    report(8, "flat-correlation baseline >= deep - 0.05 and binarized >= 0.75",
           ok, f"flat {flat_auc:.3f}, binarized {bin_auc:.3f}, deep {deep_auc:.3f}")


# -- criterion 9: determinism ------------------------------------------------------------------


def test_criterion_9_run_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--subjects", "8", "--nodes", "6", "--length", "64",
                     "--sessions", "2", "--effect", "1.0", "--seed", "3",
                     "--out", str(data_dir)]) == 0
    payloads = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code = cli_main(["run", "--data", str(data_dir / "manifest.json"),
                         "--model", "mean_CNN_GCN20", "--threshold", "20",
                         "--folds", "2", "--seed", "5", "--grid-fast",
                         "--epochs", "3", "--batch-size", "8",
                         "--no-timestamp", "--out", str(out)])
        assert code == 0
        payloads.append((out / "results.json").read_bytes())
    ok = payloads[0] == payloads[1]
    report(9, "identical seeds give byte-identical results JSON", ok,
           f"{len(payloads[0])} bytes")


# -- criterion 10: edge-count rule ----------------------------------------------------------------


def test_criterion_10_edge_counts():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(120, 50))
        corr = covariance_to_correlation(ledoit_wolf_covariance(data))
        ok &= threshold_edges(corr, 5).sum() / 2 == 61
        ok &= threshold_edges(corr, 20).sum() / 2 == 245
    report(10, "N=50 thresholding yields exactly 61 (5%) and 245 (20%) edges",
           ok, "20 random correlation matrices")
