"""Command-line surface: file contracts, determinism, error reporting."""

import argparse
import json
import warnings

import numpy as np
import pytest

from stgnn.cli import build_parser, main
from stgnn.prep import load_manifest, write_manifest, write_matrix_csv


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert run_cli("synth", "--subjects", 8, "--nodes", 6, "--length", 64,
                   "--sessions", 2, "--effect", 1.0, "--seed", 3, "--out", out) == 0
    return out / "manifest.json"


def test_synth_writes_expected_files(tmp_path, capsys):
    assert run_cli("synth", "--subjects", 4, "--nodes", 5, "--length", 32,
                   "--sessions", 3, "--seed", 1, "--out", tmp_path) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("manifest.json")
    matrices = sorted((tmp_path / "matrices").iterdir())
    assert len(matrices) == 12  # 4 subjects x 3 sessions
    records = load_manifest(tmp_path / "manifest.json")
    assert len(records) == 4


def test_synth_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run_cli("synth", "--subjects", 4, "--nodes", 5, "--length", 32,
                "--seed", 9, "--out", tmp_path / sub)
    assert (tmp_path / "a" / "manifest.json").read_bytes() == \
        (tmp_path / "b" / "manifest.json").read_bytes()


def test_synth_rejects_bad_config(tmp_path, capsys):
    assert run_cli("synth", "--subjects", 3, "--nodes", 5, "--length", 32,
                   "--out", tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("model,length,expected", [
    ("mean_CNN", 1200, "1248545"),
    ("mean_CNN_GCN", 1200, "1314337"),
    ("mean_CNN", 75, "101665"),
])
def test_params_prints_table_counts(capsys, model, length, expected):
    assert run_cli("params", "--model", model, "--threshold", 5, "--length", length) == 0
    assert capsys.readouterr().out.strip() == expected


def test_params_rejects_unknown_model(capsys):
    assert run_cli("params", "--model", "mean_GRU") == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_run_writes_results_and_roc(dataset, tmp_path, capsys):
    out = tmp_path / "run1"
    code = run_cli("run", "--data", dataset, "--model", "mean_CNN", "--threshold", 20,
                   "--folds", 2, "--seed", 5, "--grid-fast", "--epochs", 2,
                   "--batch-size", 8, "--out", out)
    assert code == 0
    table_row = capsys.readouterr().out
    assert "mean_CNN" in table_row and "(" in table_row
    document = json.loads((out / "results.json").read_text())
    assert len(document["folds"]) == 2
    for fold in range(2):
        lines = (out / f"roc_fold{fold}.csv").read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        first = lines[1].split(",")
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0
        last = lines[-1].split(",")
        assert float(last[1]) == 1.0 and float(last[2]) == 1.0


def test_run_is_deterministic_with_no_timestamp(dataset, tmp_path):
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli("run", "--data", dataset, "--model", "mean_CNN", "--threshold", 20,
                       "--folds", 2, "--seed", 5, "--grid-fast", "--epochs", 2,
                       "--batch-size", 8, "--no-timestamp", "--out", out) == 0
        outputs.append((out / "results.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_run_baseline_model(dataset, tmp_path):
    out = tmp_path / "base"
    assert run_cli("run", "--data", dataset, "--model", "logreg", "--threshold", 20,
                   "--folds", 2, "--seed", 5, "--out", out) == 0
    document = json.loads((out / "results.json").read_text())
    assert document["config"]["model"] == "logreg_4split"


def test_run_diffpool_variant(dataset, tmp_path):
    out = tmp_path / "diff"
    assert run_cli("run", "--data", dataset, "--model", "diff20_CNN", "--folds", 2,
                   "--seed", 5, "--grid-fast", "--epochs", 1, "--batch-size", 8,
                   "--out", out) == 0
    document = json.loads((out / "results.json").read_text())
    assert document["config"]["model"] == "diff20_CNN"


def test_run_missing_manifest_fails_cleanly(tmp_path, capsys):
    assert run_cli("run", "--data", tmp_path / "nope.json", "--out", tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError"


def _csv_dataset(root, lengths, bad_cell=None):
    """Two subjects with one CSV session each, of the given lengths."""
    rng = np.random.default_rng(0)
    subjects = []
    for index, length in enumerate(lengths):
        matrix = rng.normal(size=(length, 3)).astype(np.float32)
        if index == 1 and bad_cell is not None:
            matrix[bad_cell] = np.nan
        write_matrix_csv(root / f"s{index}.csv", matrix)
        subjects.append({"id": f"s{index}", "label": index % 2, "sessions": [f"s{index}.csv"]})
    write_manifest(root / "manifest.json", n_nodes=3, subjects=subjects)
    return root / "manifest.json"


def _run_error(manifest, out, capsys):
    code = run_cli("run", "--data", manifest, "--model", "logreg", "--folds", 2,
                   "--out", out)
    captured = capsys.readouterr().err
    return code, json.loads(captured)


def test_run_rejects_non_finite_cell_with_error_json(tmp_path, capsys):
    manifest = _csv_dataset(tmp_path, [16, 16], bad_cell=(6, 2))
    code, err = _run_error(manifest, tmp_path / "out", capsys)
    assert code == 1
    assert err["error"] == "DataError"
    assert "s1.csv" in err["message"] and "row 7, column 3" in err["message"]
    assert not (tmp_path / "out").exists()


def test_run_rejects_ragged_sessions_with_error_json(tmp_path, capsys):
    manifest = _csv_dataset(tmp_path, [16, 12])
    code, err = _run_error(manifest, tmp_path / "out", capsys)
    assert code == 1
    assert err["error"] == "DataError"
    assert "s1.csv: 12 timesteps, but s0.csv has 16" in err["message"]


@pytest.mark.parametrize("document, message", [
    ('{"version": 1, "n_nodes": "abc", "subjects": []}', "n_nodes must be a positive integer"),
    ('{"version": 1, "n_nodes": 3, "subjects": 5}', "subjects must be a list"),
    ('{"version": 1, "n_nodes": 3, "subjects": ["s0"]}', "a subject entry must be an object"),
    ('{"version": 1, "n_nodes": 3, "subjects": [{"id": "s0", "label": 0, "sessions": [7]}]}',
     "subject s0: sessions must be a non-empty list of file paths; got [7]"),
    ('{"version": 1, "n_nodes": 3, "subjects": [{"id": "s0", "label": 0, "sessions": []}]}',
     "subject s0: sessions must be a non-empty list of file paths; got []"),
    ("5", "must be a JSON object"),
])
def test_run_rejects_malformed_manifest_with_one_error_json_line(tmp_path, capsys, document,
                                                                 message):
    (tmp_path / "manifest.json").write_text(document)
    code = run_cli("run", "--data", tmp_path / "manifest.json", "--out", tmp_path / "out")
    captured = capsys.readouterr().err
    assert code == 1
    assert len(captured.splitlines()) == 1 and "Traceback" not in captured
    err = json.loads(captured)
    assert err["error"] == "DataError"
    assert message in err["message"]


@pytest.mark.parametrize("model", ["mean_CNN_GCN5", "logreg"])
def test_run_rejects_window_that_overflows_float32_before_training(tmp_path, capsys, model):
    # every cell is finite, but the IQR of node 0 in s1 is one float32 ulp of 1.0,
    # so its 3e38 cell scales past float32
    rng = np.random.default_rng(0)
    subjects = []
    for index in range(4):
        matrix = rng.normal(size=(16, 3)).astype(np.float32)
        if index == 1:
            matrix[:, 0] = np.tile([1.0, np.nextafter(np.float32(1.0), np.float32(2.0))], 8)
            matrix[5, 0] = 3e38
        write_matrix_csv(tmp_path / f"s{index}.csv", matrix)
        subjects.append({"id": f"s{index}", "label": index % 2, "sessions": [f"s{index}.csv"]})
    write_manifest(tmp_path / "manifest.json", n_nodes=3, subjects=subjects)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--data", tmp_path / "manifest.json", "--model", model,
                       "--grid-fast", "--folds", 2, "--out", tmp_path / "out")
    captured = capsys.readouterr().err
    assert code == 1
    assert len(captured.splitlines()) == 1 and "Warning" not in captured
    err = json.loads(captured)
    assert err["error"] == "DataError"
    assert "subject s1, session 1" in err["message"] and "overflows float32" in err["message"]
    assert not caught
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--jobs", 2), ("--jobs", 0), ("--precision", "f64")])
@pytest.mark.parametrize("command", ["synth", "roc-plot"])
def test_only_run_takes_jobs_and_precision(tmp_path, capsys, command, flag, value):
    argv = {"synth": ["synth", "--subjects", 4, "--nodes", 5, "--length", 32],
            "roc-plot": ["roc-plot", tmp_path / "roc_fold0.csv"]}[command]
    with pytest.raises(SystemExit) as caught:
        run_cli(*argv, "--out", tmp_path / "out", flag, value)
    assert caught.value.code != 0
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--jobs", 0), ("--jobs", -1), ("--folds", 1),
                                        ("--folds", 0), ("--epochs", 0), ("--batch-size", 0),
                                        ("--batch-size", -4)])
def test_run_rejects_run_sizes_below_minimum_with_error_json(dataset, tmp_path, capsys,
                                                             flag, value):
    code = run_cli("run", "--data", dataset, "--model", "logreg", "--folds", 2,
                   flag, value, "--out", tmp_path / "out")
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "ConfigError"
    assert flag[2:].replace("-", " ") in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,model,flag,value,message", [
    pytest.param(*case, id=f"{case[0]}-{case[1] or ''}{case[2]}={case[3]}") for case in [
        ("synth", None, "--seed", -1, "seed"),
        ("run", "diff5_CNN", "--seed", -1, "seed"),
        ("run", "diff5_CNN", "--lr", -1, "lr"),
        ("run", "diff5_CNN", "--lr", "nan", "lr"),
        ("run", "diff5_CNN", "--aux-link-weight", -5, "aux link weight"),
        ("run", "diff5_CNN", "--aux-entropy-weight", "inf", "aux entropy weight"),
        *[("run", model, flag, 0.5, f"only to DiffPool models; {model}")
          for model in ("mean_CNN", "mean_TCN_GCN5", "logreg", "logreg_bin")
          for flag in ("--aux-link-weight", "--aux-entropy-weight")]]])
def test_bad_seed_rate_or_aux_weight_fails_with_one_error_json_line(dataset, tmp_path, capsys,
                                                                    command, model, flag, value,
                                                                    message):
    argv = {"synth": ["synth", "--subjects", 4, "--nodes", 5, "--length", 32],
            "run": ["run", "--data", dataset, "--model", model, "--grid-fast",
                    "--folds", 2]}[command]
    code = run_cli(*argv, flag, value, "--out", tmp_path / "out")
    captured = capsys.readouterr().err
    assert code == 1
    assert len(captured.splitlines()) == 1 and "Traceback" not in captured
    err = json.loads(captured)
    assert err["error"] == "ConfigError"
    assert message in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lr", ["1e30", "1e308"])
def test_diverging_run_fails_with_one_error_json_line_and_no_numpy_warning(dataset, tmp_path,
                                                                           capsys, lr):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--data", dataset, "--model", "mean_CNN", "--grid-fast",
                       "--folds", 2, "--lr", lr, "--out", tmp_path / "out")
    captured = capsys.readouterr().err
    assert code == 1
    assert len(captured.splitlines()) == 1 and "Warning" not in captured
    assert json.loads(captured)["error"] == "HarnessError"
    assert not caught


def test_run_config_file_merges_under_flags(dataset, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# experiment defaults\n"
        f"data = {dataset}\n"
        "model = mean_CNN\n"
        "threshold = 20\n"
        "folds = 2\n"
        "grid-fast = true\n"
        "epochs = 2\n"
        "batch-size = 8\n"
        "no-timestamp = on\n"
    )
    out_a = tmp_path / "a"
    assert run_cli("run", "--config", conf, "--seed", 5, "--out", out_a) == 0
    # explicit flag wins over the config entry
    out_b = tmp_path / "b"
    assert run_cli("run", "--config", conf, "--seed", 5, "--epochs", 1,
                   "--out", out_b) == 0
    doc_a = json.loads((out_a / "results.json").read_text())
    doc_b = json.loads((out_b / "results.json").read_text())
    assert len(doc_a["folds"][0]["train_curve"]) == 2
    assert len(doc_b["folds"][0]["train_curve"]) == 1


def test_run_config_rejects_unknown_keys(dataset, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    # a value outside its flag's choices is rejected like an unknown key
    for bad in ("learning_rate_decay = 0.1", "splits = 7", "threshold = 10", "precision = f16"):
        conf.write_text(f"data = {dataset}\n{bad}\n")
        assert run_cli("run", "--config", conf, "--out", tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and f"{conf}:2:" in err["message"]


def test_run_without_data_anywhere_fails(tmp_path, capsys):
    assert run_cli("run", "--out", tmp_path) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_roc_plot_renders_curves(dataset, tmp_path):
    out = tmp_path / "run"
    run_cli("run", "--data", dataset, "--model", "mean_CNN", "--threshold", 20,
            "--folds", 2, "--seed", 5, "--grid-fast", "--epochs", 1,
            "--batch-size", 8, "--out", out)
    svg = tmp_path / "roc.svg"
    assert run_cli("roc-plot", "--dir", out, "--out", svg) == 0
    body = svg.read_text()
    assert body.count("<polyline") == 2
    assert "false positive rate" in body


def test_roc_plot_perfect_classifier_touches_corner(tmp_path):
    csv_path = tmp_path / "roc_fold0.csv"
    csv_path.write_text("threshold,fpr,tpr\n1.9,0,0\n0.9,0,1\n0.1,1,1\n")
    svg = tmp_path / "roc.svg"
    assert run_cli("roc-plot", csv_path, "--out", svg) == 0
    # fpr=0, tpr=1 maps to the top-left corner of the plot box
    assert "64.00,64.00" in svg.read_text()


def test_roc_plot_missing_input_fails(tmp_path, capsys):
    assert run_cli("roc-plot", tmp_path / "absent.csv", "--out", tmp_path / "o.svg") == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DataError"


@pytest.mark.parametrize("rows", ["1.9,abc,0\n", "1.9,0\n", None])
def test_roc_plot_rejects_unreadable_input_with_error_json(tmp_path, capsys, rows):
    source = tmp_path / "roc_fold0.csv"
    if rows is None:
        source.mkdir()
    else:
        source.write_text("threshold,fpr,tpr\n0.9,0,1\n" + rows)
    assert run_cli("roc-plot", source, "--out", tmp_path / "o.svg") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError" and "roc_fold0.csv" in err["message"]
    assert not (tmp_path / "o.svg").exists()


def test_roc_plot_requires_inputs(tmp_path, capsys):
    assert run_cli("roc-plot", "--out", tmp_path / "o.svg") == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_roc_plot_into_existing_directory_fails_typed_and_leaves_no_temp(tmp_path, capsys):
    csv_path = tmp_path / "roc_fold0.csv"
    csv_path.write_text("threshold,fpr,tpr\n1.9,0,0\n0.9,0,1\n0.1,1,1\n")
    (tmp_path / "taken").mkdir()
    assert run_cli("roc-plot", csv_path, "--out", tmp_path / "taken") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "taken" in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["roc_fold0.csv", "taken"]
    assert not any((tmp_path / "taken").iterdir())


def test_subcommands_are_exactly_synth_run_params_roc_plot(tmp_path, capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"synth", "run", "params", "roc-plot"}
    with pytest.raises(SystemExit) as caught:
        run_cli("preprocess", "--data", tmp_path / "manifest.json", "--out", tmp_path / "pre.stgp")
    assert caught.value.code != 0
    err = capsys.readouterr().err
    assert "invalid choice" in err and "preprocess" in err
