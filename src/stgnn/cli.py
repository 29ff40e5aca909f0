"""Command-line surface: synth, run, params, roc-plot.

Every command is deterministic given its flags and inputs; outputs are
written atomically (temp file + rename). Failures print a machine-readable
error JSON to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import autodiff as ad
from .errors import ConfigError, DataError, StgnnError
from .evaluation import ExperimentConfig, HyperGrid, run_experiment
from .models import ModelSpec, build_model
from .plots import roc_svg
from .synth import SynthConfig, generate_dataset


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write through a temp file and a rename. An OS failure leaves no temp
    file behind and comes back as a ConfigError naming the path."""
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("."))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stgnn",
                                     description="spatio-temporal graph classification engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_shared(p)
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--sessions", type=int, default=4)
    p.add_argument("--effect", type=float, default=1.0)
    p.add_argument("--signal", choices=("covariance", "spectral", "both"), default="covariance")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")

    p = run_parser = sub.add_parser("run", help="cross-validated training and evaluation")
    _add_shared(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the fold x grid-point trainings")
    p.add_argument("--precision", choices=("f32", "f64"), default="f32")
    p.add_argument("--config", type=Path, default=None,
                   help="key-value file merged under explicit flags")
    p.add_argument("--data", type=Path, default=None, help="manifest path")
    p.add_argument("--model", type=str, default="mean_CNN",
                   help="architecture name (e.g. mean_CNN_GCN5) or logreg / logreg_bin")
    p.add_argument("--threshold", type=int, choices=(5, 20), default=5)
    p.add_argument("--splits", type=int, choices=(4, 64), default=4)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--grid-fast", action="store_true",
                   help="single grid point instead of the full 27-point search")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, help="override (fast grid only)")
    p.add_argument("--permute-labels", action="store_true")
    p.add_argument("--select-final-epoch", action="store_true")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress wall-clock fields for byte-identical reruns")
    p.add_argument("--aux-link-weight", type=float, default=0.0)
    p.add_argument("--aux-entropy-weight", type=float, default=0.0)

    p = sub.add_parser("params", help="print the trainable parameter count")
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--length", type=int, default=1200)
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--threshold", type=int, choices=(5, 20), default=5)

    p = sub.add_parser("roc-plot", help="render fold ROC CSVs into one SVG")
    p.add_argument("inputs", nargs="*", type=Path)
    p.add_argument("--dir", type=Path, default=None, help="directory of roc_fold*.csv files")
    p.add_argument("--out", type=Path, required=True)

    parser.run_parser = run_parser  # config-file defaults attach to the subparser
    return parser


# commands -------------------------------------------------------------------


def cmd_synth(args) -> int:
    config = SynthConfig(n_subjects=args.subjects, n_nodes=args.nodes,
                         session_length=args.length, n_sessions=args.sessions,
                         effect_size=args.effect, signal=args.signal, seed=args.seed)
    _check_out_dir(Path(args.out))
    manifest = generate_dataset(config, args.out, fmt=args.format)
    print(manifest)
    return 0


def load_run_config(path: Path, run_parser: argparse.ArgumentParser) -> dict:
    """Parse a `key = value` file. Keys mirror the run flags; each value is
    coerced by its flag's type and must meet its flag's choices."""
    actions = {a.dest: a for a in run_parser._actions if a.dest not in ("help", "config")}
    overrides: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in actions:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: missing value for {key!r}")
        action = actions[key]
        coerce = _parse_bool if action.nargs == 0 else (action.type or str)  # nargs 0: a switch
        try:
            overrides[key] = coerce(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        if action.choices is not None and overrides[key] not in action.choices:
            raise ConfigError(f"{path}:{lineno}: {key!r} must be one of "
                              f"{list(action.choices)}; got {value!r}")
    return overrides


def _results_grid(args) -> HyperGrid:
    if args.grid_fast:
        grid = HyperGrid.fast() if args.lr is None else HyperGrid.fast(lr=args.lr)
    else:
        if args.lr is not None:
            raise ConfigError("--lr only applies together with --grid-fast")
        grid = HyperGrid()
    overrides = {"epochs": args.epochs, "batch_size": args.batch_size}
    return replace(grid, **{k: v for k, v in overrides.items() if v is not None})


def _check_out_dir(path: Path) -> None:
    """Refuse, before any work, an output directory that cannot be made: the
    path, or its nearest existing ancestor, is not a directory. Nothing is
    created here, so a run that fails later leaves no directory behind."""
    for candidate in (path, *path.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise ConfigError(f"--out {path}: {candidate} exists and is not a directory")
            return


def cmd_run(args) -> int:
    if args.data is None:
        raise ConfigError("run needs --data (or a `data` entry in --config)")
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    config = ExperimentConfig(
        manifest=str(args.data),
        model=args.model,
        threshold_percent=args.threshold,
        windows_per_scan=1 if args.splits == 4 else 16,
        k_folds=args.folds,
        seed=args.seed,
        grid=_results_grid(args),
        permute_labels=args.permute_labels,
        select_final_epoch=args.select_final_epoch,
        link_weight=args.aux_link_weight,
        entropy_weight=args.aux_entropy_weight,
        jobs=args.jobs,
    )
    document = run_experiment(config)
    if args.no_timestamp:
        document["wall_clock_seconds"] = None
    for report in document["folds"]:
        rows = ["threshold,fpr,tpr"]
        rows += [f"{thr:.10g},{fpr:.10g},{tpr:.10g}" for thr, fpr, tpr in report["roc"]]
        _atomic_write_text(out_dir / f"roc_fold{report['fold']}.csv", "\n".join(rows) + "\n")
    _atomic_write_text(out_dir / "results.json", json.dumps(document, indent=2) + "\n")
    agg = document["aggregate"]
    print(f"{document['config']['model']}  "
          f"{agg['auc']['mean']:.3f} ( {agg['auc']['sd']:.3f} )  "
          f"{agg['sensitivity']['mean']:.3f} ( {agg['sensitivity']['sd']:.3f} )  "
          f"{agg['specificity']['mean']:.3f} ( {agg['specificity']['sd']:.3f} )")
    return 0


def cmd_params(args) -> int:
    spec = ModelSpec.from_name(args.model, threshold_percent=args.threshold)
    model = build_model(spec, n_nodes=args.nodes, input_length=args.length)
    print(model.parameter_count())
    return 0


def cmd_roc_plot(args) -> int:
    paths = list(args.inputs)
    if args.dir is not None:
        paths += sorted(args.dir.glob("roc_fold*.csv"))
    if not paths:
        raise ConfigError("no ROC CSV inputs given")
    curves = []
    for path in paths:
        if not Path(path).is_file():
            raise DataError(f"missing ROC file {path}")
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != ["threshold", "fpr", "tpr"]:
                raise DataError(f"{path}: expected header threshold,fpr,tpr")
            points = []
            for row in reader:
                try:
                    point = (float(row["fpr"]), float(row["tpr"]))
                    valid = all(0.0 <= value <= 1.0 for value in point)  # NaN fails too
                except (TypeError, ValueError):
                    valid = False
                if not valid:
                    raise DataError(f"{path}, line {reader.line_num}: fpr and tpr must be "
                                    f"numbers in [0, 1]")
                points.append(point)
        curves.append((Path(path).stem, points))
    _atomic_write_text(args.out, roc_svg(curves))
    print(args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config supplies defaults; flags given explicitly still win
            parser.run_parser.set_defaults(**load_run_config(args.config, parser.run_parser))
            args = parser.parse_args(argv)
        if getattr(args, "precision", None):
            ad.set_default_dtype(args.precision)
        handlers = {
            "synth": cmd_synth,
            "run": cmd_run,
            "params": cmd_params,
            "roc-plot": cmd_roc_plot,
        }
        return handlers[args.command](args)
    except StgnnError as exc:
        return _report(type(exc).__name__, exc)
    except MemoryError as exc:  # numpy raises a private subclass; report the public name
        return _report("MemoryError", exc)


def _report(error: str, exc: BaseException) -> int:
    """Print the error as one JSON line in a single write, so the lines that
    several processes write to one unbuffered stderr never interleave."""
    sys.stderr.write(json.dumps({"error": error, "message": str(exc)}) + "\n")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
