"""Check that two checkouts write byte-identical datasets and gate-run outputs.

    python tests/golden/gate.py PARENT CHANGE

PARENT and CHANGE are checkout directories, each holding a ``src/`` (for
example ``git archive <commit> | tar -x -C DIR``). First each checkout
synthesizes the gate dataset, 40 subjects x 4 sessions x 20 nodes x 160
steps, seed 7, in ``bin`` and in ``csv``, and the two sides' trees (session
matrices and manifest) are compared byte for byte. Then each gate run runs
with each checkout's ``src/`` on PARENT's ``bin`` dataset, as ``run
--grid-fast --folds 5 --seed 7 --no-timestamp``: ``mean_CNN``,
``mean_CNN_GCN5``, ``diff5_TCN``, ``diff5_TCN`` with aux link weight 1 and
entropy weight 0.5, ``logreg``, ``logreg_bin``, ``logreg --splits 64`` and
``mean_CNN_GCN5 --jobs 2``. The runs are serial and share this process's
environment (BLAS thread variables included), so both sides run alike. Each
run's ``results.json`` and ROC CSVs are compared byte for byte. Prints one
line per dataset and run and exits 1, listing every file that differs and
every command that failed, unless all are identical. Outputs go to a
temporary directory that is removed at the end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SYNTH = ("synth", "--subjects", "40", "--nodes", "20", "--length", "160", "--sessions", "4",
         "--seed", "7")
RUN = ("run", "--grid-fast", "--folds", "5", "--seed", "7", "--no-timestamp")
GATE_RUNS = {
    "mean_CNN": ("--model", "mean_CNN"),
    "mean_CNN_GCN5": ("--model", "mean_CNN_GCN5"),
    "diff5_TCN": ("--model", "diff5_TCN"),
    "diff5_TCN_aux": ("--model", "diff5_TCN", "--aux-link-weight", "1",
                      "--aux-entropy-weight", "0.5"),
    "logreg": ("--model", "logreg"),
    "logreg_bin": ("--model", "logreg_bin"),
    "logreg_64split": ("--model", "logreg", "--splits", "64"),
    "mean_CNN_GCN5_jobs2": ("--model", "mean_CNN_GCN5", "--jobs", "2"),
}


def stgnn(checkout: Path, workdir: Path, *args: str) -> subprocess.CompletedProcess:
    """The CLI of ``checkout``'s ``src/``, run in ``workdir``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, "-m", "stgnn.cli", *args], cwd=workdir, env=env,
                          capture_output=True, text=True)


def run_outputs(out: Path) -> set[str]:
    return {path.name for path in out.glob("roc_*.csv")} | {"results.json"}


def tree_files(root: Path) -> set[str]:
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def differing(parent_out: Path, change_out: Path, listed=run_outputs) -> list[str]:
    """The files ``listed`` names on either side that are missing on a side or
    differ in any byte."""
    return [name for name in sorted(listed(parent_out) | listed(change_out))
            if not ((parent_out / name).is_file() and (change_out / name).is_file()
                    and (parent_out / name).read_bytes() == (change_out / name).read_bytes())]


def compare(checkouts: list[Path], workdir: Path, label: str, args: tuple[str, ...],
            listed=run_outputs) -> list[str]:
    """Run one command with each checkout, writing to ``<side>/<label>`` under
    ``workdir``. Prints one line; returns the failed sides and the files that
    differ."""
    outs, seconds, problems = [], [], []
    for side, checkout in zip(("parent", "change"), checkouts):
        out = workdir / side / label
        started = time.perf_counter()
        done = stgnn(checkout, workdir, *args, "--out", str(out))
        seconds.append(time.perf_counter() - started)
        if done.returncode:
            problems.append(f"{side} {label} failed: {done.stderr.strip()}")
        outs.append(out)
    files = [f"{label}/{file}" for file in differing(*outs, listed=listed)]
    verdict = "identical" if not files else f"{len(files)} files differ"
    print(f"{label:<20} {verdict:<16} parent {seconds[0]:6.1f} s, "
          f"change {seconds[1]:6.1f} s", flush=True)
    return problems + files


def main(argv: list[str]) -> int:
    checkouts = [Path(arg).resolve() for arg in argv]
    if len(checkouts) != 2 or not all((c / "src" / "stgnn").is_dir() for c in checkouts):
        print("usage: python tests/golden/gate.py PARENT CHANGE  (two checkouts with src/stgnn)",
              file=sys.stderr)
        return 2
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="stgnn-gate-") as tmp:
        workdir = Path(tmp)
        for fmt in ("bin", "csv"):
            problems += compare(checkouts, workdir, f"synth_{fmt}", (*SYNTH, "--format", fmt),
                                listed=tree_files)
        manifest = workdir / "parent" / "synth_bin" / "manifest.json"
        if manifest.is_file():
            for name, args in GATE_RUNS.items():
                problems += compare(checkouts, workdir, name,
                                    (*RUN, *args, "--data", str(manifest)))
        else:
            problems.append("no gate runs: the parent's synth wrote no bin dataset")
    for problem in problems:
        print(f"DIFFERENT: {problem}")
    print("byte-identical" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
