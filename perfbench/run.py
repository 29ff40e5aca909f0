"""Benchmark of the stgnn engine: one workload per call, in a fresh process.

    python3 perfbench/run.py --workload cv_gcn_small --seed 1 --seconds 15 --trace 0

Run from a checkout that holds ``src/stgnn``. The workload runs in a child
process (``workload.py``) with its BLAS thread count fixed and a wall-clock
deadline; a child that passes the deadline is killed and its operation
counted as failed. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the workload once untraced and once traced and prints the per-layer
metrics with the tracing overhead. Every metric is printed by name with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` names. The full result,
with machine metadata, goes to a ``result.json`` under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

# Every run ends within this many seconds of starting, killed children included.
DEADLINE_S = 170.0
# BLAS threads for the workload process; never more than the cores we may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# Fresh processes that only start and import, besides the workload's own
# start, so that set-up time reports a median start-up.
IMPORT_PROBES = 2
# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Autodiff ops with metrics of their own; every other op counts as "other".
NAMED_OPS = ("conv1d", "batchnorm1d", "matmul", "relu", "add", "sigmoid", "softmax_rows",
             "dropout", "weight_norm")


class BenchError(Exception):
    """The run measured nothing usable; no result line is printed."""


# child process ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def import_seconds() -> float:
    """Time from spawning a workload process to the end of its imports."""
    spawned = time.time()
    done = subprocess.run([sys.executable, str(HERE / "workload.py"), "--import-only"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout) - spawned


def run_child(args, workdir: Path, trace: int, deadline: float) -> dict:
    """Run workload.py once; returns its events and whether it was killed."""
    workdir.mkdir(parents=True)
    env = child_env()
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--workdir", str(workdir),
            "--spawned-at", repr(time.time())]
    if args.tiny:
        argv.append("--tiny")
    killed = False
    with open(workdir / "child.log", "wb") as log:
        child = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                 cwd=ROOT)
        try:
            child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            killed = True
        finally:  # also when this process is interrupted or terminated
            if child.poll() is None:
                child.kill()
                child.wait()
    events_path = workdir / "events.jsonl"
    events = ([json.loads(line) for line in events_path.read_text().splitlines()]
              if events_path.exists() else [])
    if not any(e["event"] == "setup" for e in events):
        tail = (workdir / "child.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"workload process ended (code {child.returncode}) before its "
                         f"set-up finished:\n{tail}")
    ended = any(e["event"] == "end" for e in events)
    # the largest of the children waited for so far: run the workload child first
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"events": events, "killed": killed, "crashed": not killed and not ended,
            "returncode": child.returncode, "peak_rss_mb": peak_mb}


def failed_op(op: dict) -> bool:
    """An operation fails when it raised, failed its output check or had a
    grid point return ``failed``."""
    return bool(op.get("error") or op.get("failed_points"))


def tally(run: dict) -> tuple[list[dict], int, int, list[str]]:
    """Operations of one child run, and (attempted, failed, failure reasons)."""
    ops = [e for e in run["events"] if e["event"] == "op"]
    reasons = [f"op {op['index']}: {op.get('error') or ''} "
               f"{op.get('failed_points', 0)} grid point(s) failed"
               for op in ops if failed_op(op)]
    failed = len(reasons)
    attempted = len(ops)
    if run["killed"] or run["crashed"]:
        attempted += 1
        failed += 1
        reasons.append("killed at the deadline" if run["killed"]
                       else f"workload process exited with {run['returncode']}")
    return ops, attempted, failed, reasons


# end-to-end metrics --------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest candidate percentile with at least ten samples beyond it
    (nearest rank), falling back to the median; returns (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n
    return statistics.median(ordered), 50.0, n


def end_to_end(run: dict, ops: list[dict], failed: int, attempted: int,
               probes_s: list[float]) -> dict:
    good = [op for op in ops if not failed_op(op)]
    if not good:
        raise BenchError("no operation completed without an error")
    setup = next(e for e in run["events"] if e["event"] == "setup")
    steps_ms = [s * 1e3 for op in good for s in op["steps_s"]]
    if not steps_ms:
        raise BenchError("no optimizer step was measured")
    tail_ms, tail_p, n_steps = tail(steps_ms)
    metrics = {
        "setup_s": (statistics.median(probes_s + [setup["import_s"]])
                    + statistics.median(setup["repeats_s"]), "s"),
        "run_s": (statistics.median(op["wall_s"] for op in good), "s"),
        "step_ms_p50": (statistics.median(steps_ms), "ms"),
        "step_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "auc": (statistics.median(op["auc"] for op in good), "1"),
        "failed_share": (failed / attempted, "1"),
    }
    scoring = [n / s for op in good for n, s in op["scoring"]]
    if scoring:
        metrics["eval_samples_per_s"] = (statistics.median(scoring), "1/s")
    notes = {"step_ms_tail_percentile": tail_p, "steps_measured": n_steps,
             "operations": len(good), "scoring_calls": len(scoring),
             "setup_repeats_s": setup["repeats_s"],
             "import_s": probes_s + [setup["import_s"]],
             "digest": good[0]["digest"]}
    return {"metrics": metrics, "notes": notes}


# per-layer metrics -------------------------------------------------------------------------


def per_layer(spans_doc: dict, traced: dict, traced_ops: list[dict],
              reference_run_s: float) -> dict:
    """Per-layer numbers from one traced run.

    Seconds and calls are per set-up plus per operation of the body, so
    they compare across runs that fit different numbers of operations.
    """
    spans, counts = spans_doc["spans"], spans_doc["counts"]
    totals = tracing.span_totals(spans)
    coverage = tracing.op_coverage(spans)
    n_ops = len(coverage)
    setup = next(e for e in traced["events"] if e["event"] == "setup")
    n_setups = len(setup["repeats_s"])

    def per(span: str, field: str) -> float:
        return (totals["setup"].get(span, {}).get(field, 0.0) / n_setups
                + totals["body"].get(span, {}).get(field, 0.0) / n_ops)

    def count(name: str) -> float:
        return (counts.get(f"setup:{name}", 0.0) / n_setups
                + counts.get(f"body:{name}", 0.0) / n_ops)

    def raw(span: str, field: str = "calls") -> float:
        return sum(totals[p].get(span, {}).get(field, 0.0) for p in ("setup", "body"))

    metrics: dict[str, tuple[float, str]] = {}
    names = {name for p in totals.values() for name in p}
    ops = {n.split(".")[1] for n in names if n.startswith("autodiff.") and
           n.endswith((".fwd", ".bwd"))}
    for op in NAMED_OPS:
        metrics[f"autodiff.{op}.fwd_s"] = (per(f"autodiff.{op}.fwd", "s"), "s")
        metrics[f"autodiff.{op}.bwd_s"] = (per(f"autodiff.{op}.bwd", "s"), "s")
        metrics[f"autodiff.{op}.calls"] = (per(f"autodiff.{op}.fwd", "calls"), "count")
    others = sorted(ops - set(NAMED_OPS))
    metrics["autodiff.other.fwd_s"] = (sum(per(f"autodiff.{o}.fwd", "s") for o in others), "s")
    metrics["autodiff.other.bwd_s"] = (sum(per(f"autodiff.{o}.bwd", "s") for o in others), "s")
    metrics["autodiff.other.calls"] = (
        sum(per(f"autodiff.{o}.fwd", "calls") for o in others), "count")
    metrics["autodiff.backward.self_s"] = (per("autodiff.backward", "self_s"), "s")
    backward_calls = raw("autodiff.backward")
    closures = sum(raw(f"autodiff.{o}.bwd") for o in ops)
    metrics["autodiff.tape_nodes_per_step"] = (
        closures / backward_calls if backward_calls else 0.0, "count")

    for entry in tracing.LAYER_FUNCTIONS + tracing.LAYER_METHODS:
        span = tracing.span_name(*entry)
        metrics[f"{span}.s"] = (per(span, "s"), "s")
    metrics["prep.load_manifest.bytes"] = (count("prep.load_manifest.bytes"), "B")
    metrics["prep.window_split.windows"] = (count("prep.window_split.windows"), "count")
    windows = (counts.get("setup:prep.window_split.windows", 0.0)
               + counts.get("body:prep.window_split.windows", 0.0))
    metrics["prep.ledoit_wolf.per_window"] = (
        raw("prep.ledoit_wolf") / windows if windows else 0.0, "ratio")
    metrics["nn.Module.state_dict.calls"] = (per("nn.Module.state_dict", "calls"), "count")
    metrics["evaluation.evaluate_loss.calls"] = (per("evaluation.evaluate_loss", "calls"),
                                                 "count")
    metrics["evaluation.optimizer_steps"] = (per("nn.Adam.step", "calls"), "count")

    traced_run_s = statistics.median(op["wall_s"] for op in traced_ops)
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - reference_run_s, "s")
    metrics["trace.top_level_s"] = (statistics.fmean(c["covered_s"] for c in coverage), "s")
    metrics["trace.uncovered_s"] = (
        statistics.fmean(c["wall_s"] - c["covered_s"] for c in coverage), "s")
    return metrics


# metadata ---------------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stgnn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "memory_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "load": "closed loop, one client, --jobs 1",
    }


# main -------------------------------------------------------------------------------------


def main() -> int:
    started = time.monotonic()
    # turn SIGTERM into SystemExit so the child is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: every code path in seconds")
    args = parser.parse_args()

    if not (ROOT / "src" / "stgnn" / "__init__.py").is_file():
        print(f"no stgnn sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    stamp = time.strftime("%Y%m%dT%H%M%S")
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    deadline = started + DEADLINE_S
    try:
        if args.trace:
            # the untraced reference gets half the time left, the traced run the rest
            reference = run_child(args, outdir / "reference", 0,
                                  time.monotonic() + (deadline - time.monotonic()) / 2)
            ref_ops, ref_attempted, ref_failed, ref_reasons = tally(reference)
            ref_good = [op["wall_s"] for op in ref_ops if not failed_op(op)]
            if not ref_good:
                raise BenchError("the untraced reference run completed no operation")
            traced = run_child(args, outdir / "traced", 1, deadline)
            ops, attempted, failed, reasons = tally(traced)
            attempted, failed = attempted + ref_attempted, failed + ref_failed
            reasons = [f"reference {r}" for r in ref_reasons] + reasons
            good = [op for op in ops if not failed_op(op)]
            spans_path = outdir / "traced" / "spans.json"
            if not good or not spans_path.exists():
                raise BenchError("the traced run completed no operation")
            metrics = per_layer(json.loads(spans_path.read_text()), traced, good,
                                statistics.median(ref_good))
            notes = {"operations": len(good), "reference_operations": len(ref_good),
                     "spans_file": str(spans_path.relative_to(ROOT))}
        else:
            run = run_child(args, outdir, 0, deadline)
            probes_s = [import_seconds() for _ in range(IMPORT_PROBES)]
            ops, attempted, failed, reasons = tally(run)
            measured = end_to_end(run, ops, failed, attempted, probes_s)
            metrics, notes = measured["metrics"], measured["notes"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "failures": reasons, "metadata": metadata(args), "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (outdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for reason in reasons:
        print(f"# failure: {reason}")
    print(f"# result: {(outdir / 'result.json').relative_to(ROOT)}")
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in wanted}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
