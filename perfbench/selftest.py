"""Self-test of the benchmark harness at a tiny size; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload's code path untraced and traced on 8 subjects x 6
nodes x 64 steps with one epoch, and checks that each run prints every
metric ``BENCHMARK.json`` names, with its unit, in a well-formed result
line. It also checks the failure accounting and the tail percentile rule,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, spec: dict) -> None:
    done = bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny"], ROOT)
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], where
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{where}: unit of {metric['name']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), where
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [metric["name"]]]
        assert printed and printed[0].split()[-1] == metric["unit"], \
            f"{where}: {metric['name']} not printed with its unit"
    if not trace:
        for name in ("auc", "failed_share"):
            assert any(ln.split()[:1] == [name] for ln in lines), f"{where}: no {name}"
    print(f"ok  {where}: {result['attempted']} operations")


def check_accounting() -> None:
    killed = {"events": [{"event": "op", "index": 0, "error": None}], "killed": True,
              "crashed": False, "returncode": -9}
    ops, attempted, failed, reasons = run.tally(killed)
    assert (attempted, failed) == (2, 1) and "deadline" in reasons[-1], reasons
    grid = {"events": [{"event": "op", "index": 0, "error": None, "failed_points": 2}],
            "killed": False, "crashed": False, "returncode": 0}
    assert run.tally(grid)[1:3] == (1, 1)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.5, 50.0, 20)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    print("ok  failure accounting and tail percentile")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = bench(["--workload", "cv_gcn_small", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print("ok  refuses to run without src/stgnn")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_accounting()
    check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
