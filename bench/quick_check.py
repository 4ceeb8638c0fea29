"""Quick check of the benchmark itself, at toy size.

    python3 bench/quick_check.py

Runs every workload at toy size (``sweep`` n <= 3, ``harness`` max_n 3, one
small ``large`` family through both pipelines), untraced and traced.  Fails
unless every run exits 0, prints every end-to-end or per-module metric with
its unit, matches the committed digests, and the metric names agree with
BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def check_declaration(problems: list[str]) -> None:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")


def check_run(workload: str, trace: int, problems: list[str]) -> None:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--size", "toy",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        return
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    wanted = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics {sorted(got)} differ from {sorted(wanted)}")
    printed = dict(wanted)
    printed["failed_frac"] = ""
    for name, unit in printed.items():
        if not any(line.startswith(f"{workload} {name} = ") and line.endswith(unit) for line in lines):
            problems.append(f"{label}: no line for {name} with unit {unit!r}")
    if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
        problems.append(f"{label}: an end-to-end metric is not positive: {result['metrics']}")


def main() -> int:
    problems: list[str] = []
    check_declaration(problems)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
    for problem in problems:
        print(problem)
    print("quick check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
