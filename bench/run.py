"""Benchmark for diagmod: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (see bench/README.md for why each exists):

- ``sweep``: every family with n <= 5 through the whole verify pipeline;
- ``large``: four big module pipelines and two big supermodule pipelines;
- ``harness``: ``run_harness(("all",), max_n=7)``.

Each repetition runs in a fresh interpreter (``workloads.py``), one at a
time, single-threaded: a closed loop with one caller.  Repetitions start
until ``--seconds`` would be exceeded (at least one; two with ``--trace 1``,
which alternates untraced and traced repetitions).  Set-up is also sampled
by interpreters that only import ``diagmod`` and build the inputs.  Times
are medians over the repetitions, scaled to a reference machine speed that
a sibling process (``probe.py``) measures while they run; see
bench/README.md.

Every repetition's outputs are checked against the digests in
``expected.json``.  The command prints one line per metric with its unit,
writes a results file with an environment block under ``bench/results/``,
and ends with one JSON line: end-to-end metrics with ``--trace 0``,
per-module metrics with ``--trace 1``.  It exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workloads.py"
PROBE = BENCH / "probe.py"
EXPECTED = BENCH / "expected.json"
RESULTS = BENCH / "results"

WORKLOADS = ("sweep", "large", "harness")
SETUP_SAMPLES = 8
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# Scaled seconds are seconds on a machine where one probe.py sample takes
# this long.
REFERENCE_PROBE_S = 1e-3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "family_p50_ms": "ms",
    "family_p98_ms": "ms",
}
MODULE_METRICS = {
    "families": ("build_s", "members"),
    "tableaux": ("gate_s", "gate_rejects"),
    "hecke": ("build_s", "dim", "verify_s", "relations"),
    "clifford": ("build_s", "dim", "verify_s", "relations", "quotients_s", "quotients"),
    "series": ("characteristic_s", "terms"),
    "harness": (
        "rect_s", "transition_s", "positivity_s", "schurq_s", "theta_s",
        "bruhat_s", "relations_s", "witness_s", "records",
    ),
}
PER_LAYER = {
    f"{module}.{name}": "s" if name.endswith("_s") else "count"
    for module, names in MODULE_METRICS.items()
    for name in names
}
PER_LAYER["trace.overhead_s"] = "s"
PER_LAYER["trace.wrapper_s"] = "s"


def spawn(workload: str, seed: int, mode: str, size: str, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON report."""
    env = {k: v for k, v in os.environ.items() if k != "DIAGMOD_THREADS"}
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--size", size, "--spawned", repr(time.monotonic()),
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} repetition exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


class SpeedProbe:
    """Runs probe.py for the duration of a ``with`` block; ``samples`` then
    holds its ``(time.monotonic(), seconds)`` pairs."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("probe.py did not start")
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # the probe ends at its next sample
        out = self.proc.stdout.read()
        self.proc.wait()
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]

    def speed(self, window: list[float]) -> float:
        """Reference probe time over the median sample in the window, or over
        the sample nearest the window if none fell inside it."""
        a, b = window
        inside = [s for t, s in self.samples if a <= t <= b]
        if not inside:
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - (a + b) / 2))[1]]
        return REFERENCE_PROBE_S / statistics.median(inside)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def git_commit() -> str | None:
    """HEAD of the repository the benchmark sits in, if it is a git checkout."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def package_version(name: str) -> str | None:
    try:
        return version(name)
    except PackageNotFoundError:
        return None


def measure(args) -> tuple[list[dict], list[tuple[str, dict]]]:
    """Set-up samples, then repetitions until the time budget is spent.

    Each report gets the probe's speed over its set-up (``setup_speed``) and,
    for repetitions, over its workload (``speed``)."""
    start = time.monotonic()
    deadline = start + args.seconds

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - start)

    # The workload interpreters and the probe all run on one CPU: the host
    # slows each virtual CPU on its own, so only a probe on the workload's
    # CPU follows its speed.  Children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        setups = [
            spawn(args.workload, args.seed, "setup", args.size, remaining())
            for _ in range(SETUP_SAMPLES)
        ]
        reps: list[tuple[str, dict]] = []
        longest = 0.0
        while True:
            mode = "traced" if args.trace and len(reps) % 2 else "untraced"
            begun = time.monotonic()
            reps.append((mode, spawn(args.workload, args.seed, mode, args.size, remaining())))
            longest = max(longest, time.monotonic() - begun)
            if len(reps) >= 1 + args.trace and time.monotonic() + longest > deadline:
                break
    for r in setups + [r for _, r in reps]:
        r["setup_speed"] = probe.speed(r["setup_window"])
        if "window" in r:
            r["speed"] = probe.speed(r["window"])
    return setups, reps


def summarize(args, setups, reps) -> dict:
    expected = json.loads(EXPECTED.read_text())[args.size].get(args.workload)
    untraced = [r for mode, r in reps if mode == "untraced"]
    traced = [r for mode, r in reps if mode == "traced"]
    # Each repetition's digest comparison is one more check.
    attempted = sum(r["attempted"] + 1 for _, r in reps)
    failed = sum(r["failed"] + (r["digest"] != expected) for _, r in reps)
    # Times are scaled to the reference speed: each measured time times the
    # probe speed over the window it was measured in.
    setup_all = setups + [r for _, r in reps]
    # One sample per unit of work (family or harness record): its median over
    # the repetitions, which all visit the units in the same order.
    items = [
        statistics.median(times)
        for times in zip(*([ms * r["speed"] for ms in r["item_ms"]] for r in untraced))
    ]
    end_to_end = {
        "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in setup_all),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "family_p50_ms": statistics.median(items),
        "family_p98_ms": percentile(items, 98),
    }
    raw = {
        "wall_raw_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_raw_s": statistics.median(r["setup_s"] for r in setup_all),
        "speed": statistics.median(r["speed"] for _, r in reps),
    }
    per_layer = {}
    if traced:
        for name, unit in PER_LAYER.items():
            if unit == "s":
                per_layer[name] = statistics.median(r["seconds"].get(name, 0.0) * r["speed"] for r in traced)
            else:
                per_layer[name] = statistics.median(r["counts"].get(name, 0) for r in traced)
        # Traced minus untraced wall_s, from different interpreters: mostly
        # run-to-run noise.  trace.wrapper_s is the tracer's measured cost.
        per_layer["trace.overhead_s"] = (
            statistics.median(r["wall_s"] * r["speed"] for r in traced) - end_to_end["wall_s"]
        )
        per_layer["trace.wrapper_s"] = statistics.median(r["wrapper_s"] * r["speed"] for r in traced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "units": len(items),
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": per_layer,
        "digests": {"expected": expected, "seen": sorted({r["digest"] for _, r in reps})},
        "params": reps[0][1]["params"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: the same workloads at a size the quick check runs in seconds")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "diagmod" / "__init__.py").is_file():
        print(f"bench: no diagmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups, reps = measure(args)
    summary = summarize(args, setups, reps)
    e2e, layers = summary["end_to_end"], summary["per_layer"]

    w = args.workload
    print(f"{w}: {len(reps)} repetitions, {len(setups)} set-up-only interpreters, "
          f"{summary['units']} units of work")
    for name, unit in END_TO_END.items():
        print(f"{w} {name} = {e2e[name]:.6g} {unit}")
    print(f"{w} wall_raw_s = {summary['raw']['wall_raw_s']:.6g} s, setup_raw_s = "
          f"{summary['raw']['setup_raw_s']:.6g} s, probe speed = {summary['raw']['speed']:.4g} "
          f"(unscaled medians)")
    print(f"{w} failed_frac = {summary['failed_frac']:.6g} ({summary['failed']} of "
          f"{summary['attempted']} checks)")
    if layers:
        for name, unit in PER_LAYER.items():
            print(f"{w} {name} = {layers[name]:.6g} {unit}")
        module_s = sum(v for k, v in layers.items() if PER_LAYER[k] == "s" and not k.startswith("trace."))
        print(f"{w} module seconds sum to {module_s:.4g} s against untraced wall_s "
              f"{e2e['wall_s']:.4g} s + trace.overhead_s {layers['trace.overhead_s']:.4g} s")
    if summary["digests"]["seen"] != [summary["digests"]["expected"]]:
        print(f"{w} digest mismatch: expected {summary['digests']['expected']}, "
              f"got {summary['digests']['seen']}")

    RESULTS.mkdir(exist_ok=True)
    results = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": package_version("numpy"),
            "scipy": package_version("scipy"),
            "commit": git_commit(),
            "seed": args.seed,
            "workload": w,
            "size": args.size,
            "params": summary["params"],
            "seconds": args.seconds,
            "trace": args.trace,
        },
        **summary,
        "setup_samples": setups,
        "repetitions": [
            {"mode": mode, **{k: v for k, v in r.items() if k not in ("item_ms", "params")}}
            for mode, r in reps
        ],
    }
    path = RESULTS / f"{w}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")

    units = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
