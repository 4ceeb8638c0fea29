"""One repetition of a diagmod benchmark workload, in a fresh interpreter.

``run.py`` spawns this script once per repetition, so every repetition starts
the way a CLI or pytest run does: with the ``lru_cache``s of ``build_family``,
``build_M_alpha`` and the mask blocks empty.  The script imports ``diagmod``
from the ``src`` directory next to this one, builds the workload's inputs,
writes ``ready`` on standard output, runs the workload and writes one JSON
line with its timings, counts and output digest.  The timings are raw
``perf_counter`` seconds; ``run.py`` scales them by the machine speed that
``probe.py`` measured, in a sibling process, over the ``time.monotonic()``
windows the line reports.

    python3 bench/workloads.py --workload sweep --seed 1 --mode untraced

``--mode setup`` stops after ``ready``; ``--mode traced`` times every call
into the library's public functions (see ``Tracer``).  Only public names of
``diagmod`` are used, so the internals may change under the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import diagmod  # noqa: E402
import diagmod.harness  # noqa: E402
from diagmod.families import NATIVE_CONVENTION, SIGMA_KINDS, FamilyKind, shapes_for  # noqa: E402

WORKLOADS = ("sweep", "large", "harness")
HARNESS_CHECKS = (
    "rect", "transition", "positivity", "schurq", "theta", "bruhat", "relations", "witness",
)

# Workload parameters.  "full" is what the benchmark measures; "toy" is the
# same code at a size the quick check can run in seconds.
PARAMS = {
    "full": {
        "sweep": {"max_n": 5},
        "large": {
            # module pipeline: gate, Hecke build, relations, theta identity
            "module": [["syt", [5, 4, 3, 1]], ["rib", [3, 4, 4]], ["sit", [4, 4, 4]], ["srit", [4, 4, 3]]],
            # supermodule pipeline: build, relations, every filtration quotient
            "supermodule": [["syt", [4, 3, 2]], ["spct", [3, 3, 3]]],
        },
        "harness": {"max_n": 7},
    },
    "toy": {
        "sweep": {"max_n": 3},
        "large": {"module": [["syt", [3, 2]]], "supermodule": [["syt", [3, 2]]]},
        "harness": {"max_n": 3},
    },
}


class Tracer:
    """Self time and work counts of calls into diagmod's public functions.

    A wrapped call adds its duration minus that of the wrapped calls it makes
    itself, so nested spans (a harness check building modules) are not
    counted twice and the metrics sum to the time spent inside the library.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls = 0
        self._inner: list[float] = []

    def wrap(self, metric, fn, counter, count):
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[metric] += elapsed - self._inner.pop()
                if self._inner:
                    self._inner[-1] += elapsed
            self.calls += 1
            self.counts[counter] += count(out)
            return out

        return timed

    @staticmethod
    def cost_per_call(n: int = 50_000) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op timed against
        the bare no-op.  Times ``calls`` it is the tracer's own cost, which
        the traced-minus-untraced ``trace.overhead_s`` is too noisy to show."""
        def noop():
            return 0

        wrapped = Tracer().wrap("noop", noop, "noop", lambda out: 0)
        start = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            wrapped()
        return max(0.0, (time.perf_counter() - start - bare) / n)


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    """The library calls the workloads make, wrapped by the tracer if given.

    In a traced run the same wrappers replace the bindings in the
    ``diagmod.harness`` namespace, so the harness's own calls into the
    families, hecke, clifford and series layers are split out too.
    """
    seen_tags: set[str] = set()

    def new_members(fam) -> int:
        if fam.family_tag in seen_tags:
            return 0
        seen_tags.add(fam.family_tag)
        return len(fam)

    def terms(f) -> int:
        return len(f.terms)

    table = {
        "build_family": ("families.build_s", "families.members", new_members),
        "is_ascent_compatible": ("tableaux.gate_s", "tableaux.gate_rejects", lambda r: int(not r.ok)),
        "is_descent_compatible": ("tableaux.gate_s", "tableaux.gate_rejects", lambda r: int(not r.ok)),
        "build_hecke_module": ("hecke.build_s", "hecke.dim", lambda rep: rep.dim),
        "verify_hecke_relations": ("hecke.verify_s", "hecke.relations", lambda r: r.checked),
        "build_clifford_module": ("clifford.build_s", "clifford.dim", lambda rep: rep.dim),
        "verify_clifford_relations": ("clifford.verify_s", "clifford.relations", lambda r: r.checked),
        "filtration_quotient_check": ("clifford.quotients_s", "clifford.quotients", lambda ok: 1),
        "qsym_characteristic": ("series.characteristic_s", "series.terms", terms),
        "peak_characteristic": ("series.characteristic_s", "series.terms", terms),
        "theta": ("series.characteristic_s", "series.terms", terms),
    }
    api = SimpleNamespace(
        run_harness=lambda check, max_n: diagmod.harness.run_harness((check,), max_n=max_n)
    )
    for name in table:
        setattr(api, name, getattr(diagmod, name))
    if tracer is None:
        return api

    originals = {id(getattr(diagmod, name)): name for name in table}
    for name, (metric, counter, count) in table.items():
        setattr(api, name, tracer.wrap(metric, getattr(diagmod, name), counter, count))
    checks = {
        check: tracer.wrap(f"harness.{check}_s", diagmod.harness.run_harness, "harness.records", len)
        for check in HARNESS_CHECKS
    }
    api.run_harness = lambda check, max_n: checks[check]((check,), max_n=max_n)
    for binding, value in list(vars(diagmod.harness).items()):
        if id(value) in originals:
            setattr(diagmod.harness, binding, getattr(api, originals[id(value)]))
    return api


# ---------------------------------------------------------------------------
# inputs


def sweep_instances(max_n: int) -> list[tuple]:
    """Every (kind, shape, sigma) of size at most max_n; sigma ranges over the
    non-identity row permutations for the permuted-variant kinds."""
    out = []
    for kind in FamilyKind:
        for n in range(1, max_n + 1):
            for shape in shapes_for(kind, n):
                out.append((kind.value, shape, None))
                if kind in SIGMA_KINDS:
                    for sigma in itertools.permutations(range(1, len(shape) + 1)):
                        if sigma != tuple(range(1, len(shape) + 1)):
                            out.append((kind.value, shape, sigma))
    return out


def make_inputs(workload: str, params: dict, seed: int, traced: bool) -> list:
    """The workload's jobs.  The seed only shuffles the order in which
    ``sweep`` and ``large`` visit their families; the set of work is fixed."""
    rng = random.Random(seed)
    if workload == "sweep":
        jobs = [(kind, shape, sigma, True, True) for kind, shape, sigma in sweep_instances(params["max_n"])]
    elif workload == "large":
        # Module pipelines run before supermodule pipelines, each group in
        # seeded order.  The peak RSS, reached in the biggest supermodule,
        # then always includes every cached module family; with one shuffled
        # list it ranged over 105-119 MB depending on the seed.
        modules = [(kind, tuple(shape), None, True, False) for kind, shape in params["module"]]
        supermodules = [(kind, tuple(shape), None, False, True) for kind, shape in params["supermodule"]]
        rng.shuffle(modules)
        rng.shuffle(supermodules)
        return modules + supermodules
    else:
        # run_harness fixes its own order.  The traced run enumerates every
        # family the harness touches first, so that enumeration is not
        # charged to whichever check happens to need a family first.
        if not traced:
            return [("all",)]
        return [
            (kind.value, shape) for kind in FamilyKind
            for n in range(1, params["max_n"] + 1) for shape in shapes_for(kind, n)
        ] + [(check,) for check in HARNESS_CHECKS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# pipelines


def sum_terms(f) -> list:
    return sorted([list(alpha), str(coeff)] for alpha, coeff in f.terms.items())


def check_family(api, kind, shape, sigma, module: bool, supermodule: bool) -> tuple[list, bool]:
    """Run one family through the module and/or supermodule pipeline.

    Returns the family's digest row and whether every verdict held.  The row
    holds the tag, sizes, relation counts, verdicts and characteristic terms.
    """
    fam = api.build_family(kind, shape, sigma)
    row: list = [fam.family_tag, len(fam)]
    if not fam.members:
        return row, True
    ok = True
    if module:
        convention = NATIVE_CONVENTION[FamilyKind(kind)]
        gate = api.is_ascent_compatible if convention == "pi" else api.is_descent_compatible
        compatible = gate(fam).ok
        rep = api.build_hecke_module(fam, convention)
        rel = api.verify_hecke_relations(rep)
        fundamental = api.qsym_characteristic(rep)
        peak = api.peak_characteristic(fam)
        theta_ok = api.theta(fundamental) == peak
        row += [convention, compatible, rep.dim, rel.checked, rel.ok, theta_ok,
                sum_terms(fundamental), sum_terms(peak)]
        ok = ok and compatible and rel.ok and theta_ok
    if supermodule:
        crep = api.build_clifford_module(fam)
        crel = api.verify_clifford_relations(crep)
        quotients = [
            api.filtration_quotient_check(crep, k) for k in range(1, len(crep.basis_tableaux) + 1)
        ]
        row += [crep.dim, crel.checked, crel.ok, len(quotients), sum(quotients)]
        ok = ok and crel.ok and all(quotients)
    return row, ok


def run_families(api, jobs) -> tuple[list, list, int]:
    """Returns the digest rows, per-family milliseconds of the nonempty
    families, and the number of families whose verdicts failed or raised."""
    rows, item_ms, failed = [], [], 0
    for kind, shape, sigma, module, supermodule in jobs:
        start = time.perf_counter()
        try:
            row, ok = check_family(api, kind, shape, sigma, module, supermodule)
        except Exception as exc:  # one raising family must not lose the others
            row, ok = [f"{kind}[{shape}] sigma={sigma}", "raised", f"{type(exc).__name__}: {exc}"], False
        elapsed = time.perf_counter() - start
        if row[1] != 0:
            item_ms.append(elapsed * 1e3)
        rows.append(row)
        failed += not ok
    return rows, item_ms, failed


def run_harness_jobs(api, jobs, params) -> tuple[list, list, int]:
    """Returns the harness JSONL records without ``elapsed``, the records'
    own milliseconds, and the number of records that did not pass."""
    records = []
    for job in jobs:
        if len(job) == 2:
            api.build_family(*job)
        else:
            records += api.run_harness(job[0], params["max_n"])
    rows = []
    for record in records:
        d = record.as_dict()
        del d["elapsed"]
        rows.append(d)
    item_ms = [record.elapsed * 1e3 for record in records]
    failed = sum(record.verdict != "pass" for record in records)
    return rows, item_ms, failed


def digest(workload: str, rows: list) -> str:
    lines = [json.dumps(r, sort_keys=True) for r in rows]
    if workload != "harness":
        lines.sort()  # rows start with the family tag; the seed must not matter
    text = "\n".join(lines)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    p.add_argument("--size", choices=tuple(PARAMS), default="full")
    p.add_argument("--spawned", type=float, default=None,
                   help="time.monotonic() in the parent just before spawning")
    args = p.parse_args(argv)

    params = PARAMS[args.size][args.workload]
    traced = args.mode == "traced"
    jobs = make_inputs(args.workload, params, args.seed, traced)
    ready = time.monotonic()
    setup = {
        "setup_s": None if args.spawned is None else ready - args.spawned,
        "setup_window": [args.spawned, ready],
    }
    print("ready", flush=True)
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = Tracer() if traced else None
    api = make_api(tracer)
    window_start, start = time.monotonic(), time.perf_counter()
    if args.workload == "harness":
        rows, item_ms, failed = run_harness_jobs(api, jobs, params)
    else:
        rows, item_ms, failed = run_families(api, jobs)
    wall_s = time.perf_counter() - start

    out = {
        **setup,
        "wall_s": wall_s,
        "window": [window_start, time.monotonic()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(rows),
        "failed": failed,
        "digest": digest(args.workload, rows),
        "item_ms": item_ms,
        "params": params,
    }
    if tracer is not None:
        out["seconds"] = dict(tracer.seconds)
        out["counts"] = dict(tracer.counts)
        out["wrapper_s"] = tracer.calls * tracer.cost_per_call()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
