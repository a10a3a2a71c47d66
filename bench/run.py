"""Benchmark for kummerlcp: one workload per run, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from src/.
A run is made by WORKERS worker processes, one after another, each given
S / WORKERS seconds.  A worker sets the workload up, then repeats rounds of
the workload's fixed operations until its seconds have passed, checking
every round's outputs and rechecking its first round with the benchmark's
own arithmetic.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  setup_s      median over the workers' set-ups: importing kummerlcp, field
               and curve construction, inputs
  task_s       time of one round: the sum, over the round's operations, of
               each operation's median time over all the run's rounds
  peak_rss_mb  peak resident memory of a worker through its set-up and
               first round, the largest over the workers

The two times are in reference seconds.  The speed of the machines this
runs on drifts by a quarter and more, within seconds and over minutes, so
every set-up and every operation of a round is timed against a short,
fixed reference workload that does not touch kummerlcp (Reference), run
just before and just after it.  Each wall time is scaled by the
reference's nominal time over the mean of the two reference times.  On a machine where the
reference takes its nominal time, a reference second is a wall second.
The wall times are kept in the full report.

--trace 1 reports the per-layer metrics instead, in wall seconds.  Rounds
alternate between untraced and traced; each per-layer value is the median
set-up share plus the median over traced rounds, and trace.overhead_pct
compares the two kinds of round in reference seconds.  A full report, with
every wrapped function, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread: keep numpy's BLAS from starting a thread pool on import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("z729-pole-shift", "gf1021-punctured", "bigfield-scan", "small-curves")
# Each run is made by this many worker processes, one after another.  A
# process keeps a speed of its own, beyond what the reference follows, for
# its whole life (+-7.5% on bigfield-scan's longest operation), so a run
# takes the median over several.
WORKERS = 6
# The reference each workload is scaled by: "python" for work that runs in
# the interpreter, "python+numpy" for work that runs in numpy gathers from
# the field tables, whose speed follows the memory system.
REFERENCE_KIND = {"z729-pole-shift": "python+numpy", "gf1021-punctured": "python",
                  "bigfield-scan": "python", "small-curves": "python"}

TIMED_FUNCTIONS = (
    "field.field_create",
    "curve.split_x_values",
    "curve.rational_places",
    "curve.CurveFunction.evaluate_many",
    "poly.eval_many",
    "semigroup.dim_by_formula",
    "semigroup.dim_by_class_count",
    "nonspecial.nonspecial_gminus1",
    "nonspecial.classify",
    "nonspecial.separable_family",
    "nonspecial.unit_multiplicity_family",
    "rrspace.dim_by_decomposition",
    "rrspace.kernel_basis",
    "rrspace.dim_with_simple_affine_drops",
    "rrspace.basis_strata",
    "linalg.rank",
    "linalg.rref",
    "linalg.null_space",
    "codes.ag_code",
    "codes.is_lcp",
    "codes.encode_messages",
    "codes.min_distance",
    "codes.verify_lcp_conditions",
    "lcp.lcp_pole_shift",
    "lcp.lcp_pair",
    "lcp.lcp_punctured",
    "cli.main",
)
COUNTED = {
    "poly.eval_many.calls": "count",
    "nonspecial.nonspecial_gminus1.calls": "count",
    "linalg.rank.calls": "count",
    "linalg.rank.cells": "count",
    "codes.encode_messages.symbols": "count",
    "codes.min_distance.words": "count",
    "cli.main.calls": "count",
    "cli.stdout_bytes": "bytes",
}
PER_LAYER = {f"{fn}.{kind}": "s" for fn in TIMED_FUNCTIONS for kind in ("s", "self_s")}
PER_LAYER.update(COUNTED)
PER_LAYER["trace.overhead_pct"] = "%"
END_TO_END = {"setup_s": "s", "task_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the benchmark's own tests")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--recheck", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_library():
    """Put src/ and this directory on the path; fail if the source is absent."""
    if not (ROOT / "src" / "kummerlcp" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no kummerlcp sources under {ROOT / 'src'}")
    for path in (str(BENCH_DIR), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _workdir(args) -> Path:
    return OUT_DIR / f"work-{args.workload}-{os.getpid()}"


class Reference:
    """Fixed work that does not touch kummerlcp, timed to follow the
    machine's speed.  "python" is a Python integer loop; "python+numpy"
    adds numpy gathers of three kinds: 2-D gathers from a 729 x 729 table,
    as GF(729)'s elimination makes, and random gathers from a 1 MB and from
    an 8 MB table.  Calling it runs the work once and returns its wall time;
    `nominal_s` is about that time on the machine the benchmark was made on.

    Create it before the set-up, so that its tables are allocated in a fresh
    process, as the library's field tables are.
    """

    NOMINAL_S = {"python": 0.0015, "python+numpy": 0.027}

    def __init__(self, kind: str):
        import numpy as np

        self.nominal_s = self.NOMINAL_S[kind]
        self.gathers = []  # (table, index), each gathered 8 times a call
        if kind == "python+numpy":
            rng = np.random.default_rng(0)
            self.gathers = [
                (rng.integers(0, 729, size=(729, 729)),
                 (rng.integers(0, 729, size=(168, 168)), rng.integers(0, 729, size=(168, 168)))),
                (np.arange(1 << 17, dtype=np.int64), rng.integers(0, 1 << 17, size=1 << 17)),
                (np.arange(1 << 20, dtype=np.int64), rng.integers(0, 1 << 20, size=1 << 17)),
            ]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(15_000):
            acc += i * i % 7
        for table, index in self.gathers:
            for _ in range(8):
                acc += int(table[index].sum())
        return time.perf_counter() - t0


def reference_seconds(wall: float, reference_s: float, nominal_s: float) -> float:
    """`wall` in reference seconds, given the reference's time around it."""
    return wall * nominal_s / reference_s


class LapTimer:
    """Times a stretch of work lap by lap, against the reference: the
    reference runs at the start and after every lap.  Each lap is (wall
    seconds, mean of the reference times just before and just after it).
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.laps: list[tuple[float, float]] = []
        self._before = reference()
        self._mark = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._mark
        after = self.reference()
        self.laps.append((wall, (self._before + after) / 2))
        self._before = after
        self._mark = time.perf_counter()


def timed_setup(args, reference, tracer=None):
    """Import kummerlcp and set the workload up, as one lap; (workload,
    {wall seconds, mean reference time})."""
    timer = LapTimer(reference)
    import workloads  # imports kummerlcp: part of the set-up time

    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, _workdir(args))
    workload.tracer = tracer
    timer.lap()
    wall, reference_s = timer.laps[0]
    return workload, {"wall_s": wall, "reference_s": reference_s}


def worker(args) -> dict:
    """One worker process: set up, then rounds for --seconds, each checked,
    and with --recheck the first round rechecked with the benchmark's own
    arithmetic.  Returns the raw figures; `run` combines the workers'."""
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.LayerTracer()
    reference = Reference(REFERENCE_KIND[args.workload])
    workload, setup = timed_setup(args, reference, tracer)
    from checks import CheckFailed
    from workloads import OpLog

    setup_layers = {}
    if tracer is not None:
        setup_layers = tracer.snapshot()
        tracer.uninstall()
    problems: list[str] = []
    rounds: list[dict] = []
    first = None
    try:
        start = time.perf_counter()
        min_rounds = 1 if tracer is None else 2
        # stop before a round that would end past the worker's seconds
        while len(rounds) < min_rounds or (
                time.perf_counter() - start
                + statistics.median(r["wall_s"] for r in rounds) <= args.seconds):
            traced = tracer is not None and len(rounds) % 2 == 1
            inputs = workload.prepare()
            gc.collect()
            if traced:
                tracer.reset()
                tracer.install()
            timer = LapTimer(reference)
            log = OpLog(timer.lap)
            t0 = time.perf_counter()
            outputs = workload.run_round(inputs, log)
            wall = time.perf_counter() - t0
            layers = None
            if traced:
                tracer.uninstall()
                layers = tracer.snapshot()
            if first is None:
                first = (inputs, outputs, log.errors)
            try:
                workload.check_round(inputs, outputs)
            except CheckFailed as exc:
                problems.append(f"round {len(rounds)}: {exc}")
            rounds.append({"traced": traced, "wall_s": wall, "laps": timer.laps,
                           "attempted": log.attempted, "failed": log.failed,
                           "layers": layers})
            if len(rounds) == 1:
                # through one round: later rounds add the first round's kept
                # outputs, and how many rounds fit depends on the machine
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.recheck:
            try:
                workload.check_deep(*first[:2])
            except CheckFailed as exc:
                problems.append(f"recheck of round 0: {exc}")
    finally:
        workload.close()
    return {"setup": setup, "setup_layers": setup_layers, "rounds": rounds,
            "failures_in_round_0": first[2], "problems": problems,
            "peak_rss_mb": peak_rss_mb, "reference_nominal_s": reference.nominal_s}


def _run_workers(args) -> list[dict]:
    """WORKERS worker processes, one after another, each given an equal
    share of --seconds.  The first also rechecks its first round."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
           "--size", args.size]
    results = []
    for i in range(WORKERS):
        proc = subprocess.run(cmd + ["--recheck"] * (i == 0), cwd=ROOT,
                              capture_output=True, text=True, timeout=args.seconds + 150)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed: {proc.stderr.strip()[-1000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def run(args) -> dict:
    """One benchmark run; returns the full report."""
    workers = _run_workers(args)
    rounds = [r for w in workers for r in w["rounds"]]
    problems = [f"worker {i} {p}" for i, w in enumerate(workers) for p in w["problems"]]
    nominal_s = workers[0]["reference_nominal_s"]
    setups = [w["setup"] for w in workers]
    laps = {t: [r["laps"] for r in rounds if r["traced"] == t] for t in (False, True)}
    task = {t: task_seconds(nominal_s, laps[t]) for t in (False, True) if laps[t]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "failures_in_round_0": workers[0]["failures_in_round_0"],
        "workers": workers,
        "setup_wall_s": statistics.median(x["wall_s"] for x in setups),
        "task_wall_s": statistics.median(r["wall_s"] for r in rounds if not r["traced"]),
    }
    if not args.trace:
        values = {
            "setup_s": statistics.median(reference_seconds(x["wall_s"], x["reference_s"],
                                                           nominal_s) for x in setups),
            "task_s": task[False],
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        }
        report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        traced = [r["layers"] for r in rounds if r["traced"]]
        setup_layers = [w["setup_layers"] for w in workers]
        layers = {}
        for name in sorted(set().union(*traced, *setup_layers)):
            layers[name] = (statistics.median(x.get(name, 0) for x in setup_layers)
                            + statistics.median(x.get(name, 0) for x in traced))
        layers["trace.overhead_pct"] = 100.0 * (task[True] / task[False] - 1.0)
        report["all_layers"] = layers
        report["metrics"] = {k: {"value": layers.get(k, 0), "unit": u}
                             for k, u in PER_LAYER.items()}
    return report


def task_seconds(nominal_s: float, rounds) -> float:
    """Sum over the laps of a round of each lap's median, over the rounds,
    in reference seconds.  Every round has the same laps in the same order."""
    if len({len(laps) for laps in rounds}) != 1:
        raise RuntimeError("rounds made different numbers of operations")
    return sum(statistics.median(reference_seconds(*laps[j], nominal_s) for laps in rounds)
               for j in range(len(rounds[0])))


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _import_library()
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    try:
        report = run(args)
    except Exception:  # no result line: the run failed as a whole
        traceback.print_exc()
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    for line in report["failures_in_round_0"] + report["problems"]:
        print(line, file=sys.stderr)
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
