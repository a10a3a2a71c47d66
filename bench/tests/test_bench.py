"""Tests of the benchmark itself: report shape, op counts, and that every
correctness check fails on a tampered output.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import kummerlcp as K  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, RefField  # noqa: E402

# operations in one tiny round, and how many of them fail today
TINY_OPS = {"z729-pole-shift": (9, 0), "gf1021-punctured": (9, 0),
            "bigfield-scan": (20, 0), "small-curves": (51, 4)}


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(TINY_OPS))
@pytest.mark.parametrize("trace", [0, 1])
def test_report_shape_and_op_counts(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # each worker makes one round, or an untraced and a traced one in a traced run
    rounds = bench_run.WORKERS * (1 if trace == 0 else 2)
    ops, fails = TINY_OPS[workload]
    assert (result["attempted"], result["failed"]) == (rounds * ops, rounds * fails)
    expected = bench_run.END_TO_END if trace == 0 else bench_run.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        report_path = ROOT / ".bench_out" / f"{workload}-seed3-trace0-tiny.json"
        report = json.loads(report_path.read_text())
        laps = [r["laps"] for w in report["workers"] for r in w["rounds"]]
        assert [len(r) for r in laps] == [ops] * rounds  # one lap per operation
        nominal = report["workers"][0]["reference_nominal_s"]
        task = sum(statistics.median(r[j][0] * nominal / r[j][1] for r in laps)
                   for j in range(ops))
        assert result["metrics"]["task_s"]["value"] == pytest.approx(task)


def test_task_seconds_sums_the_median_of_each_lap():
    # scaled laps: round 1 (1, 1), round 2 (3, 1), round 3 (1, 5)
    rounds = [[(1.0, 2.0), (2.0, 4.0)],
              [(3.0, 2.0), (1.0, 2.0)],
              [(2.0, 4.0), (5.0, 2.0)]]
    assert bench_run.task_seconds(2.0, rounds) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        bench_run.task_seconds(2.0, rounds + [rounds[0][:1]])


def test_oplog_laps_once_per_operation():
    calls = []

    def reference():
        calls.append(None)
        return 0.5

    timer = bench_run.LapTimer(reference)
    log = workloads.OpLog(timer.lap)
    log.run("ok", lambda: 1)
    log.run("raises", lambda: 1 / 0)
    log.record("recorded", None)
    assert (log.attempted, log.failed) == (3, 1)
    assert len(calls) == 4  # at the start and after each operation
    assert [ref_s for _, ref_s in timer.laps] == [0.5] * 3


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_cli("--workload", "small-curves", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_kept_failing_operations_are_the_four_rejections(tmp_path):
    wl = workloads.SmallCurves(5, "tiny", tmp_path / "work")
    try:
        log = workloads.OpLog()
        wl.run_round(wl.prepare(), log)
    finally:
        wl.close()
    assert [e.split(":")[0] for e in log.errors] == list(wl.REJECTIONS)


# --- the reference arithmetic agrees with the library ---------------------------------

@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 2), (2, 4), (1021, 1)])
def test_ref_field_matches_library_tables(p, e):
    F = K.field_create(p, e)
    rf = RefField(p, e, F.modulus)
    a = np.repeat(np.arange(F.q), F.q)
    b = np.tile(np.arange(F.q), F.q)
    if F.q > 64:
        pick = np.random.default_rng(0).integers(0, a.size, 5000)
        a, b = a[pick], b[pick]
    assert np.array_equal(rf.add(a, b), F.vadd(a, b))
    assert np.array_equal(rf.mul(a, b), F.vmul(a, b))
    assert np.array_equal(rf.sub(a, b), F.vsub(a, b))


@pytest.mark.parametrize("p,e", [(3, 6), (2, 11), (1021, 1)])
def test_ref_rank_matches_library(p, e):
    F = K.field_create(p, e)
    rf = RefField(p, e, F.modulus)
    rng = np.random.default_rng(1)
    for rows, cols, rank in ((12, 20, 7), (20, 12, 5), (15, 15, 14)):
        low = checks.ref_encode(rf, rng.integers(0, F.q, size=(rows, rank)),
                                rng.integers(0, F.q, size=(rank, cols)))
        for mat in (low, rng.integers(0, F.q, size=(rows, cols))):
            assert checks.ref_rank(rf, mat) == K.linalg.rank(F, mat)


def test_ref_field_refuses_a_modulus_x_does_not_generate():
    # x^2 + 1 is irreducible over GF(3), but x has order 4 in GF(9)*
    with pytest.raises(CheckFailed):
        RefField(3, 2, (1, 0, 1))


# --- every check fails on a tampered output --------------------------------------------

def _gf9():
    F = K.field_create(3, 2)
    return RefField(3, 2, F.modulus)


def test_rank_check_fails_on_wrong_rank():
    rf = _gf9()
    eye = np.eye(4, dtype=np.int64)
    checks.check_lcp_ranks(rf, "ok", eye[:2], eye[2:], 2, 2, 4)
    with pytest.raises(CheckFailed):
        checks.check_lcp_ranks(rf, "stack", eye[:2], np.vstack([eye[1], eye[3]]), 2, 2, 4)
    with pytest.raises(CheckFailed):
        checks.check_lcp_ranks(rf, "rows", eye[:2], np.vstack([eye[2], 2 * eye[2]]), 2, 2, 4)
    prime = RefField(1021, 1)
    dependent = np.array([[0, 0, 1, 5], [0, 0, 1021 - 2, 1021 - 10]])  # row 2 = -2 * row 1
    checks.check_lcp_ranks(prime, "ok mod p", eye[:2], eye[2:], 2, 2, 4)
    with pytest.raises(CheckFailed):
        checks.check_lcp_ranks(prime, "mod p", eye[:2], dependent, 2, 2, 4)
    with pytest.raises(CheckFailed):
        checks.check_lcp_ranks(prime, "range", eye[:2], 1021 * eye[2:], 2, 2, 4)


def test_dimension_check_fails_on_wrong_dimension():
    checks.check_dims("ok", (15, 9), (15, 9))
    with pytest.raises(CheckFailed):
        checks.check_dims("bad", (15, 9), (16, 8))


def test_goppa_check_fails_on_light_codeword():
    msgs = np.array([[1, 0], [0, 0]])
    words = np.array([[1, 1, 1, 0], [0, 0, 0, 0]])
    checks.check_goppa("ok", msgs, words, 4, 1)
    with pytest.raises(CheckFailed):
        checks.check_goppa("light", msgs, words, 4, 0)


def test_encoding_check_fails_on_wrong_word():
    rf = _gf9()
    gen = np.array([[1, 2, 0], [0, 1, 5]])
    msgs = np.array([[3, 4]])
    words = checks.ref_encode(rf, msgs, gen)
    checks.check_encoding(rf, "ok", msgs, gen, words)
    words[0, 1] = (words[0, 1] + 1) % 9
    with pytest.raises(CheckFailed):
        checks.check_encoding(rf, "bad", msgs, gen, words)


def test_min_distance_check_fails_outside_bounds():
    checks.check_min_distance("ok", 19, 24, 3, 5)
    with pytest.raises(CheckFailed):
        checks.check_min_distance("below Goppa", 18, 24, 3, 5)
    with pytest.raises(CheckFailed):
        checks.check_min_distance("above Singleton", 23, 24, 3, 5)


def test_census_and_oracle_checks_fail_on_mismatch():
    checks.check_census("ok", {1, 2}, {1, 2}, {1, 2})
    with pytest.raises(CheckFailed):
        checks.check_census("sep", {1, 2}, {1}, {1, 2})
    with pytest.raises(CheckFailed):
        checks.check_census("unit", {1, 2}, {1, 2}, {1, 2, 3})
    with pytest.raises(CheckFailed):
        checks.check_census("empty", set(), set(), set())
    checks.check_oracles("ok", [([0], 1, 1, 1, "x")])
    with pytest.raises(CheckFailed):
        checks.check_oracles("bad", [([0], 1, 1, 2, "x")])


def test_curve_checks_fail_on_wrong_invariants():
    info = {"genus": 3, "q": 9, "m": 4, "deg_f": 3, "split_x_count": 6,
            "rational_places": 28}
    kw = dict(q=9, m=4, lambdas=[1, 1, 1], split_count=6, maximal=True)
    checks.check_curve_info("H3", info, **kw)
    for key, value in (("genus", 4), ("split_x_count", 5), ("rational_places", 27)):
        with pytest.raises(CheckFailed):
            checks.check_curve_info("H3", {**info, key: value}, **kw)
    with pytest.raises(CheckFailed):
        checks.check_hasse_weil("over", 1000, 9, 3)
    with pytest.raises(CheckFailed):
        checks.check_hasse_weil("not maximal", 27, 9, 3, maximal=True)
    checks.check_fibers("ok", ["inf", "aff:3:1", "aff:3:2"], 2)
    with pytest.raises(CheckFailed):
        checks.check_fibers("short fiber", ["aff:3:1", "aff:3:2", "aff:4:1"], 2)


def test_workload_checks_fail_on_tampered_round(tmp_path):
    wl = workloads.Z729PoleShift(2, "tiny", tmp_path / "work")
    try:
        inputs = wl.prepare()
        log = workloads.OpLog()
        out = wl.run_round(inputs, log)
        wl.check_round(inputs, out)
        wl.check_deep(inputs, out)
        s, res, words = out[0]
        k = res.code_h.k
        res.code_h.k = k + 1
        with pytest.raises(CheckFailed):
            wl.check_round(inputs, out)
        res.code_h.k = k
        words[0][0] = np.zeros_like(words[0][0])
        with pytest.raises(CheckFailed):
            wl.check_round(inputs, out)
        gen = res.code_g.generator.data
        gen[-1] = gen[0]
        with pytest.raises(CheckFailed):
            wl.check_deep(inputs, out)
    finally:
        wl.close()


def test_small_curves_checks_fail_on_tampered_round(tmp_path):
    wl = workloads.SmallCurves(2, "tiny", tmp_path / "work")
    try:
        alphas = wl.prepare()
        out = wl.run_round(alphas, workloads.OpLog())
        wl.check_round(alphas, out)
        wl.check_deep(alphas, out)
        verify = next(iter(out["verifies"].values()))
        verify["verdict"] = "NOT_LCP"
        with pytest.raises(CheckFailed):
            wl.check_round(alphas, out)
        verify["verdict"] = "LCP"
        out["census"] = set(list(out["census"])[1:])
        with pytest.raises(CheckFailed):
            wl.check_round(alphas, out)
    finally:
        wl.close()
