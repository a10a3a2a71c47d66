import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import cli, linalg, rrspace

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, expect: int = 0, timeout: float | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "kummerlcp", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


H3_SPEC = {
    "field": {"p": 3, "e": 2},
    "m": 4,
    "leading": 1,
    "roots": [{"a": 0, "lambda": 1}, {"a": 5, "lambda": 1}, {"a": 7, "lambda": 1}],
}


@pytest.fixture(scope="module")
def h3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "h3.json"
    path.write_text(json.dumps(H3_SPEC))
    return str(path)


@pytest.fixture(scope="module")
def gk2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "gk2.json"
    payload = {
        "field": {"p": 2, "e": 6},
        "m": 9,
        "leading": 1,
        "roots": [
            {"a": 0, "lambda": 1}, {"a": 1, "lambda": 1},
            {"a": 56, "lambda": 3}, {"a": 57, "lambda": 3},
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_curve_info(h3_file):
    out = json.loads(run_cli("curve-info", "--curve", h3_file).stdout)
    assert out["genus"] == 3
    assert out["rational_places"] == 28
    assert out["partial"] is False


def test_curve_places(h3_file):
    out = json.loads(run_cli("curve-places", "--curve", h3_file).stdout)
    assert out["count"] == 28
    assert out["places"][0] == "inf"


def test_dim_matches_spec_example(h3_file):
    out = json.loads(run_cli(
        "dim", "--curve", h3_file,
        "--places", "root:0,root:1,root:2", "--alpha", "-2,2,3",
    ).stdout)
    assert out == {"dim": 1, "degree": 3, "classification": "NonspecialDegG"}


def test_nonspecial_check_necessary_only(gk2_file):
    out = json.loads(run_cli(
        "nonspecial-check", "--curve", gk2_file,
        "--tuple", "all-ramified", "--necessary-only",
    ).stdout)
    assert out == {"possible": False, "witness": "floor(degf/m)=0 < r-n-1=1"}


def test_nonspecial_check_alpha(h3_file):
    out = json.loads(run_cli(
        "nonspecial-check", "--curve", h3_file,
        "--tuple", "all-ramified", "--alpha", "-1,0,1,2",
    ).stdout)
    assert out["gminus1"] is True and out["g"] is False


def test_nonspecial_check_wrong_alpha_length(h3_file):
    for alpha in ("-1,0,1", "-1,0,1,2,0"):
        proc = run_cli("nonspecial-check", "--curve", h3_file, "--tuple", "all-ramified",
                       f"--alpha={alpha}", expect=2)
        assert json.loads(proc.stderr)["error"] == "IndexOutOfRange"


def test_nonspecial_enumerate(h3_file):
    out = json.loads(run_cli(
        "nonspecial-enumerate", "--curve", h3_file, "--family", "separable",
        "--alpha0", "3",
    ).stdout)
    assert out["alpha_multiset"] == [0, 1, 2]
    out_unit = json.loads(run_cli(
        "nonspecial-enumerate", "--curve", h3_file, "--family", "unit",
        "--tuple", "all-ramified",
    ).stdout)
    assert out_unit["alpha_multiset"] == [0, 1, 2, 3]


def test_lcp_build_and_verify_roundtrip(h3_file, tmp_path):
    built = run_cli("lcp-build", "--curve", h3_file, "--construction", "1", "--s", "3").stdout
    obj = json.loads(built)
    assert obj["report"]["verdict"] == "LCP"
    assert [c["k"] for c in obj["codes"]] == [15, 9]
    result_file = tmp_path / "result.json"
    result_file.write_text(built)
    verified = json.loads(run_cli("lcp-verify", "--result", str(result_file)).stdout)
    assert verified["verdict"] == "LCP"
    assert verified["conditions_pass"] is True
    assert verified["stored_ranks_ok"] is True
    assert verified["stored_codes_match"] is True


@pytest.fixture(scope="module")
def h3_result(h3_file):
    """An lcp-build result on H3, construction 1 at s = 3 (k = 15 and 9)."""
    return json.loads(run_cli("lcp-build", "--curve", h3_file, "--construction", "1",
                              "--s", "3").stdout)


def verify_edited(tmp_path, result, edit, expect=0):
    obj = json.loads(json.dumps(result))
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    return run_cli("lcp-verify", "--result", str(path), expect=expect)


def test_lcp_verify_rejects_forged_generators(tmp_path, h3_result):
    def forge(obj):
        k1, k2 = (c["k"] for c in obj["codes"])
        eye = [[int(i == j) for j in range(k1 + k2)] for i in range(k1 + k2)]
        obj["codes"][0]["generator"] = eye[:k1]
        obj["codes"][1]["generator"] = eye[k1:]

    out = json.loads(verify_edited(tmp_path, h3_result, forge).stdout)
    # the stored pair is itself complementary; only the tie to G and H fails
    assert out["rank_of_stack"] == 24 and out["stored_ranks_ok"] is True
    assert out["stored_codes_match"] is False
    assert out["verdict"] == "NOT_LCP"


@pytest.fixture(scope="module")
def h3_punctured_result():
    """An H3 construction-R result at s = 2: D is R_2 and five whole fibers."""
    h3 = K.curve_from_json(H3_SPEC)
    return h3, K.build(h3, "R", 2)


def test_lcp_verify_construction_r(tmp_path, h3_punctured_result):
    _, res = h3_punctured_result
    out = json.loads(verify_edited(tmp_path, res.to_json(), lambda obj: None).stdout)
    assert out["verdict"] == "LCP" and out["rank_of_stack"] == 21
    assert out["stored_ranks_ok"] is True and out["stored_codes_match"] is True


def test_lcp_verify_construction_r_forged_h(tmp_path, h3_punctured_result):
    _, res = h3_punctured_result
    f, G = res.code_g.field, res.code_g.generator.data
    # unit rows on the columns that are not pivots of G: the stored pair stays
    # complementary, but H's rows are not C(D, H)
    _, pivots = linalg.rref(f, G)
    free = [c for c in range(res.code_g.N) if c not in pivots]
    forged = np.eye(res.code_g.N, dtype=np.int64)[free]
    assert forged.shape == res.code_h.generator.data.shape

    def forge(obj):
        obj["codes"][1]["generator"] = forged.tolist()

    out = json.loads(verify_edited(tmp_path, res.to_json(), forge).stdout)
    assert out["rank_of_stack"] == 21 and out["stored_ranks_ok"] is True
    assert out["stored_codes_match"] is False
    assert out["verdict"] == "NOT_LCP"


def test_lcp_verify_construction_r_forged_g_of_another_divisor(tmp_path, h3_punctured_result):
    h3, res = h3_punctured_result
    # C(D, G') for G' of G's degree but another support: an evaluation code of
    # the right shape and rank, but not C(D, G)
    G2 = res.G + K.Divisor.of((h3.root_place(0), 1), (K.Place.infinity(), -1))
    other = K.ag_code(h3, res.d_places, G2)
    assert other.generator.data.shape == res.code_g.generator.data.shape
    assert other.generator != res.code_g.generator

    def forge(obj):
        obj["codes"][0]["generator"] = other.generator.to_json()

    out = json.loads(verify_edited(tmp_path, res.to_json(), forge).stdout)
    assert out["stored_ranks_ok"] is True
    assert out["stored_codes_match"] is False
    assert out["verdict"] == "NOT_LCP"


@pytest.fixture(scope="module")
def gf1021_punctured_result():
    """Construction R on y^4 = (x-1)(x-2)(x-3) over GF(1021) at s = 31 on the
    first 48 split fibers: D is R_2 and 47 whole fibers, N = 189."""
    curve = K.curve_create(K.field_create(1021, 1), 4, 1, [(1, 1), (2, 1), (3, 1)])
    E = K.Divisor.of((curve.root_place(1), 1), (curve.root_place(2), 2))
    return K.lcp_punctured(curve, E, 31, curve.split_x_values()[:48]).to_json()


def verify_in_process(monkeypatch, tmp_path, result):
    """lcp-verify on result through cli.main in this process: the output, and
    the number of dense linalg.rank calls over all N columns."""
    N = len(result["D"])
    dense_calls = []
    rank = linalg.rank

    def counting_rank(field, M):
        dense_calls.append(M.shape[1] == N)
        return rank(field, M)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    path = tmp_path / "result.json"
    path.write_text(json.dumps(result))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["lcp-verify", "--result", str(path)]) == 0
    return json.loads(out.getvalue()), sum(dense_calls)


def test_lcp_verify_gf1021_construction_r_on_fiber_blocks(monkeypatch, tmp_path,
                                                         gf1021_punctured_result):
    # both stored codes equal the rebuilt ones, whose blocks rank everything
    out, dense_calls = verify_in_process(monkeypatch, tmp_path, gf1021_punctured_result)
    assert out["verdict"] == "LCP" and out["rank_of_stack"] == 189
    assert out["stored_ranks_ok"] is True and out["stored_codes_match"] is True
    assert dense_calls == 0


def test_lcp_verify_row_reduced_generator(monkeypatch, tmp_path, gf1021_punctured_result):
    # a stored G that spans C(D, G) but is not the rebuilt generator byte for
    # byte is ranked densely, and still verifies
    result = json.loads(json.dumps(gf1021_punctured_result))
    stored = np.array(result["codes"][0]["generator"], dtype=np.int64)
    reduced = linalg.row_space_basis(K.field_create(1021, 1), stored)
    assert reduced.shape == stored.shape and not np.array_equal(reduced, stored)
    result["codes"][0]["generator"] = reduced.tolist()
    out, dense_calls = verify_in_process(monkeypatch, tmp_path, result)
    assert out["verdict"] == "LCP" and out["rank_of_stack"] == 189
    assert out["stored_ranks_ok"] is True and out["stored_codes_match"] is True
    assert dense_calls > 0


@pytest.fixture(scope="module")
def off_curve_results():
    """Construction 1 on y^4 = (x-1)(x-2)(x-3) over GF(1021) on 10 fibers at
    s = 5, and on H3 at s = 3."""
    gf1021 = K.curve_create(K.field_create(1021, 1), 4, 1, [(1, 1), (2, 1), (3, 1)])
    h3 = K.curve_from_json(H3_SPEC)
    return {"gf1021": (gf1021, K.build(gf1021, "1", 5, eval_x=gf1021.split_x_values()[:10])),
            "h3": (h3, K.build(h3, "1", 3))}


@pytest.mark.parametrize("name,place", [
    ("gf1021", "aff:4:1"),  # f(4) = 6 is not a 4th power: no points over x = 4
    ("h3", "aff:1:1"),
    ("h3", "aff:99:1"),
    ("h3", "aff:1:99"),
], ids=["gf1021-empty-fiber", "h3-off-curve", "x-outside-field", "y-outside-field"])
def test_lcp_verify_rejects_places_off_the_curve(monkeypatch, tmp_path, off_curve_results,
                                                 name, place):
    curve, res = off_curve_results[name]
    # the place added to D, G raised by one at infinity, and both codes
    # regenerated as a row basis of the evaluation rows where they exist;
    # rrspace refuses to evaluate off the curve, so its place check is
    # switched off here, in this process only, to forge the generators
    D = list(res.d_places) + [K.parse_place(curve, place)]
    G = res.G + K.Divisor.of((K.Place.infinity(), 1))
    obj = res.to_json()
    obj["D"].append(place)
    obj["G"] = G.to_json()
    if max(D[-1].x, D[-1].y) < curve.field.q:
        monkeypatch.setattr(rrspace, "check_curve_points", lambda curve, places: None)
        f = curve.field
        for code, divisor in zip(obj["codes"], (G, res.H)):
            rows = linalg.row_space_basis(f, rrspace.evaluation_rows(curve, divisor, D))
            code.update(N=len(D), k=len(rows), generator=rows.tolist())
    proc = verify_edited(tmp_path, obj, lambda obj: None, expect=2)
    assert json.loads(proc.stderr)["error"] == "UnsupportedPlaceStructure"


@pytest.mark.parametrize("place", ["aff:1:1", "aff:0:0", "aff:99:1"],
                         ids=["off-curve", "over-a-root", "x-outside-field"])
def test_lcp_verify_rejects_drops_off_the_curve(tmp_path, h3_punctured_result, place):
    _, res = h3_punctured_result

    def edit(obj):  # H drops the given place instead of R_1
        for entry in obj["H"]["coeffs"]:
            if entry["place"].startswith("aff:"):
                entry["place"] = place

    proc = verify_edited(tmp_path, res.to_json(), edit, expect=2)
    assert json.loads(proc.stderr)["error"] == "UnsupportedPlaceStructure"


@pytest.mark.parametrize("key", ["curve", "G", "H", "D", "certificates", "codes"])
def test_lcp_verify_missing_key(tmp_path, h3_result, key):
    proc = verify_edited(tmp_path, h3_result, lambda obj: obj.pop(key), expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("edit", [
    lambda obj: obj.update(codes=5),
    lambda obj: obj.update(codes=obj["codes"][:1]),
    lambda obj: obj["codes"][0].pop("N"),
    lambda obj: obj["codes"][1].update(generator=[[1, 2], [3]]),
    lambda obj: obj.update(D=[7]),
    lambda obj: obj["certificates"][0].update(mult="x"),
    lambda obj: obj["G"].update(coeffs=[{"place": "inf"}]),
    lambda obj: obj["certificates"][0].update(mult=3.0),
    lambda obj: obj["certificates"][1].update(b=float(obj["certificates"][1]["b"])),
    lambda obj: obj["G"]["coeffs"][0].update(c=obj["G"]["coeffs"][0]["c"] + 0.5),
    lambda obj: obj["codes"][0].update(k=15.0),
    lambda obj: obj["codes"][1]["generator"][0].__setitem__(0, 1.5),
    lambda obj: obj["codes"][0]["generator"][1].__setitem__(3, True),
], ids=["codes-not-list", "one-code", "code-without-N", "ragged-generator",
        "place-not-string", "bad-mult", "coeff-without-c", "mult-float", "b-float",
        "G-coeff-float", "k-float", "generator-float", "generator-bool-among-ints"])
def test_lcp_verify_malformed_entries(tmp_path, h3_result, edit):
    proc = verify_edited(tmp_path, h3_result, edit, expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("value", [-1, 9])
def test_lcp_verify_generator_entry_outside_field(tmp_path, h3_result, value):
    def edit(obj):
        obj["codes"][0]["generator"][0][0] = value

    proc = verify_edited(tmp_path, h3_result, edit, expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("b", [9, -1, None])
def test_lcp_verify_certificate_b_outside_field(tmp_path, h3_result, b):
    def edit(obj):
        obj["certificates"] = [{"gen": "x-b", "b": b, "mult": 1}]

    proc = verify_edited(tmp_path, h3_result, edit, expect=2)
    assert json.loads(proc.stderr)["error"] == "UnsupportedPlaceStructure"


def test_lcp_build_all_constructions(h3_file, tmp_path):
    for construction, s in (("2", 4), ("R", 2)):
        args = ["lcp-build", "--curve", h3_file, "--construction", construction, "--s", str(s)]
        if construction == "2":
            e2 = {"coeffs": [{"place": "inf", "c": -3}, {"place": "root:0", "c": 2},
                             {"place": "root:1", "c": 3}]}
            e2_file = tmp_path / "e2.json"
            e2_file.write_text(json.dumps(e2))
            args += ["--E2", str(e2_file)]
        obj = json.loads(run_cli(*args).stdout)
        assert obj["report"]["verdict"] == "LCP"
        assert obj["report"]["conditions"]["passed"] is True


def test_code_info(h3_file, tmp_path):
    built = json.loads(run_cli(
        "lcp-build", "--curve", h3_file, "--construction", "1", "--s", "7",
    ).stdout)
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(built["codes"][0]))
    out = json.loads(run_cli("code-info", "--code", str(code_file)).stdout)
    assert out["N"] == 24 and out["k"] == 3 and out["rank"] == 3
    assert out["min_distance"]["exact"] is True
    sampled = json.loads(run_cli(
        "--seed", "7", "code-info", "--code", str(code_file), "--sample", "50",
    ).stdout)
    assert sampled["sampled_min_weight"] >= out["min_distance"]["value"]


def test_deterministic_output(h3_file):
    a = run_cli("curve-info", "--curve", h3_file).stdout
    b = run_cli("curve-info", "--curve", h3_file).stdout
    assert a == b


def test_error_exit_code(h3_file):
    proc = run_cli("dim", "--curve", h3_file, "--places", "nope", "--alpha", "1", expect=2)
    err = json.loads(proc.stderr)
    assert err["error"] == "UnsupportedPlaceStructure"
    proc = run_cli("lcp-build", "--curve", h3_file, "--construction", "1", "--s", "99", expect=2)
    err = json.loads(proc.stderr)
    assert err["error"] == "SRangeViolation"
    proc = run_cli("curve-info", "--curve", "/nonexistent.json", expect=2)
    err = json.loads(proc.stderr)
    assert err["error"] == "Usage"


def test_bad_or_missing_alpha_rejected(h3_file):
    places = ["--places", "root:0,root:1,root:2"]
    proc = run_cli("dim", "--curve", h3_file, *places, "--alpha", "1,x,3", expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"
    proc = run_cli("nonspecial-check", "--curve", h3_file, *places, expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {"p": 3, "e": 2}, "m": 4, "roots": [')
    proc = run_cli("curve-info", "--curve", str(path), expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("field", [{"p": 3, "e": 10**20}, {"p": 1000000000000000003, "e": 1}],
                         ids=["e-1e20", "p-19-digits"])
def test_curve_info_refuses_huge_fields_at_once(tmp_path, field):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(H3_SPEC, field=field)))
    proc = run_cli("curve-info", "--curve", str(path), expect=2, timeout=20)
    assert json.loads(proc.stderr)["error"] == "TooLarge"


def test_curve_without_field_rejected(tmp_path):
    path = tmp_path / "no-field.json"
    path.write_text(json.dumps({"m": 4, "leading": 1, "roots": [{"a": 0, "lambda": 1}]}))
    proc = run_cli("curve-info", "--curve", str(path), expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


def test_unknown_flag_rejected(h3_file):
    proc = run_cli("curve-info", "--curve", h3_file, "--bogus", expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


def test_tsv_format(h3_file):
    out = run_cli("--format", "tsv", "dim", "--curve", h3_file,
                  "--places", "root:0,root:1,root:2", "--alpha", "-2,2,3").stdout
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["classification", "NonspecialDegG"]
    assert ["dim", "1"] in [l.split("\t") for l in lines]


def test_input_files_not_mutated(h3_file):
    before = Path(h3_file).read_text()
    run_cli("curve-info", "--curve", h3_file)
    assert Path(h3_file).read_text() == before


@pytest.fixture(scope="module")
def h3_code(h3_result):
    """The first code of the H3 construction-1 result: [24, 15] over GF(9)."""
    return h3_result["codes"][0]


def code_info_on(tmp_path, obj, *extra, expect=2):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    return run_cli("code-info", "--code", str(path), *extra, expect=expect)


@pytest.mark.parametrize("edit", [
    lambda obj: obj.pop("field"),
    lambda obj: obj.pop("N"),
    lambda obj: obj.pop("k"),
    lambda obj: obj.pop("generator"),
    lambda obj: obj.update(field="GF(9)"),
    lambda obj: obj.update(field={"p": "three", "e": 2}),
    lambda obj: obj.update(N="twenty-four"),
    lambda obj: obj.update(k=None),
    lambda obj: obj.update(generator="rows"),
    lambda obj: obj.update(generator=[1, 2, 3]),
    lambda obj: obj.update(generator=[[1, 2], [3]]),
], ids=["no-field", "no-N", "no-k", "no-generator", "field-not-object", "p-not-int",
        "N-not-int", "k-null", "generator-not-list", "generator-flat", "generator-ragged"])
def test_code_info_missing_or_ill_typed_key(tmp_path, h3_code, edit):
    obj = json.loads(json.dumps(h3_code))
    edit(obj)
    proc = code_info_on(tmp_path, obj)
    assert json.loads(proc.stderr)["error"] == "Usage"


def test_code_info_top_level_list(tmp_path, h3_code):
    proc = code_info_on(tmp_path, [h3_code])
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("value", [99, 9, -1])
def test_code_info_generator_entry_outside_field(tmp_path, value):
    obj = {"field": {"p": 3, "e": 2}, "N": 3, "k": 1, "generator": [[1, 2, value]]}
    proc = code_info_on(tmp_path, obj)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("extra", [(), ("--sample", "20")], ids=["exact", "sampled"])
def test_code_info_k_above_row_count(tmp_path, extra):
    obj = {"field": {"p": 3, "e": 2}, "N": 3, "k": 2, "generator": [[1, 2, 0]]}
    proc = code_info_on(tmp_path, obj, *extra)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("N", [2, 4])
def test_code_info_column_count_not_N(tmp_path, N):
    obj = {"field": {"p": 3, "e": 2}, "N": N, "k": 1, "generator": [[1, 2, 0]]}
    proc = code_info_on(tmp_path, obj)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("generator,k", [
    ([[1, 2, 0], [0, 1, 1], [1, 0, 1]], 1),
    ([[1, 2, 0], [2, 1, 0]], 2),
], ids=["k-below-row-count", "dependent-rows"])
def test_code_info_k_not_rows_and_rank(tmp_path, generator, k):
    # k below the row count would describe the code of the first k rows only;
    # dependent rows would give a zero-weight nonzero message
    obj = {"field": {"p": 3, "e": 2}, "N": 3, "k": k, "generator": generator}
    proc = code_info_on(tmp_path, obj)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("count", ["-5", "-1"])
def test_code_info_negative_sample_rejected(tmp_path, count):
    obj = {"field": {"p": 3, "e": 2}, "N": 3, "k": 1, "generator": [[1, 2, 0]]}
    proc = code_info_on(tmp_path, obj, "--sample", count)
    assert json.loads(proc.stderr)["error"] == "Usage"


def test_code_info_accepts_small_valid_code(tmp_path):
    obj = {"field": {"p": 3, "e": 2}, "N": 3, "k": 1, "generator": [[1, 2, 0]]}
    out = json.loads(code_info_on(tmp_path, obj, expect=0).stdout)
    assert out == {"N": 3, "k": 1, "q": 9, "rank": 1,
                   "min_distance": {"exact": True, "value": 2}}


@pytest.mark.parametrize("place", ["bundle:9", "bundle:-1", "root:x", "aff:1:z", "root:",
                                   "inf:0"])
def test_bad_place_id_rejected(h3_file, place):
    proc = run_cli("dim", "--curve", h3_file, "--places", f"root:0,{place}",
                   "--alpha", "1,2", expect=2)
    assert json.loads(proc.stderr)["error"] == "UnsupportedPlaceStructure"


def test_lcp_build_eval_x_not_integers(h3_file):
    proc = run_cli("lcp-build", "--curve", h3_file, "--construction", "1", "--s", "3",
                   "--eval-x", "1,x", expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("x", ["99", "-1"])
def test_lcp_build_eval_x_outside_field(h3_file, x):
    proc = run_cli("lcp-build", "--curve", h3_file, "--construction", "1", "--s", "3",
                   "--eval-x", f"1,{x}", expect=2)
    assert json.loads(proc.stderr)["error"] == "UnsupportedPlaceStructure"


@pytest.mark.parametrize("divisor", [{"places": []}, [], {"coeffs": [{"c": 1}]}],
                         ids=["no-coeffs", "list", "coeff-without-place"])
def test_lcp_build_malformed_divisor_file(h3_file, tmp_path, divisor):
    path = tmp_path / "E.json"
    path.write_text(json.dumps(divisor))
    proc = run_cli("lcp-build", "--curve", h3_file, "--construction", "1", "--s", "3",
                   "--E", str(path), expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


def test_lcp_build_repeated_eval_x_counts_once(h3_file):
    args = ["lcp-build", "--curve", h3_file, "--construction", "1", "--s", "3", "--eval-x"]
    assert run_cli(*args, "1,1,2,3,4,6,8").stdout == run_cli(*args, "1,2,3,4,6,8").stdout


@pytest.mark.parametrize("edit", [
    lambda obj: obj["field"].update(p=3.0),
    lambda obj: obj["field"].update(e=True),
    lambda obj: obj.update(m=4.7),
    lambda obj: obj.update(leading="1"),
    lambda obj: obj["roots"][1].update(a=5.2),
    lambda obj: obj["roots"][0].update({"lambda": 1.0}),
], ids=["p-float", "e-bool", "m-float", "leading-string", "root-float", "lambda-float"])
def test_curve_spec_non_integer_rejected(tmp_path, edit):
    obj = json.loads(json.dumps(H3_SPEC))
    edit(obj)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(obj))
    proc = run_cli("curve-info", "--curve", str(path), expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


def test_divisor_non_integer_coefficient_rejected(h3_file, tmp_path):
    path = tmp_path / "E.json"
    path.write_text(json.dumps({"coeffs": [{"place": "inf", "c": -1.5},
                                           {"place": "root:1", "c": 1},
                                           {"place": "root:2", "c": 2.9}]}))
    proc = run_cli("lcp-build", "--curve", h3_file, "--construction", "1", "--s", "3",
                   "--E", str(path), expect=2)
    assert json.loads(proc.stderr)["error"] == "Usage"


@pytest.mark.parametrize("edit", [
    lambda obj: obj.update(generator=[[1.9, 2, 0.5]]),
    lambda obj: obj.update(generator=[[True, False, True]]),
    lambda obj: obj.update(generator=[[1, True, 0]]),
    lambda obj: obj.update(generator=[[1, 2, False]]),
    lambda obj: obj.update(N=3.0),
    lambda obj: obj.update(k=True),
], ids=["generator-float", "generator-bool", "generator-true-among-ints",
        "generator-false-among-ints", "N-float", "k-bool"])
def test_code_info_non_integer_rejected(tmp_path, edit):
    obj = {"field": {"p": 3, "e": 2}, "N": 3, "k": 1, "generator": [[1, 2, 0]]}
    edit(obj)
    proc = code_info_on(tmp_path, obj)
    assert json.loads(proc.stderr)["error"] == "Usage"
