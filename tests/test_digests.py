"""Byte identity of serialized output, pinned by sha256 digests.

`digests.json` holds the sha256 of every output below, as the program
printed it when the file was written:

- stdout of `lcp-build` on the 18 H3 constructions (1 at s = 1..7, 2 at
  s = 3..7, R at s = 1..6), and of `lcp-verify` and
  `--seed 5 code-info --sample 40` on each result and each of its codes;
- construction R on y^4 = (x-1)(x-2)(x-3) over GF(1021) at s = 1, 31, 62
  on the first 48 split fibers;
- the three Z-curve construction-1 results of acceptance criterion 9;
- stdout of `curve-info` and `curve-places` on H3, on y^4 = x(x-1)^2 over
  GF(25) (a bundle over x = 1), on y^23 = x(x+1) over GF(2^11) and on
  y^7 = x(x-1)(x-2) over GF(5^6);
- stdout, stderr and exit status of `lcp-verify` on the H3 results of
  constructions 1, 2 and R at s = 3, 5 and 3 under each of the edits in
  EDITS (the honest result, generators with their rows reordered or
  row-reduced, forged or broken codes, a shortened D and a cut chain).

A change that alters a verdict, a dimension, a basis order or any
serialized byte fails here.  Rewrite the file only when an output change
is intended, with

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import kummerlcp as K
from kummerlcp import cli, linalg

from conftest import hermitian, make_z_curve, z_pole_shift_results

DIGESTS = Path(__file__).resolve().parent / "digests.json"

H3_DIVISORS = {
    "E1_C1": [("inf", -1), ("root:1", 1), ("root:2", 2)],
    "E1_C2": [("root:0", -3), ("root:1", 2), ("root:2", 3)],
    "E2_C2": [("inf", -3), ("root:0", 2), ("root:1", 3)],
    "E_R": [("root:1", 1), ("root:2", 2)],
}
H3_DIVISOR_FLAGS = {"1": [("--E", "E1_C1")],
                    "2": [("--E", "E1_C2"), ("--E2", "E2_C2")],
                    "R": [("--E", "E_R")]}
H3_CONSTRUCTIONS = [("1", s) for s in range(1, 8)] + [("2", s) for s in range(3, 8)] \
    + [("R", s) for s in range(1, 7)]
# (p, e, m, roots) of the curves whose curve-info and curve-places are pinned
# besides H3: a bundle curve and two bigfield-scan curves
LISTED_CURVES = {
    "bundle": (5, 2, 4, [(0, 1), (1, 2)]),
    "gf2^11": (2, 11, 23, [(0, 1), (1, 1)]),
    "gf5^6": (5, 6, 7, [(0, 1), (1, 1), (2, 1)]),
}

# the results whose lcp-verify output is pinned under every edit in EDITS
EDITED_CONSTRUCTIONS = [("1", 3), ("2", 5), ("R", 3)]


def _generator(obj: dict, i: int) -> list[list[int]]:
    return obj["codes"][i]["generator"]


def _row_reduced(field, rows: list[list[int]]) -> list[list[int]]:
    return linalg.row_space_basis(field, np.array(rows, dtype=np.int64)).tolist()


def _identity_codes(obj: dict, field) -> None:
    """[I | 0] and [0 | I]: a complementary pair that is not C(D, G), C(D, H)."""
    k1, k2 = (code["k"] for code in obj["codes"])
    eye = np.eye(k1 + k2, len(obj["D"]), dtype=np.int64).tolist()
    obj["codes"][0]["generator"], obj["codes"][1]["generator"] = eye[:k1], eye[k1:]


# each edit changes an lcp-build result object (and may read its field) in place
EDITS = {
    "honest": lambda obj, f: None,
    "reversed G": lambda obj, f: _generator(obj, 0).reverse(),
    "reversed H": lambda obj, f: _generator(obj, 1).reverse(),
    "reversed G and H": lambda obj, f: [_generator(obj, i).reverse() for i in (0, 1)],
    "row-reduced G": lambda obj, f: obj["codes"][0].update(
        generator=_row_reduced(f, _generator(obj, 0))),
    "identity": _identity_codes,
    "duplicated row of G": lambda obj, f: _generator(obj, 0).append(_generator(obj, 0)[0]),
    "swapped codes": lambda obj, f: obj["codes"].reverse(),
    "k of G one less": lambda obj, f: obj["codes"][0].update(k=obj["codes"][0]["k"] - 1),
    "N of H one more": lambda obj, f: obj["codes"][1].update(N=obj["codes"][1]["N"] + 1),
    "last column of G dropped": lambda obj, f: [row.pop() for row in _generator(obj, 0)],
    "zero G": lambda obj, f: obj["codes"][0].update(
        generator=[[0] * len(row) for row in _generator(obj, 0)]),
    "row of H added to G": lambda obj, f: _generator(obj, 0).append(_generator(obj, 1)[0]),
    "last place of D dropped": lambda obj, f: obj["D"].pop(),
    "last certificate dropped": lambda obj, f: obj["certificates"].pop(),
    "H copied from G": lambda obj, f: obj.update(codes=[obj["codes"][0]] * 2),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _result_text(res) -> str:
    return json.dumps(res.to_json(), sort_keys=True)


def _stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    assert rc == 0, argv
    return out.getvalue()


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _h3_builder(h3, workdir: Path):
    """A function that returns the stdout of lcp-build on H3 for (c, s)."""
    curve = _write(workdir / "h3.json", h3.to_json())
    divisors = {name: _write(workdir / f"{name}.json",
                             {"coeffs": [{"place": p, "c": c} for p, c in pairs]})
                for name, pairs in H3_DIVISORS.items()}

    def build(c: str, s: int) -> str:
        argv = ["lcp-build", "--curve", curve, "--construction", c, "--s", str(s)]
        for flag, name in H3_DIVISOR_FLAGS[c]:
            argv += [flag, divisors[name]]
        return _stdout(*argv)

    return build


def h3_digests(h3, workdir: Path) -> dict[str, str]:
    build = _h3_builder(h3, workdir)
    out = {}
    for c, s in H3_CONSTRUCTIONS:
        built = build(c, s)
        out[f"h3 lcp-build {c} s={s}"] = _sha256(built)
        result = workdir / f"result-{c}-{s}.json"
        result.write_text(built)
        out[f"h3 lcp-verify {c} s={s}"] = _sha256(_stdout("lcp-verify", "--result", str(result)))
        for i, code in enumerate(json.loads(built)["codes"]):
            path = _write(workdir / f"code-{c}-{s}-{i}.json", code)
            out[f"h3 code-info {c} s={s} code {i}"] = _sha256(
                _stdout("--seed", "5", "code-info", "--code", path, "--sample", "40"))
    return out


def h3_edited_digests(h3, workdir: Path) -> dict[str, str]:
    """lcp-verify's stdout, stderr (the result's path in it replaced) and exit
    status on each edited result, run in this process."""
    build = _h3_builder(h3, workdir)
    path = workdir / "edited.json"
    out = {}
    for c, s in EDITED_CONSTRUCTIONS:
        built = build(c, s)
        for name, edit in EDITS.items():
            obj = json.loads(built)
            edit(obj, h3.field)
            path.write_text(json.dumps(obj))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(["lcp-verify", "--result", str(path)])
            text = json.dumps({"exit": rc, "stdout": stdout.getvalue(),
                               "stderr": stderr.getvalue().replace(str(path), "RESULT")})
            out[f"lcp-verify edited h3 {c} s={s}: {name}"] = _sha256(text)
    return out


def gf1021_digests() -> dict[str, str]:
    curve = K.curve_create(K.field_create(1021, 1), 4, 1, [(1, 1), (2, 1), (3, 1)])
    E = K.Divisor.of((curve.root_place(1), 1), (curve.root_place(2), 2))
    xs = curve.split_x_values()[:48]
    return {f"gf1021 construction R s={s}": _sha256(_result_text(K.lcp_punctured(curve, E, s, xs)))
            for s in (1, 31, 62)}


def z_digests(results: dict) -> dict[str, str]:
    return {f"z729 construction 1 s={s}": _sha256(_result_text(res))
            for s, res in results.items()}


def curve_digests(workdir: Path) -> dict[str, str]:
    curves = {"h3": hermitian(3)}
    curves.update({name: K.curve_create(K.field_create(p, e), m, 1, roots)
                   for name, (p, e, m, roots) in LISTED_CURVES.items()})
    out = {}
    for name, curve in curves.items():
        path = _write(workdir / f"curve-{name}.json", curve.to_json())
        for command in ("curve-info", "curve-places"):
            out[f"{command} {name}"] = _sha256(_stdout(command, "--curve", path))
    return out


def _check(got: dict[str, str], prefix: str) -> None:
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items() if k.startswith(prefix)}
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def test_h3_cli_output_digests(h3, tmp_path):
    _check(h3_digests(h3, tmp_path), "h3 ")


def test_h3_edited_result_verify_digests(h3, tmp_path):
    _check(h3_edited_digests(h3, tmp_path), "lcp-verify edited ")


def test_gf1021_construction_r_digests():
    _check(gf1021_digests(), "gf1021 ")


def test_curve_listing_digests(tmp_path):
    _check(curve_digests(tmp_path), "curve-")


def test_z_curve_result_digests(z_lcp_results):
    _check(z_digests(z_lcp_results[0]), "z729 ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = h3_digests(hermitian(3), Path(tmp))
        digests.update(h3_edited_digests(hermitian(3), Path(tmp)))
        digests.update(curve_digests(Path(tmp)))
    digests.update(gf1021_digests())
    digests.update(z_digests(z_pole_shift_results(make_z_curve())))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
