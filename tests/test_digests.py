"""Byte identity of serialized output, pinned by sha256 digests.

`digests.json` holds the sha256 of every output below, as the program
printed it when the file was written:

- stdout of `lcp-build` on the 18 H3 constructions (1 at s = 1..7, 2 at
  s = 3..7, R at s = 1..6), and of `lcp-verify` and
  `--seed 5 code-info --sample 40` on each result and each of its codes;
- construction R on y^4 = (x-1)(x-2)(x-3) over GF(1021) at s = 1, 31, 62
  on the first 48 split fibers;
- the three Z-curve construction-1 results of acceptance criterion 9.

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

import kummerlcp as K
from kummerlcp import cli

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


def h3_digests(h3, workdir: Path) -> dict[str, str]:
    curve = _write(workdir / "h3.json", h3.to_json())
    divisors = {name: _write(workdir / f"{name}.json",
                             {"coeffs": [{"place": p, "c": c} for p, c in pairs]})
                for name, pairs in H3_DIVISORS.items()}
    out = {}
    for c, s in H3_CONSTRUCTIONS:
        argv = ["lcp-build", "--curve", curve, "--construction", c, "--s", str(s)]
        for flag, name in H3_DIVISOR_FLAGS[c]:
            argv += [flag, divisors[name]]
        built = _stdout(*argv)
        out[f"h3 lcp-build {c} s={s}"] = _sha256(built)
        result = workdir / f"result-{c}-{s}.json"
        result.write_text(built)
        out[f"h3 lcp-verify {c} s={s}"] = _sha256(_stdout("lcp-verify", "--result", str(result)))
        for i, code in enumerate(json.loads(built)["codes"]):
            path = _write(workdir / f"code-{c}-{s}-{i}.json", code)
            out[f"h3 code-info {c} s={s} code {i}"] = _sha256(
                _stdout("--seed", "5", "code-info", "--code", path, "--sample", "40"))
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


def _check(got: dict[str, str], prefix: str) -> None:
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items() if k.startswith(prefix)}
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def test_h3_cli_output_digests(h3, tmp_path):
    _check(h3_digests(h3, tmp_path), "h3 ")


def test_gf1021_construction_r_digests():
    _check(gf1021_digests(), "gf1021 ")


def test_z_curve_result_digests(z_lcp_results):
    _check(z_digests(z_lcp_results[0]), "z729 ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = h3_digests(hermitian(3), Path(tmp))
    digests.update(gf1021_digests())
    digests.update(z_digests(z_pole_shift_results(make_z_curve())))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
