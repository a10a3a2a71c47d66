"""The benchmark's four workloads, run in-process through kummerlcp.

A workload object does its set-up in its constructor (field and curve
construction, input files, divisors).  After that the runner repeats rounds:
`prepare` draws the round's seeded inputs (untimed), `run_round` makes the
round's fixed set of operations (timed), `check_round` checks the outputs
cheaply, and `check_deep` rechecks one round with the benchmark's own
arithmetic.  Every round starts from a fresh curve object, so the lazily
cached fiber map and genus are recomputed in each round, as they are in
each CLI process; the fields stay built, as field construction is set-up.

Calls go through module attributes (`K.lcp_pole_shift`, `cli.main`) at call
time, so the layer tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
from pathlib import Path

import numpy as np

import kummerlcp as K
from kummerlcp import cli as cli_mod

import checks
from checks import RefField, require


class OpLog:
    """Operations attempted in a round, and those that failed.

    An operation fails when it raises, or, for an input the program must
    reject, when the program does not reject it with its coded error.
    `lap`, if given, is called at the end of every operation, so that the
    runner can time the round operation by operation.
    """

    def __init__(self, lap=None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.lap = lap

    def run(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if self.lap is not None:
                self.lap()

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {why}")

    def record(self, label: str, why: str | None) -> None:
        """Count one operation made outside `run`; `why` is None if it succeeded."""
        self.attempted += 1
        if why is not None:
            self.fail(label, why)
        if self.lap is not None:
            self.lap()


def _split_range(lo_excl: int, hi_excl: int, step: int) -> tuple[int, int, int]:
    """Low, middle and high integer s with lo_excl < s * step < hi_excl."""
    lo = lo_excl // step + 1
    hi = -(-hi_excl // step) - 1
    require(lo <= hi, f"no admissible s in ({lo_excl}, {hi_excl}) / {step}")
    return lo, (lo + hi) // 2, hi


def _random_messages(rng: np.random.Generator, q: int, count: int, k: int) -> np.ndarray:
    return rng.integers(0, q, size=(count, k), dtype=np.int64)


class Workload:
    name = ""
    tracer = None  # set by the runner in a traced run

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def cli(self, *argv: str) -> tuple[int | None, str, str]:
        """cli.main in-process; (exit code, stdout, stderr), exit code None
        when an exception escaped main."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_mod.main(list(argv))
        except Exception as exc:  # an escaped exception is what some ops probe for
            err.write(f"{type(exc).__name__}: {exc}")
        if self.tracer is not None:
            self.tracer.add("cli.stdout_bytes", len(out.getvalue().encode()))
        return rc, out.getvalue(), err.getvalue()

    def cli_json(self, *argv: str) -> dict:
        rc, out, err = self.cli(*argv)
        if rc != 0:
            raise RuntimeError(f"kummerlcp {argv[0]} exited {rc}: {err.strip()[:300]}")
        return json.loads(out)

    def write_json(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# --- construction-1 and construction-R pieces shared by three workloads ------------

class _LcpFamily:
    """One curve, one certified divisor E, a fiber prefix and three values of s."""

    def __init__(self, label, field, m, leading, roots, E, deg_E, xs, construction):
        self.label = label
        self.field = field
        self.m = m
        self.leading = leading
        self.roots = roots
        self.E = E
        self.deg_E = deg_E
        self.xs = [int(x) for x in xs]
        self.construction = construction
        self.lambdas = [lam for _, lam in roots]
        self.deg_f = sum(self.lambdas)
        self.n = len(roots)
        self.genus = checks.riemann_hurwitz_genus(m, self.lambdas)
        self.N = m * len(self.xs)
        g = self.genus
        if construction == "1":
            self.s_values = _split_range(g - 1, self.N + 1 - g, self.deg_f)
        else:
            self.s_values = _split_range(g - 1, self.N - m - g + 2, self.n)

    def fresh_curve(self):
        return K.curve_create(self.field, self.m, self.leading, self.roots)

    def expected(self, s: int) -> dict:
        """Code length, dimensions and deg G, deg H from the paper's closed forms."""
        degE, N, m = self.deg_E, self.N, self.m
        if self.construction == "1":
            k2 = s * self.deg_f
            return {"length": N, "k": (N - k2, k2), "deg": (degE + N - k2, degE + k2)}
        k2 = s * self.n
        return {"length": N - m + 1, "k": (N - m + 1 - k2, k2),
                "deg": (degE + N - m - k2, degE + k2 - 1)}

    def build(self, curve, s):
        if self.construction == "1":
            return K.lcp_pole_shift(curve, self.E, s, self.xs)
        return K.lcp_punctured(curve, self.E, s, self.xs)

    def code_shapes(self) -> list[int]:
        return [k for s in self.s_values for k in self.expected(s)["k"]]

    def run(self, log: OpLog, messages) -> list:
        """Three builds, then every code encodes its messages."""
        curve = self.fresh_curve()
        out = []
        for s in self.s_values:
            res = log.run(f"{self.label} build s={s}", self.build, curve, s)
            out.append([s, res, []])
        msg_iter = iter(messages)
        for s, res, words in out:
            for code_index in (0, 1):
                msgs = next(msg_iter)
                if res is None:
                    log.record(f"{self.label} encode s={s}", "no code was built")
                    words.append(None)
                    continue
                code = (res.code_g, res.code_h)[code_index]
                words.append(log.run(f"{self.label} encode s={s}", K.encode_messages,
                                     code, msgs))
        return out

    def check(self, messages, out) -> None:
        msg_iter = iter(messages)
        for s, res, words in out:
            msgs = [next(msg_iter), next(msg_iter)]
            if res is None:
                continue
            exp = self.expected(s)
            label = f"{self.label} s={s}"
            checks.check_dims(label, (res.code_g.k, res.code_h.k), exp["k"])
            require(res.code_g.N == exp["length"] == res.code_h.N,
                    f"{label}: code length {res.code_g.N}, expected {exp['length']}")
            require(res.report.verdict and res.report.conditions.passed,
                    f"{label}: the construction did not verify as an LCP")
            for m_, w, deg in zip(msgs, words, exp["deg"]):
                if w is not None:
                    checks.check_goppa(label, m_, w, exp["length"], deg)

    def check_deep(self, rf: RefField, messages, out) -> None:
        msg_iter = iter(messages)
        for s, res, words in out:
            msgs = [next(msg_iter), next(msg_iter)]
            if res is None:
                continue
            exp = self.expected(s)
            label = f"{self.label} s={s}"
            checks.check_genus(self.label, res.curve.genus(), self.m, self.lambdas)
            checks.check_lcp_ranks(rf, label, res.code_g.generator.data,
                                   res.code_h.generator.data, *exp["k"], exp["length"])
            for code, m_, w in zip((res.code_g, res.code_h), msgs, words):
                if w is not None:
                    checks.check_encoding(rf, label, m_[:8], code.generator.data, w[:8])


def _ref_field(field) -> RefField:
    return RefField(field.p, field.e, field.modulus)


class _FamilyWorkload(Workload):
    """Three builds of one construction, each code encoding seeded messages."""

    family: _LcpFamily

    def prepare(self):
        q = self.family.field.q
        return [_random_messages(self.rng, q, self.messages, k)
                for k in self.family.code_shapes()]

    def run_round(self, inputs, log):
        return self.family.run(log, inputs)

    def check_round(self, inputs, outputs):
        self.family.check(inputs, outputs)

    def check_deep(self, inputs, outputs):
        self.family.check_deep(_ref_field(self.family.field), inputs, outputs)


# --- z729-pole-shift ------------------------------------------------------------------

class Z729PoleShift(_FamilyWorkload):
    """Construction 1 on the Z-curve y^7 = -x^5 (x^8 - 1) over GF(729)."""

    name = "z729-pole-shift"
    SIZES = {"full": {"fibers": 48, "messages": 100}, "tiny": {"fibers": 10, "messages": 5}}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        cfg = self.SIZES[size]
        F = K.field_create(3, 6)
        unity = [x for x in range(1, F.q) if F.pow(x, 8) == 1]
        roots = [(0, 5)] + [(u, 1) for u in unity]
        leading = F.neg(1)
        curve = K.curve_create(F, 7, leading, roots)
        E = K.Divisor([(K.Place.infinity(), -7)] + [
            (curve.root_place(k + 1), c) for k, c in enumerate([1, 2, 3, 3, 4, 5, 6, 6])
        ])
        xs = curve.split_x_values()[: cfg["fibers"]]
        self.family = _LcpFamily("Z", F, 7, leading, roots, E, 23, xs, "1")
        self.messages = cfg["messages"]
        self.rng = np.random.default_rng(seed)


# --- gf1021-punctured -------------------------------------------------------------------

class GF1021Punctured(_FamilyWorkload):
    """Construction R on y^4 = (x-1)(x-2)(x-3) over the prime field GF(1021)."""

    name = "gf1021-punctured"
    SIZES = {"full": {"fibers": 48, "messages": 20}, "tiny": {"fibers": 4, "messages": 5}}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        cfg = self.SIZES[size]
        F = K.field_create(1021, 1)
        roots = [(1, 1), (2, 1), (3, 1)]
        curve = K.curve_create(F, 4, 1, roots)
        E = K.Divisor.of((curve.root_place(1), 1), (curve.root_place(2), 2))
        xs = curve.split_x_values()[: cfg["fibers"]]
        self.family = _LcpFamily("GF1021", F, 4, 1, roots, E, 3, xs, "R")
        self.messages = cfg["messages"]
        self.rng = np.random.default_rng(seed)


# --- bigfield-scan ----------------------------------------------------------------------

class BigFieldScan(Workload):
    """curve-info and a small construction-1 LCP over fields at and above the
    2048-element table limit."""

    name = "bigfield-scan"
    # (p, e, m, roots); m divides q - 1 and is prime to deg f, so every
    # fiber has 0 or m points and infinity is totally ramified.
    CURVES = {
        "full": [(2, 11, 23, [(0, 1), (1, 1)]),
                 (2, 16, 17, [(0, 1), (1, 1)]),
                 (5, 6, 7, [(0, 1), (1, 1), (2, 1)])],
        "tiny": [(2, 4, 5, [(0, 1), (1, 1)]),
                 (5, 2, 4, [(0, 1), (1, 1), (2, 1)])],
    }
    SIZES = {"full": {"fibers": 6, "messages": 20}, "tiny": {"fibers": 2, "messages": 5}}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        cfg = self.SIZES[size]
        self.scans = []
        for p, e, m, roots in self.CURVES[size]:
            F = K.field_create(p, e)
            curve = K.curve_create(F, m, 1, roots)
            rf = _ref_field(F)
            split = checks.own_split_xs(rf, m, 1, roots)
            xs = split[: cfg["fibers"]]
            # a member of the separable family: non-special of degree g - 1
            E = K.separable_family(curve, 0).canonical()
            label = f"GF({p}^{e})"
            g = checks.riemann_hurwitz_genus(m, [lam for _, lam in roots])
            family = _LcpFamily(label, F, m, 1, roots, E, g - 1, xs, "1")
            path = self.write_json(f"curve-{p}-{e}.json", curve.to_json())
            self.scans.append({"family": family, "path": path, "rf": rf,
                               "split_count": len(split)})
        self.messages = cfg["messages"]
        self.rng = np.random.default_rng(seed)

    def prepare(self):
        return [[_random_messages(self.rng, sc["family"].field.q, self.messages, k)
                 for k in sc["family"].code_shapes()] for sc in self.scans]

    def run_round(self, inputs, log):
        out = []
        for sc, msgs in zip(self.scans, inputs):
            label = sc["family"].label
            info = log.run(f"{label} curve-info", self.cli_json, "curve-info",
                           "--curve", sc["path"])
            out.append((info, sc["family"].run(log, msgs)))
        return out

    def check_round(self, inputs, outputs):
        for sc, msgs, (info, built) in zip(self.scans, inputs, outputs):
            fam = sc["family"]
            if info is not None:
                checks.check_curve_info(fam.label, info, q=fam.field.q, m=fam.m,
                                        lambdas=fam.lambdas, split_count=sc["split_count"])
            fam.check(msgs, built)

    def check_deep(self, inputs, outputs):
        for sc, msgs, (_, built) in zip(self.scans, inputs, outputs):
            sc["family"].check_deep(sc["rf"], msgs, built)


# --- small-curves -----------------------------------------------------------------------

def _hermitian(q0: int, p: int, e: int):
    """y^(q0+1) = x^q0 + x over GF(q0^2) = GF(p^e)."""
    F = K.field_create(p, e)
    roots = [x for x in range(F.q) if F.add(F.pow(x, q0), x) == 0]
    return F, K.curve_create(F, q0 + 1, 1, [(r, 1) for r in roots])


def _divisor_json(pairs) -> dict:
    return {"coeffs": [{"place": place, "c": c} for place, c in pairs]}


class SmallCurves(Workload):
    """Non-special census on H5, all H3 constructions and exact minimum
    distances through the CLI, and four inputs the CLI must reject."""

    name = "small-curves"
    SIZES = {"full": {"census_q0": 5, "random_divisors": 300, "max_exhaust_k": 4},
             "tiny": {"census_q0": 2, "random_divisors": 20, "max_exhaust_k": 3}}
    CENSUS_FIELDS = {5: (5, 2), 2: (2, 2)}

    # H3: y^4 = x^3 + x over GF(9); g = 3, 24 affine points in 6 split fibers.
    E1_C1 = [("inf", -1), ("root:1", 1), ("root:2", 2)]
    E1_C2 = [("root:0", -3), ("root:1", 2), ("root:2", 3)]
    E2_C2 = [("inf", -3), ("root:0", 2), ("root:1", 3)]
    E_R = [("root:1", 1), ("root:2", 2)]
    CONSTRUCTIONS = [("1", s) for s in range(1, 8)] + [("2", s) for s in range(3, 8)] \
        + [("R", s) for s in range(1, 7)]
    REJECTIONS = ("forged lcp-verify", "dim --alpha 1,x,3",
                  "curve-info malformed JSON", "curve-info without field")

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        cfg = self.SIZES[size]
        q0 = cfg["census_q0"]
        self.census_field, self.census_curve = _hermitian(q0, *self.CENSUS_FIELDS[q0])
        self.census_tuple = K.QTuple.all_ramified(self.census_curve)
        self.random_divisors = cfg["random_divisors"]
        self.h3_field, h3 = _hermitian(3, 3, 2)
        self.h3_rf = _ref_field(self.h3_field)
        self.h3_N = 4 * len(checks.own_split_xs(self.h3_rf, 4, 1, h3.roots))
        self.h3_path = self.write_json("h3.json", h3.to_json())
        self.e_paths = {name: self.write_json(f"{name}.json", _divisor_json(pairs))
                        for name, pairs in (("E1_C1", self.E1_C1), ("E1_C2", self.E1_C2),
                                            ("E2_C2", self.E2_C2), ("E_R", self.E_R))}
        self.exhaust = [(c, s, i) for c, s in self.CONSTRUCTIONS
                        for i, k in enumerate(self.h3_expected(c, s)["k"])
                        if k <= cfg["max_exhaust_k"]]
        # a construction-1 result whose generators are replaced by [I | 0] and [0 | I]
        forged = K.lcp_pole_shift(h3, K.Divisor.from_json(h3, _divisor_json(self.E1_C1)),
                                  3).to_json()
        k1, k2 = forged["codes"][0]["k"], forged["codes"][1]["k"]
        eye = np.eye(k1 + k2, dtype=np.int64)
        forged["codes"][0]["generator"] = eye[:k1].tolist()
        forged["codes"][1]["generator"] = eye[k1:].tolist()
        self.forged_path = self.write_json("forged.json", forged)
        self.malformed_path = self.workdir / "malformed.json"
        self.malformed_path.write_text('{"field": {"p": 3, "e": 2}, "m": 4, "roots": [')
        no_field = h3.to_json()
        del no_field["field"]
        self.no_field_path = self.write_json("no-field.json", no_field)
        self.rng = np.random.default_rng(seed)

    def h3_expected(self, construction: str, s: int) -> dict:
        """Length, dimensions and deg G, deg H of an H3 construction, from the
        closed forms with g = 3, n = 3, m = 4."""
        N, g = self.h3_N, 3
        if construction == "1":
            return {"length": N, "k": (N - 3 * s, 3 * s),
                    "deg": (g - 1 + N - 3 * s, g - 1 + 3 * s)}
        if construction == "2":
            alpha = dict(self.E1_C2)
            beta = dict(self.E2_C2)
            k2 = 2 * s + alpha["root:2"] - beta["inf"]
            deg_g = alpha["root:0"] + alpha["root:1"] + s + beta["inf"] + N - 3 * s
            deg_h = 2 * s + beta["root:0"] + beta["root:1"] + alpha["root:2"]
            return {"length": N, "k": (N - k2, k2), "deg": (deg_g, deg_h)}
        return {"length": N - 3, "k": (N - 3 - 3 * s, 3 * s),
                "deg": (g + N - 4 - 3 * s, g + 3 * s - 1)}

    def prepare(self):
        m = self.census_curve.m
        n = self.census_tuple.n
        return self.rng.integers(-2 * m, 2 * m + 1, size=(self.random_divisors, n)).tolist()

    # -- the round ---------------------------------------------------------------------

    def _census(self):
        tup, m = self.census_tuple, self.census_curve.m
        found = set()
        for box in itertools.product(range(m), repeat=tup.n):
            alpha = list(box)
            alpha[0] -= m
            if K.nonspecial_gminus1(tup, alpha):
                found.add(tup.divisor(alpha))
        return found

    def _separable(self):
        out = set()
        for alpha0 in range(self.census_curve.m):
            out |= K.separable_family(self.census_curve, alpha0).all_divisors_canonical_shift()
        return out

    def _unit(self):
        return K.unit_multiplicity_family(self.census_curve,
                                          self.census_tuple).all_divisors_canonical_shift()

    def _degree_g(self, census):
        """D + P for every census member D and tuple place P."""
        tup = self.census_tuple
        out = []
        for D in census:
            alpha = tup.alpha_of(D)
            for k in range(tup.n):
                raised = list(alpha)
                raised[k] += 1
                out.append(K.nonspecial_g(tup, raised))
        return out

    def _oracles(self, alphas):
        tup, curve = self.census_tuple, self.census_curve
        return [(alpha, K.dim_by_formula(tup, alpha), K.dim_by_class_count(tup, alpha),
                 K.dim_by_decomposition(curve, tup.divisor(alpha)),
                 K.classify(tup, alpha).verdict) for alpha in alphas]

    def _build_args(self, construction: str, s: int) -> list[str]:
        args = ["lcp-build", "--curve", self.h3_path, "--construction", construction,
                "--s", str(s)]
        if construction == "1":
            args += ["--E", self.e_paths["E1_C1"]]
        elif construction == "2":
            args += ["--E", self.e_paths["E1_C2"], "--E2", self.e_paths["E2_C2"]]
        else:
            args += ["--E", self.e_paths["E_R"]]
        return args

    def _rejects(self, *argv: str) -> str | None:
        """None when the CLI rejects the input with exit 2 and a coded error."""
        rc, _, err = self.cli(*argv)
        if rc != 2:
            return f"exit {rc}: {err.strip()[:200]}"
        try:
            json.loads(err)["error"]
        except (ValueError, KeyError, TypeError):
            return f"exit 2 without a coded error: {err.strip()[:200]}"
        return None

    def _rejects_forgery(self) -> str | None:
        rc, out, err = self.cli("lcp-verify", "--result", self.forged_path)
        if rc == 2 or (rc == 0 and json.loads(out).get("verdict") == "NOT_LCP"):
            return None
        if rc == 0:
            return "forged generators verified as LCP"
        return f"exit {rc}: {err.strip()[:200]}"

    def run_round(self, alphas, log):
        out = {}
        census = log.run("census box scan", self._census)
        out["census"] = census
        out["separable"] = log.run("separable families", self._separable)
        out["unit"] = log.run("unit family", self._unit)
        out["degree_g"] = log.run("degree-g checks", self._degree_g, census or set())
        out["oracles"] = log.run("dimension oracles", self._oracles, alphas)
        out["curve_info"] = log.run("H3 curve-info", self.cli_json, "curve-info",
                                    "--curve", self.h3_path)
        out["curve_places"] = log.run("H3 curve-places", self.cli_json, "curve-places",
                                      "--curve", self.h3_path)
        builds, verifies = {}, {}
        for c, s in self.CONSTRUCTIONS:
            label = f"H3 lcp-build {c} s={s}"
            built = log.run(label, self.cli_json, *self._build_args(c, s))
            builds[(c, s)] = built
            path = self.write_json(f"result-{c}-{s}.json", built) if built else None
            if path is None:
                log.record(f"H3 lcp-verify {c} s={s}", "no result was built")
                verifies[(c, s)] = None
                continue
            verifies[(c, s)] = log.run(f"H3 lcp-verify {c} s={s}", self.cli_json,
                                       "lcp-verify", "--result", path)
        out["builds"], out["verifies"] = builds, verifies
        infos = {}
        for c, s, i in self.exhaust:
            label = f"H3 code-info {c} s={s} code {i}"
            built = builds[(c, s)]
            if built is None:
                log.record(label, "no result was built")
                infos[(c, s, i)] = None
                continue
            path = self.write_json(f"code-{c}-{s}-{i}.json", built["codes"][i])
            infos[(c, s, i)] = log.run(label, self.cli_json, "code-info", "--code", path)
        out["code_info"] = infos
        places = "root:0,root:1,root:2"
        for label, (fn, *args) in zip(self.REJECTIONS, (
            (self._rejects_forgery,),
            (self._rejects, "dim", "--curve", self.h3_path, "--places", places,
             "--alpha", "1,x,3"),
            (self._rejects, "curve-info", "--curve", str(self.malformed_path)),
            (self._rejects, "curve-info", "--curve", self.no_field_path),
        )):
            log.record(label, fn(*args))
        return out

    # -- checks --------------------------------------------------------------------------

    def check_round(self, alphas, out):
        q0 = self.SIZES[self.size]["census_q0"]
        label = f"H{q0}"
        if None not in (out["census"], out["separable"], out["unit"]):
            checks.check_census(label, out["census"], out["separable"], out["unit"])
        if out["degree_g"] is not None:
            require(all(out["degree_g"]),
                    f"{label}: D + P is not non-special of degree g for some census D")
        if out["oracles"] is not None:
            checks.check_oracles(label, out["oracles"])
        if out["curve_info"] is not None:
            checks.check_curve_info("H3", out["curve_info"], q=9, m=4, lambdas=[1, 1, 1],
                                    split_count=self.h3_N // 4, maximal=True)
        if out["curve_places"] is not None:
            checks.check_fibers("H3", out["curve_places"]["places"], 4)
            require(out["curve_places"]["count"] == 1 + 3 + self.h3_N,
                    f"H3: {out['curve_places']['count']} places listed")
        for (c, s), built in out["builds"].items():
            exp = self.h3_expected(c, s)
            label = f"H3 construction {c} s={s}"
            if built is not None:
                codes = built["codes"]
                checks.check_dims(label, (codes[0]["k"], codes[1]["k"]), exp["k"])
                require(codes[0]["N"] == exp["length"], f"{label}: length {codes[0]['N']}")
                require(built["report"]["verdict"] == "LCP"
                        and built["report"]["conditions"]["passed"],
                        f"{label}: lcp-build did not report a verified LCP")
            verified = out["verifies"][(c, s)]
            if verified is not None:
                require(verified["verdict"] == "LCP" and verified["conditions_pass"]
                        and verified["stored_ranks_ok"]
                        and verified["rank_of_stack"] == exp["length"],
                        f"{label}: lcp-verify did not confirm the LCP")
        for (c, s, i), info in out["code_info"].items():
            if info is None:
                continue
            exp = self.h3_expected(c, s)
            label = f"H3 construction {c} s={s} code {i}"
            require(info["min_distance"]["exact"], f"{label}: minimum distance not exact")
            require(info["rank"] == info["k"] == exp["k"][i], f"{label}: rank {info['rank']}")
            checks.check_min_distance(label, info["min_distance"]["value"], exp["length"],
                                      exp["k"][i], exp["deg"][i])

    def check_deep(self, alphas, out):
        curve = self.census_curve
        checks.check_genus(f"H{curve.m - 1}", curve.genus(), curve.m, [1] * len(curve.roots))
        for (c, s), built in out["builds"].items():
            if built is None:
                continue
            exp = self.h3_expected(c, s)
            gens = [code["generator"] for code in built["codes"]]
            checks.check_lcp_ranks(self.h3_rf, f"H3 construction {c} s={s}", *gens,
                                   *exp["k"], exp["length"])


WORKLOADS = {cls.name: cls for cls in (Z729PoleShift, GF1021Punctured, BigFieldScan,
                                       SmallCurves)}
