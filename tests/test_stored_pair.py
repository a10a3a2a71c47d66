"""codes.verify_stored_pair, the rule lcp-verify applies, against a dense oracle.

A seeded campaign edits the H3 results of constructions 1 (s = 3), 2 (s = 5)
and R (s = 3) one edit at a time: row operations and scalings, single
entries, column swaps and scalings of the stored generators, a row of H
mixed into G, an appended zero or repeated row, a stored k off by one, a
ramified coefficient of G or H off by one, and a certificate multiplicity
off by one.  The oracle takes only dense linalg.rank, never _code_pair: a
stored code passes when it has k rows of length N of rank k and spans
ag_code's code C(D, G) resp. C(D, H), of the same N and k; the pair is an LCP
when both pass, k1 + k2 = N and the stored stack has rank N.
"""

import collections
import dataclasses
import random

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import linalg
from kummerlcp.curve import AFFINE
from kummerlcp.errors import CertificateInvalidError

EDITS_PER_RESULT = 67


@pytest.fixture(scope="module")
def h3_results(h3):
    """The H3 results of constructions 1 at s = 3, 2 at s = 5 and R at s = 3."""
    inf, Q = K.Place.infinity(), [h3.root_place(k) for k in range(3)]
    E = K.Divisor.of((inf, -1), (Q[1], 1), (Q[2], 2))
    E1 = K.Divisor.of((Q[0], -3), (Q[1], 2), (Q[2], 3))
    E2 = K.Divisor.of((inf, -3), (Q[0], 2), (Q[1], 3))
    Eg = K.Divisor.of((Q[1], 1), (Q[2], 2))
    return [K.lcp_pole_shift(h3, E, 3), K.lcp_pair(h3, E1, E2, 5), K.lcp_punctured(h3, Eg, 3)]


@dataclasses.dataclass
class Forgery:
    """What lcp-verify reads from a result file, open to edits."""

    G: K.Divisor
    H: K.Divisor
    certificates: list
    gens: list  # the two stored generators, int64 arrays
    ks: list  # their stored k

    @classmethod
    def of(cls, res):
        return cls(res.G, res.H, list(res.certificates),
                   [res.code_g.generator.data.copy(), res.code_h.generator.data.copy()],
                   [res.code_g.k, res.code_h.k])


def row_operation(rng, f, t):
    gen = rng.choice(t.gens)
    a, b = rng.sample(range(len(gen)), 2)
    gen[a] = f.vadd(gen[a], f.vmul(gen[b], rng.randrange(1, f.q)))


def row_scaling(rng, f, t):
    gen = rng.choice(t.gens)
    a = rng.randrange(len(gen))
    gen[a] = f.vmul(gen[a], rng.randrange(1, f.q))


def entry_change(rng, f, t):
    gen = rng.choice(t.gens)
    r, c = rng.randrange(gen.shape[0]), rng.randrange(gen.shape[1])
    gen[r, c] = rng.choice([v for v in range(f.q) if v != gen[r, c]])


def column_swap(rng, f, t):
    a, b = rng.sample(range(t.gens[0].shape[1]), 2)
    for gen in rng.choice([t.gens[:1], t.gens[1:], t.gens]):
        gen[:, [a, b]] = gen[:, [b, a]]


def column_scaling(rng, f, t):
    gen = rng.choice(t.gens)
    c = rng.randrange(gen.shape[1])
    gen[:, c] = f.vmul(gen[:, c], rng.randrange(1, f.q))


def h_row_into_g(rng, f, t):
    g, h = t.gens
    a, b = rng.randrange(len(g)), rng.randrange(len(h))
    g[a] = f.vadd(g[a], f.vmul(h[b], rng.randrange(1, f.q)))


def appended_row(rng, f, t):
    # a zero or repeated row, and half of the time k raised to the row count
    i = rng.randrange(2)
    gen = t.gens[i]
    row = gen[rng.randrange(len(gen))] if rng.random() < 0.5 else np.zeros(gen.shape[1], np.int64)
    t.gens[i] = np.vstack([gen, row])
    t.ks[i] += rng.random() < 0.5


def k_off_by_one(rng, f, t):
    t.ks[rng.randrange(2)] += rng.choice((-1, 1))


def ramified_coefficient(rng, f, t):
    name = rng.choice(("G", "H"))
    X = getattr(t, name)
    place = rng.choice([p for p in X.support() if p.kind != AFFINE])
    setattr(t, name, X + K.Divisor.of((place, rng.choice((-1, 1)))))


def certificate_multiplicity(rng, f, t):
    j = rng.randrange(len(t.certificates))
    step = t.certificates[j]
    t.certificates[j] = dataclasses.replace(step, mult=step.mult + rng.choice((-1, 1)))


EDITS = [row_operation, row_scaling, entry_change, column_swap, column_scaling, h_row_into_g,
         appended_row, k_off_by_one, ramified_coefficient, certificate_multiplicity]


def chain_reduces(curve, d_places, G, H, certificates) -> bool:
    """Whether lmd(G,H) - D minus the chain's principal divisors is ramified
    support plus coefficient -1 affine places."""
    W = K.divisor_lmd(G, H) - K.Divisor.of(*((p, 1) for p in d_places))
    for step in certificates:
        W = W - curve.principal_divisor(step.kind, step.b) * step.mult
    return all(c == -1 for p, c in W.items() if p.kind == AFFINE)


def dense_oracle(f, rebuilt, gens, ks, N):
    """stored_ranks_ok, stored_codes_match, rank_of_stack and the verdict,
    by dense ranks alone."""
    ranks_ok = all(gen.shape == (k, N) and linalg.rank(f, gen) == k for gen, k in zip(gens, ks))
    codes_match = all((N, k, gen.shape[1]) == (r.N, r.k, r.N)
                      and linalg.rank(f, np.vstack([gen, r.generator.data])) == r.k
                      for gen, k, r in zip(gens, ks, rebuilt))
    stack = linalg.rank(f, np.vstack(gens))
    lcp = ranks_ok and codes_match and sum(ks) == N and stack == N
    return ranks_ok, codes_match, stack, "LCP" if lcp else "NOT_LCP"


def test_forgery_campaign_against_dense_oracle(h3, h3_results):
    f = h3.field
    outcomes = collections.Counter()
    for index, res in enumerate(h3_results):
        N = len(res.d_places)
        for trial in range(EDITS_PER_RESULT):
            rng = random.Random(1000 * index + trial)
            t = Forgery.of(res)
            edit = EDITS[trial % len(EDITS)]
            edit(rng, f, t)
            stored = [K.LinearCode(K.Matrix(f, gen), N, k) for gen, k in zip(t.gens, t.ks)]
            args = (h3, res.d_places, t.G, t.H, t.certificates)
            label = f"{res.construction} s={res.s} {edit.__name__} seed {1000 * index + trial}"
            # the certificate contract: a chain that does not reduce raises
            if not chain_reduces(*args):
                with pytest.raises(CertificateInvalidError):
                    K.verify_stored_pair(*args, stored)
                outcomes["CertificateInvalid"] += 1
                continue
            out = K.verify_stored_pair(*args, stored)
            rebuilt = [K.ag_code(h3, res.d_places, X) for X in (t.G, t.H)]
            expected = dense_oracle(f, rebuilt, t.gens, t.ks, N)
            got = (out["stored_ranks_ok"], out["stored_codes_match"], out["rank_of_stack"],
                   out["verdict"])
            assert got == expected, label
            # any other chain ends linearly equivalent to lmd(G,H) - D, so the
            # conditions judge it as the built chain; G or H off by one fails
            # the degree sum
            assert out["conditions_pass"] is ((t.G, t.H) == (res.G, res.H)), label
            outcomes[out["verdict"]] += 1
    assert sum(outcomes.values()) == 3 * EDITS_PER_RESULT
    assert min(outcomes["LCP"], outcomes["NOT_LCP"], outcomes["CertificateInvalid"]) >= 5, outcomes


def test_zeroed_row_is_ranked_on_its_own(monkeypatch, h3, h3_results):
    # G with its first row zeroed has k rows of length N and lies inside
    # C(D, G) (30 rows stacked on the rebuilt G, rank 15), so only its own
    # rank, 14, shows the fault: the rebuilt pair's one-rank lemma says
    # nothing about the stored rows.  Then the stored stack is ranked (24 rows)
    res = h3_results[0]
    N = len(res.d_places)
    gen = res.code_g.generator.data.copy()
    gen[0] = 0
    stored = [K.LinearCode(K.Matrix(h3.field, gen), N, res.code_g.k), res.code_h]
    dense_rows = []
    rank = linalg.rank

    def counting_rank(field, M):
        if M.shape[1] == N:
            dense_rows.append(M.shape[0])
        return rank(field, M)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    out = K.verify_stored_pair(h3, res.d_places, res.G, res.H, res.certificates, stored)
    assert (out["stored_ranks_ok"], out["stored_codes_match"]) == (False, True)
    assert out["verdict"] == "NOT_LCP" and out["rank_of_stack"] == N - 1
    assert dense_rows == [30, 15, 24]
