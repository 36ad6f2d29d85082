"""Acceptance gate.

One test per criterion, so the verbose run shows one pass/fail line each.
Every comparison is exact ring arithmetic; there are no tolerances anywhere.
The stated budgets are wall-clock ceilings enforced with asserts.
"""

import random
import time

from hasseforge.datum import Params
from hasseforge.flags import aux_flag, extended_flag
from hasseforge.generate import named_instance, random_datum
from hasseforge.invariants import (all_sections, all_verdicts,
                                   check_pi_divisibility, duality_check,
                                   factorization_check, product_identity_check,
                                   section, _map_ha_pr, _map_hasse, _map_m,
                                   _map_v_hodge, _nat_m)
from hasseforge.kspace import prop_dual
from hasseforge.linalg import Submodule

from flag_dims import extended_dim
from oracle import all_vectors, perm_det, run_all, submodule_set, tiny_params


def _random_complementary_pair(K, r, rng):
    while True:
        s = rng.randrange(0, r + 1)
        B = Submodule.span(K, r, [tuple(K.random_element(rng) for _ in range(r))
                                  for _ in range(s)])
        if len(B.rows) != s:
            continue
        cvecs = []
        U = B
        while len(U.rows) < r:
            v = tuple(K.random_element(rng) for _ in range(r))
            U2 = Submodule.span(K, r, list(U.rows) + [v])
            if len(U2.rows) > len(U.rows):
                cvecs.append(v)
                U = U2
        return B, Submodule.span(K, r, cvecs)


def test_01_complementary_pair_isomorphism():
    """1000 random complementary pairs over F_p (p = 2, 3; ambient rank
    up to 6) plus the exhaustive rank-4 sweep over F_2 satisfy
    x = iso * y on the nose."""
    t0 = time.monotonic()
    rng = random.Random(101)
    fields = {p: Params(p, 1, 1, 2, 1).k for p in (2, 3)}
    done = 0
    for p in (2, 3):
        K = fields[p]
        for r in (2, 3, 4, 5, 6):
            for _ in range(100):
                B, C = _random_complementary_pair(K, r, rng)
                x, y, iso = prop_dual(K, r, B, C)
                assert x == K.mul(iso, y)
                done += 1
    assert done == 1000
    from oracle import check_prop_dual_exhaustive
    assert check_prop_dual_exhaustive() == 1677
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, "budget exceeded: %.1fs" % elapsed
    print("PASS: 1000 random + 1677 exhaustive complementary pairs, "
          "%.1fs" % elapsed)


def test_02_determinant_duality_unramified_single_embedding():
    """1000 random e = f = 1 data of rank up to 6: the top invariant agrees
    with the dual's under the canonical line isomorphism, and the sample
    hits both the vanishing and the unit case."""
    t0 = time.monotonic()
    rng = random.Random(202)
    zero = unit = 0
    for t in range(1000):
        p = (2, 3)[t % 2]
        h1 = rng.randrange(2, 7)
        d1 = rng.randrange(1, h1)
        D = random_datum(Params(p, 1, 1, h1, d1), rng, lifted=bool(t % 4 < 2))
        v = duality_check(D, "ha")
        assert v.status == "ok" and v.equal
        sec = section(D, "ha")
        if sec.vanished:
            zero += 1
        else:
            unit += 1
    assert zero >= 1 and unit >= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, "budget exceeded: %.1fs" % elapsed
    print("PASS: 1000 instances, %d vanishing / %d unit, %.1fs"
          % (zero, unit, elapsed))


def test_03_per_embedding_duality_multiple_embeddings():
    """500 random unramified data with 2 or 3 embeddings: every
    per-embedding invariant matches its dual counterpart."""
    t0 = time.monotonic()
    rng = random.Random(303)
    for t in range(500):
        p = (2, 3)[t % 2]
        f = (2, 3)[(t // 2) % 2]
        h1 = (2, 3)[(t // 4) % 2]
        d1 = rng.randrange(1, h1)
        D = random_datum(Params(p, f, 1, h1, d1), rng, lifted=bool(t % 8 < 4))
        for i in range(f):
            v = duality_check(D, "ha_i", i)
            assert v.status == "ok" and v.equal
    elapsed = time.monotonic() - t0
    print("PASS: 500 instances across f in {2,3}, %.1fs" % elapsed)


def test_04_graded_ranks_and_pi_multiplication_duality():
    """500 random ramified data (e = 2, 3): extended-flag and auxiliary-flag
    ranks match the closed formulas; the pi-multiplication invariants
    satisfy duality; their definitional and natural constructions agree."""
    t0 = time.monotonic()
    rng = random.Random(404)
    for t in range(500):
        p = (2, 3)[t % 2]
        e = (2, 3)[(t // 2) % 2]
        h1 = (2, 3)[(t // 4) % 2]
        f = 2 if (e == 2 and h1 == 2 and t % 16 < 2) else 1
        d1 = rng.randrange(1, h1)
        par = Params(p, f, e, h1, d1)
        D = random_datum(par, rng, lifted=bool(t % 8 < 4))
        D0 = D.reduce()
        for i in range(f):
            ft = extended_flag(D0, i)
            for j in range(2 * e + 1):
                want = extended_dim(par, j)
                if j > e:
                    assert want == (j - e) * h1 + (2 * e - j) * d1
                assert len(ft[j].krows) == want
            aux = aux_flag(D0, i)
            for j in range(e):
                assert len(aux[j].krows) == h1 + j * d1
            for j in range(2, e + 1):
                v = duality_check(D, "m", i, j)
                assert v.status == "ok" and v.equal
                piiso, nat = _nat_m(D0, i, j)
                assert _map_m(D0, i, j).matrix == piiso.matrix.mul(nat.matrix)
    elapsed = time.monotonic() - t0
    print("PASS: 500 instances, ranks + duality + two constructions, "
          "%.1fs" % elapsed)


def test_05_lifted_divisibility_and_boundary_duality():
    """500 data with a flat lift (p in {2,3}, e in {2,3}, rank 2 or 3):
    pi^j times the level e+j extended flag equals the level e-j flag as
    submodules, the divide-then-apply composite acts as pi^(e-j) times the
    distinguished unit on a k-basis, and the boundary invariant
    satisfies duality."""
    t0 = time.monotonic()
    rng = random.Random(505)
    for t in range(500):
        p = (2, 3)[t % 2]
        e = (2, 3)[(t // 2) % 2]
        h1 = (2, 3)[(t // 4) % 2]
        f = 2 if (e == 2 and h1 == 2 and t % 20 < 2) else 1
        d1 = rng.randrange(1, h1)
        D = random_datum(Params(p, f, e, h1, d1), rng, lifted=True)
        for i in range(f):
            assert check_pi_divisibility(D, i)
            v = duality_check(D, "hasse", i)
            assert v.status == "ok" and v.equal
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, "budget exceeded: %.1fs" % elapsed
    print("PASS: 500 lifted instances, divisibility + composite + duality, "
          "%.1fs" % elapsed)


def test_06_factorization_and_product_identity():
    """500 lifted data: the level maps factor through the pi-multiplication
    and boundary maps for every (i, j), the per-level invariants satisfy
    duality, and the top invariant is the product of the per-embedding
    invariants, each of which is the product of its level sections."""
    t0 = time.monotonic()
    rng = random.Random(606)
    for t in range(500):
        p = (2, 3)[t % 2]
        e = (1, 2, 3)[(t // 2) % 3]
        h1 = (2, 3)[(t // 6) % 2]
        f = 2 if (e == 1 and t % 12 < 2) else 1
        d1 = rng.randrange(1, h1)
        D = random_datum(Params(p, f, e, h1, d1), rng, lifted=True)
        assert product_identity_check(D)
        for i in range(f):
            for j in range(1, e + 1):
                assert factorization_check(D, i, j)
                v = duality_check(D, "ha_pr", i, j)
                assert v.status == "ok" and v.equal
    elapsed = time.monotonic() - t0
    print("PASS: 500 lifted instances, factorization + duality + products, "
          "%.1fs" % elapsed)


def test_07_enumeration_oracle_equivalence():
    """Linear algebra and invariant scalars agree with brute enumeration on
    the smallest ramified shape: exhaustive kernel/image/det/quotient
    sweeps, plus per-instance checks that every kernel and image is the
    literal solution set and every invariant scalar is the permutation-
    expansion determinant of its induced matrix."""
    counts = run_all()
    assert counts == {"kernel_image_matrices": 512, "determinants": 808,
                      "quotients": 30, "prop_dual_pairs": 1677}
    par = tiny_params()
    R = par.R
    vecs = list(all_vectors(R, par.h1))
    rng = random.Random(707)
    for t in range(30):
        D = random_datum(par, rng, lifted=bool(t % 2))
        D0 = D.reduce()
        for phi in (D0.F[0], D0.V[0]):
            zero = tuple(R.zero for _ in range(par.h1))
            brute_ker = {v for v in vecs if phi.apply(v) == zero}
            assert submodule_set(phi.kernel()) == brute_ker
            brute_im = {phi.apply(v) for v in vecs}
            assert submodule_set(phi.image()) == brute_im
            hodge = submodule_set(D0.hodge(0))
            brute_pre = {v for v in vecs if phi.apply(v) in hodge}
            assert submodule_set(phi.preimage(D0.hodge(0))) == brute_pre
        assert section(D0, "ha_i", 0).scalar == perm_det(_map_v_hodge(D0, 0).matrix)
        assert section(D0, "m", 0, 2).scalar == perm_det(_map_m(D0, 0, 2).matrix)
        assert section(D0, "hasse", 0).scalar == perm_det(_map_hasse(D0, 0).matrix)
        for j in (1, 2):
            assert (section(D0, "ha_pr", 0, j).scalar
                    == perm_det(_map_ha_pr(D0, 0, j).matrix))
    print("PASS: exhaustive oracle sweeps + 30 instances of scalar checks")


def test_08_named_instance_patterns():
    """The documented shapes behave as documented: the split ordinary one
    has every invariant a unit, the supersingular one has vanishing top
    invariant, the split ramified one has all level invariants units, and
    every named instance passes every duality comparison."""
    D = named_instance("ord-split")
    assert all(not s.vanished for s in all_sections(D))
    assert section(named_instance("ss"), "ha").vanished
    D = named_instance("ram-split")
    assert all(not s.vanished for s in all_sections(D))
    for name in ("ord-split", "ss", "ram-split", "ram-ss", "ram-pi",
                 "unram-f2"):
        for v in all_verdicts(named_instance(name)):
            assert v.status == "ok" and v.equal, (name, v)
    print("PASS: named instances match documented patterns and dualities")


def test_09_seeded_runs_are_byte_identical(tmp_path, run_module_cli):
    """Any command with a fixed seed produces byte-identical output."""
    def run(*argv):
        proc = run_module_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    gen = ("generate", "--params", "3,1,2,2,1", "--count", "5", "--seed", "4")
    out = run(*gen)
    assert run(*gen) == out
    batch = tmp_path / "batch.json"
    batch.write_bytes(out)
    for argv in (("invariants", "--in", str(batch)),
                 ("invariants", "--in", str(batch), "--format", "csv"),
                 ("verify", "--in", str(batch)),
                 ("dualize", "--in", str(batch)),
                 ("survey", "--params", "2,1,2,2,1", "--count", "20",
                  "--seed", "3")):
        assert run(*argv) == run(*argv)
    charp = ("generate", "--params", "2,2,1,2,1", "--kind", "charp",
             "--count", "5", "--seed", "4")
    assert run(*charp) == run(*charp)
    print("PASS: repeated seeded runs byte-identical")
