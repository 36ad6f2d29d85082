"""Every preimage is one elimination: Submodule.solutions over the target's
annihilating forms (Submodule.forms), composed with the map.

preimage, kernel, pi_preimage, intersect and kspace.quotient_det are
checked against the solve by reduction that tests/oracle.py keeps as their
reference, on seeded data over p in {2, 3, 5}, f in {1, 2} and e = 1..5,
with maps of twist -1, 0 and +1.  A submodule is the zero set of its own
forms, and each preimage, pi-preimage and intersection makes exactly one
solutions call, over the submodule's own ring."""

import random

import pytest

from hasseforge.kspace import quotient_det
from hasseforge.linalg import Matrix, SemilinearMap, Submodule, random_matrix
from hasseforge.rings import FiniteField, RingTower

from oracle import (intersect_by_reduction, pi_preimage_by_reduction, preimage_by_reduction,
                    quotient_det_by_reduction)

SHAPES = [(p, f, e) for p in (2, 3, 5) for f in (1, 2) for e in range(1, 6)]
TRIALS = 3


def _ring(p, f, e):
    return RingTower(FiniteField(p, f), e).R


def _times_pi(R, v, rng):
    c = R.pi_pow(rng.randrange(R.e + 1))
    return tuple(R.mul(c, x) for x in v)


def _submodule(R, n, rng):
    """The span of up to n random vectors, each times a random power of pi,
    so that torsion and the zero and full submodules all occur."""
    gens = [_times_pi(R, [R.random_element(rng) for _ in range(n)], rng)
            for _ in range(rng.randrange(n + 1))]
    return Submodule.span(R, n, gens)


def _map(R, m, n, rng):
    """A random m x n matrix with each column times a random power of pi,
    as a semilinear map of twist -1, 0 or +1."""
    cols = [_times_pi(R, c, rng) for c in random_matrix(R, m, n, rng).cols()]
    return SemilinearMap(Matrix.from_cols(R, cols, m=m), rng.choice((-1, 0, 1)))


@pytest.mark.parametrize("p, f, e", SHAPES, ids=["%d,%d,%d" % s for s in SHAPES])
def test_preimages_equal_the_solve_by_reduction(p, f, e):
    R = _ring(p, f, e)
    rng = random.Random("%d,%d,%d" % (p, f, e))
    for _ in range(TRIALS):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        phi = _map(R, m, n, rng)
        T = _submodule(R, m, rng)
        assert phi.preimage(T) == preimage_by_reduction(phi, T)
        assert phi.kernel() == preimage_by_reduction(phi, Submodule.zero(R, m))
        S, S2 = _submodule(R, n, rng), _submodule(R, n, rng)
        assert S.intersect(S2) == intersect_by_reduction(S, S2)
        for s in range(e + 2):
            assert S.pi_preimage(s) == pi_preimage_by_reduction(S, s)
        for X in (S, T, Submodule.zero(R, n), Submodule.full(R, n)):
            assert Submodule.solutions(X.ring, X.n, X.forms()) == X


@pytest.mark.parametrize("p, f", [(2, 1), (3, 1), (5, 2)])
def test_quotient_det_equals_the_det_of_reductions(p, f):
    K = FiniteField(p, f)
    rng = random.Random(p * f)
    for r in range(1, 6):
        for _ in range(TRIALS):
            S = Submodule.span(K, r, [[K.random_element(rng) for _ in range(r)]
                                      for _ in range(rng.randrange(r + 1))])
            assert Submodule.solutions(K, r, S.forms()) == S
            vecs = [[K.random_element(rng) for _ in range(r)] for _ in range(r - len(S.krows))]
            if vecs and rng.random() < 0.3:
                # a vector of S in the list makes the quotient det vanish
                vecs[0] = list(S.krows[0]) if S.krows else [0] * r
            assert quotient_det(K, S, vecs) == quotient_det_by_reduction(K, S, vecs)


def test_each_preimage_is_one_solve_over_the_submodules_ring(monkeypatch):
    """At e >= 2 the ring R is not k, so a solve over k (a reduction against
    the target, then the forms of the reduced images) fails this pin."""
    rings = []
    solutions = Submodule.solutions

    def counting(cls, ring, n, forms):
        rings.append(ring)
        return solutions(ring, n, forms)

    monkeypatch.setattr(Submodule, "solutions", classmethod(counting))
    for p, f, e in [(2, 1, 2), (3, 2, 3), (5, 1, 4)]:
        R = _ring(p, f, e)
        rng = random.Random(e)
        phi = _map(R, 3, 2, rng)
        T, S, S2 = _submodule(R, 3, rng), _submodule(R, 2, rng), _submodule(R, 2, rng)
        for op in (lambda: phi.preimage(T), phi.kernel, lambda: S.pi_preimage(1),
                   lambda: S.intersect(S2)):
            del rings[:]
            op()
            assert rings == [R]
