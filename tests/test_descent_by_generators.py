"""Descent on a den's generators decides the same fact as descent on a
k-basis of it.

kspace.induced_from_fun and kspace.pairing_matrix check descent on the
Howell rows of each den (Submodule.gens), whose pi-shifts span it over k.
The references in oracle.py walk every echelon row instead.  On seeded
random data over p in {2, 3, 5}, f in {1, 2}, e = 1..4 the two must give
the same matrix or the same error message, and every outcome must occur.
"""

import functools
import random
from collections import Counter

from hasseforge.errors import WellDefinednessViolation
from hasseforge.kspace import (QuotientPresentation, annihilator, induced_from_fun, pairing_matrix,
                               residue_form)
from hasseforge.linalg import SemilinearMap, Submodule, pi_shift, random_matrix
from hasseforge.rings import FiniteField, RingTower

from oracle import induced_from_fun_kbasis, pairing_matrix_kbasis

TOWERS = [RingTower(FiniteField(p, f), e) for p in (2, 3, 5) for f in (1, 2) for e in range(1, 5)]
CASES = 30


def _outcome(build):
    """The built matrix, or the message of the descent error."""
    try:
        return build()
    except WellDefinednessViolation as exc:
        return str(exc)


def _element(R, rng):
    """A random element of R, a multiple of a random power of pi half the time."""
    x = R.random_element(rng)
    return R.mul(R.pi_pow(rng.randrange(R.e)), x) if rng.random() < 0.5 else x


def _sub(R, n, rng, count=None):
    count = rng.randrange(3) if count is None else count
    return Submodule.span(R, n, [tuple(_element(R, rng) for _ in range(n)) for _ in range(count)])


def _image(R, n, fn, S):
    """fn's image of S, pi-stable when fn commutes with pi."""
    return Submodule.kspan(R, n, [fn(r) for r in S.krows])


def _induced_case(R, rng):
    """A random semilinear map or pi^s shift between random presentations:
    the target's den and num contain the images or are random."""
    n = rng.choice((2, 3))
    den = _sub(R, n, rng, count=rng.randrange(1, 3))
    num = den.add_sub(_sub(R, n, rng))
    if rng.random() < 0.6:
        phi = SemilinearMap(random_matrix(R, n, n, rng), rng.choice((-1, 0, 1)))
        fn, twist = phi.apply_k, phi.twist
    else:
        s = rng.randrange(R.e)
        fn, twist = (lambda v: pi_shift(v, R.e, s)), 0
    dden = _image(R, n, fn, den) if rng.random() < 0.7 else _sub(R, n, rng)
    dden = dden.add_sub(_sub(R, n, rng))
    dnum = dden.add_sub(_image(R, n, fn, num) if rng.random() < 0.7 else _sub(R, n, rng))
    src = QuotientPresentation(R, n, num, den)
    dst = QuotientPresentation(R, n, dnum, dden)
    return fn, twist, src, dst


def _widened(R, n, qp, rng):
    """qp with its den widened inside num: by a random submodule, or to num."""
    den = qp.num if rng.random() < 0.5 else qp.den.add_sub(_sub(R, n, rng).intersect(qp.num))
    return QuotientPresentation(R, n, qp.num, den)


def _pairing_case(R, rng):
    """A/pi A against (pi A)^perp/A^perp, which the residue form pairs
    perfectly, with one den or none widened; or two random presentations."""
    n = rng.choice((2, 3))
    A = _sub(R, n, rng, count=rng.randrange(1, 3))
    if rng.random() < 0.2:
        num, num2 = _sub(R, n, rng), _sub(R, n, rng)
        left = QuotientPresentation(R, n, num, num.intersect(_sub(R, n, rng)))
        right = QuotientPresentation(R, n, num2, num2.intersect(_sub(R, n, rng)))
        return left, right
    left = QuotientPresentation(R, n, A, A.pi_times(1))
    right = QuotientPresentation(R, n, annihilator(R, n, A.pi_times(1)), annihilator(R, n, A))
    side = rng.choice(("none", "left", "right"))
    if side == "left":
        left = _widened(R, n, left, rng)
    elif side == "right":
        right = _widened(R, n, right, rng)
    return left, right


def test_induced_descent_by_generators_matches_the_kbasis_reference():
    seen = Counter()
    for T in TOWERS:
        rng = random.Random("induced/%d/%d/%d" % (T.p, T.f, T.e))
        for _ in range(CASES):
            fn, twist, src, dst = _induced_case(T.R, rng)
            got = _outcome(lambda: induced_from_fun(fn, twist, src, dst))
            assert got == _outcome(lambda: induced_from_fun_kbasis(fn, twist, src, dst))
            seen[got if isinstance(got, str) else "descends"] += 1
    assert set(seen) == {"descends", "fn does not map den into den",
                         "fn does not map num into num"}, seen


def test_pairing_descent_by_generators_matches_the_kbasis_reference():
    seen = Counter()
    for T in TOWERS:
        R = T.R
        form = functools.partial(residue_form, R)
        rng = random.Random("pairing/%d/%d/%d" % (T.p, T.f, T.e))
        for _ in range(CASES):
            left, right = _pairing_case(R, rng)
            got = _outcome(lambda: pairing_matrix(form, left, right))
            assert got == _outcome(lambda: pairing_matrix_kbasis(form, left, right))
            seen[got if isinstance(got, str) else "descends"] += 1
    assert set(seen) == {"descends", "pairing does not kill left.den",
                         "pairing does not kill right.den"}, seen
