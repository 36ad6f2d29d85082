"""Quotient presentations, induced k-matrices, residue pairing, and the
complementary-pair determinant identity."""

import functools
import os
import random
import subprocess
import sys

import pytest

import hasseforge
from hasseforge.errors import (InvariantViolation, NotComplementary, NotNested,
                               WellDefinednessViolation)
from hasseforge.kspace import (
    QuotientPresentation,
    annihilator,
    induced_from_fun,
    induced_semilinear,
    pairing_matrix,
    prop_dual,
    residue_form,
    subspace_in_qp,
)
from hasseforge.linalg import (
    Matrix,
    SemilinearMap,
    Submodule,
    random_matrix,
    restrict_vec,
    unrestrict_vec,
)
from hasseforge.rings import FiniteField, RingTower

from oracle import apply_R, submodule_set, vadd, vfrob, vscale, vsub

T32 = RingTower(FiniteField(3, 1), 2, eisenstein=[6, 0, 1])
T22 = RingTower(FiniteField(2, 2), 2)
T21 = RingTower(FiniteField(2, 2), 1)


def rand_rsub(R, n, count, rng):
    return Submodule.span(R, n, [tuple(R.random_element(rng) for _ in range(n)) for _ in range(count)])


def rand_in(R, S, rng):
    v = (R.zero,) * S.n
    for row in S.rows:
        v = vadd(R, v, vscale(R, R.random_element(rng), row))
    return v


def test_restrict_roundtrip():
    rng = random.Random(30)
    for t in (T32, T22):
        R = t.R
        for _ in range(20):
            v = tuple(R.random_element(rng) for _ in range(3))
            kv = restrict_vec(R, v)
            assert len(kv) == 3 * R.e
            assert unrestrict_vec(R, kv) == v


def test_kdim_matches_howell_formula():
    rng = random.Random(31)
    for t in (T32, T22):
        R = t.R
        for _ in range(20):
            S = rand_rsub(R, 3, 2, rng)
            # Howell formula: a pivot pi^v contributes e - v dimensions
            assert len(S.krows) == sum(R.e - next(t for t, x in enumerate(g) if x) % R.e
                                       for g in S.gens())
            assert len(submodule_set(S)) == R.k.q ** len(S.krows)


def test_residue_form_perfect_balanced_equivariant():
    rng = random.Random(32)
    for t in (T32, T22):
        R, k = t.R, t.k
        n = 2

        def form(u, w):
            return residue_form(R, restrict_vec(R, u), restrict_vec(R, w))

        # gram matrix on the standard k-basis of R^n is invertible
        basis = []
        for m in range(n):
            for s in range(R.e):
                v = [R.zero] * n
                v[m] = R.pi_pow(s)
                basis.append(tuple(v))
        gram = Matrix(k, [[form(u, w) for w in basis] for u in basis])
        assert k.is_unit(gram.det())
        for _ in range(25):
            x = tuple(R.random_element(rng) for _ in range(n))
            y = tuple(R.random_element(rng) for _ in range(n))
            c = R.random_element(rng)
            assert form(vscale(R, c, x), y) == form(x, vscale(R, c, y))
            assert form(vfrob(R, x), vfrob(R, y)) == k.frob(form(x, y))
            z = tuple(R.random_element(rng) for _ in range(n))
            assert form(vadd(R, x, z), y) == k.add(form(x, y), form(z, y))


def test_quotient_presentation_basics():
    rng = random.Random(33)
    for t in (T32, T22):
        R, k = t.R, t.k
        n = 3
        for _ in range(12):
            den = rand_rsub(R, n, 1, rng)
            num = den.add_sub(rand_rsub(R, n, 2, rng))
            qp = QuotientPresentation(R, n, num, den)
            assert qp.dim == len(num.krows) - len(den.krows)
            # lifts have standard coordinates
            for i, l in enumerate(qp.lifts):
                coords = qp.coordinates_of_k(l)
                assert coords == tuple(k.one if j == i else k.zero for j in range(qp.dim))
            # coordinates kill den and are k-linear
            def coords_R(x):
                return qp.coordinates_of_k(restrict_vec(R, x))

            v = rand_in(R, num, rng)
            d = rand_in(R, den, rng)
            assert coords_R(vadd(R, v, d)) == coords_R(v)
            w = rand_in(R, num, rng)
            cv, cw = coords_R(v), coords_R(w)
            assert coords_R(vadd(R, v, w)) == tuple(k.add(a, b) for a, b in zip(cv, cw))
            c = k.random_element(rng)
            assert coords_R(vscale(R, R.from_k(c), v)) == tuple(k.mul(c, a) for a in cv)
            # v is congruent to sum coords * lifts mod den
            recon = (R.zero,) * n
            for a, l in zip(cv, qp.lifts):
                recon = vadd(R, recon, vscale(R, R.from_k(a), unrestrict_vec(R, l)))
            assert qp.den.contains_k(restrict_vec(R, vsub(R, v, recon)))


def test_quotient_nested_check():
    R = T32.R
    rng = random.Random(34)
    num = rand_rsub(R, 2, 1, rng)
    den = Submodule.full(R, 2)
    with pytest.raises(NotNested):
        QuotientPresentation(R, 2, num, den)


def test_coordinates_outside_num_over_a_nonzero_den():
    # the den-reduction of a vector outside num is not a combination of
    # the kept rows
    R = T32.R
    num = Submodule.span(R, 2, [(R.one, R.zero), (R.zero, R.uniformizer)])
    den = Submodule.span(R, 2, [(R.uniformizer, R.zero)])
    qp = QuotientPresentation(R, 2, num, den)
    assert qp.dim == 2
    for v in ((R.zero, R.one), (R.uniformizer, R.one)):
        with pytest.raises(InvariantViolation):
            qp.coordinates_of_k(restrict_vec(R, v))


OUTSIDE_NUM = """
from hasseforge.errors import InvariantViolation
from hasseforge.kspace import QuotientPresentation
from hasseforge.linalg import Submodule, restrict_vec
from hasseforge.rings import FiniteField, RingTower

R = RingTower(FiniteField(3, 1), 2, eisenstein=[6, 0, 1]).R
num = Submodule.span(R, 2, [(R.uniformizer, R.zero)])
qp = QuotientPresentation(R, 2, num, Submodule.zero(R, 2))
try:
    qp.coordinates_of_k(restrict_vec(R, (R.one, R.zero)))
except InvariantViolation:
    print("typed")
"""


def test_coordinates_outside_num_is_a_typed_error():
    # the guard must survive python -O, which strips asserts
    R = T32.R
    num = Submodule.span(R, 2, [(R.uniformizer, R.zero)])
    qp = QuotientPresentation(R, 2, num, Submodule.zero(R, 2))
    with pytest.raises(InvariantViolation):
        qp.coordinates_of_k(restrict_vec(R, (R.one, R.zero)))
    env = dict(os.environ)
    pkg_parent = os.path.dirname(os.path.dirname(hasseforge.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", OUTSIDE_NUM], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "typed"


def test_with_lifts():
    rng = random.Random(35)
    R, k = T22.R, T22.k
    n = 3
    den = rand_rsub(R, n, 1, rng)
    num = den.add_sub(Submodule.full(R, n))
    qp = QuotientPresentation(R, n, num, den)
    # scramble the lift basis by an invertible k-matrix
    A = None
    from hasseforge.linalg import random_invertible

    A = random_invertible(k, qp.dim, rng)
    new_lifts = []
    for j in range(qp.dim):
        acc = (R.zero,) * n
        for i in range(qp.dim):
            acc = vadd(R, acc, vscale(R, R.from_k(A.rows[i][j]), unrestrict_vec(R, qp.lifts[i])))
        new_lifts.append(acc)
    qp2 = qp.with_lifts([restrict_vec(R, l) for l in new_lifts])
    assert [unrestrict_vec(R, l) for l in qp2.lifts] == new_lifts
    for i, l in enumerate(qp2.lifts):
        assert qp2.coordinates_of_k(l) == tuple(k.one if j == i else k.zero for j in range(qp2.dim))
    # transition determinant: identity map qp -> qp2 has matrix A^{-1}
    ident = SemilinearMap(Matrix.identity(R, n), 0)
    Mt = induced_semilinear(ident, qp, qp2)
    assert Mt.matrix == A.inverse()


def test_induced_semilinear_consistency():
    rng = random.Random(36)
    for t in (T32, T22):
        R, k = t.R, t.k
        n = 3
        for twist in (0, 1, -1):
            for _ in range(8):
                den1 = rand_rsub(R, n, 1, rng)
                num1 = den1.add_sub(rand_rsub(R, n, 2, rng))
                phi = SemilinearMap(random_matrix(R, n, n, rng), twist)
                den2 = phi.image_of(den1)
                num2 = phi.image_of(num1).add_sub(rand_rsub(R, n, 1, rng))
                qp1 = QuotientPresentation(R, n, num1, den1)
                qp2 = QuotientPresentation(R, n, num2, den2)
                M = induced_semilinear(phi, qp1, qp2)
                assert M.twist == twist
                for _ in range(5):
                    v = rand_in(R, num1, rng)
                    lhs = qp2.coordinates_of_k(restrict_vec(R, apply_R(phi, v)))
                    rhs = apply_R(M, qp1.coordinates_of_k(restrict_vec(R, v)))
                    assert lhs == rhs


def test_induced_composition_law():
    rng = random.Random(37)
    R = T22.R
    n = 3
    for _ in range(6):
        den1 = rand_rsub(R, n, 1, rng)
        num1 = den1.add_sub(rand_rsub(R, n, 2, rng))
        phi1 = SemilinearMap(random_matrix(R, n, n, rng), 1)
        phi2 = SemilinearMap(random_matrix(R, n, n, rng), -1)
        den2, num2 = phi1.image_of(den1), phi1.image_of(num1)
        den3, num3 = phi2.image_of(den2), phi2.image_of(num2)
        qp1 = QuotientPresentation(R, n, num1, den1)
        qp2 = QuotientPresentation(R, n, num2, den2)
        qp3 = QuotientPresentation(R, n, num3, den3)
        M1 = induced_semilinear(phi1, qp1, qp2)
        M2 = induced_semilinear(phi2, qp2, qp3)
        M21 = induced_semilinear(phi2.compose(phi1), qp1, qp3)
        assert M2.compose(M1).matrix == M21.matrix
        assert (M2.compose(M1).twist - M21.twist) % R.f == 0


def test_well_definedness_violation():
    R = T32.R
    n = 2
    # phi maps den somewhere that is not in dst.den
    phi = SemilinearMap(Matrix.identity(R, n), 0)
    den1 = Submodule.span(R, n, [(R.one, R.zero)])
    num1 = Submodule.full(R, n)
    den2 = Submodule.span(R, n, [(R.zero, R.one)])
    qp1 = QuotientPresentation(R, n, num1, den1)
    qp2 = QuotientPresentation(R, n, num1, den2)
    with pytest.raises(WellDefinednessViolation):
        induced_semilinear(phi, qp1, qp2)
    # the identity carries den = pi R e1 into dst.den, but the lift e2 of
    # src = R^2 / pi R e1 falls outside dst.num = R e1
    pi = R.uniformizer
    den = Submodule.span(R, n, [(pi, R.zero)])
    src = QuotientPresentation(R, n, num1, den)
    dst = QuotientPresentation(R, n, Submodule.span(R, n, [(R.one, R.zero)]), den)
    with pytest.raises(WellDefinednessViolation):
        induced_semilinear(phi, src, dst)
    with pytest.raises(WellDefinednessViolation):
        induced_from_fun(phi.apply_k, phi.twist, src, dst)


def test_induced_from_fun_names_the_failing_descent():
    """Each of the two raises, on a map that passes the check before it."""
    R = T32.R
    n = 2
    ident = SemilinearMap(Matrix.identity(R, n), 0)
    full = Submodule.full(R, n)
    e1 = Submodule.span(R, n, [(R.one, R.zero)])
    e2 = Submodule.span(R, n, [(R.zero, R.one)])
    pi_e1 = e1.pi_times(1)

    def message(src, dst):
        with pytest.raises(WellDefinednessViolation) as exc:
            induced_from_fun(ident.apply_k, 0, src, dst)
        return str(exc.value)

    # den = R e1 is not carried into dst.den = R e2
    assert message(QuotientPresentation(R, n, full, e1),
                   QuotientPresentation(R, n, full, e2)) == "fn does not map den into den"
    # den = pi R e1 is carried onto itself, but the lift e2 of R^2 leaves R e1
    assert message(QuotientPresentation(R, n, full, pi_e1),
                   QuotientPresentation(R, n, e1, pi_e1)) == "fn does not map num into num"


def test_induced_from_fun_applies_fn_to_den_generators_and_lifts():
    """Descent reads src.den's generators, whose pi-shifts span it, not a
    k-basis of it; then fn meets each lift once."""
    rng = random.Random(43)
    R = T32.R
    n = 3
    den = rand_rsub(R, n, 2, rng)
    num = den.add_sub(rand_rsub(R, n, 1, rng))
    phi = SemilinearMap(random_matrix(R, n, n, rng), 1)
    src = QuotientPresentation(R, n, num, den)
    dst = QuotientPresentation(R, n, phi.image_of(num), phi.image_of(den))
    calls = []

    def fn(kv):
        calls.append(None)
        return phi.apply_k(kv)

    M = induced_from_fun(fn, 1, src, dst)
    assert M == induced_semilinear(phi, src, dst)
    assert src.dim and len(den.gens()) < len(den.krows)
    assert len(calls) == len(den.gens()) + src.dim


def test_subspace_in_qp():
    rng = random.Random(39)
    R = T22.R
    n = 3
    den = rand_rsub(R, n, 1, rng)
    num = den.add_sub(Submodule.full(R, n))
    qp = QuotientPresentation(R, n, num, den)
    S = den.add_sub(rand_rsub(R, n, 1, rng))
    img = subspace_in_qp(qp, S)
    assert len(img.rows) == len(S.add_sub(den).krows) - len(den.krows)


def test_pairing_matrix_descends():
    R, k = T32.R, T32.k
    n = 2
    # the residue-form annihilator of pi*R^2 inside R^2 is pi*R^2 itself,
    # so (R^2 / pi R^2) pairs perfectly with (pi R^2 / 0)
    pi = R.uniformizer
    piR2 = Submodule.span(R, n, [(pi, R.zero), (R.zero, pi)])
    num = Submodule.full(R, n)
    form = functools.partial(residue_form, R)
    qpl = QuotientPresentation(R, n, num, piR2)
    qpr = QuotientPresentation(R, n, piR2, Submodule.zero(R, n))
    P = pairing_matrix(form, qpl, qpr)
    assert P.m == qpl.dim and P.n == qpr.dim
    assert k.is_unit(P.det())
    # and a pairing that does not descend gets caught
    qpr_bad = QuotientPresentation(R, n, num, Submodule.zero(R, n))
    with pytest.raises(WellDefinednessViolation):
        pairing_matrix(form, qpl, qpr_bad)


def test_pairing_matrix_pairs_each_den_once():
    """A/pi A against (pi A)^perp/A^perp: descent pairs left.den's
    generators with right.num, then only left's lifts with right.den's
    generators, and the matrix pairs lift with lift; left.den x right.den
    is not paired a second time, and no den is walked on a k-basis."""
    R = T32.R
    n = 3
    A = rand_rsub(R, n, 2, random.Random(41))
    left = QuotientPresentation(R, n, A, A.pi_times(1))
    right = QuotientPresentation(R, n, annihilator(R, n, A.pi_times(1)), annihilator(R, n, A))
    calls = []

    def form(u, w):
        calls.append(None)
        return residue_form(R, u, w)

    P = pairing_matrix(form, left, right)
    assert T32.k.is_unit(P.det())
    dL, nR, dR = len(left.den.gens()), len(right.num.krows), len(right.den.gens())
    assert dL and dR and left.dim and right.dim
    assert dL + dR < len(left.den.krows) + len(right.den.krows)
    assert len(calls) == dL * nR + left.dim * dR + left.dim * right.dim


def rand_ksub_of_dim(k, r, d, rng):
    while True:
        S = Submodule.span(k, r, [tuple(k.random_element(rng) for _ in range(r)) for _ in range(d)])
        if len(S.rows) == d:
            return S


def test_prop_dual_split_case():
    for t in (T32, T22):
        k = t.k
        for r in (2, 3, 4):
            for s in range(r + 1):
                B = Submodule.span(k, r, [tuple(k.one if j == i else k.zero for j in range(r)) for i in range(s)])
                C = Submodule.span(k, r, [tuple(k.one if j == i else k.zero for j in range(r)) for i in range(s, r)])
                x, y, iso = prop_dual(k, r, B, C)
                assert x == k.one and y == k.one and iso == k.one


def test_prop_dual_random():
    rng = random.Random(40)
    for t in (T32, T22, T21):
        k = t.k
        for r in (2, 3, 4):
            for _ in range(15):
                s = rng.randrange(r + 1)
                B = rand_ksub_of_dim(k, r, s, rng)
                C = rand_ksub_of_dim(k, r, r - s, rng)
                x, y, iso = prop_dual(k, r, B, C)  # self-asserts x = iso*y
                assert k.is_unit(iso)
                trivial_intersection = len(B.intersect(C).rows) == 0
                assert k.is_unit(x) == trivial_intersection
                assert k.is_unit(y) == trivial_intersection
                assert (x == k.zero) == (y == k.zero)


def test_prop_dual_wrong_dims():
    k = T32.k
    B = rand_ksub_of_dim(k, 3, 2, random.Random(41))
    C = rand_ksub_of_dim(k, 3, 2, random.Random(42))
    with pytest.raises(NotComplementary):
        prop_dual(k, 3, B, C)
