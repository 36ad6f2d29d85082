"""Matrix/Smith/submodule/semilinear tests.  Small cases are checked against
brute force enumeration; determinants against permutation expansion."""

import itertools
import random

import pytest

from hasseforge.errors import InvalidSpec, InvariantViolation
from hasseforge.kspace import annihilator, residue_form
from hasseforge.linalg import (
    Matrix,
    SemilinearMap,
    Submodule,
    image,
    kernel,
    pi_divide,
    random_invertible,
    random_matrix,
    restrict_vec,
    smith,
    unrestrict_vec,
)
from hasseforge.rings import FiniteField, RingTower

from oracle import apply_R, elements, submodule_set, vadd, vfrob, vscale, vsub

TOWERS = {
    "k_f2": RingTower(FiniteField(2, 2), 1),
    "R_p2e2": RingTower(FiniteField(2, 1), 2),
    "R_f2e2": RingTower(FiniteField(2, 2), 2),
    "W2_p3": RingTower(FiniteField(3, 1), 1),
    "W_p3e2": RingTower(FiniteField(3, 1), 2, eisenstein=[6, 0, 1]),
    "W_p2e3": RingTower(FiniteField(2, 1), 3, eisenstein=[2, 0, 0, 1]),
}


def all_rings():
    t = TOWERS
    return [
        t["k_f2"].k,
        t["R_p2e2"].R,
        t["R_f2e2"].R,
        t["W2_p3"].W2,
        t["W_p3e2"].W,
        t["W_p2e3"].W,
    ]


def zero_vec(ring, n):
    return (ring.zero,) * n


def submodule_rings():
    """The rings submodules live over: k, and R = k[pi]/(pi^e)."""
    t = TOWERS
    return [t["k_f2"].k, t["R_p2e2"].R, t["R_f2e2"].R]


# the exhaustive tests: R^2 over F_2[pi]/(pi^2), and over F_4[pi]/(pi^2),
# where frob is not the identity
EXHAUSTIVE_R = [TOWERS["R_p2e2"].R, TOWERS["R_f2e2"].R]


def det_perm(M):
    ring, n = M.ring, M.n
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = ring.one
        for i in range(n):
            term = ring.mul(term, M.rows[i][perm[i]])
        total = ring.add(total, term) if inv % 2 == 0 else ring.sub(total, term)
    return total


def least_minor_val(M, i):
    """Least valuation of an i x i minor of M; the capacity when all vanish."""
    ring = M.ring
    return min(ring.val_split(det_perm(Matrix(ring, [[M.rows[r][c] for c in cs] for r in rs])))[0]
               for rs in itertools.combinations(range(M.m), i)
               for cs in itertools.combinations(range(M.n), i))


def brute_span(ring, n, gens):
    elems = list(elements(ring))
    out = set()
    for coeffs in itertools.product(elems, repeat=len(gens)):
        v = zero_vec(ring, n)
        for c, g in zip(coeffs, gens):
            v = vadd(ring, v, vscale(ring, c, g))
        out.add(v)
    return out


def test_matrix_basics():
    rng = random.Random(11)
    for ring in all_rings():
        A = random_matrix(ring, 3, 4, rng)
        B = random_matrix(ring, 4, 2, rng)
        v = tuple(ring.random_element(rng) for _ in range(2))
        assert A.mul(B).apply(v) == A.apply(B.apply(v))
        assert A.transpose().transpose() == A
        assert A.mul(Matrix.identity(ring, 4)) == A
        assert Matrix.identity(ring, 3).mul(A) == A
        assert Matrix.from_cols(ring, A.cols()) == A


def test_inverse_and_det():
    rng = random.Random(12)
    for ring in all_rings():
        for n in (1, 2, 3):
            M = random_invertible(ring, n, rng)
            Minv = M.inverse()
            assert M.mul(Minv) == Matrix.identity(ring, n)
            assert Minv.mul(M) == Matrix.identity(ring, n)
        # dets agree with permutation expansion, invertible or not
        for n in (1, 2, 3):
            for _ in range(8):
                M = random_matrix(ring, n, n, rng)
                assert M.det() == det_perm(M)
        # multiplicativity
        for _ in range(6):
            A = random_matrix(ring, 3, 3, rng)
            B = random_matrix(ring, 3, 3, rng)
            assert A.mul(B).det() == ring.mul(A.det(), B.det())
        # singular matrices refuse to invert
        Z = Matrix.zeros(ring, 2, 2)
        with pytest.raises(ZeroDivisionError):
            Z.inverse()


def test_smith_decomposition():
    rng = random.Random(13)
    for ring in all_rings():
        for m, n in [(2, 2), (3, 2), (2, 4), (3, 3), (1, 3)]:
            for _ in range(6):
                M = random_matrix(ring, m, n, rng)
                s = smith(M)
                assert list(s.vals) == sorted(s.vals)
                # U, W invertible: the i x i minors of M and of D generate
                # the same ideal, (pi^(vals[0] + ... + vals[i-1]))
                for i in range(1, min(m, n) + 1):
                    assert min(sum(s.vals[:i]), ring.capacity) == least_minor_val(M, i)
                if m == n:
                    assert ring.mul(s.det, ring.pi_pow(sum(s.vals))) == det_perm(M)


def test_kernel():
    rng = random.Random(14)
    for ring in submodule_rings():
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            for _ in range(8):
                M = random_matrix(ring, m, n, rng)
                for g in kernel(M).rows:
                    assert M.apply(g) == zero_vec(ring, m)
    # kernel is exhaustive on a tiny ring
    rng = random.Random(15)
    for R in EXHAUSTIVE_R:
        for _ in range(12):
            M = random_matrix(R, 2, 2, rng)
            K = kernel(M)
            truth = {v for v in itertools.product(elements(R), repeat=2) if M.apply(v) == zero_vec(R, 2)}
            assert submodule_set(K) == truth


def test_submodules_live_over_k_and_R_only():
    # nothing builds a submodule over the lifts; asking for one is a typed error
    for ring in (TOWERS["W2_p3"].W2, TOWERS["W_p3e2"].W):
        with pytest.raises(InvalidSpec):
            Submodule.span(ring, 2, [(ring.one, ring.zero)])
        with pytest.raises(InvalidSpec):
            kernel(Matrix.identity(ring, 2))


def assert_howell_form(S):
    """Entries left of each pivot vanish, each pivot entry is exactly pi^v,
    earlier rows are reduced mod pi^v in later pivot columns, and the pivot
    columns strictly increase."""
    R = S.ring
    # (module column, pi-power) of each Howell row: its first nonzero flat entry
    pivots = [divmod(next(t for t, x in enumerate(g) if x), S.e) for g in S.gens()]
    cols = [j for j, _ in pivots]
    assert cols == sorted(set(cols))
    for idx, (row, (j, v)) in enumerate(zip(S.rows, pivots)):
        assert all(x == R.zero for x in row[:j])
        assert row[j] == R.pi_pow(v)
        for earlier in S.rows[:idx]:
            assert all(d == R.k.zero for d in earlier[j][v:])


def test_howell_canonical():
    rng = random.Random(16)
    for ring in (TOWERS["R_p2e2"].R, TOWERS["R_f2e2"].R):
        for _ in range(10):
            n = 3
            gens = [tuple(ring.random_element(rng) for _ in range(n)) for _ in range(2)]
            S = Submodule.span(ring, n, gens)
            # same span, scrambled presentation
            g2 = [vadd(ring, gens[1], vscale(ring, ring.random_element(rng), gens[0]))]
            g2.append(vscale(ring, ring.uniformizer, gens[0]))
            g2.append(gens[0])
            g2.append(zero_vec(ring, n))
            rng.shuffle(g2)
            assert Submodule.span(ring, n, g2) == S
            # idempotent
            assert Submodule.span(ring, n, list(S.rows)) == S
            assert_howell_form(S)


def test_membership_exhaustive():
    rng = random.Random(17)
    for R in EXHAUSTIVE_R:
        for _ in range(10):
            gens = [tuple(R.random_element(rng) for _ in range(2)) for _ in range(2)]
            S = Submodule.span(R, 2, gens)
            truth = brute_span(R, 2, gens)
            assert submodule_set(S) == truth
            assert len(truth) == R.k.q ** len(S.krows)
            # the Howell rows generate S and have the Howell shape
            assert brute_span(R, 2, list(S.rows)) == truth
            assert_howell_form(S)
            # canonical reps: reduce_k is constant on cosets, its value
            # lies in the coset, and it fixes its own values
            def reduce(v):
                return unrestrict_vec(R, S.reduce_k(restrict_vec(R, v)))

            for v in list(truth)[:4]:
                w = tuple(R.random_element(rng) for _ in range(2))
                red = reduce(w)
                assert reduce(vadd(R, w, v)) == red
                assert vsub(R, w, red) in truth
                assert reduce(red) == red


def test_sum_intersect_preimage_exhaustive():
    rng = random.Random(18)
    for R in EXHAUSTIVE_R:
        for _ in range(8):
            gs = [tuple(R.random_element(rng) for _ in range(2)) for _ in range(2)]
            gt = [tuple(R.random_element(rng) for _ in range(2)) for _ in range(2)]
            S, T = Submodule.span(R, 2, gs), Submodule.span(R, 2, gt)
            ss, tt = brute_span(R, 2, gs), brute_span(R, 2, gt)
            assert submodule_set(S.add_sub(T)) == {vadd(R, a, b) for a in ss for b in tt}
            assert submodule_set(S.intersect(T)) == ss & tt
            M = random_matrix(R, 2, 2, rng)
            P = SemilinearMap(M, 0).preimage(S)
            truth = {v for v in itertools.product(elements(R), repeat=2) if tuple(M.apply(v)) in ss}
            assert submodule_set(P) == truth


@pytest.mark.parametrize("R", EXHAUSTIVE_R, ids=["R_p2e2", "R_f2e2"])
def test_frob_scale_annihilator_exhaustive(R):
    rng = random.Random(22)
    vecs = list(itertools.product(elements(R), repeat=2))
    for _ in range(6):
        gens = [tuple(R.random_element(rng) for _ in range(2)) for _ in range(rng.randrange(3))]
        S = Submodule.span(R, 2, gens)
        ss = brute_span(R, 2, gens)
        for j in (1, -1):
            assert submodule_set(S.frob(j)) == {vfrob(R, v, j) for v in ss}
        pi_s = S.pi_times(1)
        assert submodule_set(pi_s) == {vscale(R, R.uniformizer, v) for v in ss}
        assert_howell_form(pi_s)
        ann = annihilator(R, 2, S)
        flat = [restrict_vec(R, u) for u in ss]
        truth = {w for w in vecs
                 if all(residue_form(R, u, restrict_vec(R, w)) == R.k.zero for u in flat)}
        assert submodule_set(ann) == truth
        assert len(S.krows) + len(ann.krows) == 2 * R.e


def test_semilinear():
    rng = random.Random(19)
    tower = TOWERS["R_f2e2"]
    R = tower.R
    n = 2
    for _ in range(10):
        A = random_matrix(R, n, n, rng)
        B = random_matrix(R, n, n, rng)
        v = tuple(R.random_element(rng) for _ in range(n))
        for a, b in itertools.product((-1, 0, 1), repeat=2):
            phi, psi = SemilinearMap(A, a), SemilinearMap(B, b)
            # phi after psi on flat vectors, against the oracle's R-level maps
            want = restrict_vec(R, apply_R(phi, apply_R(psi, v)))
            assert phi.compose(psi).apply_k(restrict_vec(R, v)) == want
            # composition determinant law
            assert phi.compose(psi).matrix.det() == R.mul(A.det(), R.frob(B.det(), a))


def test_semilinear_kernel_image_preimage_exhaustive():
    # F_4 linear algebra with a genuine twist: sigma != id
    tower = TOWERS["k_f2"]
    k = tower.k
    rng = random.Random(20)
    vecs = list(itertools.product(elements(k), repeat=2))
    for twist in (1, -1):
        for _ in range(8):
            A = random_matrix(k, 2, 2, rng)
            phi = SemilinearMap(A, twist)
            K = phi.kernel()
            truth = {v for v in vecs if apply_R(phi, v) == zero_vec(k, 2)}
            assert {v for v in vecs if K.contains_k(v)} == truth
            I = phi.image()
            truth_im = {apply_R(phi, v) for v in vecs}
            assert {v for v in vecs if I.contains_k(v)} == truth_im
            gens = [tuple(k.random_element(rng) for _ in range(2))]
            S = Submodule.span(k, 2, gens)
            P = phi.preimage(S)
            truth_pre = {v for v in vecs if S.contains_k(apply_R(phi, v))}
            assert {v for v in vecs if P.contains_k(v)} == truth_pre
            IS = phi.image_of(S)
            truth_imof = {apply_R(phi, vscale(k, c, gens[0])) for c in elements(k)}
            got_imof = {v for v in vecs if IS.contains_k(v)}
            assert got_imof == brute_span(k, 2, list(truth_imof))


def test_image_of_twist_independence():
    # the image of a submodule under (A, a) ignores a: sigma^a permutes the submodule's
    # underlying set only when the submodule is sigma-stable, but the span of
    # A sigma^a(gens) equals the span of A gens composed with the right twist...
    # concretely: im(A,a) as a submodule equals colspan(A), for any a.
    tower = TOWERS["R_f2e2"]
    R = tower.R
    rng = random.Random(21)
    for twist in (0, 1, 2, -1):
        for _ in range(5):
            A = random_matrix(R, 2, 3, rng)
            phi = SemilinearMap(A, twist)
            assert phi.image() == image(A)
            # and the pointwise image set really is the column span
            S = Submodule.full(R, 3)
            assert phi.image_of(S) == image(A)


# F_25[pi]/(pi^3): a nontrivial frobenius and e = 3, too large to enumerate
R523 = RingTower(FiniteField(5, 2), 3).R


def flat_test_vectors(R, n, rng):
    """Every vector of R^n on the exhaustive rings, else 200 seeded ones."""
    if R in EXHAUSTIVE_R:
        return list(itertools.product(elements(R), repeat=n))
    return [tuple(R.random_element(rng) for _ in range(n)) for _ in range(200)]


@pytest.mark.parametrize("R", EXHAUSTIVE_R + [R523], ids=["R_p2e2", "R_f2e2", "R_523"])
def test_flat_apply_is_the_restricted_map(R):
    """apply_k, through the cached restriction, is restrict_vec after the
    oracle's R-level apply_R after unrestrict_vec, for every twist."""
    rng = random.Random(40)
    vecs = flat_test_vectors(R, 2, rng)
    for twist in (-1, 0, 1, 2):
        for _ in range(2):
            phi = SemilinearMap(random_matrix(R, 3, 2, rng), twist)
            for v in vecs:
                assert phi.apply_k(restrict_vec(R, v)) == restrict_vec(R, apply_R(phi, v))


@pytest.mark.parametrize("R", EXHAUSTIVE_R, ids=["R_p2e2", "R_f2e2"])
def test_kernel_and_preimage_read_the_cached_restriction(R):
    rng = random.Random(41)
    vecs = list(itertools.product(elements(R), repeat=2))
    zero = zero_vec(R, 2)
    for twist in (-1, 0, 1, 2):
        for _ in range(3):
            phi = SemilinearMap(random_matrix(R, 2, 2, rng), twist)
            cols = phi.kcols()
            T = Submodule.span(R, 2, [tuple(R.random_element(rng) for _ in range(2))])
            tset = submodule_set(T)
            assert submodule_set(phi.kernel()) == {v for v in vecs if apply_R(phi, v) == zero}
            assert submodule_set(phi.preimage(T)) == {v for v in vecs if apply_R(phi, v) in tset}
            assert phi.kcols() is cols


def shift_down(R, a, s):
    """The canonical solution z of pi^s z = a in R, for a divisible by pi^s."""
    return a[s:] + (R.k.zero,) * s


@pytest.mark.parametrize("R", EXHAUSTIVE_R + [R523], ids=["R_p2e2", "R_f2e2", "R_523"])
def test_flat_pi_division_is_exact(R):
    """pi_divide is shift_down in every coordinate, and raises on a vector
    that is no multiple of pi^s."""
    rng = random.Random(42)
    e = R.e
    raised = 0
    for v in flat_test_vectors(R, 2, rng):
        for s in range(e + 1):
            if all(R.val_split(x)[0] >= s for x in v):
                want = restrict_vec(R, [shift_down(R, x, s) for x in v])
                assert pi_divide(restrict_vec(R, v), e, s) == want
            else:
                raised += 1
                with pytest.raises(InvariantViolation):
                    pi_divide(restrict_vec(R, v), e, s)
    assert raised


K4 = TOWERS["k_f2"].k
R4 = TOWERS["R_p2e2"].R


@pytest.mark.parametrize("call", [
    lambda: Matrix(K4, [[0, 1], [1]]),
    lambda: Matrix(K4, [[0, 1]], n=3),
    lambda: Matrix.from_cols(K4, []),
    lambda: Matrix.from_cols(K4, [(0, 1)], m=3),
    lambda: Matrix.identity(K4, 2).apply((1, 0, 1)),
    lambda: Matrix.identity(K4, 2).mul(Matrix.identity(K4, 3)),
    lambda: Matrix.identity(K4, 2).mul(Matrix.identity(R4, 2)),
    lambda: Submodule.full(R4, 2).add_sub(Submodule.full(R4, 3)),
    lambda: Submodule.full(R4, 2).intersect(Submodule.full(R4, 3)),
    lambda: SemilinearMap(Matrix.identity(R4, 2), 0).preimage(Submodule.full(R4, 3)),
    lambda: unrestrict_vec(R4, (0, 1, 0)),
], ids=["ragged", "row-length", "no-columns", "column-length", "apply", "mul-shape",
        "mul-ring", "add_sub", "intersect", "preimage", "unrestrict"])
def test_shape_mismatch_is_a_typed_error(call):
    with pytest.raises(InvalidSpec):
        call()
