"""Property tests of the residue-field kernels, with Hypothesis: the
elimination determinant and inverse over k, Matrix products through
ring.dot on every layer, the flat residue form, and the row kernels
FiniteField.combine and sub_mul against entrywise add and mul.  Examples
are derandomized and no example database is kept, so every run draws the
same matrices."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforge import linalg
from hasseforge.datum import Params
from hasseforge.generate import random_charp, random_lifted
from hasseforge.invariants import all_verdicts
from hasseforge.kspace import QuotientPresentation, annihilator, pairing_matrix, residue_form
from hasseforge.linalg import Matrix, Submodule, restrict_vec, smith
from hasseforge.rings import FiniteField, RingTower

from oracle import elements, perm_det

FIELDS = {
    "F_2": FiniteField(2, 1),
    "F_4": FiniteField(2, 2),
    "F_5": FiniteField(5, 1),
    "F_7^4": FiniteField(7, 4),
}
T322 = RingTower(FiniteField(3, 2), 2)
T213 = RingTower(FiniteField(2, 1), 3)


def _w2(w2):
    return st.tuples(*[st.integers(0, w2.m - 1)] * w2.f)


LAYERS = {
    "k(5)": (FIELDS["F_5"], st.integers(0, 4)),
    "k(3,2)": (T322.k, st.integers(0, T322.k.q - 1)),
    "R(3,2,2)": (T322.R, st.tuples(*[st.integers(0, T322.k.q - 1)] * T322.e)),
    "W2(3,2)": (T322.W2, _w2(T322.W2)),
    "W(3,2,2)": (T322.W, st.tuples(*[_w2(T322.W2)] * T322.e)),
    "W(2,1,3)": (T213.W, st.tuples(*[_w2(T213.W2)] * T213.e)),
}


def _matrix(data, ring, elements, m, n):
    return Matrix(ring, [[data.draw(elements) for _ in range(n)] for _ in range(m)], n=n)


def _smith_det(M):
    s = smith(M)
    return M.ring.mul(s.det, M.ring.pi_pow(sum(s.vals)))


@pytest.mark.parametrize("field", list(FIELDS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_field_det_and_inverse(field, data):
    k = FIELDS[field]
    n = data.draw(st.integers(0, 5))
    M = _matrix(data, k, st.integers(0, k.q - 1), n, n)
    d = M.det()
    assert d == _smith_det(M)
    if n <= 4:
        assert d == perm_det(M)
    if d:
        assert M.inverse().mul(M) == Matrix.identity(k, n)
        assert M.mul(M.inverse()) == Matrix.identity(k, n)
    if n:
        # the last row a multiple of the first (zero when n = 1) is singular
        c = data.draw(st.integers(0, k.q - 1))
        rows = list(M.rows[:-1]) + [[k.mul(c, x) if n > 1 else 0 for x in M.rows[0]]]
        S = Matrix(k, rows, n=n)
        assert S.det() == 0 == _smith_det(S)
        with pytest.raises(ZeroDivisionError):
            S.inverse()


@pytest.mark.parametrize("layer", list(LAYERS))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_products_through_dot_match_the_entrywise_sum(layer, data):
    ring, elements = LAYERS[layer]
    m, n, l = (data.draw(st.integers(0, 3)) for _ in range(3))
    A = _matrix(data, ring, elements, m, n)
    B = _matrix(data, ring, elements, n, l)
    v = tuple(data.draw(elements) for _ in range(n))

    def ref(row, col):
        acc = ring.zero
        for x, y in zip(row, col):
            acc = ring.add(acc, ring.mul(x, y))
        return acc

    assert A.apply(v) == tuple(ref(r, v) for r in A.rows)
    assert A.mul(B).rows == tuple(tuple(ref(r, c) for c in B.cols()) for r in A.rows)


@pytest.mark.parametrize("tower", [RingTower(FiniteField(2, 1), 2), RingTower(FiniteField(2, 2), 2)], ids=["R_p2e2", "R_f2e2"])
def test_flat_residue_form_is_the_top_coefficient_exhaustively(tower):
    R = tower.R
    vecs = list(itertools.product(elements(R), repeat=2))
    flat = [restrict_vec(R, v) for v in vecs]
    for u, fu in zip(vecs, flat):
        for w, fw in zip(vecs, flat):
            top = R.add(R.mul(u[0], w[0]), R.mul(u[1], w[1]))[R.e - 1]
            assert residue_form(R, fu, fw) == top


@pytest.mark.parametrize("lifted", [True, False], ids=["lifted", "charp"])
def test_verdicts_take_no_determinant_through_smith(monkeypatch, lifted):
    par = Params(3, 2, 2, 3, 1)
    D = (random_lifted if lifted else random_charp)(par, random.Random(0))

    def refuse(M):
        raise AssertionError("smith reached on a %r matrix" % M.ring)

    monkeypatch.setattr(linalg, "smith", refuse)
    verdicts = all_verdicts(D)
    assert verdicts and all(v.equal for v in verdicts if v.status == "ok")


def test_pairing_matrix_stays_on_flat_vectors(monkeypatch):
    R = RingTower(FiniteField(3, 1), 2).R
    S = Submodule.span(R, 2, [(R.uniformizer, R.one)])
    left = QuotientPresentation(R, 2, S, Submodule.zero(R, 2))
    right = QuotientPresentation(R, 2, Submodule.full(R, 2), annihilator(R, 2, S))

    def refuse(ring, kv):
        raise AssertionError("a flat vector went back to R")

    monkeypatch.setattr(linalg, "unrestrict_vec", refuse)
    P = pairing_matrix(lambda u, w: residue_form(R, u, w), left, right)
    assert (P.m, P.n) == (left.dim, right.dim) and P.det()


KERNEL_FIELDS = dict(FIELDS, F_65521=FiniteField(65521, 1))


def _entrywise_sum(k, terms):
    acc = k.zero
    for t in terms:
        acc = k.add(acc, t)
    return acc


@pytest.mark.parametrize("field", list(KERNEL_FIELDS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_row_kernels_match_entrywise_add_and_mul(field, data):
    k = KERNEL_FIELDS[field]
    # zero codes drawn often, not one time in q
    code = st.one_of(st.just(0), st.integers(0, k.q - 1))
    n, m = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))
    rows = [[data.draw(code) for _ in range(n)] for _ in range(m)]
    coeffs = [data.draw(code) for _ in range(m)]
    assert k.combine(coeffs, rows, n) == [
        _entrywise_sum(k, [k.mul(c, r[t]) for c, r in zip(coeffs, rows)]) for t in range(n)]
    assert k.combine([0] * m, rows, n) == [0] * n
    assert k.combine([], [], n) == [0] * n
    assert k.combine(coeffs, [[]] * m, 0) == []
    u, v = ([data.draw(code) for _ in range(n)] for _ in range(2))
    c = data.draw(st.integers(1, k.q - 1))
    assert k.sub_mul(u, c, v) == [k.sub(x, k.mul(c, y)) for x, y in zip(u, v)]
