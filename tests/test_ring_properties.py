"""Property tests of the ring axioms on every layer of the tower (k, R,
W2, W), with Hypothesis, at small primes and at p = 65521.  Examples are derandomized and no example
database is kept, so every run draws the same elements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforge.rings import FiniteField, RingTower

T322 = RingTower(FiniteField(3, 2), 2)
T213 = RingTower(FiniteField(2, 1), 3)
# the largest prime with p^f <= 2^16: W2's modulus p^2 = 4,293,001,441 is
# above 2^31, and a product of two residues before reduction is above 2^63
T65521 = RingTower(FiniteField(65521, 1), 2)


def _k_codes(k):
    return st.integers(0, k.q - 1)


def _w2_elements(w2):
    return st.tuples(*[st.integers(0, w2.m - 1)] * w2.f)


LAYERS = {
    "k(3,2)": (T322.k, _k_codes(T322.k)),
    "R(3,2,2)": (T322.R, st.tuples(*[_k_codes(T322.k)] * T322.e)),
    "W2(3,2)": (T322.W2, _w2_elements(T322.W2)),
    "W(3,2,2)": (T322.W, st.tuples(*[_w2_elements(T322.W2)] * T322.e)),
    "W(2,1,3)": (T213.W, st.tuples(*[_w2_elements(T213.W2)] * T213.e)),
    "k(65521,1)": (T65521.k, _k_codes(T65521.k)),
    "R(65521,1,2)": (T65521.R, st.tuples(*[_k_codes(T65521.k)] * T65521.e)),
    "W2(65521,1)": (T65521.W2, _w2_elements(T65521.W2)),
    "W(65521,1,2)": (T65521.W, st.tuples(*[_w2_elements(T65521.W2)] * T65521.e)),
}


@pytest.mark.parametrize("layer", list(LAYERS))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_ring_axioms(layer, data):
    ring, elements = LAYERS[layer]
    a, b, c = data.draw(elements), data.draw(elements), data.draw(elements)
    add, mul = ring.add, ring.mul
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, ring.zero) == a
    assert mul(a, ring.one) == a
    assert mul(a, ring.zero) == ring.zero
    assert add(a, ring.neg(a)) == ring.zero
    assert ring.sub(a, b) == add(a, ring.neg(b))
