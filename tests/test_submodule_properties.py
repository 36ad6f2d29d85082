"""Property test of the canonical form of submodules, with Hypothesis:
Submodule.span stores the same echelon rows and pivots however its
generators are ordered or padded.  Examples are derandomized and no
example database is kept, so every run draws the same generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforge.linalg import Submodule, vadd, vscale
from hasseforge.rings import FiniteField, RingTower

RINGS = {
    "R(2,1,2)": RingTower(FiniteField(2, 1), 2).R,
    "R(2,2,2)": RingTower(FiniteField(2, 2), 2).R,
    "R(5,2,3)": RingTower(FiniteField(5, 2), 3).R,
}
N = 3


def _elements(R):
    return st.tuples(*[st.integers(0, R.k.q - 1)] * R.e)


@pytest.mark.parametrize("ring", list(RINGS))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_span_is_canonical_under_shuffles_and_redundant_generators(ring, data):
    R = RINGS[ring]
    elements = _elements(R)
    gens = data.draw(st.lists(st.tuples(*[elements] * N), min_size=1, max_size=4))
    S = Submodule.span(R, N, gens)

    # R-multiples of one generator and sums of two lie in the span already
    pads = []
    for kind in data.draw(st.lists(st.sampled_from(["multiple", "sum"]), max_size=4)):
        g = data.draw(st.sampled_from(gens))
        if kind == "multiple":
            pads.append(vscale(R, data.draw(elements), g))
        else:
            pads.append(vadd(R, g, data.draw(st.sampled_from(gens))))
    T = Submodule.span(R, N, data.draw(st.permutations(gens + pads)))

    assert (T.krows, T.kpivots) == (S.krows, S.kpivots)
    assert (T.rows, T.pivots) == (S.rows, S.pivots)
