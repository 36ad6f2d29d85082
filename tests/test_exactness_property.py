"""Property test of datum validation: DieudonneDatum decides ker F = im V
and ker V = im F from ranks and compositions (dim im V + dim im F = h1*e,
F kills im V, V kills im F), and must reach the same verdict, with the
same message, as comparing each map's kernel with the other's image.
Inputs are random matrix pairs, generator output with one F entry
perturbed, and F = V = 0.  Examples are derandomized and no example
database is kept, so every run draws the same data."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforge.datum import DieudonneDatum, Params
from hasseforge.errors import InvalidDatum
from hasseforge.generate import random_datum
from hasseforge.linalg import Matrix, SemilinearMap, Submodule

# f in {1, 2} and e in {1, 2, 3}
SHAPES = [(2, 1, 1, 2, 1), (3, 1, 2, 2, 1), (2, 1, 3, 3, 2), (2, 2, 1, 3, 1),
          (2, 2, 2, 2, 1), (3, 2, 3, 2, 1)]
PARAMS = {}


def _params(shape):
    if shape not in PARAMS:
        PARAMS[shape] = Params(*shape)
    return PARAMS[shape]


def kernel_verdict(par, F_mats, V_mats):
    """The kernel comparison at every index, in validation order: the
    message of the first failure, or None when both identities hold."""
    for i in range(par.f):
        F, V = SemilinearMap(F_mats[i], +1), SemilinearMap(V_mats[i], -1)
        if F.kernel() != V.image():
            return "ker F != im V at index %d" % i
        if V.kernel() != F.image():
            return "ker V != im F at index %d" % i
    return None


def construction_verdict(par, F_mats, V_mats):
    """The message DieudonneDatum raises, or None.  Zero flags stand in for
    e > 1: they fail later checks, never exactness."""
    flags = None if par.e == 1 else [[Submodule.zero(par.R, par.h1)] * (par.e + 1)] * par.f
    try:
        DieudonneDatum(par, F_mats, V_mats, pr_flags=flags)
    except InvalidDatum as exc:
        return str(exc)
    return None


def _element(R):
    return st.tuples(*[st.integers(0, R.k.q - 1)] * R.e)


def _matrix(R, n):
    return st.lists(st.lists(_element(R), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: Matrix(R, rows))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "p%d_f%d_e%d_h%d_d%d" % s)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_exactness_by_rank_matches_kernel_comparison(shape, data):
    par = _params(shape)
    R, h1, f = par.R, par.h1, par.f
    kind = data.draw(st.sampled_from(["random", "perturbed", "zero"]))
    if kind == "random":
        F_mats = [data.draw(_matrix(R, h1)) for _ in range(f)]
        V_mats = [data.draw(_matrix(R, h1)) for _ in range(f)]
    elif kind == "zero":
        F_mats = V_mats = [Matrix.zeros(R, h1, h1)] * f
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        D = random_datum(par, rng, lifted=data.draw(st.booleans()))
        D = D.reduce()
        F_mats = [m.matrix for m in D.F]
        V_mats = [m.matrix for m in D.V]
        i, r, c = (data.draw(st.integers(0, n - 1)) for n in (f, h1, h1))
        rows = [list(row) for row in F_mats[i].rows]
        rows[r][c] = R.add(rows[r][c], data.draw(_element(R)))
        F_mats = F_mats[:i] + [Matrix(R, rows)] + F_mats[i + 1:]
    expected = kernel_verdict(par, F_mats, V_mats)
    got = construction_verdict(par, F_mats, V_mats)
    if expected is not None:
        assert got == expected
    else:
        # the exactness stage passed; a later check may still refuse
        assert got is None or not got.startswith("ker ")
