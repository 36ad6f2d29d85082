"""The random generators place their data without validating it (the _of
constructors), so their guarantee lives here: every generated datum
passes the full validate, on every shape the acceptance tests, the two
benchmark workloads and the f = 4 and prime campaigns generate, for both
kinds.
The load path still validates each object exactly once, and a placed
datum that is not valid still fails validate."""

import random
from itertools import product

import pytest

from hasseforge import serialize
from hasseforge.datum import DieudonneDatum, LiftedDatum, Params
from hasseforge.errors import InvalidDatum, InvalidLift
from hasseforge.generate import random_charp, random_datum, random_lifted
from hasseforge.linalg import Matrix, image


def _pairs(h1s):
    return [(h1, d1) for h1 in h1s for d1 in range(1, h1)]


# 56 acceptance shapes, the 36 verify-ramified and 12 invariants-wide
# benchmark shapes, the four f = 4 and the five prime campaign shapes: 97
# distinct in all
ACCEPTANCE = sorted(
    # test_02, test_03: unramified, one embedding up to h1 = 6, or two and three
    {(p, 1, 1, h1, d1) for p in (2, 3) for h1, d1 in _pairs(range(2, 7))}
    | {(p, f, 1, h1, d1) for p, f in product((2, 3), (2, 3)) for h1, d1 in _pairs((2, 3))}
    # test_04 to test_07: ramified, and f = 2 at the smallest ranks
    | {(p, 1, e, h1, d1) for p, e in product((2, 3), (1, 2, 3)) for h1, d1 in _pairs((2, 3))}
    | {(p, 2, e, 2, 1) for p, e in product((2, 3), (1, 2))}
    # test_09's generate and survey shapes
    | {(3, 1, 2, 2, 1), (2, 2, 1, 2, 1), (2, 1, 2, 2, 1)})
VERIFY_RAMIFIED = [(p, f, e, h1, d1) for p, f, e in product((2, 3, 5), (1, 2), (2, 3))
                   for h1, d1 in _pairs((2, 3))]
INVARIANTS_WIDE = [(p, f, e, 2, 1) for p, f, e in product((5, 7), (2, 3, 4), (1, 2))]
CAMPAIGN_F4 = [(5, 4, 2, 2, 1), (7, 4, 2, 3, 1), (5, 4, 3, 2, 1), (7, 4, 1, 3, 2)]
CAMPAIGN_PRIMES = [(11, 1, 2, 2, 1), (13, 2, 2, 3, 1), (31, 3, 2, 2, 1), (251, 2, 2, 2, 1),
                   (65521, 1, 2, 2, 1)]
SHAPES = sorted(set(ACCEPTANCE) | set(VERIFY_RAMIFIED) | set(INVARIANTS_WIDE)
                | set(CAMPAIGN_F4) | set(CAMPAIGN_PRIMES))


@pytest.mark.parametrize("lifted", [True, False], ids=["lifted", "charp"])
def test_generated_data_pass_full_validation(lifted):
    rng = random.Random(17)
    for shape in SHAPES:
        par = Params(*shape)
        D = random_datum(par, rng, lifted)
        # a lift's validate validates its reduction too
        D.validate()
        # the hodge submodules the generator seeded are the images of V
        D0 = D.reduce()
        for i in range(par.f):
            assert D0.hodge(i) == image(D0.V[(i + 1) % par.f].matrix), (shape, i)


def _count_validations(monkeypatch):
    """The list of objects validate is called on, from now on."""
    seen = []
    for cls in (DieudonneDatum, LiftedDatum):
        def counted(self, original=cls.validate):
            seen.append(self)
            return original(self)
        monkeypatch.setattr(cls, "validate", counted)
    return seen


@pytest.mark.parametrize("shape", [(5, 1, 1, 2, 1), (3, 2, 2, 3, 1)])
@pytest.mark.parametrize("lifted", [True, False], ids=["lifted", "charp"])
def test_generation_skips_validate_and_the_load_validates_once(monkeypatch, shape, lifted):
    seen = _count_validations(monkeypatch)
    line = serialize.dumps(random_datum(Params(*shape), random.Random(4), lifted))
    assert seen == []
    E = serialize.loads(line)
    loaded = [E, E.reduce()] if lifted else [E]
    assert sorted(map(id, seen)) == sorted(map(id, loaded))


def _swap_columns(M):
    return Matrix(M.ring, [(r[1], r[0]) + tuple(r[2:]) for r in M.rows])


@pytest.mark.parametrize("corrupt", [lambda M: Matrix.identity(M.ring, M.n), _swap_columns],
                         ids=["rank", "composition"])
def test_a_placed_datum_with_a_corrupted_F_fails_validate(corrupt):
    par = Params(3, 2, 2, 3, 1)
    D = random_charp(par, random.Random(6))
    F = [m.matrix for m in D.F]
    F[1] = corrupt(F[1])
    bad = DieudonneDatum._of(par, F, [m.matrix for m in D.V], D.pr_flags,
                             [D.hodge(i) for i in range(par.f)])
    with pytest.raises(InvalidDatum, match="ker F != im V at index 1"):
        bad.validate()


def test_a_placed_lift_with_a_corrupted_F_fails_validate():
    par = Params(3, 2, 2, 3, 1)
    L = random_lifted(par, random.Random(6))
    F = [m.matrix for m in L.F]
    F[0] = _swap_columns(F[0])
    V = [m.matrix for m in L.V]
    Fr, Vr = ([M.map(par.W.reduce, par.R) for M in mats] for mats in (F, V))
    bad = LiftedDatum._of(par, F, V, DieudonneDatum._of(par, Fr, Vr, L.reduce().pr_flags))
    with pytest.raises(InvalidLift, match="F V != p at index 0"):
        bad.validate()
