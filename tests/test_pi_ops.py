"""Multiplication and division by pi^s on submodules, against references
computed in R: Submodule.pi_times against the span of pi^s times the
Howell rows, Submodule.pi_preimage against the dense restriction of
pi^s * I and, on tiny shapes, against the enumerated set {v : pi^s v in S}.
Hypothesis examples are derandomized and no example database is kept."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforge.cli import main
from hasseforge.datum import Params
from hasseforge.generate import random_lifted
from hasseforge.invariants import all_verdicts, check_pi_divisibility
from hasseforge.linalg import Matrix, SemilinearMap, Submodule
from hasseforge.rings import FiniteField, RingTower

from oracle import all_vectors, submodule_set, vscale

# e in {1, 2, 3} and f in {1, 2}
RINGS = {
    "R(3,1,1)": RingTower(FiniteField(3, 1), 1).R,
    "R(2,2,1)": RingTower(FiniteField(2, 2), 1).R,
    "R(2,1,2)": RingTower(FiniteField(2, 1), 2).R,
    "R(2,2,2)": RingTower(FiniteField(2, 2), 2).R,
    "R(2,1,3)": RingTower(FiniteField(2, 1), 3).R,
    "R(5,2,3)": RingTower(FiniteField(5, 2), 3).R,
}
N = 3


def _submodules(R, n):
    element = st.tuples(*[st.integers(0, R.k.q - 1)] * R.e)
    gens = st.lists(st.tuples(*[element] * n), max_size=3)
    return gens.map(lambda g: Submodule.span(R, n, g))


@pytest.mark.parametrize("ring", list(RINGS))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_pi_times_is_the_span_of_pi_multiples(ring, data):
    R = RINGS[ring]
    S = data.draw(_submodules(R, N))
    s = data.draw(st.integers(0, R.e + 1))
    pi_s = R.pi_pow(s)
    assert S.pi_times(s) == Submodule.span(R, N, [vscale(R, pi_s, g) for g in S.rows])


@pytest.mark.parametrize("ring", list(RINGS))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_pi_preimage_is_the_dense_preimage(ring, data):
    R = RINGS[ring]
    S = data.draw(_submodules(R, N))
    s = data.draw(st.integers(0, R.e + 1))
    dense = SemilinearMap(Matrix.identity(R, N).scale(R.pi_pow(s)), 0)
    assert S.pi_preimage(s) == dense.preimage(S)


@pytest.mark.parametrize("ring", ["R(3,1,1)", "R(2,2,1)", "R(2,1,2)", "R(2,2,2)", "R(2,1,3)"])
def test_pi_preimage_exhaustive(ring):
    R = RINGS[ring]
    rng = random.Random(23)
    vecs = all_vectors(R, 2)
    for _ in range(6):
        gens = [tuple(R.random_element(rng) for _ in range(2)) for _ in range(rng.randrange(3))]
        S = Submodule.span(R, 2, gens)
        members = submodule_set(S)
        for s in range(R.e + 1):
            truth = {v for v in vecs if vscale(R, R.pi_pow(s), v) in members}
            assert submodule_set(S.pi_preimage(s)) == truth
            assert submodule_set(S.pi_times(s)) == {vscale(R, R.pi_pow(s), v) for v in members}


def test_generate_verify_never_restricts_a_pi_power(monkeypatch, capsys, tmp_path):
    """pi^s acts as a digit shift, with no map object: the only maps that
    generate | verify restricts are F and V, which carry a twist."""
    kcols = SemilinearMap.kcols

    def guarded(self):
        if self.twist == 0:
            raise AssertionError("an untwisted map was restricted")
        return kcols(self)

    monkeypatch.setattr(SemilinearMap, "kcols", guarded)
    for params, kind in (("3,2,2,3,1", "lifted"), ("2,1,3,2,1", "charp")):
        path = tmp_path / ("%s.jsonl" % kind)
        assert main(["generate", "--params", params, "--kind", kind, "--count", "3",
                     "--seed", "5", "--out", str(path)]) == 0
        assert main(["verify", "--in", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


# Eisenstein polynomials E = X^e + ... with pi^e = p * c: the unit u = c^-1
# of the division identity reduces to u-bar != 1 at each of these, where the
# default X^e - p gives u-bar = 1.  At e = 4, u-bar = 1 + pi + pi^2 + pi^3
# and its pi-terms change the identity's verdict.
EISENSTEIN = [
    ([3, 0, 1], (3, 1, 2, 2, 1)),
    ([3, 0, 1], (3, 2, 2, 3, 1)),
    ([5, 0, 0, 1], (5, 1, 3, 2, 1)),
    ([2, 2, 0, 1], (2, 1, 3, 3, 1)),
    ([2, 2, 0, 0, 1], (2, 1, 4, 2, 1)),
]


@pytest.mark.parametrize("eisenstein, shape", EISENSTEIN,
                         ids=["-".join(map(str, s)) for _, s in EISENSTEIN])
def test_lifts_over_other_eisenstein_polynomials(eisenstein, shape):
    par = Params(*shape, eisenstein=eisenstein)
    assert par.W.reduce(par.tower.unit_u) != par.R.one
    rng = random.Random(31)
    for _ in range(3):
        L = random_lifted(par, rng)
        assert all(check_pi_divisibility(L, i) for i in range(par.f))
        assert all(v.equal for v in all_verdicts(L) if v.status == "ok")
