"""Change of basis is a metamorphic invariant.

For g_i in GL_h1(W), one per embedding, the datum
F'_i = g_i F_i sigma(g_{i-1})^-1, V'_i = g_{i-1} V_i sigma^-1(g_i)^-1, with
every flag level at embedding i carried by the reduction of g_i, is the same
object written in another basis.  Each section changes by a unit, so the
vanishing pattern must not change, and neither may any verdict's
(name, i, j, status, equal).  Shapes, data and bases come from fixed seeds.
"""

import random

from hasseforge.datum import LiftedDatum, Params
from hasseforge.generate import named_instance, random_lifted
from hasseforge.invariants import all_verdicts, vanishing_pattern
from hasseforge.linalg import SemilinearMap, random_invertible

SHAPES = ((3, 1, 2, 2, 1), (2, 1, 2, 3, 1), (2, 2, 2, 2, 1), (3, 1, 3, 2, 1), (5, 2, 1, 3, 1))


def change_basis(L, rng):
    p = L.params
    W, R = p.W, p.R
    g = [random_invertible(W, p.h1, rng) for _ in range(p.f)]
    F = [g[i].mul(L.F[i].matrix).mul(g[i - 1].frob(1).inverse()) for i in range(p.f)]
    V = [g[i - 1].mul(L.V[i].matrix).mul(g[i].frob(-1).inverse()) for i in range(p.f)]
    flags = []
    for i, flag in enumerate(L.reduce().pr_flags):
        gbar = SemilinearMap(g[i].map(W.reduce, R), 0)
        flags.append([gbar.image_of(level) for level in flag])
    return LiftedDatum(p, F, V, pr_flags=flags)


def outcome(D):
    verdicts = [(v.name, v.i, v.j, v.status, v.equal) for v in all_verdicts(D)]
    return vanishing_pattern(D), verdicts


def test_change_of_basis_keeps_pattern_and_verdicts():
    rng = random.Random(20)
    data = [named_instance(name) for name in ("ss", "ram-ss", "ram-pi", "unram-f2")]
    for shape in SHAPES:
        par = Params(*shape)
        data += [random_lifted(par, rng) for _ in range(3)]
    for L in data:
        L2 = change_basis(L, rng)
        assert L2 != L, L
        assert outcome(L2) == outcome(L), L
