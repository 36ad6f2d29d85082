"""Shifting the embedding labels is a metamorphic invariant.

The datum D' with F'_i = sigma(F_(i-1)), V'_i = sigma(V_(i-1)) and the
flags at embedding i moved from i-1 by sigma is D with every embedding
renamed one step up.  Every section of D' at index i is then sigma of D's
section at index i-1 (ha, the product over all embeddings, is sigma of
D's ha), and every verdict's (status, equal) moves with it.  A wrong
frobenius twist in the invariant chains can break this while every test
that keeps the embedding labels fixed still passes; the two mutants,
without sigma and without the index shift, must both disagree.  Mod-p
reductions of both kinds, from fixed seeds.
"""

import random

from hasseforge.datum import DieudonneDatum, Params
from hasseforge.generate import random_datum
from hasseforge.invariants import all_sections, all_verdicts, duality_check, section

SHAPES = ((3, 2, 2, 3, 1), (2, 3, 2, 2, 1), (5, 2, 1, 3, 2), (2, 2, 3, 2, 1))


def shifted(D, twist=1, step=1):
    """D with the data at embedding i - step moved to i by sigma^twist."""
    f = D.params.f
    F = [D.F[(i - step) % f].matrix.frob(twist) for i in range(f)]
    V = [D.V[(i - step) % f].matrix.frob(twist) for i in range(f)]
    flags = [[level.frob(twist) for level in D.pr_flags[(i - step) % f]] for i in range(f)]
    return DieudonneDatum(D.params, F, V, pr_flags=flags)


def _previous(D, i):
    return None if i is None else (i - 1) % D.params.f


def mismatches(D, D2):
    """(sections compared, sections and verdicts of D2 that are not sigma
    of D's at the previous embedding)."""
    K = D.params.k
    sections = all_sections(D2)
    bad = sum(s.scalar != K.frob(section(D, s.name, _previous(D, s.i), s.j).scalar, 1)
              for s in sections)
    for v in all_verdicts(D2):
        w = duality_check(D, v.name, _previous(D, v.i), v.j)
        bad += (v.status, v.equal) != (w.status, w.equal)
    return len(sections), bad


def _data():
    rng = random.Random(13)
    for shape in SHAPES:
        par = Params(*shape)
        for lifted in (True, False):
            yield random_datum(par, rng, lifted=lifted).reduce()


def test_embedding_shift_moves_sections_and_verdicts():
    compared = 0
    for D in _data():
        n, bad = mismatches(D, shifted(D))
        assert bad == 0, D
        compared += n
    # 11 + 16 + 5 + 15 sections over the four shapes, once per kind
    assert compared == 94


def test_embedding_shift_mutants_disagree():
    without_sigma = without_shift = 0
    for D in _data():
        without_sigma += mismatches(D, shifted(D, twist=0))[1]
        without_shift += mismatches(D, shifted(D, step=0))[1]
    assert without_sigma > 0
    assert without_shift > 0
