"""The vanishing locus by submodule arithmetic: whether an invariant
vanishes is a statement about flags, which oracle.vanishing_by_submodules
decides with no quotient presentation, induced map or determinant.  Here
it must agree with section(...).vanished on seeded data of both kinds at
every benchmark workload shape, the f = 4 campaign shapes and the prime
campaign shapes.  Vanishing must be mixed in every family, and two
mutated criteria, a shifted target embedding and hasse without the
division by pi^(e-1), must each disagree somewhere, so the comparison
has teeth."""

import functools
import random

import pytest

from hasseforge.datum import Params
from hasseforge.generate import random_datum
from hasseforge.invariants import FAMILIES, all_sections

from oracle import vanishing_by_submodules
from test_generator_guarantee import (CAMPAIGN_F4, CAMPAIGN_PRIMES, INVARIANTS_WIDE,
                                      VERIFY_RAMIFIED)

SHAPES = sorted(set(VERIFY_RAMIFIED) | set(INVARIANTS_WIDE) | set(CAMPAIGN_F4)
                | set(CAMPAIGN_PRIMES))
PER_SHAPE = 2
KINDS = ("lifted", "charp")


@functools.lru_cache(maxsize=None)
def _runs(kind):
    """Per seeded datum: the sections' vanishing, then the criteria's,
    then the two mutants'.  Only these dicts are kept, not the data."""
    rng = random.Random(15)
    out = []
    for shape in SHAPES:
        par = Params(*shape)
        for _ in range(PER_SHAPE):
            D = random_datum(par, rng, kind == "lifted")
            out.append(({(s.name, s.i, s.j): s.vanished for s in all_sections(D)},
                        vanishing_by_submodules(D),
                        vanishing_by_submodules(D, prev=0),
                        vanishing_by_submodules(D, divide=False)))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_the_criteria_decide_every_section(kind):
    for truth, criteria, _, _ in _runs(kind):
        assert criteria == truth


def test_every_family_both_vanishes_and_does_not():
    seen = {(key[0], vanished) for kind in KINDS for truth, _, _, _ in _runs(kind)
            for key, vanished in truth.items()}
    assert seen == {(name, v) for name in FAMILIES for v in (False, True)}


def _disagreements(mutant):
    """How many sections mutant (1 or 2, its place after the criteria)
    decides differently from the sections."""
    return sum(run[0][key] != run[1 + mutant][key]
               for kind in KINDS for run in _runs(kind) for key in run[0])


def test_a_shifted_target_embedding_disagrees():
    assert _disagreements(1) > 0


def test_hasse_without_the_division_disagrees():
    assert _disagreements(2) > 0
