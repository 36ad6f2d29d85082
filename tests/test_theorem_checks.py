"""Witnesses for the residue-pairing checks of the duality verdicts.

Each check gets one targeted defect, patched in for the test only, and
must fire with its typed error and its exact message; the same datum's
verdicts pass when nothing is patched.  The datum has f = 2, so the
frobenius twists act, and e = 2, so the boundary map is listed.
"""

import random

import pytest

from hasseforge import invariants
from hasseforge.datum import Params
from hasseforge.errors import InvariantViolation, WellDefinednessViolation
from hasseforge.generate import random_lifted
from hasseforge.invariants import all_verdicts, duality_check
from hasseforge.kspace import QuotientPresentation
from hasseforge.linalg import SemilinearMap


def _datum():
    """A fresh lift each call: verdicts and maps are memoized on the datum."""
    return random_lifted(Params(3, 2, 2, 2, 1), random.Random(3))


def _on_dual(monkeypatch, D, name, defect):
    """Patch invariants.<name> so that the dual datum's map is
    defect(original, dual, *index); the primal datum's map, which its
    natural description checks, is kept."""
    Dd = D.reduce().dual()
    original = getattr(invariants, name)
    monkeypatch.setattr(invariants, name, lambda X, *idx: (defect(original, X, *idx) if X is Dd
                                                           else original(X, *idx)))


def _den_widened(side):
    """Wrap pairing_matrix so that one presentation's den is its whole num:
    the pairing then has to kill num itself, which a perfect pairing of
    nonzero quotients does not."""
    original = invariants.pairing_matrix

    def patched(form, left, right):
        qp = left if side == "left" else right
        wide = QuotientPresentation(qp.R, qp.n, qp.num, qp.num)
        if side == "left":
            return original(form, wide, right)
        return original(form, left, wide)

    return patched


def test_the_unpatched_verdicts_hold():
    verdicts = all_verdicts(_datum())
    assert {v.name for v in verdicts} == {"ha", "ha_i", "m", "hasse", "ha_pr"}
    assert all(v.status == "ok" and v.equal for v in verdicts)
    # no invariant vanishes, so no adjunction below compares zero maps
    assert all(v.scalar_G and v.scalar_GD for v in verdicts)


def test_hodge_adjunction_fires_without_its_frobenius_twist(monkeypatch):
    original = invariants._pairing_adjunction

    def untwisted(p, Md, Mp, left, right, twist, name, what):
        return original(p, Md, Mp, left, right, 0 if name == "Hodge" else twist, name, what)

    monkeypatch.setattr(invariants, "_pairing_adjunction", untwisted)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(_datum(), "ha_i", 0)
    assert str(exc.value) == "pairing adjunction between the dual Hodge map and F failed"


def test_graded_adjunction_fires_on_a_rescaled_dual_pi_map(monkeypatch):
    D = _datum()
    two = D.params.k.from_int(2)
    _on_dual(monkeypatch, D, "_map_m",
             lambda original, X, *idx: SemilinearMap(original(X, *idx).matrix.scale(two), 0))
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "m", 0, 2)
    assert str(exc.value) == "pairing adjunction for the graded pi map failed"


def test_boundary_adjunction_fires_on_the_next_embeddings_dual_map(monkeypatch):
    D = _datum()
    f = D.params.f
    _on_dual(monkeypatch, D, "_map_hasse", lambda original, X, i: original(X, (i + 1) % f))
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "hasse", 0)
    assert str(exc.value) == "pairing adjunction for the boundary map failed"


@pytest.mark.parametrize("side", ["left", "right"])
def test_pairing_descent_fires_when_a_den_is_widened(monkeypatch, side):
    monkeypatch.setattr(invariants, "pairing_matrix", _den_widened(side))
    with pytest.raises(WellDefinednessViolation) as exc:
        duality_check(_datum(), "ha_i", 0)
    assert str(exc.value) == "pairing does not kill %s.den" % side
