"""Witnesses for the theorem checks of the sections and duality verdicts:
the residue-pairing adjunctions and their descent, the complementary
pair's natural dets, the natural descriptions, the factorizations, the
adapted Hodge basis's filtration and every unit check.

Each check gets one targeted defect, patched in for the test only, and
must fire with its typed error and its exact message; the same datum's
verdicts pass when nothing is patched.  The datum has f = 2, so the
frobenius twists act, and e = 2, so the boundary map is listed.  Opposite
witnesses change a presentation's lifts in ways the checks must accept.
"""

import copy
import random

import pytest

from hasseforge import invariants
from hasseforge.datum import Params
from hasseforge.errors import InvariantViolation, WellDefinednessViolation
from hasseforge.flags import aux_flag, conj_flag, extended_flag
from hasseforge.generate import random_lifted
from hasseforge.invariants import all_verdicts, duality_check, section
from hasseforge.kspace import QuotientPresentation
from hasseforge.linalg import Matrix, SemilinearMap, Submodule


def _datum():
    """A fresh lift each call: verdicts and maps are memoized on the datum."""
    return random_lifted(Params(3, 2, 2, 2, 1), random.Random(3))


def _on(monkeypatch, X0, name, defect):
    """Patch invariants.<name> so that its value on the datum X0 is
    defect(original, X0, *index); every other datum's is kept."""
    original = getattr(invariants, name)
    monkeypatch.setattr(invariants, name, lambda X, *idx: (defect(original, X, *idx) if X is X0
                                                           else original(X, *idx)))


def _on_dual(monkeypatch, D, name, defect):
    """The dual datum's map is the defect; the primal datum's map, which
    its natural description checks, is kept."""
    _on(monkeypatch, D.reduce().dual(), name, defect)


def _doubled(k, M):
    return M.scale(k.from_int(2))


def _times_two(original, X, *idx):
    M = original(X, *idx)
    return SemilinearMap(_doubled(X.params.k, M.matrix), M.twist)


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


# ---------------------------------------------------------------------------
# the complementary pair reads default presentations in prop_dual's
# canonical bases, so a presentation with other lifts changes a natural det


# the (num, den) of the default presentation that each natural det's map
# has as its domain or codomain, on the reduced datum at i = 0, j = e = 2
# (the name is the pair's message), with the verdict that reads it
PAIR_PRESENTATIONS = {
    "Hodge": (lambda X: (Submodule.full(X.params.R, X.params.h1), X.conj(0)), ("ha_i", 0)),
    "conjugate": (lambda X: (X.conj(0), Submodule.zero(X.params.R, X.params.h1)), ("ha_i", 0)),
    "graded": (lambda X: (aux_flag(X, 0)[1], aux_flag(X, 0)[0]), ("m", 0, 2)),
    "divided": (lambda X: (aux_flag(X, 0)[1], extended_flag(X, 0)[2]), ("m", 0, 2)),
    "boundary": (lambda X: (invariants._torsion(X, 1), conj_flag(X, 0)[1]), ("hasse", 0)),
    "dual boundary": (lambda X: (invariants._torsion(X, 1), extended_flag(X, 0)[1]), ("hasse", 0)),
}


def _relifted(monkeypatch, D, name, change):
    """Patch invariants._qp so that the primal datum's presentation named
    in PAIR_PRESENTATIONS has the lifts change(k, presentation) instead of
    its default ones; every map into or out of it, and every check those
    maps meet before the pair, sees the same new basis."""
    X0 = D.reduce()
    target = PAIR_PRESENTATIONS[name][0](X0)
    original = invariants._qp
    built = {}

    def patched(X, num, den):
        qp = original(X, num, den)
        if X is not X0 or (num, den) != target:
            return qp
        if "qp" not in built:
            built["qp"] = qp.with_lifts(change(X.params.k, qp))
        return built["qp"]

    monkeypatch.setattr(invariants, "_qp", patched)


def _first_lift_doubled(k, qp):
    """A rescaled natural map: the first lift doubled, a pivot of 2."""
    two = k.from_int(2)
    return [tuple(k.mul(two, x) for x in qp.lifts[0])] + qp.lifts[1:]


@pytest.mark.parametrize("name", list(PAIR_PRESENTATIONS))
def test_natural_det_fires_on_a_rescaled_natural_map(monkeypatch, name):
    D = _datum()
    _relifted(monkeypatch, D, name, _first_lift_doubled)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, *PAIR_PRESENTATIONS[name][1])
    assert str(exc.value) == "transport of the %s natural det failed" % name


@pytest.mark.parametrize("name, builder, family", [
    ("Hodge", "_nat_v_hodge", ("ha_i", 0)),
    ("graded", "_nat_m", ("m", 0, 2)),
    ("boundary", "_nat_hasse", ("hasse", 0)),
])
def test_natural_det_fires_on_a_natural_map_with_a_doubled_row(monkeypatch, name, builder,
                                                                family):
    """The natural map the pair reads, changed after its natural description
    was checked.  The other three natural maps are also maps of a check
    that fires first (the factorizations and the divided F-map, below), so
    only a basis change, as above, reaches their dets."""
    D = _datum()

    def changed(original, X, *idx):
        *rest, nat = original(X, *idx)
        rows = (tuple(X.params.k.mul(X.params.k.from_int(2), x) for x in nat.matrix.rows[0]),)
        return (*rest, SemilinearMap(Matrix(X.params.k, rows + nat.matrix.rows[1:]), nat.twist))

    _on(monkeypatch, D.reduce(), builder, changed)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, *family)
    assert str(exc.value) == "transport of the %s natural det failed" % name


def test_swapped_lifts_of_a_default_presentation_are_not_transported(monkeypatch):
    """Two swapped lifts, a basis change of det -1: no transport absorbs
    it, as none is taken for a default presentation."""
    D = _datum()
    assert invariants._qac(D.reduce(), 0).dim == 2
    _relifted(monkeypatch, D, "Hodge", lambda k, qp: qp.lifts[::-1])
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "ha_i", 0)
    assert str(exc.value) == "transport of the Hodge natural det failed"


def _sheared(k, qp):
    """The second lift added to the first: a basis change of det 1."""
    return [tuple(k.add(x, y) for x, y in zip(qp.lifts[0], qp.lifts[1]))] + qp.lifts[1:]


def _moved_by_den(k, qp):
    """The first lift plus an element of den: the same basis mod den."""
    d = qp.den.krows[0]
    return [tuple(k.add(x, y) for x, y in zip(qp.lifts[0], d))] + qp.lifts[1:]


@pytest.mark.parametrize("name, change", [("Hodge", _sheared), ("conjugate", _sheared),
                                          ("Hodge", _moved_by_den)])
def test_lift_changes_of_det_1_keep_the_verdict(monkeypatch, name, change):
    expected = duality_check(_datum(), "ha_i", 0)
    D = _datum()
    _relifted(monkeypatch, D, name, change)
    assert duality_check(D, "ha_i", 0) == expected
    assert expected.equal


def test_the_adapted_hodge_transport_is_load_bearing(monkeypatch):
    """On this datum the adapted Hodge basis at i = 0 is the echelon basis
    transported by det -1, and Hodge and conjugate are complementary, so
    the natural det is nonzero: taking the transport as 1 breaks the pair."""
    D = _datum()
    original = invariants._transport_sub

    def taken_as_one(K, sub_k, qp):
        assert original(K, sub_k, qp) == K.from_int(-1)
        return K.one

    monkeypatch.setattr(invariants, "_transport_sub", taken_as_one)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "ha_i", 0)
    assert str(exc.value) == "transport of the Hodge natural det failed"


# ---------------------------------------------------------------------------
# natural descriptions, factorizations and the adapted basis's filtration


@pytest.mark.parametrize("name, idx, message", [
    ("_map_v_hodge", (0,), "V on the Hodge submodule disagrees with its natural description"),
    ("_map_m", (0, 2), "graded pi map disagrees with its boundary description"),
    ("_map_hasse", (0,), "boundary map disagrees with its natural description"),
])
def test_natural_description_fires_on_a_doubled_map(monkeypatch, name, idx, message):
    D = _datum()
    _on(monkeypatch, D.reduce(), name, _times_two)
    family = {"_map_v_hodge": "ha_i", "_map_m": "m", "_map_hasse": "hasse"}[name]
    with pytest.raises(InvariantViolation) as exc:
        section(D, family, *idx)
    assert str(exc.value) == message


def _patch_maps(monkeypatch, X0, match, defect):
    """Patch the induced-map builders invariants._induced and invariants._pi
    so that a map of the datum X0 with match(src, dst) has the matrix
    defect(k, matrix)."""
    for name in ("_induced", "_pi"):
        original = getattr(invariants, name)

        def patched(X, phi_or_s, src, dst, original=original):
            M = original(X, phi_or_s, src, dst)
            if X is X0 and match(src, dst):
                return SemilinearMap(defect(X0.params.k, M.matrix), M.twist)
            return M

        monkeypatch.setattr(invariants, name, patched)


def test_divided_f_map_fires_on_a_doubled_map(monkeypatch):
    original = invariants.induced_from_fun

    def doubled_division(fn, twist, src, dst):
        M = original(fn, twist, src, dst)
        # the divided F-map is the only induced map with twist +1
        if twist == 1:
            return SemilinearMap(_doubled(src.R.k, M.matrix), twist)
        return M

    monkeypatch.setattr(invariants, "induced_from_fun", doubled_division)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(_datum(), "hasse", 0)
    assert str(exc.value) == "divided F-map disagrees with its natural description"


def test_co_hodge_factorization_fires_on_a_doubled_f_map(monkeypatch):
    D = _datum()
    X = D.reduce()
    _patch_maps(monkeypatch, X, lambda src, dst: dst is invariants._qc(X, 0), _doubled)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "ha_i", 0)
    assert str(exc.value) == "co-Hodge F-map does not factor through the conjugate submodule"


def test_pi_power_isos_fire_on_a_doubled_iso(monkeypatch):
    D = _datum()
    X = D.reduce()
    # the target of the upper pi-power iso Ma1 at j = 2
    qcq = invariants._qp(X, aux_flag(X, 0)[0], extended_flag(X, 0)[1])
    _patch_maps(monkeypatch, X, lambda src, dst: dst is qcq, _doubled)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "m", 0, 2)
    assert str(exc.value) == "pi-power isos do not intertwine the upper pi map with inclusion"


@pytest.mark.parametrize("side, message", [
    ("primal", "graded V map does not factor through the boundary map"),
    ("dual", "dual graded V map does not factor through the boundary map"),
])
def test_ha_pr_factorization_fires_on_a_doubled_graded_map(monkeypatch, side, message):
    D = _datum()
    X0 = D.reduce() if side == "primal" else D.reduce().dual()
    _on(monkeypatch, X0, "_map_ha_pr", _times_two)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "ha_pr", 0, 1)
    assert str(exc.value) == message


def test_adapted_block_fires_on_a_doubled_graded_map(monkeypatch):
    D = _datum()
    _on(monkeypatch, D.reduce(), "_map_ha_pr", _times_two)
    with pytest.raises(InvariantViolation) as exc:
        section(D, "ha_i", 0)
    assert str(exc.value) == "adapted V block (1,1) disagrees with the graded map"


def test_filtration_fires_on_a_block_below_the_diagonal(monkeypatch):
    """V restricted to the Hodge submodule, in the adapted bases, with a 1
    put in block (2,1): V would carry a level-1 lift out of level 1."""
    D = _datum()
    d1 = D.params.d1

    def below(k, M):
        rows = [list(r) for r in M.rows]
        rows[d1][0] = k.one
        return Matrix(k, rows, n=M.n)

    X = D.reduce()
    qb0, qb1 = invariants._qb(X, 0), invariants._qb(X, 1)
    _patch_maps(monkeypatch, X, lambda src, dst: src is qb0 and dst is qb1, below)
    with pytest.raises(InvariantViolation) as exc:
        section(D, "ha_i", 0)
    assert str(exc.value) == "V does not respect the flag filtration"


def test_unit_fires_on_a_singular_conjugate_quotient_map(monkeypatch):
    D = _datum()
    X = D.reduce()
    _patch_maps(monkeypatch, X, lambda src, dst: src is invariants._qac(X, 0),
                lambda k, M: Matrix.zeros(k, M.m, M.n))
    with pytest.raises(InvariantViolation) as exc:
        section(D, "ha_i", 0)
    assert str(exc.value) == "V on the conjugate quotient must be invertible"


# ---------------------------------------------------------------------------
# the other eleven unit checks: a singular map of the primal datum, a
# singular Gram matrix or a degenerate adapted basis, each after a run of
# the same section or verdict on a fresh datum that passes


def _zeroed(k, M):
    return Matrix.zeros(k, M.m, M.n)


def _conj_tail(X):
    full = Submodule.full(X.params.R, X.params.h1)
    return invariants._qp(X, full, conj_flag(X, 0)[2 * X.params.e - 1])


def _co_top(X):
    full = Submodule.full(X.params.R, X.params.h1)
    return invariants._qp(X, full, extended_flag(X, 0)[2 * X.params.e - 1])


# (message, the map's (src, dst) at i = 0, j = e = 2, the section or verdict
# that reads it); the two upper-grade isos share a message, so each is the
# only singular map in its own case
UNIT_MAPS = {
    "pi-iso": ("pi-iso between divided and plain grades",
               lambda X: (invariants._qp(X, aux_flag(X, 0)[1], aux_flag(X, 0)[0]),
                          invariants._qgr(X, 0, 1)),
               (section, "m", 0, 2)),
    "conjugate-tail V": ("V on the conjugate-tail quotient",
                         lambda X: (_conj_tail(X), invariants._qgr(X, 1, X.params.e)),
                         (section, "hasse", 0)),
    "conjugate-tail pi": ("pi^(e-1) on the conjugate-tail quotient",
                          lambda X: (_conj_tail(X), invariants._qp(X, invariants._torsion(X, 1),
                                                                   conj_flag(X, 0)[1])),
                          (section, "hasse", 0)),
    "F onto conjugate": ("F onto the conjugate submodule",
                         lambda X: (invariants._qab(X, 1), invariants._qc(X, 0)),
                         (duality_check, "ha_i", 0)),
    "upper iso 1": ("upper-grade pi-power iso",
                    lambda X: (invariants._qgr(X, 0, 4),
                               invariants._qp(X, aux_flag(X, 0)[0], extended_flag(X, 0)[1])),
                    (duality_check, "m", 0, 2)),
    "upper iso 2": ("upper-grade pi-power iso",
                    lambda X: (invariants._qgr(X, 0, 3),
                               invariants._qp(X, aux_flag(X, 0)[1], extended_flag(X, 0)[2])),
                    (duality_check, "m", 0, 2)),
    "F onto first level": ("F onto the first conjugate level",
                           lambda X: (invariants._qgr(X, 1, X.params.e + 1),
                                      invariants._qp(X, conj_flag(X, 0)[1],
                                                     Submodule.zero(X.params.R, X.params.h1))),
                           (duality_check, "hasse", 0)),
    "co-top pi": ("pi^(e-1) on the co-top quotient",
                  lambda X: (_co_top(X), invariants._qp(X, invariants._torsion(X, 1),
                                                        extended_flag(X, 0)[1])),
                  (duality_check, "hasse", 0)),
}


@pytest.mark.parametrize("name", list(UNIT_MAPS))
def test_unit_fires_on_a_singular_map(monkeypatch, name):
    message, presentations, (entry, *args) = UNIT_MAPS[name]
    D = _datum()
    entry(D, *args)
    D = _datum()
    X = D.reduce()
    src0, dst0 = presentations(X)
    _patch_maps(monkeypatch, X, lambda src, dst: src is src0 and dst is dst0, _zeroed)
    with pytest.raises(InvariantViolation) as exc:
        entry(D, *args)
    assert str(exc.value) == message + " must be invertible"


@pytest.mark.parametrize("nth, family, name", [(1, ("m", 0, 2), "graded"),
                                               (2, ("hasse", 0), "boundary")], ids=["P1", "P2"])
def test_unit_fires_on_a_singular_gram_matrix(monkeypatch, nth, family, name):
    """The verdict's nth pairing, P1 or P2, is 0; the other stays perfect."""
    D = _datum()
    duality_check(D, *family)
    D = _datum()
    original = invariants.pairing_matrix
    calls = []

    def patched(form, left, right):
        P = original(form, left, right)
        calls.append(None)
        return _zeroed(left.R.k, P) if len(calls) == nth else P

    monkeypatch.setattr(invariants, "pairing_matrix", patched)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, *family)
    assert str(exc.value) == name + " residue pairing must be invertible"
    assert len(calls) == 2


def test_unit_fires_on_a_degenerate_adapted_hodge_basis(monkeypatch):
    """The transport reads the adapted Hodge basis with its first lift 0."""
    D = _datum()
    duality_check(D, "ha_i", 0)
    D = _datum()
    original = invariants._transport_sub

    def degenerate(K, sub_k, qp):
        qp = copy.copy(qp)
        qp.lifts = [tuple(K.zero for _ in qp.lifts[0])] + qp.lifts[1:]
        return original(K, sub_k, qp)

    monkeypatch.setattr(invariants, "_transport_sub", degenerate)
    with pytest.raises(InvariantViolation) as exc:
        duality_check(D, "ha_i", 0)
    assert str(exc.value) == "subspace basis transport must be invertible"
