import collections
import random

import pytest

from hasseforge import invariants, kspace
from hasseforge.datum import DieudonneDatum, Params
from hasseforge.errors import InvalidSpec
from hasseforge.flags import pi_divisibility
from hasseforge.generate import named_instance, random_charp, random_lifted
from hasseforge.invariants import (DualityVerdict, LineSection, all_sections,
                                   all_verdicts, check_pi_divisibility,
                                   duality_check, factorization_check,
                                   family_indices, product_identity_check,
                                   section, vanishing_pattern)
from hasseforge.linalg import Matrix, SemilinearMap, Submodule

import oracle


def scalars(D):
    return {(s.name, s.i, s.j): s.scalar for s in all_sections(D)}


def gate_fail_witness():
    # V = pi * I with a twisted F: no valid flag on this pair satisfies the
    # conjugate-chain divisibility, so boundary-map verdicts cannot run
    par = Params(2, 1, 2, 2, 1)
    R = par.R
    pi = R.uniformizer
    F = Matrix(R, [[R.zero, pi], [pi, pi]])
    V = Matrix(R, [[pi, R.zero], [R.zero, pi]])
    lvl1 = Submodule.span(R, 2, [(R.zero, pi)])
    hodge = Submodule.span(R, 2, [(pi, R.zero), (R.zero, pi)])
    flag = [Submodule.zero(R, 2), lvl1, hodge]
    return DieudonneDatum(par, [F], [V], pr_flags=[flag])


def test_ord_split_values():
    D = named_instance("ord-split")
    k = D.params.k
    got = scalars(D)
    assert got[("ha", None, None)] == k.one
    assert got[("ha_i", 0, None)] == k.one
    assert got[("ha_pr", 0, 1)] == k.one


def test_ss_vanishes():
    D = named_instance("ss")
    assert section(D, "ha").vanished
    assert section(D, "ha_i", 0).vanished


def test_ram_split_all_units():
    D = named_instance("ram-split")
    k = D.params.k
    for s in all_sections(D):
        assert s.scalar == k.one, s
        assert not s.vanished


def test_ram_ss_values():
    D = named_instance("ram-ss")
    k = D.params.k
    got = scalars(D)
    assert got[("ha", None, None)] == k.zero
    assert got[("ha_i", 0, None)] == k.zero
    assert got[("m", 0, 2)] == k.one
    assert got[("hasse", 0, None)] == k.zero
    assert got[("ha_pr", 0, 1)] == k.zero
    assert got[("ha_pr", 0, 2)] == k.zero


def test_ram_pi_values():
    D = named_instance("ram-pi")
    for s in all_sections(D):
        assert s.vanished, s


def test_unram_f2_values():
    D = named_instance("unram-f2")
    k = D.params.k
    assert section(D, "ha").scalar == k.one
    assert section(D, "ha_i", 0).scalar == k.one
    assert section(D, "ha_i", 1).scalar == k.one


def test_section_metadata():
    D = named_instance("ram-ss")
    s = section(D, "m", 0, 2)
    assert isinstance(s, LineSection)
    assert (s.name, s.i, s.j) == ("m", 0, 2)
    assert s.line and all(len(t) == 3 for t in s.line)
    h = section(D, "hasse", 0)
    assert h.line[0][1] == D.params.p  # twisted factor carries the p-power


def test_index_wrapping_and_ranges():
    D = named_instance("ram-split")
    assert section(D, "ha_i", 5).scalar == section(D, "ha_i", 0).scalar
    with pytest.raises(InvalidSpec):
        section(D, "m", 0, 1)
    with pytest.raises(InvalidSpec):
        section(D, "m", 0, 3)
    e = D.params.e
    for bad in (lambda: section(D, "ha_pr", 0, 0),
                lambda: section(D, "ha_pr", 0, e + 1),
                lambda: factorization_check(D, 0, 0),
                lambda: factorization_check(D, 0, e + 1),
                lambda: duality_check(D, "nope"),
                lambda: duality_check(D, "ha_i"),  # missing index
                lambda: duality_check(D, "m", 0),  # missing level
                lambda: duality_check(D, "m", 0, 1),
                lambda: duality_check(D, "ha_pr", 0, e + 1),
                lambda: section(D, "nope"),
                lambda: section(D, "hasse"),  # missing index
                lambda: section(D, "ha_pr", 0),  # missing level
                lambda: section(D, "ha", 3),  # spare embedding index
                lambda: section(D, "ha_i", 0, 1),  # spare level
                lambda: section(D, "hasse", 0, 2),
                lambda: duality_check(D, "ha", None, 1),
                lambda: duality_check(D, "ha_i", 0, 7)):
        with pytest.raises(InvalidSpec):
            bad()
    # hasse is not listed at e = 1 but still answers there
    v = duality_check(named_instance("ord-split"), "hasse", 0)
    assert v.status == "ok" and v.equal
    assert section(named_instance("ord-split"), "hasse", 0).scalar == v.scalar_G


def test_duality_needs_proper_rank():
    par = Params(2, 1, 1, 2, 0)
    W = par.W
    F = Matrix(W, [[W.one, W.zero], [W.zero, W.one]])
    V = Matrix(W, [[W.from_int(2), W.zero], [W.zero, W.from_int(2)]])
    from hasseforge.datum import LiftedDatum
    D = LiftedDatum(par, [F], [V])
    with pytest.raises(InvalidSpec):
        duality_check(D, "ha")


def test_named_verdicts_all_ok():
    for name in ("ord-split", "ss", "ram-split", "ram-ss", "ram-pi", "unram-f2"):
        D = named_instance(name)
        for v in all_verdicts(D):
            assert isinstance(v, DualityVerdict)
            assert v.status == "ok", (name, v)
            assert v.equal, (name, v)
            assert v.canonical_iso_scalar != D.params.k.zero


def test_lifted_and_reduction_agree():
    L = named_instance("ram-ss")
    D = L.reduce()
    assert scalars(L) == scalars(D)
    vL = duality_check(L, "ha")
    vD = duality_check(D, "ha")
    assert vL == vD


def test_memoized_objects():
    D = named_instance("ram-split")
    assert duality_check(D, "ha_i", 0) is duality_check(D, "ha_i", 0)
    assert section(D, "ha_i", 0) == section(D, "ha_i", 0)


def test_pi_divisibility_named():
    for name in ("ram-split", "ram-ss", "ram-pi"):
        L = named_instance(name)
        assert check_pi_divisibility(L, 0)


def test_factorization_and_product_named():
    for name in ("ord-split", "ss", "ram-split", "ram-ss", "ram-pi", "unram-f2"):
        D = named_instance(name)
        p = D.params
        for i in range(p.f):
            for j in range(1, p.e + 1):
                assert factorization_check(D, i, j), (name, i, j)
        assert product_identity_check(D), name


def test_gate_fail_witness_behavior():
    D = gate_fail_witness()
    assert not check_pi_divisibility(D, 0)
    # sections still compute
    assert section(D, "hasse", 0).scalar == D.params.k.zero
    v = duality_check(D, "hasse", 0)
    assert v.status == "not_applicable"
    assert v.canonical_iso_scalar is None
    assert not v.equal
    vpr = duality_check(D, "ha_pr", 0, 1)
    assert vpr.status == "not_applicable"
    # the ungated verdicts still succeed
    for name, i, j in (("ha", None, None), ("ha_i", 0, None), ("m", 0, 2)):
        w = duality_check(D, name, i, j)
        assert w.status == "ok" and w.equal, (name, w)
    # factorization is pure torsion arithmetic, no gate involved
    assert factorization_check(D, 0, 1)
    assert factorization_check(D, 0, 2)
    assert product_identity_check(D)


def test_pi_divisibility_fails_on_a_broken_division_identity():
    # 2V has the same kernel, image and preimages as V, so the flags and
    # their divisibility are untouched, but V(F(x)/pi^j) doubles
    for L in (named_instance("ram-pi"), random_lifted(Params(3, 1, 2, 2, 1), random.Random(3))):
        red = L.reduce()
        R = red.params.R
        assert check_pi_divisibility(L, 0)
        red.V = tuple(SemilinearMap(v.matrix.scale(R.from_int(2)), -1) for v in red.V)
        assert pi_divisibility(red, 0)
        assert not check_pi_divisibility(L, 0)


def test_pi_divisibility_is_checked_exactly_on_a_kbasis(monkeypatch):
    """The division identity is applied once per vector of a k-basis of
    S_1 = F^-1(pi R^h1), assembled level by level from S_e down (level
    j+1's identity times pi is level j's on S_(j+1) inside S_j), and
    never draws from a random source."""

    class NoDraws:
        def __getattribute__(self, name):
            raise AssertionError("rng.%s was used" % name)

    L = random_lifted(Params(3, 1, 3, 3, 1), random.Random(0))
    red = L.reduce()
    p = red.params
    basis = len(red.F[0].preimage(Submodule.full(p.R, p.h1).pi_times(1)).krows)
    assert basis == 8
    on_v = []
    apply_k = SemilinearMap.apply_k

    def counting_apply_k(self, kv):
        on_v.append(self is red.V[0])
        return apply_k(self, kv)

    monkeypatch.setattr(SemilinearMap, "apply_k", counting_apply_k)
    assert check_pi_divisibility(L, 0, NoDraws())
    assert on_v.count(True) == basis


def _unit_of_R(k, e, rng):
    c0 = 0
    while not c0:
        c0 = k.random_element(rng)
    return (c0,) + tuple(k.random_element(rng) for _ in range(e - 1))


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_pi_divisibility_by_descent_agrees_with_every_row(monkeypatch, e):
    """The level-by-level check against oracle's test of every row of
    every S_j, on lifts and on mutants that scale V by a unit of R or move
    one coefficient of u.  Scaling by 1 + c pi^(e-1) or moving only u's
    pi^(e-1) coefficient leaves the identity intact."""
    verdicts = collections.Counter()
    for shape in [(2, 1, e, 2, 1), (3, 1, e, 3, 1), (5, 2, e, 2, 1), (3, 2, e, 3, 2)]:
        if shape[1] * e * shape[3] > 64:
            continue
        for mutant in ("none", "V unit", "V 1+pi^(e-1)", "u constant", "u top"):
            for seed in range(2):
                rng = random.Random(seed)
                par = Params(*shape)
                L = random_lifted(par, rng)
                red = L.reduce()
                k = par.k
                c = k.random_element(rng) or k.one
                if mutant.startswith("V"):
                    unit = (_unit_of_R(k, e, rng) if mutant == "V unit"
                            else (k.one,) + (k.zero,) * (e - 2) + (c,))
                    red.V = tuple(SemilinearMap(v.matrix.scale(unit), v.twist) for v in red.V)
                elif mutant.startswith("u"):
                    u = list(par.W.reduce(par.tower.unit_u))
                    t = 0 if mutant == "u constant" else e - 1
                    u[t] = k.add(u[t], c)
                    monkeypatch.setattr(par.tower, "unit_u", par.W.lift(tuple(u)))
                for i in range(par.f):
                    got = check_pi_divisibility(L, i)
                    assert got == oracle.pi_division_identity_on_every_row(L, i), \
                        (shape, mutant, seed, i)
                    if mutant in ("none", "V 1+pi^(e-1)", "u top"):
                        assert got, (shape, mutant, seed, i)
                    verdicts[got] += 1
                monkeypatch.undo()
    assert verdicts[True] and verdicts[False]


def test_maps_are_applied_on_flat_vectors_only(monkeypatch):
    """Induced maps, the boundary map and the pi-divisibility check apply
    every semilinear map through its cached restriction, never entrywise
    over R, and each map restricts once."""

    def no_apply(self, v):
        raise AssertionError("SemilinearMap.apply was called")

    restrictions = collections.defaultdict(list)  # (matrix, twist) -> distinct ones
    kcols = SemilinearMap.kcols

    def recording_kcols(self):
        cols = kcols(self)
        seen = restrictions[self.matrix, self.twist]
        if not any(c is cols for c in seen):
            seen.append(cols)
        return cols

    for D in (random_lifted(Params(3, 1, 3, 3, 1), random.Random(0)),
              random_lifted(Params(2, 2, 2, 2, 1), random.Random(1)), gate_fail_witness()):
        monkeypatch.setattr(SemilinearMap, "apply", no_apply)
        monkeypatch.setattr(SemilinearMap, "kcols", recording_kcols)
        restrictions.clear()
        all_verdicts(D)
        all_sections(D)
        for i in range(D.params.f):
            check_pi_divisibility(D, i)
        monkeypatch.undo()
        assert restrictions and all(len(seen) == 1 for seen in restrictions.values())


def test_verdicts_build_each_presentation_and_map_once(monkeypatch):
    """all_verdicts, the dual datum's maps and verdicts included, builds
    no quotient presentation twice for one (num, den) and no induced map
    twice for one (matrix, twist, src, dst)."""
    built = collections.Counter()
    present = kspace.QuotientPresentation.__init__
    induce = invariants.induced_semilinear

    def counting_present(self, R, n, num, den):
        built["qp", num, den] += 1
        present(self, R, n, num, den)

    def counting_induce(phi, src, dst):
        built["map", phi.matrix, phi.twist, src, dst] += 1
        return induce(phi, src, dst)

    monkeypatch.setattr(kspace.QuotientPresentation, "__init__", counting_present)
    monkeypatch.setattr(invariants, "induced_semilinear", counting_induce)
    for D in (random_lifted(Params(3, 1, 3, 3, 1), random.Random(0)), gate_fail_witness()):
        built.clear()
        all_verdicts(D)
        assert built
        assert [key[0] for key, count in built.items() if count > 1] == []


# the memo name of each family's natural description
NAT_KEYS = {"ha_i": "v_hodge", "m": "m", "hasse": "hasse"}


def _nat_entries(D):
    return {key for key in D._cache if isinstance(key, tuple) and key[0] == "nat"}


def _nat_key(name, idx):
    return ("nat", NAT_KEYS[name]) + tuple(idx)


def _every_nat_key(p):
    return {_nat_key(name, idx) for name in NAT_KEYS for idx in family_indices(name, p)}


def test_verdicts_build_no_dual_natural_description():
    """A verdict whose unit applies reads the dual scalar off the bare dual
    map, which the unit's adjunction or factorization check has pinned, so
    after all_verdicts the primal memo holds every natural description and
    the dual memo only those behind not_applicable rows.  Reading the dual
    itself builds and checks them all, and agrees with every verdict."""
    rng = random.Random(2024)
    data = [gate_fail_witness()]
    for shape in [(2, 1, 2, 2, 1), (3, 2, 2, 2, 1), (5, 1, 3, 3, 2), (2, 2, 3, 3, 1),
                  (3, 1, 3, 2, 1)]:
        data += [random_lifted(Params(*shape), rng), random_charp(Params(*shape), rng)]
    behind_any = 0
    for D in data:
        red = D.reduce()
        verdicts = all_verdicts(D)
        assert _nat_entries(red) == _every_nat_key(red.params)
        behind = {_nat_key(v.name, [x for x in (v.i, v.j) if x is not None]) for v in verdicts
                  if v.status == "not_applicable" and v.name in NAT_KEYS}
        behind_any += len(behind)
        Dd = red.dual()
        assert _nat_entries(Dd) == behind
        for v in verdicts:
            assert section(Dd, v.name, v.i, v.j).scalar == v.scalar_GD, v
        all_sections(Dd)
        assert _nat_entries(Dd) == _every_nat_key(Dd.params)
    assert behind_any


def test_gate_fail_witness_has_no_divisible_flag():
    # every valid level-1 choice on this (F, V) pair fails the chain:
    # the defect is in the matrices, not the sampled flag
    base = gate_fail_witness()
    par = base.params
    R = par.R
    k = par.k
    pi = R.uniformizer
    from hasseforge.flags import pi_divisibility
    lines = []
    for a in range(k.q):
        for b in range(k.q):
            if a == 0 and b == 0:
                continue
            gen = (R.mul(pi, R.from_int(a)), R.mul(pi, R.from_int(b)))
            S = Submodule.span(R, 2, [gen])
            if S.rows not in [t.rows for t in lines]:
                lines.append(S)
    assert lines
    for lvl1 in lines:
        flag = [Submodule.zero(R, 2), lvl1, base.hodge(0)]
        D = DieudonneDatum(par, [base.F[0].matrix], [base.V[0].matrix],
                           pr_flags=[flag])
        assert not pi_divisibility(D, 0)


CAMPAIGN_SHAPES = [
    (2, 1, 1, 2, 1), (3, 1, 1, 3, 1), (5, 1, 1, 2, 1),
    (2, 2, 1, 2, 1), (3, 3, 1, 2, 1), (2, 3, 1, 3, 2),
    (2, 1, 2, 2, 1), (3, 1, 2, 2, 1), (3, 1, 2, 3, 2),
    (2, 2, 2, 2, 1), (2, 1, 3, 2, 1), (5, 1, 2, 2, 1),
]


def test_random_campaign_verdicts():
    rng = random.Random(417)
    for shape in CAMPAIGN_SHAPES:
        par = Params(*shape)
        for lifted in (True, False):
            for _ in range(3):
                D = random_lifted(par, rng) if lifted else random_charp(par, rng)
                for v in all_verdicts(D):
                    if v.status == "ok":
                        assert v.equal, (shape, lifted, v)
                    else:
                        assert not lifted, (shape, v)
                assert product_identity_check(D), shape
                for i in range(par.f):
                    assert factorization_check(D, i, par.e), (shape, i)
                    if lifted:
                        assert check_pi_divisibility(D, i), (shape, i)


def test_vanishing_pattern_dual_invariance():
    rng = random.Random(88)
    for shape in [(3, 1, 2, 2, 1), (2, 2, 1, 2, 1), (3, 1, 1, 3, 1), (2, 1, 3, 2, 1)]:
        par = Params(*shape)
        for _ in range(4):
            D = random_lifted(par, rng)
            Dd = D.dualize()
            pat, patd = vanishing_pattern(D), vanishing_pattern(Dd)
            assert pat == patd, shape


def test_vanishing_pattern_shape():
    D = named_instance("ram-ss")
    pat = vanishing_pattern(D)
    assert pat == {
        "ha": True,
        "ha_i": (True,),
        "m": ((False,),),
        "hasse": (True,),
        "ha_pr": ((True, True),),
    }


def test_deterministic_recomputation():
    a = named_instance("ram-ss")
    b = named_instance("ram-ss")
    assert [repr(s) for s in all_sections(a)] == [repr(s) for s in all_sections(b)]
    assert [repr(v) for v in all_verdicts(a)] == [repr(v) for v in all_verdicts(b)]
