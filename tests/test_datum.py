import collections
import random

import pytest

from hasseforge.datum import DieudonneDatum, LiftedDatum, Params
from hasseforge.errors import InvalidDatum, InvalidLift, InvalidSpec
from hasseforge.flags import aux_flag, conj_flag, extended_flag, pi_divisibility
from hasseforge.generate import random_datum
from hasseforge.kspace import annihilator
from hasseforge.linalg import Matrix, SemilinearMap, Submodule, pi_shift, random_matrix

from flag_dims import aux_dim, conj_dim, extended_dim


def wmat(W, rows):
    return Matrix(W, [[x for x in r] for r in rows])


def ram_split(p=3):
    # diag(1, pi^e) / diag(p, 1) with E = X^2 - p, so u = 1 and pi^2 = p
    par = Params(p, 1, 2, 2, 1, eisenstein=[(-p) % p**2, 0, 1])
    W = par.W
    pi2 = W.mul(W.uniformizer, W.uniformizer)
    F = wmat(W, [[W.one, W.zero], [W.zero, pi2]])
    V = wmat(W, [[W.from_int(p), W.zero], [W.zero, W.one]])
    R = par.R
    hodge_gen = (R.zero, R.one)
    lvl1 = Submodule.span(R, 2, [(R.zero, R.uniformizer)])
    flag = [Submodule.zero(R, 2), lvl1, Submodule.span(R, 2, [hodge_gen])]
    return LiftedDatum(par, [F], [V], pr_flags=[flag])


def ram_ss(p=3):
    par = Params(p, 1, 2, 2, 1, eisenstein=[(-p) % p**2, 0, 1])
    W = par.W
    M = wmat(W, [[W.zero, W.one], [W.from_int(p), W.zero]])
    R = par.R
    hodge = Submodule.span(R, 2, [(R.one, R.zero)])
    lvl1 = Submodule.span(R, 2, [(R.uniformizer, R.zero)])
    flag = [Submodule.zero(R, 2), lvl1, hodge]
    return LiftedDatum(par, [M], [M], pr_flags=[flag])


def ram_pi(p=3):
    par = Params(p, 1, 2, 2, 1, eisenstein=[(-p) % p**2, 0, 1])
    W = par.W
    M = wmat(W, [[W.uniformizer, W.zero], [W.zero, W.uniformizer]])
    R = par.R
    hodge = Submodule.span(R, 2, [(R.uniformizer, R.zero), (R.zero, R.uniformizer)])
    lvl1 = Submodule.span(R, 2, [(R.uniformizer, R.zero)])
    flag = [Submodule.zero(R, 2), lvl1, hodge]
    return LiftedDatum(par, [M], [M], pr_flags=[flag])


def unram_f2_ordinary(p=2):
    par = Params(p, 2, 1, 2, 1)
    W = par.W
    F = wmat(W, [[W.one, W.zero], [W.zero, W.from_int(p)]])
    V = wmat(W, [[W.from_int(p), W.zero], [W.zero, W.one]])
    return LiftedDatum(par, [F, F], [V, V])


def unram_f2_ss(p=2):
    par = Params(p, 2, 1, 2, 1)
    W = par.W
    M = wmat(W, [[W.zero, W.one], [W.from_int(p), W.zero]])
    return LiftedDatum(par, [M, M], [M, M])


ALL_INSTANCES = [ram_split, ram_ss, ram_pi, unram_f2_ordinary, unram_f2_ss]


def test_params_validation():
    Params(2, 1, 1, 1, 0)
    Params(7, 2, 1, 3, 2)
    with pytest.raises(InvalidSpec):
        Params(9, 1, 1, 2, 1)
    with pytest.raises(InvalidSpec):
        Params(3, 0, 1, 2, 1)
    with pytest.raises(InvalidSpec):
        Params(3, 1, 0, 2, 1)
    with pytest.raises(InvalidSpec):
        Params(3, 1, 1, 2, 3)
    with pytest.raises(InvalidSpec):
        Params(3, 1, 1, 0, 0)


def test_lifted_instances_validate():
    for make in ALL_INSTANCES:
        L = make()
        D = L.reduce()
        par = L.params
        for i in range(par.f):
            assert len(D.hodge(i).krows) == par.e * par.d1
            assert len(D.conj(i).krows) == par.e * (par.h1 - par.d1)


def test_lift_violations():
    par = Params(3, 1, 2, 2, 1, eisenstein=[6, 0, 1])
    W = par.W
    I = Matrix.identity(W, 2)
    with pytest.raises(InvalidLift):
        LiftedDatum(par, [I], [I])
    # exact p-relations but hodge rank inconsistent with d1
    par2 = Params(3, 1, 2, 2, 0, eisenstein=[6, 0, 1])
    W = par2.W
    pi2 = W.mul(W.uniformizer, W.uniformizer)
    F = wmat(W, [[W.one, W.zero], [W.zero, pi2]])
    V = wmat(W, [[W.from_int(3), W.zero], [W.zero, W.one]])
    with pytest.raises(InvalidLift):
        LiftedDatum(par2, [F], [V], pr_flags=[[Submodule.zero(par2.R, 2)] * 3])
    # F = diag(1, p), V = [[p, 0], [p, 1]]: F V = p I, but V F = [[p, 0], [p, p]]
    par3 = Params(3, 1, 1, 2, 1)
    W, R = par3.W, par3.R
    p = W.from_int(3)
    F = wmat(W, [[W.one, W.zero], [W.zero, p]])
    V = wmat(W, [[p, W.zero], [p, W.one]])
    flag = [Submodule.zero(R, 2), Submodule.span(R, 2, [(R.zero, R.one)])]
    with pytest.raises(InvalidLift) as exc:
        LiftedDatum(par3, [F], [V], pr_flags=[flag])
    assert str(exc.value) == "V F != p at index 0"


def test_axiom_violations():
    par = Params(2, 1, 1, 2, 1)
    R = par.R
    I = Matrix.identity(R, 2)
    with pytest.raises(InvalidDatum):
        DieudonneDatum(par, [I], [I])
    # valid kernel/image relation but wrong hodge rank for d1 = 0
    par0 = Params(2, 1, 1, 2, 0)
    R0 = par0.R
    N = Matrix(R0, [[R0.zero, R0.one], [R0.zero, R0.zero]])
    with pytest.raises(InvalidDatum):
        DieudonneDatum(par0, [N], [N])


def test_validate_applies_f_and_v_once_per_generator(monkeypatch):
    """F kills im V and V kills im F, R-submodules, when they kill their
    generators: validate applies F[i] once per generator of im V[i] =
    hodge(i-1) and V[i] once per generator of im F[i] = conj(i)."""
    D = random_datum(Params(3, 2, 3, 3, 1), random.Random(5), lifted=False)
    f = D.params.f
    expected = collections.Counter()
    for i in range(f):
        expected[id(D.F[i])] = len(D.hodge(i - 1).gens())
        expected[id(D.V[i])] = len(D.conj(i).gens())
    assert sum(expected.values()) < sum(len(D.hodge(i).krows) + len(D.conj(i).krows)
                                        for i in range(f))
    calls = collections.Counter()
    apply_k = SemilinearMap.apply_k

    def counted(self, kv):
        calls[id(self)] += 1
        return apply_k(self, kv)

    monkeypatch.setattr(SemilinearMap, "apply_k", counted)
    D.validate()
    assert calls == expected


def test_flag_violations():
    L = ram_split()
    par = L.params
    R = par.R
    Fm = [L.reduce().F[0].matrix]
    Vm = [L.reduce().V[0].matrix]
    hodge = L.reduce().hodge(0)
    zero = Submodule.zero(R, 2)
    good_lvl1 = Submodule.span(R, 2, [(R.zero, R.uniformizer)])

    def message(par, Fm, Vm, pr_flags):
        with pytest.raises(InvalidDatum) as exc:
            DieudonneDatum(par, Fm, Vm, pr_flags=pr_flags)
        return str(exc.value)

    assert message(par, Fm, Vm, None) == "flag data is required when e > 1"
    assert message(par, Fm, Vm, [[zero, good_lvl1]]) == "flag at index 0 must have levels 0..e"
    bad_top = Submodule.span(R, 2, [(R.uniformizer, R.zero), (R.zero, R.uniformizer)])
    assert (message(par, Fm, Vm, [[zero, good_lvl1, bad_top]])
            == "flag at index 0 does not end at the hodge submodule")
    # R (0,1) is not killed by pi, but its k-dimension 2 != d1 is met first
    bad_lvl1 = Submodule.span(R, 2, [(R.zero, R.one)])
    assert (message(par, Fm, Vm, [[zero, bad_lvl1, hodge]])
            == "flag at index 0 has wrong dimension at level 1")
    not_nested = Submodule.span(R, 2, [(R.uniformizer, R.zero)])
    assert (message(par, Fm, Vm, [[zero, not_nested, hodge]])
            == "flag at index 0 is not nested at level 2")
    # F = 0, V = I at d1 = h1: hodge = R^2, and R e1 is nested with
    # k-dimension d1 = 2, but pi * R e1 is not in level 0 = 0
    par = Params(3, 1, 2, 2, 2)
    R = par.R
    Re1 = Submodule.span(R, 2, [(R.one, R.zero)])
    assert (message(par, [Matrix.zeros(R, 2, 2)], [Matrix.identity(R, 2)],
                    [[Submodule.zero(R, 2), Re1, Submodule.full(R, 2)]])
            == "flag at index 0 is not pi-compatible at level 1")


def test_annihilator_perfect():
    rng = random.Random(11)
    for make in (ram_split, unram_f2_ss):
        par = make().params
        R, n = par.R, 3
        full = Submodule.full(R, n)
        zero = Submodule.zero(R, n)
        assert annihilator(R, n, zero) == full
        assert annihilator(R, n, full) == zero
        for _ in range(25):
            S = Submodule.span(R, n, random_matrix(R, rng.randrange(4), n, rng).rows)
            A = annihilator(R, n, S)
            assert len(S.krows) + len(A.krows) == n * R.e
            assert annihilator(R, n, A) == S


def test_dual_instances_and_biduality():
    for make in ALL_INSTANCES:
        L = make()
        Ld = L.dualize()
        assert Ld.dualize() == L
        D = L.reduce()
        Dd = D.dualize()
        assert Dd.dualize() == D
        par = L.params
        for i in range(par.f):
            assert Dd.hodge(i) == annihilator(par.R, par.h1, D.hodge(i))
            assert Dd.conj(i) == annihilator(par.R, par.h1, D.conj(i))


def test_dual_is_built_once_and_shares_its_table():
    for make in ALL_INSTANCES:
        D = make().reduce()
        Dd = D.dual()
        assert Dd is D.dual() and Dd.dual() is D
        assert Dd == D.dualize()
        assert Dd.memo("shared", dict) is D.memo("shared", dict)


def test_dual_reduce_commute():
    for make in ALL_INSTANCES:
        L = make()
        assert L.dualize().reduce() == L.reduce().dualize()


def test_lifted_dualize_validates_once(monkeypatch):
    # the dual's reduction is validated once; the lift's F V = V F = p still runs
    calls = {DieudonneDatum: 0, LiftedDatum: 0}
    for cls in calls:
        def counted(self, _cls=cls, _validate=cls.validate):
            calls[_cls] += 1
            return _validate(self)
        monkeypatch.setattr(cls, "validate", counted)
    for make in ALL_INSTANCES:
        L = make()
        calls.update({DieudonneDatum: 0, LiftedDatum: 0})
        L.dualize()
        assert calls == {DieudonneDatum: 1, LiftedDatum: 1}


def test_flag_dims_and_nesting():
    for make in ALL_INSTANCES:
        D = make().reduce()
        par = D.params
        for i in range(par.f):
            ext = extended_flag(D, i)
            assert len(ext) == 2 * par.e + 1
            assert ext[-1] == Submodule.full(par.R, par.h1)
            for j, S in enumerate(ext):
                assert len(S.krows) == extended_dim(par, j)
                if j:
                    assert S.contains_sub(ext[j - 1])
            aux = aux_flag(D, i)
            for j, S in enumerate(aux):
                assert len(S.krows) == aux_dim(par, j)
                assert S.contains_sub(ext[j])
            ft = conj_flag(D, i)
            assert ft[0] == Submodule.zero(par.R, par.h1)
            assert ft[par.e] == D.conj(i)
            assert ft[-1] == Submodule.full(par.R, par.h1)
            for j, S in enumerate(ft):
                assert len(S.krows) == conj_dim(par, j)
                if j:
                    assert S.contains_sub(ft[j - 1])


def test_conj_flag_solves_only_the_upper_preimages(monkeypatch):
    """Level e is the datum's im F, which validation has matched with
    ker V, and level 2e is all of E_i, the previous extended level 2e, so
    the flag makes e-1 V-preimage solves, of extended levels 1..e-1."""
    solves = []
    preimage = SemilinearMap.preimage

    def counting_preimage(self, T):
        solves.append(self)
        return preimage(self, T)

    monkeypatch.setattr(SemilinearMap, "preimage", counting_preimage)
    for make in ALL_INSTANCES:
        D = make().reduce()
        for i in range(D.params.f):
            del solves[:]
            ft = conj_flag(D, i)
            assert len(solves) == D.params.e - 1
            assert all(V is D.V[i] for V in solves)
            assert ft[D.params.e] is D.conj(i)


def test_pi_divisibility_on_reductions():
    for make in ALL_INSTANCES:
        D = make().reduce()
        for i in range(D.params.f):
            assert pi_divisibility(D, i)


def test_flag_duality():
    for make in ALL_INSTANCES:
        D = make().reduce()
        Dd = D.dualize()
        par = D.params
        for i in range(par.f):
            ext = extended_flag(D, i)
            extd = extended_flag(Dd, i)
            for j in range(2 * par.e + 1):
                assert extd[j] == annihilator(par.R, par.h1, ext[2 * par.e - j])
            ft = conj_flag(D, i)
            ftd = conj_flag(Dd, i)
            for j in range(2 * par.e + 1):
                assert ftd[j] == annihilator(par.R, par.h1, ft[2 * par.e - j])


def test_pi_power_is_a_digit_shift():
    rng = random.Random(4)
    for shape in [(3, 1, 3, 2, 1), (2, 2, 2, 3, 1), (5, 1, 1, 2, 1)]:
        par = Params(*shape)
        R, N = par.R, par.h1 * par.e
        for s in range(R.e + 1):
            # the restricted k-matrix of pi^s * I
            dense = SemilinearMap(Matrix.identity(R, par.h1).scale(R.pi_pow(s)), 0)
            for _ in range(10):
                v = [R.k.random_element(rng) for _ in range(N)]
                assert pi_shift(v, R.e, s) == dense.apply_k(v)


def test_pi_preimages_are_solved_once_per_document(monkeypatch):
    """The extended and auxiliary flags of a datum and of its dual solve
    each pi^(-s)(X) once: aux level e-1 is extended level e+1, and the dual
    reuses pi^(-e)(0) and pi^(-1)(0)."""
    solved = collections.Counter()
    pi_preimage = Submodule.pi_preimage

    def counting(self, s):
        solved[s, self] += 1
        return pi_preimage(self, s)

    monkeypatch.setattr(Submodule, "pi_preimage", counting)
    rng = random.Random(2)
    for shape in [(3, 1, 3, 3, 1), (2, 2, 2, 2, 1)]:
        D = random_datum(Params(*shape), rng, lifted=False)
        solved.clear()
        for datum in (D, D.dual()):
            for i in range(D.params.f):
                extended_flag(datum, i)
                aux_flag(datum, i)
        e = D.params.e
        zero = Submodule.zero(D.params.R, D.params.h1)
        assert solved[e, zero] == solved[1, zero] == 1
        assert max(solved.values()) == 1
        # per index and datum: e extended levels and e aux levels, one shared
        assert sum(solved.values()) < 2 * D.params.f * (2 * e - 1)
