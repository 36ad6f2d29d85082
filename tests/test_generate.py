import random

import pytest

from hasseforge.datum import DieudonneDatum, LiftedDatum, Params
from hasseforge.errors import InvalidSpec
from hasseforge.generate import (NAMED_INSTANCES, named_instance,
                                 random_charp, random_datum, random_lifted,
                                 sample_flag)
from hasseforge.invariants import section

from flag_dims import extended_dim


SHAPES = [
    (2, 1, 1, 2, 1), (3, 2, 1, 2, 1), (2, 1, 2, 2, 1),
    (3, 1, 2, 3, 2), (2, 2, 2, 2, 1), (2, 1, 3, 3, 1), (7, 1, 2, 2, 1),
]


def test_random_lifted_validates():
    rng = random.Random(31)
    for shape in SHAPES:
        par = Params(*shape)
        for _ in range(3):
            L = random_lifted(par, rng)
            assert isinstance(L, LiftedDatum)
            L.validate()
            D = L.reduce()
            D.validate()
            for i in range(par.f):
                assert len(D.hodge(i).krows) == par.e * par.d1


def test_random_charp_validates():
    rng = random.Random(32)
    for shape in SHAPES:
        par = Params(*shape)
        for _ in range(3):
            D = random_charp(par, rng)
            assert isinstance(D, DieudonneDatum)
            D.validate()
            for i in range(par.f):
                ext = [len(s.krows) for s in D.pr_flags[i]]
                assert ext == [extended_dim(par, j) for j in range(par.e + 1)]


def test_random_datum_dispatch():
    par = Params(2, 1, 2, 2, 1)
    rng = random.Random(9)
    assert isinstance(random_datum(par, rng, lifted=True), LiftedDatum)
    assert isinstance(random_datum(par, rng, lifted=False), DieudonneDatum)


def test_sample_flag_properties():
    rng = random.Random(5)
    par = Params(2, 1, 3, 3, 2)
    for _ in range(5):
        D = random_charp(par, rng)
        omega = D.hodge(0)
        flag = sample_flag(par.R, omega, par.d1, rng)
        assert len(flag) == par.e + 1
        assert flag[0] == type(flag[0]).zero(par.R, par.h1)
        assert flag[par.e] == omega
        for j in range(1, par.e + 1):
            assert len(flag[j].krows) == j * par.d1
            assert flag[j].contains_sub(flag[j - 1])
            assert flag[j - 1].contains_sub(flag[j].pi_times(1))
    # at e = 1 the flag is forced to (0, omega), and no draw is made
    par = Params(3, 2, 1, 3, 1)
    omega = random_charp(par, rng).hodge(0)
    state = rng.getstate()
    assert sample_flag(par.R, omega, par.d1, rng) == [type(omega).zero(par.R, par.h1), omega]
    assert rng.getstate() == state


def test_determinism():
    par = Params(3, 1, 2, 2, 1)
    a = random_lifted(par, random.Random(123))
    b = random_lifted(par, random.Random(123))
    assert a == b
    c = random_charp(par, random.Random(123))
    d = random_charp(par, random.Random(123))
    assert c == d
    e = random_lifted(par, random.Random(124))
    assert a != e


def test_named_instances():
    assert NAMED_INSTANCES == ("ord-split", "ram-pi", "ram-split", "ram-ss",
                               "ss", "unram-f2")
    for name in NAMED_INSTANCES:
        L = named_instance(name)
        assert isinstance(L, LiftedDatum)
        L.validate()
        L.reduce().validate()
    with pytest.raises(InvalidSpec):
        named_instance("no-such-thing")


def test_variety_of_outcomes():
    # the sampler must reach both vanishing and non-vanishing strata
    par = Params(3, 1, 2, 2, 1)
    rng = random.Random(1000)
    seen = set()
    for _ in range(30):
        D = random_lifted(par, rng)
        seen.add(section(D, "ha").vanished)
        if len(seen) == 2:
            break
    assert seen == {True, False}


def test_charp_reaches_unliftable_data():
    # some mod-p data admits no divisible conjugate chain; the twisted
    # sampler must be able to find such strata
    from hasseforge.invariants import check_pi_divisibility
    par = Params(2, 1, 2, 2, 1)
    rng = random.Random(77)
    bad = 0
    for _ in range(60):
        D = random_charp(par, rng)
        if not all(check_pi_divisibility(D, i) for i in range(par.f)):
            bad += 1
    assert bad > 0
