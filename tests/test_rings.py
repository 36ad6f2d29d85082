"""Ring tower tests: axioms on small rings by enumeration, frobenius
coherence, valuation splitting, and the pinned unit_u examples."""

import itertools
import random

import pytest

from hasseforge import polyutil
from hasseforge.errors import InvalidSpec, InvariantViolation
from hasseforge.polyutil import is_irreducible_fp, smallest_irreducible
from hasseforge.rings import MAX_FIELD_SIZE, FiniteField, RingTower, WittLength2

from oracle import elements


def ring_axioms_exhaustive(ring):
    elems = list(elements(ring))
    zero, one = ring.zero, ring.one
    for a in elems:
        assert ring.add(a, zero) == a
        assert ring.mul(a, one) == a
        assert ring.add(a, ring.neg(a)) == zero
        assert ring.sub(a, a) == zero
    for a, b in itertools.product(elems, repeat=2):
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
    sample = elems if len(elems) <= 9 else random.Random(7).sample(elems, 9)
    for a, b, c in itertools.product(sample, repeat=3):
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


def ring_axioms_random(ring, rng, n=60):
    zero, one = ring.zero, ring.one
    for _ in range(n):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        c = ring.random_element(rng)
        assert ring.add(a, zero) == a
        assert ring.mul(a, one) == a
        assert ring.add(a, ring.neg(a)) == zero
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


def check_units_and_val(ring, rng, n=80):
    cap = ring.capacity
    for _ in range(n):
        a = ring.random_element(rng)
        v, w = ring.val_split(a)
        assert 0 <= v <= cap
        assert ring.is_unit(w)
        assert ring.mul(ring.pi_pow(v), w) == a
        if ring.is_unit(a):
            assert v == 0
            assert ring.mul(a, ring.inv(a)) == ring.one
        else:
            assert v >= 1
            with pytest.raises(ZeroDivisionError):
                ring.inv(a)
    assert ring.val_split(ring.zero) == (cap, ring.one)
    assert ring.val_split(ring.one) == (0, ring.one)


def check_frobenius(ring, rng, f, n=50):
    for _ in range(n):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        assert ring.frob(ring.add(a, b)) == ring.add(ring.frob(a), ring.frob(b))
        assert ring.frob(ring.mul(a, b)) == ring.mul(ring.frob(a), ring.frob(b))
        acc = a
        for _ in range(f):
            acc = ring.frob(acc)
        assert acc == a  # sigma^f = id
        assert ring.frob(a, -1) == ring.frob(a, f - 1)
        assert ring.frob(ring.frob(a, 1), f - 1) == a
    assert ring.frob(ring.one) == ring.one


def test_smallest_irreducibles():
    assert smallest_irreducible(2, 1) == [0, 1]
    assert smallest_irreducible(2, 2) == [1, 1, 1]
    assert smallest_irreducible(2, 3) == [1, 1, 0, 1]
    assert smallest_irreducible(3, 2) == [1, 0, 1]  # x^2 + 1
    assert smallest_irreducible(5, 1) == [0, 1]
    assert is_irreducible_fp([1, 0, 1], 3)
    assert not is_irreducible_fp([2, 0, 1], 3)  # x^2 - 1 = (x-1)(x+1)
    assert not is_irreducible_fp([0, 0, 1], 3)


def test_field_small():
    rng = random.Random(1)
    for p, f in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 1), (7, 2)]:
        k = FiniteField(p, f)
        ring_axioms_exhaustive(k) if k.q <= 16 else ring_axioms_random(k, rng)
        check_units_and_val(k, rng)
        check_frobenius(k, rng, f)
        # frobenius is y -> y^p
        for a in range(min(k.q, 100)):
            acc = k.one
            for _ in range(p):
                acc = k.mul(acc, a)
            assert k.frob(a) == acc


def test_field_rejects_bad_modulus():
    with pytest.raises(InvalidSpec):
        FiniteField(3, 2, [2, 0, 1])  # reducible
    with pytest.raises(InvalidSpec):
        FiniteField(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(InvalidSpec):
        FiniteField(15, 1)  # p composite


def _digits(a, p, f):
    return [a // p**i % p for i in range(f)]


def _poly(a, p, f):
    return polyutil.trim(_digits(a, p, f))


def check_field_codes(k, pairs):
    """The meaning of a k code, independently of the tables: base-p digits
    are the coefficients on the power basis, so add/sub/neg act digitwise
    mod p and mul/inv/frob are polynomial products reduced by the modulus."""
    p, f, g = k.p, k.f, k.modulus

    def reduced(poly):
        return polyutil.mod_monic(poly, g, p)

    for a, b in pairs:
        da, db = _digits(a, p, f), _digits(b, p, f)
        assert _digits(k.add(a, b), p, f) == [(x + y) % p for x, y in zip(da, db)]
        assert _digits(k.sub(a, b), p, f) == [(x - y) % p for x, y in zip(da, db)]
        prod = reduced(polyutil.mul(_poly(a, p, f), _poly(b, p, f), p))
        assert _poly(k.mul(a, b), p, f) == prod
    for a in {x for pair in pairs for x in pair}:
        assert _digits(k.neg(a), p, f) == [-x % p for x in _digits(a, p, f)]
        if a:
            assert reduced(polyutil.mul(_poly(a, p, f), _poly(k.inv(a), p, f), p)) == [1]
        for j in range(f):
            assert _poly(k.frob(a, j), p, f) == polyutil.powmod(_poly(a, p, f), p**j, g, p)


def test_field_codes_exhaustive_small_q():
    for p in (2, 3, 5, 7):
        f = 1
        while p**f <= 125:
            k = FiniteField(p, f)
            check_field_codes(k, list(itertools.product(range(k.q), repeat=2)))
            f += 1


def test_field_codes_sampled_large_q():
    rng = random.Random(17)
    for p, f in [(5, 4), (7, 4), (11, 1), (13, 2), (31, 3), (251, 2), (257, 1), (65521, 1)]:
        k = FiniteField(p, f)
        pairs = [(rng.randrange(k.q), rng.randrange(k.q)) for _ in range(1500)]
        check_field_codes(k, pairs + [(0, 0), (1, k.q - 1), (k.q - 1, 0)])


def test_field_codes_edge_cases():
    k = FiniteField(2, 1)
    check_field_codes(k, list(itertools.product(range(2), repeat=2)))
    assert [k.neg(a) for a in range(2)] == [0, 1]  # -1 = 1 in characteristic 2
    assert k.add(1, 1) == 0
    # x^2 + 1 over F_3: x (code 3) has order 4 < 8, so the generator is not x
    k = FiniteField(3, 2, [1, 0, 1])
    assert [k.mul(3, 3), k.mul(k.mul(3, 3), k.mul(3, 3))] == [2, 1]
    check_field_codes(k, list(itertools.product(range(9), repeat=2)))


def test_field_tables_are_linear_in_q():
    for p, f in [(2, 1), (3, 2), (7, 4)]:
        k = FiniteField(p, f)
        frob_tables = [t for t in k._frob if t is not None]
        # sigma and its inverse only, whatever f is
        assert len(frob_tables) <= 2
        for table in [k._exp, k._log, k._zech, k._neg] + frob_tables:
            assert len(table) <= 3 * k.q


def test_frob_every_power_is_iterated_sigma():
    # powers other than +-1 are read off the log tables, not stored
    for p, f in [(2, 1), (3, 2), (2, 4), (5, 3), (7, 4)]:
        k = FiniteField(p, f)
        pows = [list(range(k.q))]
        for _ in range(f):
            pows.append([_power(k, a, p) for a in pows[-1]])  # pows[j] = a^(p^j)
        for j in range(-f, 2 * f + 1):
            assert [k.frob(a, j) for a in range(k.q)] == pows[j % f]


def _power(k, a, n):
    acc = k.one
    for _ in range(n):
        acc = k.mul(acc, a)
    return acc


def test_field_rejects_non_primitive_generator():
    # a wrong generator must be caught by the exp permutation check, not an assert
    class BadGenerator(FiniteField):
        def _generator(self):
            return 3  # x, of order 4 in F_9 = F_3[x]/(x^2 + 1)

    with pytest.raises(InvariantViolation):
        BadGenerator(3, 2, [1, 0, 1])


def test_field_size_cap():
    assert FiniteField(7, 5).q <= MAX_FIELD_SIZE
    # checked before p is tested for primality, so a huge p is never divided
    for p, f in [(2, 17), (7, 6), (3, 10**9), (65537, 1), (10**40 + 1, 1)]:
        with pytest.raises(InvalidSpec, match="exceeds"):
            FiniteField(p, f)


def test_field_refuses_p_that_is_not_a_prime():
    # 63001 = 251^2 and 64507 = 251 * 257 have the largest smallest factor
    # a composite under the cap can have
    for p in (-3, 0, 1, 4, 9, 15, 63001, 64507, 65535, 65536):
        with pytest.raises(InvalidSpec, match="p must be a prime"):
            FiniteField(p, 1)
    with pytest.raises(InvalidSpec, match="f must be"):
        FiniteField(9, 0)


def test_pichain():
    rng = random.Random(2)
    for p, f, e in [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 1, 3), (2, 1, 1)]:
        R = RingTower(FiniteField(p, f), e).R
        if p ** (f * e) <= 16:
            ring_axioms_exhaustive(R)
        else:
            ring_axioms_random(R, rng)
        check_units_and_val(R, rng)
        check_frobenius(R, rng, f)
        # nilpotency degree of pi is exactly e
        pi = R.uniformizer
        acc = R.one
        for _ in range(e):
            assert acc != R.zero or e == 1 and True
            acc = R.mul(acc, pi)
        assert acc == R.zero
        assert R.pi_pow(e) == R.zero
        if e >= 2:
            assert R.pi_pow(e - 1) != R.zero


def test_witt_length2():
    rng = random.Random(3)
    for p, f in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (7, 1)]:
        t = RingTower(FiniteField(p, f), 1)
        W2, k = t.W2, t.k
        size = p ** (2 * f)
        if size <= 16:
            ring_axioms_exhaustive(W2)
        else:
            ring_axioms_random(W2, rng)
        check_units_and_val(W2, rng)
        check_frobenius(W2, rng, f)
        # reduce is a ring hom onto k and intertwines the frobenii
        for _ in range(40):
            a = W2.random_element(rng)
            b = W2.random_element(rng)
            assert W2.reduce(W2.add(a, b)) == k.add(W2.reduce(a), W2.reduce(b))
            assert W2.reduce(W2.mul(a, b)) == k.mul(W2.reduce(a), W2.reduce(b))
            assert W2.reduce(W2.frob(a)) == k.frob(W2.reduce(a))
            assert W2.reduce(W2.lift(W2.reduce(a))) == W2.reduce(a)
        # p * p = 0 and p generates the kernel of reduce
        pp = W2.uniformizer
        assert W2.mul(pp, pp) == W2.zero
        kernel = [a for a in elements(W2) if W2.reduce(a) == 0] if size <= 256 else None
        if kernel is not None:
            multiples = {W2.mul(pp, a) for a in elements(W2)}
            assert set(kernel) == multiples


def test_witt_frobenius_is_unique_lift():
    # against brute force: sigma on W2(F_4) is the only ring endomorphism
    # lifting y -> y^2 and fixing Z/4
    t = RingTower(FiniteField(2, 2), 1)
    W2, k = t.W2, t.k
    elems = list(elements(W2))
    x = (0, 1)
    candidates = []
    for target in elems:
        if W2.reduce(target) != k.frob(W2.reduce(x)):
            continue
        # a candidate hom is determined by x -> target; it must kill ghat(target)
        if W2._eval_poly(W2.ghat, list(target)) == W2.zero:
            candidates.append(target)
    assert candidates == [W2.frob(x)]


def test_eisenstein_lift():
    rng = random.Random(4)
    cases = [
        (3, 1, 2, [6, 0, 1]),  # X^2 - 3
        (3, 1, 2, [3, 0, 1]),  # X^2 + 3
        (2, 1, 3, [2, 0, 0, 1]),  # X^3 - 2
        (2, 2, 2, None),
        (3, 2, 2, None),
        (2, 1, 1, None),
        (5, 1, 2, None),
    ]
    for p, f, e, E in cases:
        t = RingTower(FiniteField(p, f), e, eisenstein=E)
        W, R = t.W, t.R
        assert W.capacity == 2 * e
        ring_axioms_random(W, rng)
        check_units_and_val(W, rng)
        check_frobenius(W, rng, f)
        # reduction W -> R is a ring hom intertwining frobenius
        for _ in range(40):
            a = W.random_element(rng)
            b = W.random_element(rng)
            assert W.reduce(W.add(a, b)) == R.add(W.reduce(a), W.reduce(b))
            assert W.reduce(W.mul(a, b)) == R.mul(W.reduce(a), W.reduce(b))
            assert W.reduce(W.frob(a)) == R.frob(W.reduce(a))
        # unit_u * pi^e = p, sigma-invariant
        u = t.unit_u
        assert W.mul(u, W.pi_pow(e)) == W.from_int(p)
        assert W.frob(u) == u
        # p itself has valuation e
        v, w = W.val_split(W.from_int(p))
        assert v == e
        # pi^(2e) = 0, pi^(2e-1) != 0
        assert W.pi_pow(2 * e) == W.zero
        assert W.pi_pow(2 * e - 1) != W.zero


def test_unit_u_pinned_values():
    # X^2 - 3 over p=3: pi^2 = 3, so u reduces to 1 in R
    t = RingTower(FiniteField(3, 1), 2, eisenstein=[6, 0, 1])
    assert t.W.reduce(t.unit_u)[0] == 1
    # X^2 + 3: pi^2 = -3, u reduces to -1 = 2
    t = RingTower(FiniteField(3, 1), 2, eisenstein=[3, 0, 1])
    assert t.W.reduce(t.unit_u)[0] == 2
    # X^3 - 2 over p=2: u reduces to 1
    t = RingTower(FiniteField(2, 1), 3, eisenstein=[2, 0, 0, 1])
    assert t.W.reduce(t.unit_u)[0] == 1


def test_eisenstein_validation():
    with pytest.raises(InvalidSpec):
        RingTower(FiniteField(3, 1), 2, eisenstein=[6, 1, 1])  # middle coeff not divisible by p
    with pytest.raises(InvalidSpec):
        RingTower(FiniteField(3, 1), 2, eisenstein=[0, 0, 1])  # constant term 0
    with pytest.raises(InvalidSpec):
        RingTower(FiniteField(3, 1), 2, eisenstein=[6, 0, 2])  # not monic
    with pytest.raises(InvalidSpec):
        RingTower(FiniteField(3, 1), 2, eisenstein=[6, 0, 0, 1])  # wrong degree
    # accepted: every stated invariant holds even with nonzero middle coeffs
    t = RingTower(FiniteField(2, 1), 3, eisenstein=[2, 2, 2, 1])
    assert t.W.mul(t.unit_u, t.W.pi_pow(3)) == t.W.from_int(2)


def test_tower_lift_red_roundtrip():
    rng = random.Random(5)
    t = RingTower(FiniteField(3, 2), 2)
    for _ in range(50):
        x = t.R.random_element(rng)
        assert t.W.reduce(t.W.lift(x)) == x
        xw = t.W.random_element(rng)
        # lift-of-reduction differs from xw by a multiple of p
        d = t.W.sub(xw, t.W.lift(t.W.reduce(xw)))
        v, _ = t.W.val_split(d)
        assert v >= t.e or d == t.W.zero


def reference_w_mul(W, a, b):
    """The product of W from its definition, independently of its tables:
    convolve a and b as polynomials in pi whose coefficients are
    polynomials in x over Z/p^2, reduce every pi-coefficient mod ghat(x),
    then divide by the monic E(pi) by long division."""
    m, e, ghat = W.m, W.e, W.w2.ghat
    conv = [[0] * (2 * W.f - 1) for _ in range(2 * e - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for t, c in enumerate(polyutil.mul(list(x), list(y), m)):
                conv[i + j][t] = (conv[i + j][t] + c) % m
    conv = [polyutil.mod_monic(c, ghat, m) for c in conv]
    for d in range(2 * e - 2, e - 1, -1):
        top, conv[d] = conv[d], []
        for j, ej in enumerate(W.E[:-1]):  # pi^d = -pi^(d-e) sum_j E_j pi^j
            conv[d - e + j] = polyutil.sub(conv[d - e + j], polyutil.scal(ej, top, m), m)
    return tuple(tuple(c + [0] * (W.f - len(c))) for c in conv[:e])


def _special_w_elements(W, rng, n_random):
    """Zero, one, every pi-power, p-multiples and random elements."""
    p, m = W.p, W.m
    out = [W.zero, W.one] + [W.pi_pow(n) for n in range(2 * W.e + 1)]
    for _ in range(n_random):
        a = W.random_element(rng)
        out.append(a)
        out.append(tuple(tuple(p * c % m for c in w) for w in a))
    return out


def test_eisenstein_mul_matches_reference():
    W = RingTower(FiniteField(2, 1), 2).W
    elems = list(elements(W))
    assert len(elems) ** 2 == 256
    for a, b in itertools.product(elems, repeat=2):
        assert W.mul(a, b) == reference_w_mul(W, a, b)
    rng = random.Random(11)
    for p, f, e, E in [(5, 2, 3, None), (3, 2, 2, None), (2, 1, 3, [2, 2, 2, 1])]:
        W = RingTower(FiniteField(p, f), e, eisenstein=E).W
        special = _special_w_elements(W, rng, 6)
        pairs = list(itertools.product(special, repeat=2))
        pairs += [(W.random_element(rng), W.random_element(rng)) for _ in range(300)]
        for a, b in pairs:
            assert W.mul(a, b) == reference_w_mul(W, a, b)


def test_w_product_path_avoids_polynomial_code(monkeypatch):
    """W.mul, W.inv and W.val_split on a built tower run on the product
    table alone: the generic polynomial code and the W2 product, which
    only build the tower, must not come back into them."""
    rng = random.Random(12)
    cases = []
    for p, f, e in [(2, 1, 2), (3, 2, 2), (5, 2, 3), (2, 3, 1)]:
        W = RingTower(FiniteField(p, f), e).W
        elems = _special_w_elements(W, rng, 8)
        cases.append((W, elems, [(a, b, W.mul(a, b)) for a, b in zip(elems, reversed(elems))],
                      [(a, W.inv(a)) for a in elems if W.is_unit(a)],
                      [(a, W.val_split(a)) for a in elems]))

    def refuse(*args, **kwargs):
        raise AssertionError("the W product path called the polynomial code")

    monkeypatch.setattr(polyutil, "mul", refuse)
    monkeypatch.setattr(polyutil, "mod_monic", refuse)
    monkeypatch.setattr(WittLength2, "mul", refuse)
    for W, elems, products, inverses, splits in cases:
        for a, b, ab in products:
            assert W.mul(a, b) == ab
        for a, inv in inverses:
            assert W.inv(a) == inv
        for a, split in splits:
            assert W.val_split(a) == split
