"""Ring tower for ramified semilinear module data.

Four exact coefficient rings, all chain rings:

    k  = F_{p^f}                     capacity 1
    R  = k[pi]/(pi^e)                capacity e
    W2 = (Z/p^2)[x]/(ghat)           capacity 2, uniformizer p
    W  = W2[pi]/(E(pi))              capacity 2e, uniformizer pi

ghat is the canonical integer lift of the degree-f field modulus g; E is
Eisenstein over Z/p^2 (monic, reduces to X^e mod p, constant term of
p-valuation exactly one).  W plays the role of a length-2 Witt lift of R.

Elements are passive immutable data; the ring objects own the operations.
k elements are integer codes in [0, p^f) whose base-p digits are the
coefficients on the power basis.  R elements are e-tuples of k codes,
W2 elements f-tuples of ints mod p^2, W elements e-tuples of W2 elements.
All layers share one protocol: capacity, zero, one, uniformizer, size,
add/sub/neg/mul, dot(u, v) (the sum of the products u_t v_t), is_unit,
inv, frob(x, j), val_split(x) -> (val, unit), pi_pow(n), from_int,
elements(), random_element(rng).

A W element is read as the flat vector of its e*f coordinates, the
coefficient of pi^i x^a at index i*f + a.  W multiplies on that vector
alone: one integer convolution into (pi-power, x-power) slots, a fold of
every slot past pi^(e-1) or x^(f-1) through a table of the reduced
coordinates of pi^i x^a built once per tower, and one reduction mod p^2
at the end.  dot convolves every pair into the same slots before that one
fold and reduction, which is the sum of the products since the fold is
linear.  add, sub and neg are one pass mod p^2 over the same vector.
The W2 product and the polynomial code only build tables.
"""

from __future__ import annotations

import itertools
import operator

from . import polyutil
from .errors import InvalidSpec, InvariantViolation, require

# a W element's flat (pi, x) coordinates, in order
_flatten = itertools.chain.from_iterable
# FiniteField keeps O(q) tables; a larger p^f is refused before any is built
MAX_FIELD_SIZE = 1 << 16


class FiniteField:
    """F_{p^f} on integer codes, every operation a table lookup.

    Fix the smallest primitive code g.  With n = q - 1 the tables are

        _exp   g^i for i in [0, 2n), then n zeros: a sum of two logs, or
               a log plus 2n, needs no reduction mod n
        _log   log_g of each nonzero code; _log[0] = 2n, which points into
               the zero block of _exp
        _zech  Z(i) = log_g(1 + g^i) for i in [0, n), read off _log, so
               Z(i) = 2n where 1 + g^i = 0
        _neg   -a for every code
        _frob  [j][a] = a^(p^j) for j = 1 and j = f - 1 (sigma and its
               inverse, the only twists the library applies); None for
               the other j in [0, f)

    all of size O(q) and built in O(q).  mul is two lookups into _log and
    one into _exp; inv one of each; neg one; frob one for j = +-1, else
    a^(p^j) = exp[log a * p^j mod n]; add (a Zech step,
    a + b = g^la (1 + g^(lb - la))) four; sub is add(a, -b).
    """

    capacity = 1

    def __init__(self, p: int, f: int, modulus=None):
        if f < 1:
            raise InvalidSpec("f must be >= 1")
        if f >= MAX_FIELD_SIZE.bit_length() or p**f > MAX_FIELD_SIZE:
            raise InvalidSpec("field size %d^%d exceeds %d" % (p, f, MAX_FIELD_SIZE))
        # under the cap p <= 2^16, so trial division up to 2^8 decides it
        if p < 2 or any(p % d == 0 for d in range(2, min(p, 257))):
            raise InvalidSpec("p must be a prime, got %r" % p)
        if modulus is None:
            modulus = polyutil.smallest_irreducible(p, f)
        modulus = [c % p for c in polyutil.trim(list(modulus))] or [0]
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise InvalidSpec("field modulus must be monic of degree f")
        if not polyutil.is_irreducible_fp(modulus, p):
            raise InvalidSpec("field modulus is not irreducible mod p")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self.uniformizer = 0  # the maximal ideal of a field is (0)
        self.size = self.q
        self._build_tables()

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.f)

    @property
    def k(self):
        """The residue field of a field is itself (a property, not an
        attribute, so that a field holds no reference cycle)."""
        return self

    def to_poly(self, a: int) -> list[int]:
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return polyutil.trim(out)

    def _generator(self) -> int:
        """Smallest primitive code: c^((q-1)/r) != 1 for each prime r | q-1."""
        p, q = self.p, self.q
        if q == 2:
            return 1
        cofactors = [(q - 1) // r for r in polyutil._prime_factors(q - 1)]
        # for f > 1 the constants 2..p-1 lie in F_p^*, of order p - 1 < q - 1
        return next(c for c in range(2 if self.f == 1 else p, q)
                    if all(polyutil.powmod(self.to_poly(c), n, self.modulus, p) != [1]
                           for n in cofactors))

    def _times_table(self, c: int) -> list[int]:
        """[code of c*a for every code a], built one base-p digit of the
        product at a time: a -> c*a is F_p-linear on digit vectors, so the
        block of codes d*p^j + a (a < p^j) is the block below shifted by
        d times the digits of c*x^j."""
        p, f = self.p, self.f
        cx = self.to_poly(c)
        cols = []  # cols[j][i] = digit i of c*x^j
        for j in range(f):
            col = polyutil.mod_monic(polyutil.mul(cx, [0] * j + [1], p), self.modulus, p)
            cols.append(col + [0] * (f - len(col)))
        digits = [[0] for _ in range(f)]  # digits[i][a] = digit i of c*a
        for j in range(f):
            for i in range(f):
                plane, cij = digits[i], cols[j][i]
                digits[i] = plane + [(x + d * cij) % p for d in range(1, p) for x in plane]
        codes = digits[-1]
        for i in range(f - 2, -1, -1):
            codes = [x * p + y for x, y in zip(codes, digits[i])]
        return codes

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        n = q - 1
        times_g = self._times_table(self._generator())
        exp = [1] * n
        for i in range(1, n):
            exp[i] = times_g[exp[i - 1]]
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        if -1 in log[1:]:
            raise InvariantViolation("exp table of %r is not a permutation of the "
                                     "nonzero codes" % self)
        log[0] = 2 * n
        self._exp = exp + exp + [0] * n
        self._log = log
        # 1 + c changes only the lowest base-p digit of the code c
        self._zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp]
        half = n // 2 if p != 2 else 0  # -1 = g^(n/2) in odd characteristic
        self._neg = [0] + [exp[(i + half) % n] for i in log[1:]]
        # frob(., j) is y -> y^(p^j); on logs that is multiplication by p^j
        self._frob_logs = [pow(p, j, n) for j in range(f)]
        self._frob = [None] * f
        for j in ({1, f - 1} if f > 1 else ()):
            s = self._frob_logs[j]
            self._frob[j] = [0] + [exp[i * s % n] for i in log[1:]]

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # log[b] - la lies in (-n, n); a negative index wraps mod n = len(_zech)
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub_mul(self, u, c: int, v) -> list:
        """The list u - c*v for code sequences u, v of equal length and a
        nonzero c: the row operation of field elimination."""
        if self.f == 1:
            p = self.p
            return [(x - c * y) % p for x, y in zip(u, v)]
        exp, log, zech, n = self._exp, self._log, self._zech, self.q - 1
        lc = log[self._neg[c]]
        # x + g^(lc + log y): nothing to add where y = 0, and one Zech step
        # (the one in add, inlined) where x != 0
        return [x if not y else exp[lc + log[y]] if not x
                else exp[log[x] + zech[(lc + log[y] - log[x]) % n]]
                for x, y in zip(u, v)]

    def combine(self, coeffs, rows, n) -> list:
        """The list sum c_t rows_t of n codes: one sub_mul per nonzero
        c_t, so n zeros when every c_t is zero or there are no rows."""
        out = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                out = self.sub_mul(out, self._neg[c], row)
        return out

    def dot(self, u, v) -> int:
        """sum u_t v_t: one integer sum mod p when f = 1, else each
        product on logs and the sum by Zech steps."""
        if self.f == 1:
            return sum(map(operator.mul, u, v)) % self.p
        exp, log, add = self._exp, self._log, self.add
        acc = 0
        for x, y in zip(u, v):
            if x and y:
                acc = add(acc, exp[log[x] + log[y]])
        return acc

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def is_unit(self, a: int) -> bool:
        return a != 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in %r" % self)
        return self._exp[self.q - 1 - self._log[a]]

    def frob(self, a: int, j: int = 1) -> int:
        j %= self.f
        table = self._frob[j]
        if table is not None:
            return table[a]
        if not (a and j):
            return a
        return self._exp[self._log[a] * self._frob_logs[j] % (self.q - 1)]

    def val_split(self, a: int):
        if a == 0:
            return 1, self.one
        return 0, a

    def pi_pow(self, n: int) -> int:
        return self.one if n == 0 else self.zero

    def from_int(self, n: int) -> int:
        return n % self.p

    def res(self, a: int) -> int:
        """Image in the residue field (the identity here)."""
        return a

    def elements(self):
        return range(self.q)

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)


def _accumulate(ring, u, v):
    """sum u_t v_t by ring.add and ring.mul, skipping zero factors."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    acc = zero
    for x, y in zip(u, v):
        if x != zero and y != zero:
            acc = add(acc, mul(x, y))
    return acc


def _newton_inv(ring, a, z):
    """The inverse of the unit a, by Newton steps z <- z (2 - a z) from z,
    an inverse of a mod pi; each step doubles the pi-adic precision."""
    two = ring.from_int(2)
    for _ in range(ring.capacity.bit_length() + 2):
        err = ring.mul(a, z)
        if err == ring.one:
            return z
        z = ring.mul(z, ring.sub(two, err))
    raise InvariantViolation("newton inversion failed to converge")


class PiChain:
    """R = k[pi]/(pi^e) on little-endian e-tuples of k codes."""

    def __init__(self, field: FiniteField, e: int):
        if e < 1:
            raise InvalidSpec("e must be >= 1")
        self.k = field
        self.e = e
        self.p = field.p
        self.f = field.f
        self.capacity = e
        self.zero = (field.zero,) * e
        self.one = tuple([field.one] + [field.zero] * (e - 1))
        # for e = 1 the class of pi is 0
        self.uniformizer = tuple(field.one if i == 1 else field.zero for i in range(e))
        self.size = field.q**e

    def __repr__(self):
        return "GF(%d^%d)[pi]/(pi^%d)" % (self.p, self.f, self.e)

    def add(self, a, b):
        k = self.k
        return tuple(k.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        k = self.k
        return tuple(k.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        k = self.k
        return tuple(k.neg(x) for x in a)

    def mul(self, a, b):
        k, e = self.k, self.e
        out = [k.zero] * e
        for i, x in enumerate(a):
            if x:
                for j in range(e - i):
                    if b[j]:
                        out[i + j] = k.add(out[i + j], k.mul(x, b[j]))
        return tuple(out)

    dot = _accumulate

    def is_unit(self, a) -> bool:
        return a[0] != self.k.zero

    def inv(self, a):
        if a[0] == self.k.zero:
            raise ZeroDivisionError("non-unit in %r" % self)
        return _newton_inv(self, a, self.from_k(self.k.inv(a[0])))

    def frob(self, a, j: int = 1):
        k = self.k
        return tuple(k.frob(x, j) for x in a)

    def val_split(self, a):
        for v in range(self.e):
            if a[v] != self.k.zero:
                return v, a[v:] + (self.k.zero,) * v
        return self.capacity, self.one

    def pi_pow(self, n: int):
        if n >= self.e:
            return self.zero
        return tuple(self.k.one if i == n else self.k.zero for i in range(self.e))

    def shift_down(self, a, s: int):
        """The canonical solution z of pi^s z = a (0 <= s <= e), or InvariantViolation."""
        if any(a[:s]):
            raise InvariantViolation("%r is not divisible by pi^%d" % (a, s))
        return a[s:] + (self.k.zero,) * s

    def from_k(self, c: int):
        return (c,) + (self.k.zero,) * (self.e - 1)

    def from_int(self, n: int):
        return self.from_k(self.k.from_int(n))

    def res(self, a) -> int:
        return a[0]

    def elements(self):
        return itertools.product(self.k.elements(), repeat=self.e)

    def random_element(self, rng):
        return tuple(self.k.random_element(rng) for _ in range(self.e))


class WittLength2:
    """W2(k) = (Z/p^2)[x]/(ghat), a length-2 Witt lift of k in polynomial form.

    The Frobenius lift is pinned by one Hensel step from x^p: the error
    ideal (p) squares to zero, so a single step is already exact.
    """

    capacity = 2

    def __init__(self, field: FiniteField):
        self.k = field
        self.p = field.p
        self.f = field.f
        self.m = field.p**2
        self.ghat = list(field.modulus)  # digits already live in [0, p)
        self.zero = (0,) * field.f
        self.one = self._pad([1])
        self.uniformizer = self._pad([field.p])
        self.size = self.m**field.f
        self._build_frobenius()

    def __repr__(self):
        return "W2(GF(%d^%d))" % (self.p, self.f)

    def _pad(self, coeffs):
        return tuple(coeffs + [0] * (self.f - len(coeffs)))

    def add(self, a, b):
        m = self.m
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(self, a, b):
        m = self.m
        return tuple((x - y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.m
        return tuple(-x % m for x in a)

    def mul(self, a, b):
        prod = polyutil.mul(list(a), list(b), self.m)
        return self._pad(polyutil.mod_monic(prod, self.ghat, self.m))

    dot = _accumulate

    def scale_int(self, c: int, a):
        m = self.m
        return tuple(c * x % m for x in a)

    def reduce(self, a) -> int:
        """Reduction W2 -> k."""
        p = self.p
        code = 0
        for c in reversed(a):
            code = code * p + c % p
        return code

    def lift(self, a: int):
        """Canonical (digitwise) lift k -> W2."""
        return self._pad(self.k.to_poly(a))

    def is_unit(self, a) -> bool:
        return self.reduce(a) != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError("non-unit in %r" % self)
        # one newton step from the lifted k-inverse is exact: (a z0 - 1)^2 in (p^2) = 0
        return _newton_inv(self, a, self.lift(self.k.inv(self.reduce(a))))

    def _eval_poly(self, coeffs, at):
        at = self._pad(polyutil.mod_monic(list(at), self.ghat, self.m))
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, at), self.from_int(c))
        return acc

    def _build_frobenius(self):
        p, m, f = self.p, self.m, self.f
        s0 = polyutil.powmod([0, 1], p, self.ghat, m)
        g_at = self._eval_poly(self.ghat, s0)
        gp_at = self._eval_poly(polyutil.deriv(self.ghat, m), s0)
        # g separable, so g'(x^p) is a unit and the hensel step is legal
        s = self.sub(self._pad(s0), self.mul(g_at, self.inv(gp_at)))
        require(self._eval_poly(self.ghat, list(s)) == self.zero,
                "hensel lift of x^p is not a root of the field modulus")

        sig1_pows = [self.one]
        for _ in range(1, f):
            sig1_pows.append(self.mul(sig1_pows[-1], s))

        xred = self._pad(polyutil.mod_monic([0, 1], self.ghat, m))
        self._frob_pows = []  # [j][i] = (sigma^j x)^i
        cur = xred
        for _ in range(f):
            pows = [self.one]
            for _ in range(1, f):
                pows.append(self.mul(pows[-1], cur))
            self._frob_pows.append(pows)
            cur = self._substitute(cur, sig1_pows)
        require(cur == xred, "frobenius lift does not have order f")  # sigma^f = id

    def _substitute(self, a, pows):
        """a, a polynomial in x, at the element whose powers are pows:
        sum_i a_i pows[i]."""
        acc = self.zero
        for i, c in enumerate(a):
            if c:
                acc = self.add(acc, self.scale_int(c, pows[i]))
        return acc

    def frob(self, a, j: int = 1):
        j %= self.f
        if j == 0:
            return a
        return self._substitute(a, self._frob_pows[j])

    def val_split(self, a):
        if self.reduce(a) != 0:
            return 0, a
        if a == self.zero:
            return 2, self.one
        return 1, tuple(c // self.p for c in a)

    def pi_pow(self, n: int):
        if n >= 2:
            return self.zero
        return self.one if n == 0 else self.uniformizer

    def from_int(self, n: int):
        return self._pad([n % self.m])

    def res(self, a) -> int:
        return self.reduce(a)

    def elements(self):
        return itertools.product(range(self.m), repeat=self.f)

    def random_element(self, rng):
        return tuple(rng.randrange(self.m) for _ in range(self.f))


class EisensteinLift(object):
    """W = W2[pi]/(E(pi)): the ramified lift, a chain ring of capacity 2e.

    pi^e = p*c with c the unit -sum_j (E_j/p) pi^j; unit_u = c^{-1} turns
    powers of p into powers of pi: unit_u * pi^e = p exactly.

    mul works on the flat (pi, x) coordinates (see _build_product_table):
    it convolves the two coordinate vectors as plain ints, folds the slots
    past pi^(e-1) or x^(f-1) through the tower's structure constants, and
    reduces mod p^2 once.  inv starts its Newton steps from the lifted
    inverse of the residue, so W arithmetic never multiplies in W2.
    """

    def __init__(self, w2: WittLength2, e: int, eisenstein):
        m, p = w2.m, w2.p
        E = [c % m for c in eisenstein]
        if len(E) != e + 1 or E[-1] != 1:
            raise InvalidSpec("eisenstein polynomial must be monic of degree e")
        if any(c % p for c in E[:-1]):
            raise InvalidSpec("eisenstein polynomial must reduce to X^e mod p")
        if E[0] == 0:
            raise InvalidSpec("eisenstein constant term needs p-valuation exactly 1")
        self.w2 = w2
        self.k = w2.k
        self.e = e
        self.p = p
        self.f = w2.f
        self.m = m
        self.E = E
        self.capacity = 2 * e
        self.zero = (w2.zero,) * e
        self.one = tuple([w2.one] + [w2.zero] * (e - 1))
        self.size = w2.size**e
        self._build_pi_table()
        self._build_product_table()
        self.uniformizer = self._pi_reps[1]
        self._compute_unit_u()

    def __repr__(self):
        return "W2(GF(%d^%d))[pi]/E, e=%d" % (self.p, self.f, self.e)

    def _build_pi_table(self):
        w2, e = self.w2, self.e
        rep_e = tuple(-c for c in self.E[:-1])  # pi^e = -sum_j E_j pi^j

        def shift1(v):
            head = (w2.zero,) + v[:-1]
            top = v[-1]
            if top == w2.zero:
                return head
            return tuple(w2.add(h, w2.scale_int(c, top)) for h, c in zip(head, rep_e))

        reps = [tuple(w2.one if i == 0 else w2.zero for i in range(e))]
        for _ in range(2 * e):
            reps.append(shift1(reps[-1]))
        require(reps[2 * e] == self.zero, "pi^(2e) is not zero in W")  # pi^(2e) = p^2 * unit = 0
        self._pi_reps = reps

    def _build_product_table(self):
        """The structure constants of mul on flat (pi, x) coordinates.

        Coordinate i*f + a of an element is the coefficient of pi^i x^a.
        A product of two coordinates lands in accumulator slot
        i*(2f - 1) + a with i < 2e - 1 and a < 2f - 1, so the flat input
        index i*f + a goes to slot _slots[i*f + a] and slots add.  _fold
        holds, for each slot with i >= e or a >= f, the reduced
        coordinates of pi^i x^a mod (E(pi), ghat(x)) as sparse
        (flat index, coefficient) pairs: pi^i is _pi_reps[i], whose
        coefficient r_j at pi^j times x^a is sum_b r_j[b] x^(a + b), with
        each x^(a + b) reduced mod ghat.
        """
        w2, e, f, m = self.w2, self.e, self.f, self.m
        width = 2 * f - 1
        xpow = [[1] + [0] * (f - 1)]  # x^d mod ghat for d < 3f - 2
        for _ in range(3 * f - 3):
            top = xpow[-1][-1]
            xpow.append([(c - top * g) % m for c, g in zip([0] + xpow[-1][:-1], w2.ghat)])
        self._slots = [i * width + a for i in range(e) for a in range(f)]
        self._acc_len = (2 * e - 1) * width
        self._fold = []
        for i in range(2 * e - 1):
            for a in range(width):
                if i < e and a < f:
                    continue
                coords = [0] * (e * f)
                for j, r in enumerate(self._pi_reps[i]):
                    for b, c in enumerate(r):
                        if c:
                            for t, x in enumerate(xpow[a + b]):
                                coords[j * f + t] += c * x
                self._fold.append((i * width + a,
                                   tuple((n, c % m) for n, c in enumerate(coords) if c % m)))

    def _compute_unit_u(self):
        w2, p = self.w2, self.p
        c = tuple(w2.from_int(-(Ej // p)) for Ej in self.E[:-1])
        self.unit_u = self.inv(c)
        require(self.mul(self.unit_u, self._pi_reps[self.e]) == self.from_int(p), "unit_u * pi^e is not p")
        require(self.frob(self.unit_u) == self.unit_u, "unit_u is not fixed by frobenius")

    def _runs(self, coords):
        """The element with flat coordinates coords: runs of f."""
        flat = iter(coords)
        return tuple(zip(*[flat] * self.f))

    def add(self, a, b):
        m = self.m
        return self._runs([(x + y) % m for x, y in zip(_flatten(a), _flatten(b))])

    def sub(self, a, b):
        m = self.m
        return self._runs([(x - y) % m for x, y in zip(_flatten(a), _flatten(b))])

    def neg(self, a):
        m = self.m
        return self._runs([-x % m for x in _flatten(a)])

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def dot(self, u, v):
        """sum u_t v_t: every product convolved into one accumulator, then
        one fold and one reduction mod p^2."""
        slots = self._slots
        acc = [0] * self._acc_len
        for a, b in zip(u, v):
            nonzero_b = [(t, y) for t, y in zip(slots, _flatten(b)) if y]
            if nonzero_b:
                for s, x in zip(slots, _flatten(a)):
                    if x:
                        for t, y in nonzero_b:
                            acc[s + t] += x * y
        out = [acc[s] for s in slots]
        for s, coords in self._fold:
            c = acc[s]
            if c:
                for n, r in coords:
                    out[n] += c * r
        m = self.m
        return self._runs([x % m for x in out])

    def reduce(self, a):
        """Reduction W -> R, coefficientwise in pi."""
        w2 = self.w2
        return tuple(w2.reduce(c) for c in a)

    def lift(self, x):
        """Canonical coefficientwise lift R -> W."""
        w2 = self.w2
        return tuple(w2.lift(c) for c in x)

    def is_unit(self, a) -> bool:
        return self.w2.reduce(a[0]) != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError("non-unit in %r" % self)
        # a times the lifted inverse of its residue is 1 mod pi
        return _newton_inv(self, a, self.embed_w2(self.w2.lift(self.k.inv(self.res(a)))))

    def frob(self, a, j: int = 1):
        # E has Z/p^2 coefficients, so coefficientwise frobenius fixes pi
        w2 = self.w2
        return tuple(w2.frob(c, j) for c in a)

    def _div_p(self, a):
        require(all(c % self.p == 0 for w in a for c in w), "exact division by p of a non-multiple")
        return tuple(tuple(c // self.p for c in w) for w in a)

    def val_split(self, a):
        if a == self.zero:
            return self.capacity, self.one
        w2, e = self.w2, self.e
        av = next((i for i in range(e) if w2.reduce(a[i]) != 0), None)
        if av is not None:
            # unit part mod p, lifted, then the p-tail folded in via unit_u
            base = tuple(w2.lift(w2.reduce(c)) for c in a[av:]) + (w2.zero,) * av
            r = self.sub(a, self.mul(self._pi_reps[av], base))
            y = self._div_p(r)
            unit = self.add(base, self.mul(self.unit_u, self.mul(self._pi_reps[e - av], y)))
            require(self.mul(self._pi_reps[av], unit) == a, "val_split: pi^v * unit is not the input")
            return av, unit
        y = self._div_p(a)
        bv, wy = self.val_split(y)  # lands in the branch above
        require(bv < e, "val_split: the p-part of the valuation is not below e")
        unit = self.mul(self.unit_u, wy)
        require(self.mul(self._pi_reps[e + bv], unit) == a, "val_split: pi^v * unit is not the input")
        return e + bv, unit

    def pi_pow(self, n: int):
        return self._pi_reps[min(n, 2 * self.e)]

    def embed_w2(self, c):
        return (c,) + (self.w2.zero,) * (self.e - 1)

    def from_int(self, n: int):
        return self.embed_w2(self.w2.from_int(n))

    def res(self, a) -> int:
        return self.w2.reduce(a[0])

    def elements(self):
        return itertools.product(self.w2.elements(), repeat=self.e)

    def random_element(self, rng):
        return tuple(self.w2.random_element(rng) for _ in range(self.e))


class RingTower:
    """R, W2 and W over the residue field k, for ramification e and an
    optional Eisenstein polynomial; W.lift and W.reduce are the maps
    between R and W.  Every ring holds only tables fixed at construction,
    so towers over one k can share it."""

    def __init__(self, k: FiniteField, e, eisenstein=None):
        p = k.p
        self.k = k
        self.R = PiChain(k, e)
        self.W2 = WittLength2(k)
        if eisenstein is None:
            eisenstein = [(-p) % p**2] + [0] * (e - 1) + [1]
        self.W = EisensteinLift(self.W2, e, eisenstein)
        self.p, self.f, self.e = p, k.f, e
        self.field_modulus = k.modulus
        self.eisenstein = self.W.E
        self.unit_u = self.W.unit_u

    def describe(self) -> dict:
        return {
            "p": self.p,
            "f": self.f,
            "e": self.e,
            "field_modulus": list(self.field_modulus),
            "eisenstein": list(self.eisenstein),
        }

