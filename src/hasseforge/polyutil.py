"""Dense polynomial arithmetic over Z/m, little-endian coefficient lists.

Just enough to build the field and Witt towers: ring ops, division by a monic
modulus, powering mod a modulus, and an irreducibility test over F_p.  No
sparse tricks; degrees here stay tiny.
"""

from __future__ import annotations

from .errors import InvariantViolation, require


def trim(a: list[int]) -> list[int]:
    """Drop trailing zeros (the zero polynomial becomes [])."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def sub(a: list[int], b: list[int], m: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return trim(out)


def scal(c: int, a: list[int], m: int) -> list[int]:
    return trim([(c * x) % m for x in a])


def mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return trim(out)


def mod_monic(a: list[int], g: list[int], m: int) -> list[int]:
    """Remainder of a on division by monic g.  Works over any Z/m, since no
    leading coefficient is inverted."""
    require(g and g[-1] == 1, "divisor is not monic")
    r = list(a)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] % m
        if c:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % m
    return trim(r)


def powmod(a: list[int], n: int, g: list[int], m: int) -> list[int]:
    result = [1]
    base = mod_monic(a, g, m)
    while n:
        if n & 1:
            result = mod_monic(mul(result, base, m), g, m)
        base = mod_monic(mul(base, base, m), g, m)
        n >>= 1
    return result


def gcd_fp(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    a, b = trim([x % p for x in a]), trim([x % p for x in b])
    while b:
        lead = b[-1]
        if lead != 1:
            b = scal(pow(lead, -1, p), b, p)
        a, b = b, mod_monic(a, b, p)
    if a and a[-1] != 1:
        a = scal(pow(a[-1], -1, p), a, p)
    return a


def deriv(a: list[int], m: int) -> list[int]:
    return trim([(i * a[i]) % m for i in range(1, len(a))])


def is_irreducible_fp(g: list[int], p: int) -> bool:
    """Monic g irreducible over F_p, by the x^(p^j) - x gcd criterion."""
    g = trim([c % p for c in g])
    f = len(g) - 1
    if f < 1 or g[-1] != 1:
        return False
    if f == 1:
        return True
    # x^(p^f) == x mod g, and gcd(g, x^(p^j) - x) == 1 for every proper prime-index j.
    xq = powmod([0, 1], p**f, g, p)
    if trim(sub(xq, [0, 1], p)) != []:
        return False
    for j in {f // r for r in _prime_factors(f)}:
        xpj = powmod([0, 1], p**j, g, p)
        if gcd_fp(g, sub(xpj, [0, 1], p), p) != [1]:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def smallest_irreducible(p: int, f: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree f over F_p.

    Lex order on the little-endian non-leading coefficient vector, i.e. the
    polynomial with the smallest base-p code p^f + sum c_i p^i.
    """
    for code in range(p**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % p)
            c //= p
        g = coeffs + [1]
        if is_irreducible_fp(g, p):
            return g
    raise InvariantViolation("no irreducible of degree %d over F_%d" % (f, p))
