"""Exact linear algebra over the chain-ring protocol.

Matrices are immutable row-major tuples over one tower ring.  Submodules
of ring^n are kept in Howell canonical form, the strong echelon form that
keeps span membership and equality decidable over rings with zero
divisors (plain Hermite is not canonical there).  Kernels, preimages and
intersections route through an exact Smith decomposition M = U D W that
keeps only what its callers read: the valuations of D, W^-1 (kernels)
and one unit carrying det U * det W (determinants).

Semilinear maps x -> A sigma^a(x) carry their twist explicitly; the
kernel/image/preimage conventions return submodules in untwisted
coordinates:

    ker (A, a)      = sigma^{-a}(ker A)
    im  (A, a)      = column span of A
    (A, a)^{-1}(T)  = sigma^{-a}(A^{-1} T)
    (A, a)(S)       = span of A sigma^a(gens S)
"""

from __future__ import annotations

from .rings import div_rem_pi


def vadd(ring, u, v):
    return tuple(ring.add(x, y) for x, y in zip(u, v))


def vsub(ring, u, v):
    return tuple(ring.sub(x, y) for x, y in zip(u, v))


def vscale(ring, c, v):
    return tuple(ring.mul(c, x) for x in v)


def vfrob(ring, v, j=1):
    return tuple(ring.frob(x, j) for x in v)


def zero_vec(ring, n):
    return (ring.zero,) * n


def unit_vec(ring, n, i):
    return tuple(ring.one if t == i else ring.zero for t in range(n))


class Matrix:
    """Immutable matrix over a chain ring; rows of equal length."""

    __slots__ = ("ring", "m", "n", "rows")

    def __init__(self, ring, rows, n=None):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        if self.rows:
            self.n = len(self.rows[0])
            assert all(len(r) == self.n for r in self.rows)
            assert n is None or n == self.n
        else:
            self.n = 0 if n is None else n

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)], n=n)

    @classmethod
    def zeros(cls, ring, m, n):
        return cls(ring, [[ring.zero] * n for _ in range(m)], n=n)

    @classmethod
    def from_cols(cls, ring, cols, m=None):
        cols = list(cols)
        if not cols:
            assert m is not None
            return cls(ring, [()] * m, n=0)
        mm = len(cols[0])
        assert m is None or m == mm
        return cls(ring, [[c[i] for c in cols] for i in range(mm)], n=len(cols))

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.n)]

    def transpose(self):
        if self.m == 0:
            return Matrix(self.ring, [()] * self.n, n=0)
        if self.n == 0:
            return Matrix(self.ring, [], n=self.m)
        return Matrix(self.ring, list(zip(*self.rows)))

    def apply(self, v):
        ring = self.ring
        assert len(v) == self.n
        out = []
        for row in self.rows:
            acc = ring.zero
            for a, x in zip(row, v):
                if a != ring.zero and x != ring.zero:
                    acc = ring.add(acc, ring.mul(a, x))
            out.append(acc)
        return tuple(out)

    def mul(self, other):
        assert self.ring is other.ring and self.n == other.m
        ring = self.ring
        bcols = other.transpose().rows
        rows = []
        for r in self.rows:
            row = []
            for c in bcols:
                acc = ring.zero
                for a, b in zip(r, c):
                    if a != ring.zero and b != ring.zero:
                        acc = ring.add(acc, ring.mul(a, b))
                row.append(acc)
            rows.append(row)
        return Matrix(ring, rows, n=other.n)

    def scale(self, c):
        ring = self.ring
        return Matrix(ring, [[ring.mul(c, x) for x in r] for r in self.rows], n=self.n)

    def map(self, fn, ring=None):
        return Matrix(ring or self.ring, [[fn(x) for x in r] for r in self.rows], n=self.n)

    def frob(self, j=1):
        ring = self.ring
        if j % ring.f == 0:
            return self
        return Matrix(ring, [[ring.frob(x, j) for x in r] for r in self.rows], n=self.n)

    def hstack(self, other):
        assert self.m == other.m
        return Matrix(self.ring, [a + b for a, b in zip(self.rows, other.rows)], n=self.n + other.n)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring is other.ring
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.ring), self.n, self.rows))

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.m, self.n, self.ring)

    def inverse(self):
        """Gauss-Jordan with unit pivots; exact over any chain ring."""
        if self.m != self.n:
            raise ZeroDivisionError("only square matrices invert")
        ring, n = self.ring, self.n
        a = [list(r) for r in self.rows]
        inv = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        for j in range(n):
            piv = next((i for i in range(j, n) if ring.is_unit(a[i][j])), None)
            if piv is None:
                raise ZeroDivisionError("matrix is not invertible")
            if piv != j:
                a[j], a[piv] = a[piv], a[j]
                inv[j], inv[piv] = inv[piv], inv[j]
            c = ring.inv(a[j][j])
            a[j] = [ring.mul(c, x) for x in a[j]]
            inv[j] = [ring.mul(c, x) for x in inv[j]]
            for i in range(n):
                if i != j and a[i][j] != ring.zero:
                    q = a[i][j]
                    a[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(a[i], a[j])]
                    inv[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(inv[i], inv[j])]
        return Matrix(ring, inv)

    def is_invertible(self):
        """Decided over the residue field k: over a local ring a square
        matrix is invertible exactly when its entrywise reduction is."""
        if self.m != self.n:
            return False
        ring = self.ring
        k = ring.k
        red = self if ring is k else self.map(ring.res, k)
        return red.det() != k.zero

    def det(self):
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        ring = self.ring
        if self.m == 0:
            return ring.one
        s = smith(self)
        return ring.mul(s.det, ring.pi_pow(sum(s.vals)))


class Smith:
    """M = U D W with D = diag(pi^vals), valuations ascending, U and W
    invertible.  Keeps only W^-1 and the unit det = det U * det W, so a
    square M has det M = det * pi^(sum vals)."""

    __slots__ = ("vals", "Winv", "det")

    def __init__(self, vals, Winv, det):
        self.vals, self.Winv, self.det = vals, Winv, det


def smith(M: Matrix) -> Smith:
    ring = M.ring
    m, n, cap = M.m, M.n, ring.capacity
    a = [list(r) for r in M.rows]
    winv = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    det = ring.one
    vals = []
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != ring.zero:
                    v = ring.val_split(a[i][j])[0]
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        if bi != t:
            a[bi], a[t] = a[t], a[bi]
            det = ring.neg(det)
        if bj != t:
            for r in a:
                r[bj], r[t] = r[t], r[bj]
            for r in winv:
                r[bj], r[t] = r[t], r[bj]
            det = ring.neg(det)
        _, wu = ring.val_split(a[t][t])
        if wu != ring.one:
            c = ring.inv(wu)
            a[t] = [ring.mul(c, x) for x in a[t]]
            det = ring.mul(det, wu)
        # clear the rest of column t (row ops), then of row t (col ops);
        # column t of a is now zero off the pivot, so a col op changes only
        # row t of a, which is never read again: apply it to winv alone
        for i in range(t + 1, m):
            y = a[i][t]
            if y != ring.zero:
                b, wy = ring.val_split(y)
                q = ring.mul(ring.pi_pow(b - v), wy)
                a[i] = [ring.sub(x, ring.mul(q, z)) for x, z in zip(a[i], a[t])]
        for j in range(t + 1, n):
            y = a[t][j]
            if y != ring.zero:
                b, wy = ring.val_split(y)
                q = ring.mul(ring.pi_pow(b - v), wy)
                for r in winv:
                    r[j] = ring.sub(r[j], ring.mul(q, r[t]))
        vals.append(v)
        t += 1
    while len(vals) < min(m, n):
        vals.append(cap)
    return Smith(tuple(vals), Matrix(ring, winv, n=n), det)


def kernel_gens(M: Matrix):
    """Generators of {x : M x = 0} in ring^n."""
    ring = M.ring
    cap = ring.capacity
    s = smith(M)
    gens = []
    for i in range(M.n):
        need = cap - s.vals[i] if i < len(s.vals) else 0
        g = vscale(ring, ring.pi_pow(need), s.Winv.col(i))
        if any(x != ring.zero for x in g):
            gens.append(g)
    return gens


def _howell(ring, n, gens):
    cap = ring.capacity
    pool = [tuple(g) for g in gens if any(x != ring.zero for x in g)]
    result, pivots = [], []
    for j in range(n):
        cands = [r for r in pool if r[j] != ring.zero]
        if not cands:
            continue
        best = min(cands, key=lambda r: ring.val_split(r[j])[0])
        v, wu = ring.val_split(best[j])
        piv = vscale(ring, ring.inv(wu), best)
        pool.remove(best)
        newpool = []
        for r in pool:
            if r[j] != ring.zero:
                b, wy = ring.val_split(r[j])
                q = ring.mul(ring.pi_pow(b - v), wy)
                r = vsub(ring, r, vscale(ring, q, piv))
            if any(x != ring.zero for x in r):
                newpool.append(r)
        pool = newpool
        if v > 0:
            closure = vscale(ring, ring.pi_pow(cap - v), piv)
            if any(x != ring.zero for x in closure):
                pool.append(closure)
        result.append(piv)
        pivots.append((j, v))
    # canonicalize entries sitting over later pivot columns; ascending order,
    # so a reduction never touches a column that is already canonical
    for idx in range(1, len(result)):
        j, v = pivots[idx]
        for idx2 in range(idx):
            q, _ = div_rem_pi(ring, result[idx2][j], v)
            if q != ring.zero:
                result[idx2] = vsub(ring, result[idx2], vscale(ring, q, result[idx]))
    return tuple(result), tuple(pivots)


class Submodule:
    """Submodule of ring^n in Howell canonical row form (rows generate)."""

    __slots__ = ("ring", "n", "rows", "pivots")

    def __init__(self, ring, n, rows, pivots):
        self.ring, self.n, self.rows, self.pivots = ring, n, rows, pivots

    @classmethod
    def span(cls, ring, n, gens):
        rows, pivots = _howell(ring, n, gens)
        return cls(ring, n, rows, pivots)

    @classmethod
    def zero(cls, ring, n):
        return cls(ring, n, (), ())

    @classmethod
    def full(cls, ring, n):
        return cls.span(ring, n, Matrix.identity(ring, n).rows)

    def reduce_vector(self, v):
        """Canonical representative of v modulo this submodule."""
        ring = self.ring
        v = tuple(v)
        for (j, a), row in zip(self.pivots, self.rows):
            q, rem = div_rem_pi(ring, v[j], a)
            if q != ring.zero:
                v = vsub(ring, v, vscale(ring, q, row))
        return v

    def contains(self, v) -> bool:
        ring = self.ring
        return all(x == ring.zero for x in self.reduce_vector(v))

    def contains_sub(self, other) -> bool:
        return all(self.contains(r) for r in other.rows)

    def add_sub(self, other):
        assert self.n == other.n
        return Submodule.span(self.ring, self.n, self.rows + other.rows)

    def intersect(self, other):
        assert self.n == other.n
        ring, n = self.ring, self.n
        s, t = len(self.rows), len(other.rows)
        if s == 0 or t == 0:
            return Submodule.zero(ring, n)
        A = Matrix.from_cols(ring, list(self.rows), m=n)
        B = Matrix.from_cols(ring, list(other.rows), m=n)
        gens = [A.apply(g[:s]) for g in kernel_gens(A.hstack(B))]
        return Submodule.span(ring, n, gens)

    def frob(self, j=1):
        ring = self.ring
        return Submodule.span(ring, self.n, [vfrob(ring, r, j) for r in self.rows])

    def scaled(self, c):
        ring = self.ring
        return Submodule.span(ring, self.n, [vscale(ring, c, r) for r in self.rows])

    def howell_kdim(self) -> int:
        """sum (capacity - val) over pivots; cross-check quantity."""
        return sum(self.ring.capacity - a for _, a in self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring is other.ring
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.ring), self.n, self.rows))

    def __repr__(self):
        return "Submodule(%d gens in %r^%d)" % (len(self.rows), self.ring, self.n)


def image(M: Matrix) -> Submodule:
    return Submodule.span(M.ring, M.m, M.cols())


def kernel(M: Matrix) -> Submodule:
    return Submodule.span(M.ring, M.n, kernel_gens(M))


def preimage(M: Matrix, S: Submodule) -> Submodule:
    """{x : M x in S}; S lives in ring^m."""
    assert S.n == M.m
    ring = M.ring
    if not S.rows:
        return kernel(M)
    B = Matrix.from_cols(ring, list(S.rows), m=M.m)
    gens = [g[: M.n] for g in kernel_gens(M.hstack(B))]
    return Submodule.span(ring, M.n, gens)


class SemilinearMap:
    """x -> A sigma^a(x), stored as (matrix A, twist a)."""

    __slots__ = ("matrix", "twist")

    def __init__(self, matrix: Matrix, twist: int):
        self.matrix = matrix
        self.twist = twist

    @property
    def ring(self):
        return self.matrix.ring

    @classmethod
    def identity(cls, ring, n):
        return cls(Matrix.identity(ring, n), 0)

    def apply(self, v):
        return self.matrix.apply(vfrob(self.ring, v, self.twist))

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self after other."""
        return SemilinearMap(self.matrix.mul(other.matrix.frob(self.twist)), self.twist + other.twist)

    def kernel(self) -> Submodule:
        return kernel(self.matrix).frob(-self.twist)

    def image(self) -> Submodule:
        return image(self.matrix)

    def preimage(self, T: Submodule) -> Submodule:
        return preimage(self.matrix, T).frob(-self.twist)

    def image_of(self, S: Submodule) -> Submodule:
        return Submodule.span(self.ring, self.matrix.m, [self.apply(r) for r in S.rows])

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.matrix == other.matrix
            and (self.twist - other.twist) % self.ring.f == 0
        )

    def __hash__(self):
        return hash((self.matrix, self.twist % self.ring.f))

    def __repr__(self):
        return "SemilinearMap(%r, twist=%d)" % (self.matrix, self.twist)


def random_matrix(ring, m, n, rng) -> Matrix:
    return Matrix(ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(m)], n=n)


def random_invertible(ring, n, rng, tries=1000) -> Matrix:
    for _ in range(tries):
        M = random_matrix(ring, n, n, rng)
        if M.is_invertible():
            return M
    raise AssertionError("no invertible matrix found; the odds say the rng is broken")
