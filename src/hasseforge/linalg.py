"""Exact linear algebra over the chain-ring protocol.

Matrices are immutable row-major tuples over one tower ring, and products
and applications are one ring.dot per entry.  Determinants and inverses
over the residue field k are elimination with FiniteField.sub_mul; over R
and W determinants come from an exact Smith decomposition M = U D W that
keeps only the valuations of D and one unit carrying det U * det W.

A submodule of R^n, R = k[pi]/(pi^e), is the same thing as a pi-stable
k-subspace of k^(n*e) (module coordinate m, pi-power s at flat index
m*e + s), and is stored as its reduced row echelon form; over k itself
e = 1.  So every submodule operation is plain elimination over the
residue field, a pi-multiple is a digit shift inside each block of e
(pi_shift; exact division by pi^s, pi_divide, is the shift back; on a
submodule, pi_times shifts the echelon rows and pi_preimage solves
against the shifted standard basis), and the kernels of an R-linear
map's restriction are pi-stable with no extra step.  The Howell form
over R (the strong echelon form, canonical over a ring with zero
divisors) is read off the echelon rows: per module column, the row of
least pi-power (Submodule.gens).

Semilinear maps x -> A sigma^a(x) carry their twist explicitly.  Each one
restricts once, on first use, to its k-matrix on flat vectors (column
m*e + s is the digit shift by s of restricted column m): apply_k (one
FiniteField.combine of those columns), kernel, preimage and image_of all
read that one cached restriction, so no flat vector goes back to
R-coordinates.  The kernel/image/preimage conventions return
submodules in untwisted coordinates:

    ker (A, a)      = sigma^{-a}(ker A)
    im  (A, a)      = column span of A
    (A, a)^{-1}(T)  = sigma^{-a}(A^{-1} T)
    (A, a)(S)       = span of A sigma^a(gens S)
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

from .errors import InvalidSpec, InvariantViolation, RetryExhausted
from .rings import PiChain


def vadd(ring, u, v):
    return tuple(ring.add(x, y) for x, y in zip(u, v))


def vsub(ring, u, v):
    return tuple(ring.sub(x, y) for x, y in zip(u, v))


def vscale(ring, c, v):
    return tuple(ring.mul(c, x) for x in v)


def vfrob(ring, v, j=1):
    return tuple(ring.frob(x, j) for x in v)


class Matrix:
    """Immutable matrix over a chain ring; rows of equal length.

    Matrix(...) copies and checks the rows it is given; the library's own
    products, transposes, inverses, pairings and the like, and the load
    (whose list checks fix the shape), build through _of, which trusts
    them.  Every product is one ring.dot per entry."""

    __slots__ = ("ring", "m", "n", "rows", "_hash")

    def __init__(self, ring, rows, n=None):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        self._hash = None
        if self.rows:
            self.n = len(self.rows[0])
            if n not in (None, self.n) or any(len(r) != self.n for r in self.rows):
                raise InvalidSpec("matrix rows of lengths %s, expected %s" % ({len(r) for r in self.rows}, n))
        else:
            self.n = 0 if n is None else n

    @classmethod
    def _of(cls, ring, rows, n):
        """The matrix on rows, a tuple of n-tuples built by the library:
        no copy and no check."""
        M = object.__new__(cls)
        M.ring, M.rows, M.m, M.n, M._hash = ring, rows, len(rows), n, None
        return M

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one, ring.zero
        return cls._of(ring, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, ring, m, n):
        return cls._of(ring, ((ring.zero,) * n,) * m, n)

    @classmethod
    def from_cols(cls, ring, cols, m=None):
        cols = list(cols)
        if not cols:
            if m is None:
                raise InvalidSpec("a matrix with no columns needs its row count")
            return cls._of(ring, ((),) * m, 0)
        if m is not None and m != len(cols[0]):
            raise InvalidSpec("columns of length %d, expected %d" % (len(cols[0]), m))
        return cls._of(ring, tuple(zip(*cols)), len(cols))

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.n)]

    def transpose(self):
        return Matrix._of(self.ring, tuple(zip(*self.rows)) if self.m else ((),) * self.n, self.m)

    def apply(self, v):
        if len(v) != self.n:
            raise InvalidSpec("a %dx%d matrix applied to a vector of length %d" % (self.m, self.n, len(v)))
        dot = self.ring.dot
        return tuple(dot(r, v) for r in self.rows)

    def mul(self, other):
        if self.ring is not other.ring or self.n != other.m:
            raise InvalidSpec("product of a %dx%d matrix over %r and a %dx%d matrix over %r"
                              % (self.m, self.n, self.ring, other.m, other.n, other.ring))
        # row r of the product is other^T applied to row r
        t = other.transpose()
        return Matrix._of(self.ring, tuple(t.apply(r) for r in self.rows), other.n)

    def scale(self, c):
        mul = self.ring.mul
        return Matrix._of(self.ring, tuple(tuple(mul(c, x) for x in r) for r in self.rows), self.n)

    def map(self, fn, ring=None):
        return Matrix._of(ring or self.ring, tuple(tuple(map(fn, r)) for r in self.rows), self.n)

    def frob(self, j=1):
        ring = self.ring
        if j % ring.f == 0:
            return self
        return self.map(lambda x: ring.frob(x, j))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring is other.ring
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ring), self.n, self.rows))
        return self._hash

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.m, self.n, self.ring)

    def inverse(self):
        """Gauss-Jordan on [M | I] with unit pivots; exact over any chain
        ring, with FiniteField.sub_mul as the row operation over k.  Left
        of pivot column j the pivot row is zero, so scaling starts at j
        and the row operations (see _row_op) skip those entries."""
        if self.m != self.n:
            raise ZeroDivisionError("only square matrices invert")
        ring, n = self.ring, self.n
        one, zero = ring.one, ring.zero
        sub_mul = _row_op(ring)
        a = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(self.rows)]
        for j in range(n):
            piv = next((i for i in range(j, n) if ring.is_unit(a[i][j])), None)
            if piv is None:
                raise ZeroDivisionError("matrix is not invertible")
            a[j], a[piv] = a[piv], a[j]
            if a[j][j] != one:
                c = ring.inv(a[j][j])
                a[j][j:] = [ring.mul(c, x) for x in a[j][j:]]
            for i in range(n):
                if i != j and a[i][j] != zero:
                    a[i] = sub_mul(a[i], a[i][j], a[j])
        return Matrix._of(ring, tuple(tuple(r[n:]) for r in a), n)

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
        """Over k, elimination with FiniteField.sub_mul on the rows' tails
        right of each pivot column; over R and W, read off smith."""
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        ring = self.ring
        if ring.k is not ring:
            if self.m == 0:
                return ring.one
            s = smith(self)
            return ring.mul(s.det, ring.pi_pow(sum(s.vals)))
        a = list(self.rows)
        det = ring.one
        for j in range(self.n):
            piv = next((i for i in range(j, self.n) if a[i][0]), None)
            if piv is None:
                return ring.zero
            if piv != j:
                a[j], a[piv] = a[piv], a[j]
                det = ring.neg(det)
            det = ring.mul(det, a[j][0])
            c, top = ring.inv(a[j][0]), a[j][1:]
            for i in range(j + 1, self.n):
                x = a[i][0]
                a[i] = ring.sub_mul(a[i][1:], ring.mul(c, x), top) if x else a[i][1:]
        return det


def _row_op(ring):
    """(u, c, v) -> u - c*v on rows, for a nonzero c: FiniteField.sub_mul
    over k, entrywise over R and W, skipping the entries where v is zero."""
    if ring.k is ring:
        return ring.sub_mul
    sub, mul, zero = ring.sub, ring.mul, ring.zero
    return lambda u, c, v: [x if y == zero else sub(x, mul(c, y)) for x, y in zip(u, v)]


# M = U D W with D = diag(pi^vals), valuations ascending, U and W
# invertible.  Keeps only the unit det = det U * det W, so a square M
# has det M = det * pi^(sum vals).
Smith = namedtuple("Smith", "vals det")


def smith(M: Matrix) -> Smith:
    ring = M.ring
    m, n, cap = M.m, M.n, ring.capacity
    sub_mul = _row_op(ring)
    a = [list(r) for r in M.rows]
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
            det = ring.neg(det)
        _, wu = ring.val_split(a[t][t])
        if wu != ring.one:
            c = ring.inv(wu)
            a[t] = [ring.mul(c, x) for x in a[t]]
            det = ring.mul(det, wu)
        # clear the rest of column t (row ops); clearing row t would take
        # col ops of determinant 1 that change only row t of a, which is
        # never read again, so they are skipped
        for i in range(t + 1, m):
            y = a[i][t]
            if y != ring.zero:
                b, wy = ring.val_split(y)
                a[i] = sub_mul(a[i], ring.mul(ring.pi_pow(b - v), wy), a[t])
        vals.append(v)
        t += 1
    while len(vals) < min(m, n):
        vals.append(cap)
    return Smith(tuple(vals), det)


def _digits(ring) -> int:
    """Flat k-coordinates per module coordinate: 1 over k, e over R."""
    if ring.k is ring:
        return 1
    if not isinstance(ring, PiChain):
        raise InvalidSpec("submodules live over k or R = k[pi]/(pi^e), not over %r" % (ring,))
    return ring.e


def restrict_vec(ring, v):
    """ring^n -> k^(n*e): module coordinate m, pi-power s -> flat index m*e + s."""
    if ring.k is ring:
        return v
    out = []
    for x in v:
        out.extend(x)
    return out


def unrestrict_vec(ring, kv):
    if ring.k is ring:
        return tuple(kv)
    e = ring.e
    if len(kv) % e:
        raise InvalidSpec("a k-vector of length %d does not restrict from R^n with e = %d" % (len(kv), e))
    return tuple(tuple(kv[i : i + e]) for i in range(0, len(kv), e))


def pi_shift(v, e, s):
    """pi^s on a flat vector: each block of e digits moves up by s."""
    return [0 if t % e < s else v[t - s] for t in range(len(v))]


def pi_divide(v, e, s):
    """The canonical z with pi^s z = v on a flat vector: each block of e
    digits moves down by s.  InvariantViolation when v is no multiple of
    pi^s, that is when a shifted-out digit is nonzero."""
    if any(x for t, x in enumerate(v) if t % e < s):
        raise InvariantViolation("vector is not divisible by pi^%d" % s)
    return [0 if t % e >= e - s else v[t + s] for t in range(len(v))]


def _reduce(k, rows, pivs, v):
    """The canonical representative of v modulo the span of the reduced
    echelon rows: v with every pivot column cleared."""
    for p, r in zip(pivs, rows):
        if v[p]:
            v = k.sub_mul(v, v[p], r)
    return v


def _insert(k, rows, pivs, v) -> bool:
    """Add v to the reduced echelon basis rows/pivs in place; False when v
    already lies in their span."""
    v = _reduce(k, rows, pivs, v)
    lead = next((t for t, x in enumerate(v) if x), None)
    if lead is None:
        return False
    if v[lead] != 1:
        c = k.inv(v[lead])
        v = [k.mul(c, x) for x in v]
    # v vanishes on every pivot column; only rows pivoting left of lead
    # can be nonzero on lead
    at = bisect_left(pivs, lead)
    for i in range(at):
        if rows[i][lead]:
            rows[i] = k.sub_mul(rows[i], rows[i][lead], v)
    rows.insert(at, v)
    pivs.insert(at, lead)
    return True


class Submodule:
    """Submodule of ring^n, ring = k or R = k[pi]/(pi^e), stored as the
    reduced echelon basis krows (pivot columns kpivots) of its restriction
    to k^(n*e).  rows/pivots are its Howell form over the ring.

    Callers build through span, kspan, solutions, zero and full; every
    one of those, and every operation, constructs through _of."""

    __slots__ = ("ring", "n", "e", "krows", "kpivots", "_hash", "_gens")

    @classmethod
    def _of(cls, ring, n, e, krows, kpivots):
        """The submodule on an echelon basis the library built: krows a
        tuple of tuples, kpivots a tuple and e = _digits(ring); no copy and
        no check."""
        S = object.__new__(cls)
        S.ring, S.n, S.e, S.krows, S.kpivots, S._hash, S._gens = ring, n, e, krows, kpivots, None, None
        return S

    @classmethod
    def span(cls, ring, n, gens):
        e, k = _digits(ring), ring.k
        rows, pivs = [], []
        for g in gens:
            v = restrict_vec(ring, g)
            # the span so far is pi-stable, so once pi^s g falls inside it
            # every higher pi-multiple of g does too
            for s in range(e):
                if s:
                    v = pi_shift(v, e, 1)
                if not _insert(k, rows, pivs, v):
                    break
        return cls._of(ring, n, e, tuple(map(tuple, rows)), tuple(pivs))

    @classmethod
    def kspan(cls, ring, n, kvecs):
        """The submodule whose restriction is the k-span of the flat
        vectors kvecs, which the caller vouches is pi-stable."""
        rows, pivs = [], []
        for v in kvecs:
            _insert(ring.k, rows, pivs, v)
        return cls._of(ring, n, _digits(ring), tuple(map(tuple, rows)), tuple(pivs))

    @classmethod
    def solutions(cls, ring, n, forms):
        """The submodule whose restriction is the common zero set in
        k^(n*e) of the flat k-linear forms, which the caller vouches is
        pi-stable.  Eliminating the forms with each pivot at a row's last
        nonzero entry makes the solution of free column f (1 at f, -r[f] at
        the pivot of each row r) nonzero only at f and at pivots right of
        f, so these solutions already form a reduced echelon basis."""
        e = _digits(ring)
        k, N = ring.k, n * e
        rows, pivs = [], []
        for c in forms:
            _insert(k, rows, pivs, c[::-1])
        pivot_rows = [(N - 1 - p, r[::-1]) for p, r in zip(pivs, rows)]
        free = [f for f in range(N) if N - 1 - f not in pivs]
        out = []
        for f in free:
            x = [0] * N
            x[f] = 1
            for q, r in pivot_rows:
                x[q] = k.neg(r[f])
            out.append(tuple(x))
        return cls._of(ring, n, e, tuple(out), tuple(free))

    @classmethod
    def zero(cls, ring, n):
        return cls._of(ring, n, _digits(ring), (), ())

    @classmethod
    def full(cls, ring, n):
        e = _digits(ring)
        N = n * e
        return cls._of(ring, n, e, tuple((0,) * i + (1,) + (0,) * (N - 1 - i) for i in range(N)),
                       tuple(range(N)))

    def gens(self):
        """The Howell rows (see the module docstring), flat.  S is pi-stable,
        so their pi-shifts have all of S's pivots and span S over k: a k-linear
        fact that commutes with pi holds on S when it holds on them."""
        if self._gens is None:
            e, pivs = self.e, self.kpivots
            self._gens = tuple(r for t, r in enumerate(self.krows)
                               if t == 0 or pivs[t - 1] // e != pivs[t] // e)
        return self._gens

    @property
    def rows(self):
        return tuple(unrestrict_vec(self.ring, g) for g in self.gens())

    @property
    def pivots(self):
        """(module column, pi-power) of each Howell row: its first nonzero entry."""
        return tuple(divmod(next(t for t, x in enumerate(g) if x), self.e) for g in self.gens())

    def free(self):
        """The flat columns that are not pivots."""
        taken = set(self.kpivots)
        return [t for t in range(self.n * self.e) if t not in taken]

    def reduce_k(self, kv):
        """Canonical representative of the flat vector kv modulo the
        restriction: kv with every pivot column cleared."""
        return _reduce(self.ring.k, self.krows, self.kpivots, kv)

    def contains(self, v) -> bool:
        return self.contains_k(restrict_vec(self.ring, v))

    def contains_k(self, kv) -> bool:
        """Membership of the flat vector kv in the restriction."""
        return not any(self.reduce_k(kv))

    def coords(self, kv):
        """Coordinates of the member kv of k^(n*e) in the basis krows: the
        rows have unit pivots and zeros under each other's pivots, so these
        are plain pivot reads.  InvariantViolation when kv is no member."""
        if any(self.reduce_k(kv)):
            raise InvariantViolation("vector is not in the submodule")
        return tuple(kv[p] for p in self.kpivots)

    def contains_sub(self, other) -> bool:
        k, rows, pivs = self.ring.k, self.krows, self.kpivots
        return all(not any(_reduce(k, rows, pivs, g)) for g in other.gens())

    def _check_n(self, other, what):
        if self.ring is not other.ring or self.n != other.n:
            raise InvalidSpec("%s of submodules of %r^%d and %r^%d"
                              % (what, self.ring, self.n, other.ring, other.n))

    def add_sub(self, other):
        self._check_n(other, "sum")
        rows, pivs = list(self.krows), list(self.kpivots)
        for v in other.krows:
            _insert(self.ring.k, rows, pivs, v)
        return self._with(rows, pivs)

    def intersect(self, other):
        self._check_n(other, "intersection")
        return self._with(*_solve(other, self.krows, (self.krows, self.kpivots)))

    def frob(self, j=1):
        k = self.ring.k
        if j % k.f == 0:
            return self
        return Submodule._of(self.ring, self.n, self.e,
                             tuple(tuple([k.frob(x, j) for x in r]) for r in self.krows), self.kpivots)

    def pi_times(self, s):
        """pi^s S: the digit shifts of the echelon rows, which span it."""
        e = self.e
        if s == 0:
            return self
        shifts = [pi_shift(r, e, s) for r in self.krows] if s < e else ()
        return Submodule.kspan(self.ring, self.n, shifts)

    def pi_preimage(self, s):
        """pi^(-s) S = {x : pi^s x in S}: one solve over the digit shifts
        pi^s u_t of the flat standard basis vectors u_t, which are the
        restricted columns of pi^s on ring^n."""
        N = self.n * self.e
        images = [pi_shift([int(u == t) for u in range(N)], self.e, s) for t in range(N)]
        rows, pivs = _solve(self, images)
        return Submodule._of(self.ring, self.n, self.e, rows, pivs)

    def _with(self, rows, pivs):
        """A submodule of the same ring^n on the library's echelon lists."""
        return Submodule._of(self.ring, self.n, self.e, tuple(map(tuple, rows)), tuple(pivs))

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring is other.ring
            and self.n == other.n
            and self.krows == other.krows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ring), self.n, self.krows))
        return self._hash

    def __repr__(self):
        return "Submodule(%d gens in %r^%d)" % (len(self.gens()), self.ring, self.n)


def _solve(T, images, basis=None):
    """Echelon rows and pivots of {x = sum c_i basis_i : sum c_i images_i
    in T}, basis an echelon (rows, pivots) pair or None for the standard
    basis.  The c's solve one form per free column of T; x reads c off the
    basis pivots, so the c's echelon basis maps to one of the x's."""
    k, free = T.ring.k, T.free()
    red = [_reduce(k, T.krows, T.kpivots, y) for y in images]
    C = Submodule.solutions(k, len(red), list(zip(*[[r[t] for t in free] for r in red])))
    if basis is None:
        return C.krows, C.kpivots
    xs = [k.combine(c, basis[0], len(basis[0][0])) for c in C.krows]
    return xs, [basis[1][i] for i in C.kpivots]


def image(M: Matrix) -> Submodule:
    return Submodule.span(M.ring, M.m, M.cols())


def kernel(M: Matrix) -> Submodule:
    return SemilinearMap(M, 0).kernel()


class SemilinearMap:
    """x -> A sigma^a(x), stored as (matrix A, twist a), with its
    restriction to flat vectors cached on first use."""

    __slots__ = ("matrix", "twist", "_kcols")

    def __init__(self, matrix: Matrix, twist: int):
        self.matrix = matrix
        self.twist = twist
        self._kcols = None

    @property
    def ring(self):
        return self.matrix.ring

    def kcols(self):
        """The columns of A restricted to k^(n*e) -> k^(m*e): the k-basis
        vector pi^s e_j goes to the digit shift pi^s (column j), at flat
        index j*e + s.  Built once per map."""
        if self._kcols is None:
            M = self.matrix
            ring = M.ring
            e = _digits(ring)
            self._kcols = [pi_shift(restrict_vec(ring, M.col(j)), e, s)
                           for j in range(M.n) for s in range(e)]
        return self._kcols

    def apply(self, v):
        return self.matrix.apply(vfrob(self.ring, v, self.twist))

    def apply_k(self, kv):
        """The map on flat vectors: the restricted A applied to
        sigma^a(kv), equal to restrict_vec(apply(unrestrict_vec(kv)))."""
        k = self.ring.k
        if self.twist % k.f:
            kv = [k.frob(x, self.twist) for x in kv]
        return k.combine(kv, self.kcols(), self.matrix.m * _digits(self.ring))

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self after other."""
        return SemilinearMap(self.matrix.mul(other.matrix.frob(self.twist)), self.twist + other.twist)

    def kernel(self) -> Submodule:
        return self.preimage(Submodule.zero(self.ring, self.matrix.m))

    def image(self) -> Submodule:
        return image(self.matrix)

    def preimage(self, T: Submodule) -> Submodule:
        M = self.matrix
        if T.ring is not M.ring or T.n != M.m:
            raise InvalidSpec("preimage under a %dx%d matrix over %r of a submodule of %r^%d"
                              % (M.m, M.n, M.ring, T.ring, T.n))
        rows, pivs = _solve(T, self.kcols())
        return Submodule._of(M.ring, M.n, T.e, rows, pivs).frob(-self.twist)

    def image_of(self, S: Submodule) -> Submodule:
        """The images of S's echelon rows span the restriction of the
        image, which is pi-stable because the map is R-semilinear."""
        return Submodule.kspan(self.ring, self.matrix.m, [self.apply_k(r) for r in S.krows])

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


# a uniform square matrix over a local ring is invertible with probability > 1/4
_INVERTIBLE_TRIES = 1000


def random_matrix(ring, m, n, rng) -> Matrix:
    return Matrix(ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(m)], n=n)


def random_invertible(ring, n, rng) -> Matrix:
    for _ in range(_INVERTIBLE_TRIES):
        M = random_matrix(ring, n, n, rng)
        if M.is_invertible():
            return M
    raise RetryExhausted("no invertible matrix found; the odds say the rng is broken")
