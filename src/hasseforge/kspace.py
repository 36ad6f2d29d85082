"""k-linear layer on top of the R-module layer.

Everything that ends in an actual invariant value happens here: R-module
quotients num/den are presented as k-spaces with canonical bases, maps
between quotients become k-matrices (with their frobenius twist carried
along), and determinants of those matrices are the scalars the theory
multiplies together.

Restricted scalars convention: R^n -> k^(n*e) sends module coordinate m,
pi-power s to flat index m*e + s.  This layer works on flat vectors, the
residue form and pairing matrices included: restrict_vec/unrestrict_vec
only serve callers that hold R-vectors.

An R-submodule is stored as the reduced echelon basis of its restriction
(see linalg), which is exactly a Submodule over k: the underlying k-space
is a read, and descent checks run on a den's generators (Submodule.gens).

Every induced map is built by induced_from_fun, on flat vectors end to
end: it checks descent once, on the source den's generators, applies
the map to the source's flat lifts and reads the images in the target's
coordinates.  induced_semilinear is the same constructor for an
R-semilinear map, applied through its cached restriction
(SemilinearMap.apply_k).
"""

from __future__ import annotations

import copy

from .errors import InvariantViolation, NotComplementary, NotNested, WellDefinednessViolation
from .linalg import Matrix, SemilinearMap, Submodule, restrict_vec, unrestrict_vec


def ksub_from_rsub(R, S: Submodule) -> Submodule:
    """The underlying k-subspace of an R-submodule of R^n, inside k^(n*e)."""
    return Submodule._of(R.k, S.n * R.e, 1, S.krows, S.kpivots)


def _reversed_blocks(e, v):
    """v with the digits of each block of e reversed: flat index m*e + s
    goes to m*e + e-1-s."""
    return v if e == 1 else [x for m in range(0, len(v), e) for x in reversed(v[m : m + e])]


def residue_form(R, u, w) -> int:
    """<u, w> = coefficient of pi^(e-1) in sum_m u_m w_m, on flat vectors:
    it pairs flat index m*e + s with m*e + e-1-s, so it is one k.dot with
    w's blocks reversed.  k-bilinear, R-balanced, perfect on R^n x R^n,
    and frobenius-equivariant."""
    return R.k.dot(u, _reversed_blocks(R.e, w))


def annihilator(R, n, S: Submodule) -> Submodule:
    """{w : <u, w> = 0 for all u in S} under the residue form, as an
    R-submodule of R^n (the form is R-balanced, so this is R-stable).
    Each echelon row of S, its blocks reversed, is one k-linear form that
    the annihilator's restriction must satisfy."""
    return Submodule.solutions(R, n, [_reversed_blocks(R.e, kv) for kv in S.krows])


class QuotientPresentation:
    """num/den for nested R-submodules of R^n, as a k-space with chosen lifts.

    The default basis: num's reduced echelon rows whose pivot is not a
    pivot of den (each den pivot is a num pivot, as den <= num).  Those
    rows vanish on den's pivots, so they are canonical representatives
    mod den as well as lifts.  A vector's coordinates are read off its
    den-reduction at the kept rows' pivots: the reduction lies in num and
    vanishes on den's pivots, so it is a combination of the kept rows.
    """

    def __init__(self, R, n, num: Submodule, den: Submodule):
        if not num.contains_sub(den):
            raise NotNested("den is not contained in num")
        self.R, self.n = R, n
        self.num, self.den = num, den
        taken = set(den.kpivots)
        self._kept = [t for t, c in enumerate(num.kpivots) if c not in taken]
        self.dim = len(self._kept)
        self.lifts = [num.krows[t] for t in self._kept]
        self._post = None

    @property
    def lifts_R(self):
        """The lifts as R-vectors, for readers that work in R^n."""
        return [unrestrict_vec(self.R, l) for l in self.lifts]

    def coordinates_of_k(self, kv):
        # num.coords raises InvariantViolation unless the kept rows reduce
        # the den-reduction to zero
        c = self.num.coords(self.den.reduce_k(kv))
        raw = tuple(c[t] for t in self._kept)
        return self._post.apply(raw) if self._post is not None else raw

    def coordinates_of_R(self, v):
        return self.coordinates_of_k(restrict_vec(self.R, v))

    def with_lifts(self, lifts) -> "QuotientPresentation":
        """Same quotient, custom lift basis: flat vectors of num that form
        a basis mod den."""
        qp = copy.copy(self)
        # new coords = T^{-1} (old coords), so that coords(lift_t) = e_t
        cols = [self.coordinates_of_k(l) for l in lifts]
        T = Matrix.from_cols(self.R.k, cols, m=self.dim)
        qp._post = T.inverse() if self._post is None else T.inverse().mul(self._post)
        qp.lifts = list(lifts)
        return qp

    def __repr__(self):
        return "QuotientPresentation(dim %d over %r)" % (self.dim, self.R.k)


def subspace_in_qp(qp: QuotientPresentation, S: Submodule) -> Submodule:
    """Image of the R-submodule S (inside num) in the quotient's coordinate
    space k^dim, as a canonical k-subspace."""
    gens = [qp.coordinates_of_k(kv) for kv in S.krows]
    return Submodule.span(qp.R.k, qp.dim, gens)


def induced_semilinear(phi: SemilinearMap, src: QuotientPresentation, dst: QuotientPresentation) -> SemilinearMap:
    """k-matrix of the map src -> dst induced by the R-semilinear phi;
    raises WellDefinednessViolation when phi does not descend."""
    return induced_from_fun(phi.apply_k, phi.twist, src, dst)


def induced_from_fun(fn, twist, src: QuotientPresentation, dst: QuotientPresentation) -> SemilinearMap:
    """k-matrix of the map src -> dst induced by fn on flat vectors, which is
    k-semilinear with the given twist and commutes with pi on src.den.  It
    decides two facts: fn carries src.den's generators into dst.den (which
    is pi-stable, so all of src.den follows), and each lift's image lies in
    dst.num.  A choice fn makes on the way (a division, say) is the
    caller's to show harmless.  Raises WellDefinednessViolation."""
    for g in src.den.gens():
        if not dst.den.contains_k(fn(g)):
            raise WellDefinednessViolation("fn does not map den into den")
    cols = []
    for l in src.lifts:
        w = fn(l)
        try:
            cols.append(dst.coordinates_of_k(w))
        except InvariantViolation as exc:
            raise WellDefinednessViolation("fn does not map num into num") from exc
    return SemilinearMap(Matrix.from_cols(src.R.k, cols, m=dst.dim), twist)


def pairing_matrix(form, left: QuotientPresentation, right: QuotientPresentation) -> Matrix:
    """Matrix P[u][v] = form(left lift u, right lift v) of a k-bilinear form on
    flat vectors, R-balanced (<pi u, w> = <u, pi w>), descending to left x right:
    left.den's generators pair with right.num, then left's lifts with right.den's."""
    for d in left.den.gens():
        for x in right.num.krows:
            if form(d, x):
                raise WellDefinednessViolation("pairing does not kill left.den")
    for x in left.lifts:
        for d in right.den.gens():
            if form(x, d):
                raise WellDefinednessViolation("pairing does not kill right.den")
    rows = tuple(tuple(form(lu, rv) for rv in right.lifts) for lu in left.lifts)
    return Matrix._of(left.R.k, rows, right.dim)


def quotient_det(k, S: Submodule, vecs):
    """The determinant of the vectors vecs of k^r read in k^r/S, whose
    canonical basis is the standard vectors at S's free columns: each
    column is a vector's reduction mod S (reduce_k) at those columns."""
    free = S.free()
    cols = [tuple(S.reduce_k(v)[j] for j in free) for v in vecs]
    return Matrix.from_cols(k, cols, m=len(free)).det()


def prop_dual(k, r: int, B: Submodule, C: Submodule):
    """Complementary-pair determinant identity inside k^r.

    For dim B + dim C = r, let x = det(C -> k^r/B) and y = det(B -> k^r/C)
    in the canonical RREF bases with standard-vector lifts.  Then

        x = iso * y,   iso = (-1)^(s(r-s)) * det[C|Q_C] * det[B|Q_B]^{-1}

    where s = dim B and Q_* are the standard lift columns.  iso is +-1:
    an RREF row is 1 at its pivot and 0 at the other pivots, so column
    operations with the unit columns at the free positions turn [B|Q_B]
    into the permutation matrix of (pivots, then free columns), whose
    determinant is (-1)^sum(p_i - i) over B's pivots p_0 < p_1 < ...
    So iso = (-1)^(s(r-s) + sum over B and C of (p_i - i)), and no
    determinant besides x and y is taken.  x and y vanish together
    (exactly when B and C overlap)."""
    s, t = len(B.krows), len(C.krows)
    if s + t != r:
        raise NotComplementary("dim B + dim C = %d + %d != %d" % (s, t, r))
    x = quotient_det(k, B, C.krows)
    y = quotient_det(k, C, B.krows)
    shifts = sum(p - i for S in (B, C) for i, p in enumerate(S.kpivots))
    iso = k.from_int((-1) ** (s * t + shifts))
    if x != k.mul(iso, y):
        raise InvariantViolation("complementary-pair determinant identity failed")
    return x, y, iso
