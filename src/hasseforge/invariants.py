"""Determinant invariants of filtered semilinear module data.

Every invariant is the determinant of a concrete k-matrix written in a
deterministic basis, so values are exact field elements and every claimed
identity is verified as a matrix or scalar equation.

Each section value comes with a duality verdict: the same invariant on the
dual datum differs from the primal one by an explicit unit.  The verdict
assembles that unit from the Gram determinants of the residue pairing, the
complementary-pair identity (kspace.prop_dual) and one basis change, the
adapted Hodge basis's, then re-checks scalar_G == iso * scalar_GD exactly.
Intermediate identities are checked through errors.require along the way,
so a failure names the step that broke rather than just the final
comparison.  section checks each map against its natural description;
inside a verdict the dual map is pinned by the pairing adjunction with a
checked primal map, so the dual's descriptions are built only when the
dual itself is read.
"""

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidSpec, require
from .linalg import Matrix, Submodule, pi_divide, pi_shift
from .kspace import (QuotientPresentation, induced_from_fun,
                     induced_semilinear, ksub_from_rsub, pairing_matrix,
                     prop_dual, residue_form, subspace_in_qp)
from .datum import LiftedDatum
from .flags import aux_flag, conj_flag, extended_flag, pi_divisibility, pi_preimage


@dataclass(frozen=True)
class LineSection:
    """A section of a determinant line: a scalar in k together with the
    formal word naming the line it lives in.  The word is bookkeeping for
    reports; no arithmetic ever depends on it."""

    name: str
    i: Optional[int]
    j: Optional[int]
    scalar: int
    line: tuple
    vanished: bool


@dataclass(frozen=True)
class DualityVerdict:
    """Outcome of comparing an invariant on a datum and on its dual.

    equal means scalar_G == canonical_iso_scalar * scalar_GD exactly.
    status is "ok" or "not_applicable" (the boundary-map comparison needs
    the conjugate-flag divisibility, which bare mod-p data may lack)."""

    name: str
    i: Optional[int]
    j: Optional[int]
    scalar_G: int
    scalar_GD: int
    canonical_iso_scalar: Optional[int]
    equal: bool
    status: str = "ok"


def _kmul(K, *vals):
    acc = K.one
    for v in vals:
        acc = K.mul(acc, v)
    return acc


def _unit(K, c, what):
    require(c != K.zero, what + " must be invertible")
    return c


def _torsion(D, t):
    """Kernel of pi^t on E_i, the pi^t-preimage of 0: solved once per
    document, and shared with the flags (auxiliary level 0 is pi^(-1)(0))."""
    p = D.params
    return pi_preimage(D, t, Submodule.zero(p.R, p.h1))


def _block(K, M, r0, r1, c0, c1):
    return Matrix(K, [row[c0:c1] for row in M.rows[r0:r1]], n=c1 - c0)


def _w_label(i):
    return "w(%d)" % i


def _g_label(i, j):
    return "w(%d)[%d]" % (i, j)


# ---------------------------------------------------------------------------
# deterministic presentations, shared by sections and verdicts


def _qp(D, num, den):
    """num/den with its default lifts, keyed by the submodules themselves,
    which compare by ring and echelon rows."""
    p = D.params
    return D.shared(("qp", num, den),
                    lambda: QuotientPresentation(p.R, p.h1, num, den))


def _induced(D, phi, src, dst):
    """The map src -> dst induced by the R-semilinear phi, keyed by phi's
    matrix and twist and by the two presentations."""
    return D.shared(("map", phi.matrix, phi.twist, src, dst),
                    lambda: induced_semilinear(phi, src, dst))


def _pi(D, s, src, dst):
    """The map src -> dst induced by pi^s, a digit shift on flat vectors;
    s = 0 gives the natural map."""
    e = D.params.e
    return D.shared(("pi", s, src, dst),
                    lambda: induced_from_fun(lambda v: pi_shift(v, e, s), 0, src, dst))


def _qgr(D, i, j):
    """Graded piece level j of the extended flag at embedding i, 1 <= j <= 2e."""
    ext = extended_flag(D, i)
    return _qp(D, ext[j], ext[j - 1])


def _qb(D, i):
    """Hodge submodule with the flag-adapted basis: concatenated graded
    lifts, level ascending.  Makes the restricted V block-triangular."""
    p = D.params

    def build():
        lifts = [l for j in range(1, p.e + 1) for l in _qgr(D, i, j).lifts]
        return _qp(D, D.hodge(i), Submodule.zero(p.R, p.h1)).with_lifts(lifts)

    return D.memo(("qb", i), build)


def _qab(D, i):
    return _qp(D, Submodule.full(D.params.R, D.params.h1), D.hodge(i))


def _qac(D, i):
    return _qp(D, Submodule.full(D.params.R, D.params.h1), D.conj(i))


def _qc(D, i):
    return _qp(D, D.conj(i), Submodule.zero(D.params.R, D.params.h1))


# ---------------------------------------------------------------------------
# induced maps


def _map_ha_pr(D, i, j):
    """V between level-j graded pieces of the stored flags.  Descent follows
    from the flag axioms alone; induced_semilinear re-checks it anyway."""
    p = D.params
    i1 = (i - 1) % p.f
    return _induced(D, D.V[i], _qgr(D, i, j), _qgr(D, i1, j))


def _map_v_hodge(D, i):
    """V restricted to the Hodge submodule, in the flag-adapted bases.
    Verifies block-triangularity and that the diagonal blocks are exactly
    the graded maps, which pins det == prod of graded dets."""
    p = D.params
    K = p.k
    i1 = (i - 1) % p.f

    def build():
        M = _induced(D, D.V[i], _qb(D, i), _qb(D, i1))
        d = p.d1
        for j in range(1, p.e + 1):
            diag = _block(K, M.matrix, (j - 1) * d, j * d, (j - 1) * d, j * d)
            require(diag == _map_ha_pr(D, i, j).matrix,
                     "adapted V block (%d,%d) disagrees with the graded map" % (j, j))
            for l in range(j + 1, p.e + 1):
                low = _block(K, M.matrix, (l - 1) * d, l * d, (j - 1) * d, j * d)
                require(low == Matrix.zeros(K, d, d),
                         "V does not respect the flag filtration")
        return M

    return D.memo(("map", "v_hodge", i), build)


def _nat_v_hodge(D, i):
    """The natural description of _map_v_hodge, checked: V on the conjugate
    quotient (Mv, of unit det u_v) after the natural map nat from the Hodge
    submodule to that quotient.  Returns (u_v, nat)."""
    def build():
        M = _map_v_hodge(D, i)
        Mv = _induced(D, D.V[i], _qac(D, i), _qb(D, (i - 1) % D.params.f))
        u_v = _unit(D.params.k, Mv.matrix.det(), "V on the conjugate quotient")
        nat = _pi(D, 0, _qb(D, i), _qac(D, i))
        require(M.matrix == Mv.matrix.mul(nat.matrix.frob(-1)),
                 "V on the Hodge submodule disagrees with its natural description")
        return u_v, nat

    return D.memo(("nat", "v_hodge", i), build)


def _map_m(D, i, j):
    """Multiplication by pi from graded piece j to j-1."""
    return D.memo(("map", "m", i, j), lambda: _pi(D, 1, _qgr(D, i, j), _qgr(D, i, j - 1)))


def _nat_m(D, i, j):
    """The boundary description of _map_m, checked: the inclusion nat into
    the divided flag followed by the pi-isomorphism piiso back down.
    Returns (piiso, nat)."""
    def build():
        M = _map_m(D, i, j)
        aux = aux_flag(D, i)
        qgrp = _qp(D, aux[j - 1], aux[j - 2])
        piiso = _pi(D, 1, qgrp, _qgr(D, i, j - 1))
        _unit(D.params.k, piiso.matrix.det(), "pi-iso between divided and plain grades")
        nat = _pi(D, 0, _qgr(D, i, j), qgrp)
        require(M.matrix == piiso.matrix.mul(nat.matrix),
                 "graded pi map disagrees with its boundary description")
        return piiso, nat

    return D.memo(("nat", "m", i, j), build)


def _hasse_gate(D, i):
    """pi^(e-1) carries conjugate level 2e-1 into conjugate level 1.
    Automatic for reductions of lifted data; bare mod-p data may fail."""
    p = D.params
    ft = conj_flag(D, i)
    return ft[1].contains_sub(ft[2 * p.e - 1].pi_times(p.e - 1))


def _map_hasse(D, i):
    """The boundary map: divide by pi^(e-1) inside the pi-torsion, apply V,
    project to the top graded piece at the previous embedding.

    The division is defined up to pi R^h1, and that choice dies in the
    target: V[i] carries pi R^h1 onto pi * hodge(i-1), which is
    pi * flag_{i-1}[e], and validate's pi-compatibility check at level e
    puts that inside flag_{i-1}[e-1], the target's den.  Every datum read
    here passed that check: loads, duals and lift reductions are
    validated, and the generators' _of flags are pi-compatible by
    construction.  So induced_from_fun decides only descent and num."""
    p = D.params

    def build():
        V, e = D.V[i], p.e

        def fn(v):
            return V.apply_k(pi_divide(v, e, e - 1))

        return induced_from_fun(fn, -1, _qgr(D, i, 1), _qgr(D, (i - 1) % p.f, e))

    return D.memo(("map", "hasse", i), build)


def _nat_hasse(D, i):
    """The natural description of _map_hasse, checked; None when the gate
    fails, else (u_v, u_p, Mn): the unit dets of V on the conjugate-tail
    quotient and of pi^(e-1) from it into the pi-torsion mod conjugate
    level 1, and the natural map from graded piece 1 there."""
    p = D.params

    def build():
        M = _map_hasse(D, i)
        if not _hasse_gate(D, i):
            return None
        ft = conj_flag(D, i)
        qw = _qp(D, Submodule.full(p.R, p.h1), ft[2 * p.e - 1])
        qt1 = _qp(D, _torsion(D, 1), ft[1])
        Mq = _induced(D, D.V[i], qw, _qgr(D, (i - 1) % p.f, p.e))
        u_v = _unit(p.k, Mq.matrix.det(), "V on the conjugate-tail quotient")
        Mp = _pi(D, p.e - 1, qw, qt1)
        u_p = _unit(p.k, Mp.matrix.det(), "pi^(e-1) on the conjugate-tail quotient")
        Mn = _pi(D, 0, _qgr(D, i, 1), qt1)
        lhs = Mp.matrix.mul(Mq.matrix.inverse().frob(1)).mul(M.matrix.frob(1))
        require(lhs == Mn.matrix,
                 "boundary map disagrees with its natural description")
        return u_v, u_p, Mn

    return D.memo(("nat", "hasse", i), build)


# ---------------------------------------------------------------------------
# sections


def section(D, name, i=None, j=None) -> LineSection:
    """The invariant name as a line section: the det of the family's map,
    for ha the product of the ha_i, embeddings ascending (det of V on the
    full Hodge space in the block-diagonal adapted basis).  name is a key
    of FAMILIES; pass i, j as that family's index ranges require.  Built
    once per datum and index, after _index has checked that index."""
    D = D.reduce()
    idx = _index(name, D.params, i, j)
    return D.memo(("section", name) + idx, lambda: _section(D, name, idx))


def _section(D, name, idx) -> LineSection:
    """section's body for a normalized index tuple idx."""
    p = D.params
    fam = FAMILIES[name]
    if fam.map is None:
        parts = [section(D, "ha_i", *ix) for ix in family_indices("ha_i", p)]
        scalar = _kmul(p.k, *[s.scalar for s in parts])
        line = sum((s.line for s in parts), ())
    else:
        if fam.nat is not None:
            fam.nat(D, *idx)
        scalar = fam.map(D, *idx).matrix.det()
        line = fam.line(p, *idx)
    i, j = (idx + (None, None))[:2]
    return LineSection(name, i, j, scalar, line, scalar == p.k.zero)


def _det(D, name, idx):
    """The det of the family's map alone; for ha, the ha_i dets' product."""
    fam = FAMILIES[name]
    if fam.map is None:
        return _kmul(D.params.k, *[_det(D, "ha_i", ix) for ix in family_indices("ha_i", D.params)])
    return fam.map(D, *idx).matrix.det()


def factorization_check(D, i, j) -> bool:
    """The graded V map at level j equals the composite of the pi-step maps
    below it, the boundary map, and the twisted pi-step maps above it.
    Compared entrywise on the actual matrices in the shared bases."""
    D = D.reduce()
    p = D.params
    i, j = _index("ha_pr", p, i, j)
    i1 = (i - 1) % p.f

    def build():
        above, below = _m_levels_around(p, j)
        M = _map_hasse(D, i).matrix
        # m maps above compose on the left (level e acts first), the
        # frob(-1) twisted m maps below on the right (level j acts first)
        for l in reversed(above):
            M = _map_m(D, i1, l).matrix.mul(M)
        for l in below:
            M = M.mul(_map_m(D, i, l).matrix.frob(-1))
        return M == _map_ha_pr(D, i, j).matrix

    return D.memo(("factorization", i, j), build)


def product_identity_check(D) -> bool:
    """Each per-embedding det ha_i equals the product of its graded dets
    ha_pr(i, j).  That ha is the product of the ha_i is its definition
    (see section), so it is not compared here."""
    D = D.reduce()
    p = D.params
    I, J = _ranges("ha_pr", p)
    return all(section(D, "ha_i", i).scalar
               == _kmul(p.k, *[section(D, "ha_pr", i, j).scalar for j in J])
               for i in I)


def check_pi_divisibility(D, i, rng=None) -> bool:
    """Divisibility of the conjugate flag chain at embedding i.  For lifted
    data, also checks the underlying division identity: for x in
    S_j = F^-1(ker pi^(e-j)), V(F(x)/pi^j) agrees with pi^(e-j) * u * x
    modulo pi^(e-j) times the Hodge submodule im V.  Both sides are
    k-linear in x and the modulus is a k-subspace, so a k-basis decides
    each level; F, V, the division and u = sum of u_t pi^t act on flat
    vectors.  The levels descend: for x in S_(j+1) inside S_j,
    pi * (F(x)/pi^(j+1)) is an F(x)/pi^j (two choices differ by ker pi^j,
    which V carries into pi^(e-j) im V), V commutes with pi, and
    pi * pi^(e-j-1) Hodge = pi^(e-j) Hodge, so level j+1's identity times
    pi is level j's on S_(j+1).  Running j from e down to 1, level j
    therefore needs only the echelon rows of S_j whose pivots are not
    S_(j+1)'s, which span a complement: dim S_1 rows in all.  rng is
    accepted and ignored, for callers that still pass one."""
    red = D.reduce()
    p = red.params
    i %= p.f
    if not pi_divisibility(red, i):
        return False
    if not isinstance(D, LiftedDatum):
        return True
    k, e = p.k, p.e
    i1 = (i - 1) % p.f
    ubar = p.W.reduce(p.tower.unit_u)
    F, V = red.F[i], red.V[i]
    above = ()
    for j in range(e, 0, -1):
        S = F.preimage(_torsion(red, e - j))
        den = red.hodge(i1).pi_times(e - j)
        for x, piv in zip(S.krows, S.kpivots):
            if piv in above:
                continue
            # V(F(x) / pi^j) - pi^(e-j) u x, one c_t pi^(t+e-j) x at a time
            y = V.apply_k(pi_divide(F.apply_k(x), e, j))
            for t, c in enumerate(ubar):
                if c:
                    y = k.sub_mul(y, c, pi_shift(x, e, t + e - j))
            if not den.contains_k(y):
                return False
        above = frozenset(S.kpivots)
    return True


# ---------------------------------------------------------------------------
# duality verdicts.  A family's unit builder returns (unit, held): the unit
# relating the primal and dual sections (None when the comparison is not
# applicable) and whether the sub-verdicts it was assembled from held.


def _pairing_adjunction(p, Md, Mp, left, right, twist, name, what):
    """Residue-pairing adjunction between a map Md on the dual datum and a
    map Mp on the primal one: Md^T P2 == (P1 Mp) twisted by frob(twist), P1
    pairing left = (source of Md, target of Mp), P2 pairing right = (target
    of Md, source of Mp).  Returns the two Gram determinants."""
    form = lambda u, w: residue_form(p.R, u, w)
    P1 = pairing_matrix(form, *left)
    P2 = pairing_matrix(form, *right)
    dP1 = _unit(p.k, P1.det(), name + " residue pairing")
    dP2 = _unit(p.k, P2.det(), name + " residue pairing")
    require(Md.matrix.transpose().mul(P2) == P1.mul(Mp.matrix).frob(twist), what)
    return dP1, dP2


def _complementary_pair(K, r, Bk, Ck, d, d2, names):
    """prop_dual on complementary subspaces Bk, Ck of k^r, tied to the dets
    d of the natural map Bk -> k^r/Ck and d2 of Ck -> k^r/Bk; returns iso,
    the unit with d2 = iso * d.  iso is +-1, so it is its own inverse.
    prop_dual's bases are a subspace's reduced echelon rows and, for the
    quotient, the standard vectors at the other's free columns.  For
    den <= S <= num echelon-stored and qA = num/den, a default lift of
    S/den is an echelon row of S with pivot c not den's: zero left of c, 1
    at c, 0 at S's other pivots and unchanged by den-reduction, so its
    qA-coordinates are S's echelon rows in qA; a default lift of num/S
    reads as the standard vector at its pivot, a free column.  So default
    presentations need no transport; the caller transports the adapted
    Hodge basis."""
    x, y, iso = prop_dual(K, r, Bk, Ck)
    require(y == d, "transport of the %s natural det failed" % names[0])
    require(x == d2, "transport of the %s natural det failed" % names[1])
    return iso


def _transport_sub(K, sub_k, qp):
    """The det of qp's lifts, flat vectors of the subspace sub_k, written
    in sub_k's reduced echelon rows."""
    cols = [sub_k.coords(l) for l in qp.lifts]
    return _unit(K, Matrix.from_cols(K, cols, m=len(sub_k.krows)).det(),
                 "subspace basis transport")


def _unit_ha(D):
    """Product of the per-embedding units; held when every ha_i verdict is."""
    parts = [duality_check(D, "ha_i", *idx) for idx in family_indices("ha_i", D.params)]
    c = _kmul(D.params.k, *[v.canonical_iso_scalar for v in parts])
    return c, all(v.equal for v in parts)


def _unit_ha_i(D, i):
    """Hodge-det comparison.  Chain: natural-map description on the primal
    side, the residue-pairing adjunction moving the dual det to a primal
    quotient map, the factorization of that map through the conjugate
    submodule, and the complementary-pair identity on (Hodge, conjugate)."""
    p = D.params
    K, R = p.k, p.R
    i1 = (i - 1) % p.f
    Dd = D.dual()

    # the dual Hodge map is adjoint to the twisted F-map between co-Hodge
    # quotients
    Mf = _induced(D, D.F[i], _qab(D, i1), _qab(D, i))
    dP1, dP2 = _pairing_adjunction(
        p, _map_v_hodge(Dd, i), Mf, (_qb(Dd, i), _qab(D, i)), (_qb(Dd, i1), _qab(D, i1)),
        -1, "Hodge", "pairing adjunction between the dual Hodge map and F failed")

    # factor the co-Hodge F-map through the conjugate submodule
    Mfb = _induced(D, D.F[i], _qab(D, i1), _qc(D, i))
    u_fb = _unit(K, Mfb.matrix.det(), "F onto the conjugate submodule")
    MnatC = _pi(D, 0, _qc(D, i), _qab(D, i))
    require(Mf.matrix == MnatC.matrix.mul(Mfb.matrix),
             "co-Hodge F-map does not factor through the conjugate submodule")

    # V-identification unit from the primal natural description
    u_v, nat = _nat_v_hodge(D, i)

    # complementary pair (Hodge, conjugate) in the ambient restricted space,
    # k^(h1 e); the adapted Hodge basis is carried to the echelon rows by t
    Bk = ksub_from_rsub(R, D.hodge(i))
    t = _transport_sub(K, Bk, _qb(D, i))
    pair = K.mul(t, _complementary_pair(
        K, p.h1 * p.e, Bk, ksub_from_rsub(R, D.conj(i)), K.mul(nat.matrix.det(), K.inv(t)),
        MnatC.matrix.det(), ("Hodge", "conjugate")))

    inner = K.mul(pair, K.inv(K.mul(u_fb, dP1)))
    return _kmul(K, u_v, K.frob(inner, -1), dP2), True


def _unit_m(D, i, j):
    """Graded pi-step comparison.  Untwisted chain: pairing adjunction of
    pi against the upper extended grades, the pi-power isomorphisms from
    upper grades to divided-flag quotients, and the complementary pair
    inside the level-(j-1) divided quotient."""
    p = D.params
    K = p.k
    e = p.e
    piiso, nat = _nat_m(D, i, j)

    # pi is self-adjoint for the residue pairing
    Dd = D.dual()
    qup_hi = _qgr(D, i, 2 * e + 2 - j)
    qup_lo = _qgr(D, i, 2 * e + 1 - j)
    Mhigh = _pi(D, 1, qup_hi, qup_lo)
    dP1, dP2 = _pairing_adjunction(
        p, _map_m(Dd, i, j), Mhigh, (_qgr(Dd, i, j), qup_lo), (_qgr(Dd, i, j - 1), qup_hi),
        0, "graded", "pairing adjunction for the graded pi map failed")

    # pi^(e-j+1), pi^(e-j) carry the upper grades onto divided-flag quotients
    aux = aux_flag(D, i)
    ext = extended_flag(D, i)
    qcq = _qp(D, aux[j - 2], ext[j - 1])
    qabq = _qp(D, aux[j - 1], ext[j])
    Ma1 = _pi(D, e - j + 1, qup_hi, qcq)
    u_a1 = _unit(K, Ma1.matrix.det(), "upper-grade pi-power iso")
    Ma2 = _pi(D, e - j, qup_lo, qabq)
    u_a2 = _unit(K, Ma2.matrix.det(), "upper-grade pi-power iso")
    MnatCAB = _pi(D, 0, qcq, qabq)
    require(Ma2.matrix.mul(Mhigh.matrix) == MnatCAB.matrix.mul(Ma1.matrix),
             "pi-power isos do not intertwine the upper pi map with inclusion")

    # complementary pair inside the divided quotient at level j-1
    qA = _qp(D, aux[j - 1], ext[j - 1])
    pair = _complementary_pair(
        K, qA.dim, subspace_in_qp(qA, ext[j]), subspace_in_qp(qA, aux[j - 2]),
        nat.matrix.det(), MnatCAB.matrix.det(), ("graded", "divided"))

    return _kmul(K, piiso.matrix.det(), pair, u_a2, dP2, K.inv(K.mul(u_a1, dP1))), True


def _unit_hasse(D, i):
    """Boundary-map comparison.  Needs the conjugate-flag divisibility on
    the primal side; without it the natural-map description is undefined
    and the verdict reports not_applicable."""
    p = D.params
    K, R = p.k, p.R
    e = p.e
    i1 = (i - 1) % p.f
    nat = _nat_hasse(D, i)
    if nat is None:
        return None, False

    ft = conj_flag(D, i)
    ext_i = extended_flag(D, i)
    qt2 = _qp(D, _torsion(D, 1), ext_i[1])
    qw1 = _qp(D, ft[1], Submodule.zero(R, p.h1))
    qe21 = _qp(D, Submodule.full(R, p.h1), ext_i[2 * e - 1])
    qup = _qgr(D, i1, e + 1)

    # primal-side units from the natural description of the boundary map
    u_v, u_p, Mn = nat

    # the dual boundary map corresponds to: F, exact division by pi^(e-1),
    # projection to the co-top quotient
    def gfun(v):
        return pi_divide(D.F[i].apply_k(v), e, e - 1)

    Mg = induced_from_fun(gfun, +1, qup, qe21)
    Mu1 = _induced(D, D.F[i], qup, qw1)
    u_1 = _unit(K, Mu1.matrix.det(), "F onto the first conjugate level")
    Mu2 = _pi(D, e - 1, qe21, qt2)
    u_2 = _unit(K, Mu2.matrix.det(), "pi^(e-1) on the co-top quotient")
    Mnx = _pi(D, 0, qw1, qt2)
    require(Mnx.matrix.mul(Mu1.matrix) == Mu2.matrix.mul(Mg.matrix),
             "divided F-map disagrees with its natural description")

    # residue-pairing adjunction against the dual boundary map
    Dd = D.dual()
    dP1, dP2 = _pairing_adjunction(
        p, _map_hasse(Dd, i), Mg, (_qgr(Dd, i, 1), qe21), (_qgr(Dd, i1, e), qup),
        -1, "boundary", "pairing adjunction for the boundary map failed")

    # complementary pair (top level, first conjugate level) in the pi-torsion
    qA = _qp(D, _torsion(D, 1), Submodule.zero(R, p.h1))
    pair = _complementary_pair(
        K, qA.dim, subspace_in_qp(qA, ext_i[1]), subspace_in_qp(qA, ft[1]),
        Mn.matrix.det(), Mnx.matrix.det(), ("boundary", "dual boundary"))

    inner = _kmul(K, pair, u_2, K.inv(_kmul(K, u_1, dP1, u_p)))
    return _kmul(K, u_v, K.frob(inner, -1), dP2), True


def _unit_ha_pr(D, i, j):
    """Graded Hodge-det comparison, assembled from the factorization: the
    canonical unit is the product of the pi-step units above the level, the
    boundary unit, and the twisted pi-step units below it."""
    p = D.params
    K = p.k
    i1 = (i - 1) % p.f
    if p.e == 1:
        return duality_check(D, "ha_i", i).canonical_iso_scalar, True

    h = duality_check(D, "hasse", i)
    if h.status != "ok":
        return None, False
    require(factorization_check(D, i, j),
             "graded V map does not factor through the boundary map")
    require(factorization_check(D.dual(), i, j),
             "dual graded V map does not factor through the boundary map")
    above, below = _m_levels_around(p, j)
    c = _kmul(K, h.canonical_iso_scalar,
              *[duality_check(D, "m", i1, l).canonical_iso_scalar for l in above])
    tw = _kmul(K, *[duality_check(D, "m", i, l).canonical_iso_scalar for l in below])
    return K.mul(c, K.frob(tw, -1)), True


def _verdict(D, name, idx) -> DualityVerdict:
    """The one path from a family's unit to its verdict.  A unit that
    applies has pinned the dual map to a checked primal one (adjunction or
    factorization), so only its det is read; else the dual's section."""
    sG = section(D, name, *idx).scalar
    unit, held = FAMILIES[name].unit(D, *idx)
    i, j = (idx + (None, None))[:2]
    if unit is None:
        sGD = section(D.dual(), name, *idx).scalar
        return DualityVerdict(name, i, j, sG, sGD, None, False, status="not_applicable")
    sGD = _det(D.dual(), name, idx)
    return DualityVerdict(name, i, j, sG, sGD, unit,
                          held and sG == D.params.k.mul(unit, sGD))


# ---------------------------------------------------------------------------
# the invariant registry, in report order.  A family's section is the det of
# its map, checked by nat when set, in the line its line word names; ha has
# neither, being the product of the ha_i, embeddings ascending.
#   ha_i   V restricted to the Hodge submodule at embedding i, in the
#          flag-adapted basis
#   m      multiplication by pi from graded piece j to j-1
#   hasse  the boundary map: divide by pi^(e-1), apply V, project to the
#          top graded piece at the previous embedding
#   ha_pr  V between the level-j graded pieces
# A line word lists (label, exponent, frobenius twist) factors: the target's
# det, a p-th power twisted once when the map is V, over the source's det.
# A family takes an embedding index i in 0..f-1 when embedded, listed only
# for e >= min_e, and a level index j in j_from..e when j_from is set.  At
# e = 1 the boundary map is the whole graded V map, so hasse is listed from
# e = 2 on; section and duality_check still answer for it at e = 1.


def _line_ha_i(p, i):
    return ((_w_label((i - 1) % p.f), p.p, 1), (_w_label(i), -1, 0))


def _line_m(p, i, j):
    return ((_g_label(i, j - 1), 1, 0), (_g_label(i, j), -1, 0))


def _line_hasse(p, i):
    return ((_g_label((i - 1) % p.f, p.e), p.p, 1), (_g_label(i, 1), -1, 0))


def _line_ha_pr(p, i, j):
    return ((_g_label((i - 1) % p.f, j), p.p, 1), (_g_label(i, j), -1, 0))


_Family = namedtuple("_Family", "map nat line unit embedded j_from min_e")

FAMILIES = {
    "ha": _Family(None, None, None, _unit_ha, False, None, 1),
    "ha_i": _Family(_map_v_hodge, _nat_v_hodge, _line_ha_i, _unit_ha_i, True, None, 1),
    "m": _Family(_map_m, _nat_m, _line_m, _unit_m, True, 2, 1),
    "hasse": _Family(_map_hasse, _nat_hasse, _line_hasse, _unit_hasse, True, None, 2),
    "ha_pr": _Family(_map_ha_pr, None, _line_ha_pr, _unit_ha_pr, True, 1, 1),
}


def _ranges(name, p):
    """(i range, j range) of a family at shape p; None for an index it lacks."""
    fam = FAMILIES[name]
    I = J = None
    if fam.embedded:
        I = range(p.f) if p.e >= fam.min_e else range(0)
    if fam.j_from is not None:
        J = range(fam.j_from, p.e + 1)
    return I, J


def _index(name, p, i, j):
    """The index tuple of one member of a family: (i mod f,) and/or (j,).
    InvalidSpec for an unknown family, a missing or spare index, or a level
    j outside j_from..e.  min_e is not checked: it only limits listing."""
    if name not in FAMILIES:
        raise InvalidSpec("unknown invariant %r" % name)
    J = _ranges(name, p)[1]
    idx = ()
    if FAMILIES[name].embedded:
        if i is None:
            raise InvalidSpec("invariant %r needs an embedding index" % name)
        idx = (i % p.f,)
    elif i is not None:
        raise InvalidSpec("invariant %r takes no embedding index, got %r" % (name, i))
    if J is not None:
        if j is None:
            raise InvalidSpec("invariant %r needs a level index" % name)
        if j not in J:
            raise InvalidSpec("level j must be in %d..e, got %d" % (J.start, j))
        idx += (j,)
    elif j is not None:
        raise InvalidSpec("invariant %r takes no level index, got %r" % (name, j))
    return idx


def _m_levels_around(p, j):
    """The m levels composed after and before the boundary map in ha_pr(i, j)."""
    levels = _ranges("m", p)[1]
    return [l for l in levels if l > j], [l for l in levels if l <= j]


def family_indices(name, params) -> list:
    """The index tuples of a family in report order: (), (i,) or (i, j)."""
    I, J = _ranges(name, params)
    if I is None:
        return [()]
    if J is None:
        return [(i,) for i in I]
    return [(i, j) for i in I for j in J]


def duality_check(D, name, i=None, j=None) -> DualityVerdict:
    """Compare an invariant on D and on its dual.  name is a key of
    FAMILIES; pass i, j as that family's index ranges require."""
    D = D.reduce()
    p = D.params
    if not 0 < p.d1 < p.h1:
        raise InvalidSpec("duality verdicts need 0 < d1 < h1")
    idx = _index(name, p, i, j)
    return D.memo(("verdict", name) + idx, lambda: _verdict(D, name, idx))


def all_sections(D) -> list:
    """Every invariant of the datum, deterministic order."""
    D = D.reduce()
    return [section(D, name, *idx) for name in FAMILIES
            for idx in family_indices(name, D.params)]


def all_verdicts(D) -> list:
    """Every duality verdict of the datum, deterministic order."""
    D = D.reduce()
    return [duality_check(D, name, *idx) for name in FAMILIES
            for idx in family_indices(name, D.params)]


def vanishing_pattern(D) -> dict:
    """Which invariants vanish, as plain nested data: per family one flag,
    a tuple over i, or a tuple over i of tuples over j."""
    D = D.reduce()
    pat = {}
    for name in FAMILIES:
        I, J = _ranges(name, D.params)
        if I is None:
            pat[name] = section(D, name).vanished
        elif J is None:
            pat[name] = tuple(section(D, name, i).vanished for i in I)
        else:
            pat[name] = tuple(tuple(section(D, name, i, j).vanished for j in J) for i in I)
    return pat
