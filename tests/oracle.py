"""Brute-force cross-checks of the linear algebra core on tiny shapes.

Everything here is deliberately naive and independent of linalg's
elimination: kernels and images by enumerating all vectors, determinants by
permutation expansion, reduced echelon forms by a separate implementation.
The entry point run_all() raises InvariantViolation on the first mismatch
and returns a dict of how many objects were checked.
"""

import itertools
import random

from hasseforge.errors import InvariantViolation, WellDefinednessViolation
from hasseforge.datum import Params
from hasseforge.flags import pi_divisibility
from hasseforge.generate import random_charp
from hasseforge.kspace import QuotientPresentation, prop_dual
from hasseforge.linalg import Matrix, SemilinearMap, Submodule, pi_shift, restrict_vec, unrestrict_vec
from hasseforge.rings import WittLength2


def _fail(msg):
    raise InvariantViolation(msg)


# -- R-vectors, by the ring operations alone ----------------------------------


def elements(ring):
    """Every element of a ring of the tower: k codes, then tuples of them
    (R), of ints mod p^2 (W2) or of W2 elements (W)."""
    if ring.k is ring:
        return range(ring.q)
    if isinstance(ring, WittLength2):
        return itertools.product(range(ring.m), repeat=ring.f)
    return itertools.product(elements(getattr(ring, "w2", ring.k)), repeat=ring.e)


def vadd(ring, u, v):
    return tuple(ring.add(x, y) for x, y in zip(u, v))


def vsub(ring, u, v):
    return tuple(ring.sub(x, y) for x, y in zip(u, v))


def vscale(ring, c, v):
    return tuple(ring.mul(c, x) for x in v)


def vfrob(ring, v, j=1):
    return tuple(ring.frob(x, j) for x in v)


def apply_R(phi, v):
    """phi(v) = A sigma^a(v) on an R-vector, one ring.add and ring.mul per
    entry: it shares no code with the flat restriction (kcols, apply_k)."""
    ring, x = phi.ring, vfrob(phi.ring, v, phi.twist)
    out = []
    for row in phi.matrix.rows:
        acc = ring.zero
        for a, y in zip(row, x):
            acc = ring.add(acc, ring.mul(a, y))
        out.append(acc)
    return tuple(out)


def all_vectors(ring, n):
    return list(itertools.product(elements(ring), repeat=n))


def submodule_set(S):
    return frozenset(v for v in all_vectors(S.ring, S.n) if S.contains_k(restrict_vec(S.ring, v)))


# -- permutation-expansion determinant --------------------------------------


def _signed_perms(n):
    out = []
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        out.append((perm, inv % 2))
    return out


def perm_det(M):
    ring = M.ring
    if M.m != M.n:
        _fail("perm_det needs a square matrix")
    acc = ring.zero
    for perm, odd in _signed_perms(M.m):
        term = ring.one
        for i in range(M.m):
            term = ring.mul(term, M.rows[i][perm[i]])
        acc = ring.sub(acc, term) if odd else ring.add(acc, term)
    return acc


# -- independent reduced echelon form over a field ---------------------------


def rref(K, rows, width):
    work = [list(r) for r in rows]
    out = []
    pivots = []
    col = 0
    while work and col < width:
        pick = next((i for i, r in enumerate(work) if r[col] != K.zero), None)
        if pick is None:
            col += 1
            continue
        row = work.pop(pick)
        inv = K.inv(row[col])
        row = [K.mul(inv, x) for x in row]
        for r in work:
            c = r[col]
            if c != K.zero:
                for j in range(width):
                    r[j] = K.sub(r[j], K.mul(c, row[j]))
        for prev in out:
            c = prev[col]
            if c != K.zero:
                for j in range(width):
                    prev[j] = K.sub(prev[j], K.mul(c, row[j]))
        out.append(row)
        pivots.append(col)
        col += 1
    return [tuple(r) for r in out], pivots


def _reduce_by(K, basis, pivots, v):
    v = list(v)
    for row, c in zip(basis, pivots):
        x = v[c]
        if x != K.zero:
            for j in range(len(v)):
                v[j] = K.sub(v[j], K.mul(x, row[j]))
    return tuple(v)


def oracle_prop_dual(K, r, B, C):
    """Same contract as kspace.prop_dual, all ingredients recomputed here."""
    Brows, bpiv = rref(K, B.rows, r)
    Crows, cpiv = rref(K, C.rows, r)
    if list(Brows) != list(B.rows) or list(Crows) != list(C.rows):
        _fail("submodule rows are not reduced-echelon canonical")
    s, t = len(Brows), len(Crows)
    if s + t != r:
        _fail("oracle_prop_dual needs complementary dimensions")
    freeB = [j for j in range(r) if j not in bpiv]
    freeC = [j for j in range(r) if j not in cpiv]

    def quot_det(rows, basis, pivots, free):
        cols = [_reduce_by(K, basis, pivots, v) for v in rows]
        return perm_det(Matrix(K, [[c[j] for c in cols] for j in free], n=len(cols)))

    x = quot_det(Crows, Brows, bpiv, freeB)
    y = quot_det(Brows, Crows, cpiv, freeC)

    def unit_row(j):
        return tuple(K.one if i == j else K.zero for i in range(r))

    dB = perm_det(Matrix(K, [list(v) for v in
                             zip(*(list(Brows) + [unit_row(j) for j in freeB]))], n=r))
    dC = perm_det(Matrix(K, [list(v) for v in
                             zip(*(list(Crows) + [unit_row(j) for j in freeC]))], n=r))
    if dB == K.zero or dC == K.zero:
        _fail("completion to a basis is singular")
    sign = K.from_int((-1) ** (s * (r - s)))
    iso = K.mul(sign, K.mul(dC, K.inv(dB)))
    if x != K.mul(iso, y):
        _fail("oracle complementary-pair identity failed")
    return x, y, iso


# -- exhaustive checks on the tiny shape -------------------------------------


def tiny_params():
    return Params(2, 1, 2, 2, 1)


def _all_matrices(R, n):
    elts = list(elements(R))
    for entries in itertools.product(elts, repeat=n * n):
        yield Matrix(R, [list(entries[i * n:(i + 1) * n]) for i in range(n)])


def check_kernels_images(par=None):
    """Every 2x2 matrix over the tiny R, both twists: kernel, image, and a
    preimage agree with vector-by-vector enumeration, and every submodule
    met has exactly q^kdim elements."""
    par = par or tiny_params()
    R = par.R
    vecs = all_vectors(R, 2)
    zero = tuple([R.zero] * 2)
    T = Submodule.span(R, 2, [(R.uniformizer, R.zero)])
    tset = submodule_set(T)
    count = 0
    for M in _all_matrices(R, 2):
        for twist in (1, -1):
            phi = SemilinearMap(M, twist)
            ker = {v for v in vecs if apply_R(phi, v) == zero}
            img = {apply_R(phi, v) for v in vecs}
            pre = {v for v in vecs if apply_R(phi, v) in tset}
            for S, brute, what in ((phi.kernel(), ker, "kernel"),
                                   (phi.image(), img, "image"),
                                   (phi.preimage(T), pre, "preimage")):
                got = submodule_set(S)
                if got != brute:
                    _fail("%s mismatch for %r twist %d" % (what, M.rows, twist))
                if len(got) != par.k.q ** len(S.krows):
                    _fail("%s size is not q^kdim" % what)
            count += 1
    return count


def check_dets(par=None, rng=None, trials=40):
    """Permutation expansion against the elimination determinant: all 2x2
    over the tiny R, all 3x3 over its residue field, random 3x3 over R."""
    par = par or tiny_params()
    rng = rng or random.Random(2)
    R, K = par.R, par.k
    count = 0
    for M in _all_matrices(R, 2):
        if M.det() != perm_det(M):
            _fail("det mismatch at %r" % (M.rows,))
        count += 1
    for M in _all_matrices(K, 3):
        if M.det() != perm_det(M):
            _fail("det mismatch over k at %r" % (M.rows,))
        count += 1
    for _ in range(trials):
        M = Matrix(R, [[R.random_element(rng) for _ in range(3)] for _ in range(3)])
        if M.det() != perm_det(M):
            _fail("det mismatch at random %r" % (M.rows,))
        count += 1
    return count


def check_quotients(par=None, rng=None, samples=6):
    """Quotient presentations on tiny random data: the coordinate map hits
    every value the counted number of times, is additive, and sends the
    stored lifts to the standard basis."""
    par = par or tiny_params()
    rng = rng or random.Random(3)
    R, K = par.R, par.k
    count = 0
    from hasseforge.flags import extended_flag
    for _ in range(samples):
        D = random_charp(par, rng)
        ext = extended_flag(D, 0)
        qps = [QuotientPresentation(R, 2, ext[j], ext[j - 1]) for j in range(1, 5)]
        qps.append(QuotientPresentation(R, 2, Submodule.full(R, 2), Submodule.zero(R, 2)))
        for qp in qps:
            def coords(v, qp=qp):
                return qp.coordinates_of_k(restrict_vec(R, v))

            numset = [v for v in all_vectors(R, 2) if qp.num.contains_k(restrict_vec(R, v))]
            denset = submodule_set(qp.den)
            if len(numset) != len(denset) * K.q ** qp.dim:
                _fail("quotient size law failed")
            fibers = {}
            for v in numset:
                fibers.setdefault(coords(v), []).append(v)
            if len(fibers) != K.q ** qp.dim:
                _fail("coordinate map misses values")
            if any(len(f) != len(denset) for f in fibers.values()):
                _fail("coordinate map has uneven fibers")
            for _ in range(10):
                u = rng.choice(numset)
                w = rng.choice(numset)
                lhs = coords(vadd(R, u, w))
                rhs = tuple(K.add(a, b) for a, b in zip(coords(u), coords(w)))
                if lhs != rhs:
                    _fail("coordinate map is not additive")
            for j, l in enumerate(qp.lifts):
                want = tuple(K.one if m == j else K.zero for m in range(qp.dim))
                if qp.coordinates_of_k(l) != want:
                    _fail("stored lift does not map to the standard basis")
            count += 1
    return count


def all_subspaces(K, r):
    vecs = [v for v in all_vectors(K, r) if any(x != K.zero for x in v)]
    seen = {}
    seen[Submodule.zero(K, r).rows] = Submodule.zero(K, r)
    for size in range(1, r + 1):
        for gens in itertools.combinations(vecs, size):
            S = Submodule.span(K, r, list(gens))
            seen.setdefault(S.rows, S)
    return list(seen.values())


def check_prop_dual_exhaustive(K=None, r=4):
    """Every ordered complementary pair of subspaces of K^r (default F_2^4)."""
    K = K or tiny_params().k
    subs = all_subspaces(K, r)
    count = 0
    for B in subs:
        for C in subs:
            if len(B.rows) + len(C.rows) != r:
                continue
            got = prop_dual(K, r, B, C)
            want = oracle_prop_dual(K, r, B, C)
            if got != want:
                _fail("prop_dual disagrees with the oracle at dims (%d, %d)"
                      % (len(B.rows), len(C.rows)))
            count += 1
    return count


def run_all(quick=False) -> dict:
    out = {}
    out["kernel_image_matrices"] = check_kernels_images()
    out["determinants"] = check_dets(trials=10 if quick else 40)
    out["quotients"] = check_quotients(samples=2 if quick else 6)
    out["prop_dual_pairs"] = check_prop_dual_exhaustive()
    return out


# -- the vanishing locus by submodule arithmetic -----------------------------


def vanishing_by_submodules(D, prev=-1, divide=True):
    """{(name, i, j): vanished} for every section of D.reduce(), decided
    from its flags alone.  Each invariant is the determinant of a map
    between two spaces of one k-dimension, so it vanishes exactly when
    that map is not onto (for ha_i, not one-to-one); with Fil = pr_flags
    and i1 = i + prev mod f:

        ha_i(i)      hodge(i) meets conj(i) = ker V_i
        ha_pr(i, j)  V_i Fil_j(i) + Fil_(j-1)(i1) != Fil_j(i1)
        m(i, j)      pi Fil_j(i) + Fil_(j-2)(i) != Fil_(j-1)(i)
        hasse(i)     V_i(pi^(-(e-1)) Fil_1(i)) + Fil_(e-1)(i1) != Fil_e(i1)
        ha           some ha_i vanishes

    Only image_of, add_sub, intersect and pi_preimage are read: no
    quotient presentation, induced map or determinant.  prev and divide
    exist for the mutation checks: prev = 0 shifts the target embedding,
    and divide=False drops the division by pi^(e-1) from hasse."""
    D = D.reduce()
    p = D.params
    f, e, fil = p.f, p.e, D.pr_flags
    zero = Submodule.zero(p.R, p.h1)
    out = {}
    for i in range(f):
        i1 = (i + prev) % f
        V = D.V[i]
        out[("ha_i", i, None)] = D.hodge(i).intersect(D.conj(i)) != zero
        for j in range(2, e + 1):
            out[("m", i, j)] = fil[i][j].pi_times(1).add_sub(fil[i][j - 2]) != fil[i][j - 1]
        if e >= 2:
            src = fil[i][1].pi_preimage(e - 1) if divide else fil[i][1]
            out[("hasse", i, None)] = V.image_of(src).add_sub(fil[i1][e - 1]) != fil[i1][e]
        for j in range(1, e + 1):
            out[("ha_pr", i, j)] = V.image_of(fil[i][j]).add_sub(fil[i1][j - 1]) != fil[i1][j]
    out[("ha", None, None)] = any(out[("ha_i", i, None)] for i in range(f))
    return out


# -- the division identity on every row ---------------------------------------


def pi_division_identity_on_every_row(L, i):
    """check_pi_divisibility(L, i) for a lifted L, decided the long way:
    the flag divisibility, then for j = 1..e the identity
    V(F(x)/pi^j) == pi^(e-j) u x modulo pi^(e-j) im V on every echelon row
    x of S_j = F^-1(pi^j R^h1).  x goes back to R^h1 and F, V, u act
    entrywise over R, with each entry divided by pi^j digit by digit."""
    red = L.reduce()
    p = red.params
    R, e, h1 = p.R, p.e, p.h1
    if not pi_divisibility(red, i):
        return False
    u = p.W.reduce(p.tower.unit_u)
    F, V = red.F[i], red.V[i]
    full = Submodule.full(R, h1)
    for j in range(1, e + 1):
        S = F.preimage(full.pi_times(j))
        den = Submodule.span(R, h1, [vscale(R, R.pi_pow(e - j), c) for c in V.matrix.cols()])
        for kx in S.krows:
            x = unrestrict_vec(R, kx)
            Fx = apply_R(F, x)
            if any(a[:j] != (0,) * j for a in Fx):
                _fail("F(x) is not divisible by pi^%d on S_%d" % (j, j))
            q = tuple(tuple(a[j:]) + (0,) * j for a in Fx)
            rhs = vscale(R, R.mul(R.pi_pow(e - j), u), x)
            if not den.contains_k(restrict_vec(R, vsub(R, apply_R(V, q), rhs))):
                return False
    return True


# -- descent on a k-basis ------------------------------------------------------


def induced_from_fun_kbasis(fn, twist, src, dst):
    """kspace.induced_from_fun with descent checked on every echelon row of
    src.den, a k-basis, so that fn need not commute with pi: the reference
    for descent on den's generators.  Same raises, messages and order."""
    for g in src.den.krows:
        if not dst.den.contains_k(fn(g)):
            raise WellDefinednessViolation("fn does not map den into den")
    cols = []
    for l in src.lifts:
        try:
            cols.append(dst.coordinates_of_k(fn(l)))
        except InvariantViolation as exc:
            raise WellDefinednessViolation("fn does not map num into num") from exc
    return SemilinearMap(Matrix.from_cols(src.R.k, cols, m=dst.dim), twist)


def pairing_matrix_kbasis(form, left, right):
    """kspace.pairing_matrix with both dens walked on a k-basis, so that
    the form need not be R-balanced.  Same raises, messages and order."""
    for d in left.den.krows:
        for x in right.num.krows:
            if form(d, x):
                raise WellDefinednessViolation("pairing does not kill left.den")
    for x in left.lifts:
        for d in right.den.krows:
            if form(x, d):
                raise WellDefinednessViolation("pairing does not kill right.den")
    return Matrix(left.R.k, [[form(lu, rv) for rv in right.lifts] for lu in left.lifts],
                  n=right.dim)


# -- preimages by reduction against the target ---------------------------------


def solve_by_reduction(T, images, basis=None):
    """The solve that every preimage ran before the annihilating forms,
    kept as their reference: echelon rows and pivots of {x = sum c_i
    basis_i : sum c_i images_i in T}, basis an echelon (rows, pivots) pair
    or None for the standard basis.  Each image is reduced against T, the
    c's solve one form per free column of T over k, and x reads c off the
    basis pivots, so the c's echelon basis maps to one of the x's."""
    k = T.ring.k
    free = [t for t in range(T.n * T.e) if t not in T.kpivots]
    red = [T.reduce_k(y) for y in images]
    C = Submodule.solutions(k, len(red), list(zip(*[[r[t] for t in free] for r in red])))
    if basis is None:
        return C.krows, C.kpivots
    xs = [k.combine(c, basis[0], len(basis[0][0])) for c in C.krows]
    return xs, [basis[1][i] for i in C.kpivots]


def _submodule_on(ring, n, e, rows, pivs):
    return Submodule._of(ring, n, e, tuple(map(tuple, rows)), tuple(pivs))


def preimage_by_reduction(phi, T):
    """phi^(-1)(T): the images are the restricted columns of phi."""
    M = phi.matrix
    return _submodule_on(M.ring, M.n, T.e, *solve_by_reduction(T, phi.kcols())).frob(-phi.twist)


def pi_preimage_by_reduction(S, s):
    """pi^(-s) S: the images are the digit shifts of the flat standard basis."""
    N = S.n * S.e
    images = [pi_shift([int(u == t) for u in range(N)], S.e, s) for t in range(N)]
    return _submodule_on(S.ring, S.n, S.e, *solve_by_reduction(S, images))


def intersect_by_reduction(S, T):
    """S meet T: the combinations of S's echelon rows that land in T."""
    return _submodule_on(S.ring, S.n, S.e, *solve_by_reduction(T, S.krows, (S.krows, S.kpivots)))


def quotient_det_by_reduction(k, S, vecs):
    """kspace.quotient_det with each column a vector's reduction mod S at
    S's free columns."""
    free = [t for t in range(S.n) if t not in S.kpivots]
    cols = [tuple(S.reduce_k(v)[t] for t in free) for v in vecs]
    return Matrix.from_cols(k, cols, m=len(free)).det()
