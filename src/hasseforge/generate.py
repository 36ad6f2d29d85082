"""Random and named instances.

Lifted data comes from A * diag(pi^a_m) * B with the complementary diagonal
on the V side, so F V = V F = p holds exactly for any invertible A, B and
any exponent vector.  Mod-p data is built directly from its kernel/image
structure: two invertible matrices transport complementary pi-power
diagonals, which forces ker F = im V and ker V = im F.  Flags are sampled
greedily level by level; each level is a k-subspace pinched between the
forced lower bound and the pi-preimage of the previous level, and any such
subspace is automatically pi-stable, hence an R-submodule.

The random data are valid by construction and placed with _of, unvalidated;
each image of V is computed once, for the flags and the hodge submodules,
and a lift's matrices are reduced once, for its hodges and its reduction.
"""

from .errors import InvalidSpec, RetryExhausted
from .linalg import Matrix, Submodule, _insert, image, random_invertible, random_matrix
from .datum import DieudonneDatum, LiftedDatum, Params

_BETWEEN_TRIES = 200
_FLAG_ATTEMPTS = 64
_TWIST_TRIES = 200


def _random_exponents(e, n, total, rng):
    """n integers in [0, e] summing to total."""
    if not 0 <= total <= n * e:
        raise InvalidSpec("exponent total %d out of range" % total)
    a = [0] * n
    for _ in range(total):
        m = rng.choice([m for m in range(n) if a[m] < e])
        a[m] += 1
    return a


def _random_between(R, low, high, kdim, rng):
    """Random R-submodule X with low <= X <= high of the given k-dimension,
    assuming pi * high <= low so that any intermediate k-subspace is
    R-stable.  None if the dimension window is infeasible."""
    k = R.k
    if not (len(low.krows) <= kdim <= len(high.krows)):
        return None
    rows, pivs = list(low.krows), list(low.kpivots)
    budget = _BETWEEN_TRIES
    while len(rows) < kdim:
        # a random k-combination of high's echelon rows, one draw per row
        coeffs = [k.random_element(rng) for _ in high.krows]
        _insert(k, rows, pivs, k.combine(coeffs, high.krows, low.n * low.e))
        budget -= 1
        if budget < 0:
            return None
    return low._with(rows, pivs)


def sample_flag(R, omega, d1, rng):
    """Random flag 0 = flag[0] <= ... <= flag[e] = omega with k-dimensions
    j*d1 and pi * flag[j] <= flag[j-1]."""
    e = R.e
    n = omega.n
    for _ in range(_FLAG_ATTEMPTS):
        flag = [Submodule.zero(R, n)]
        ok = True
        for j in range(1, e):
            low = flag[j - 1].add_sub(omega.pi_times(e - j))
            high = omega.intersect(flag[j - 1].pi_preimage(1))
            X = _random_between(R, low, high, j * d1, rng)
            if X is None:
                ok = False
                break
            flag.append(X)
        if ok:
            flag.append(omega)
            return flag
    raise RetryExhausted("could not sample a flag in %d attempts" % _FLAG_ATTEMPTS)


def _times_diag(A, diag):
    """A diag(diag): column l of A scaled by diag[l], one ring.mul per
    entry.  Each entry of the full product is a one-term dot, which equals
    that mul, so the result is the same matrix."""
    mul = A.ring.mul
    return Matrix._of(A.ring, tuple(tuple(mul(x, d) for x, d in zip(r, diag)) for r in A.rows), A.n)


def random_lifted(params, rng) -> LiftedDatum:
    """Random mod-p^2 datum with exact F V = V F = p, plus random flags."""
    p = params
    W, R = p.W, p.R
    F_mats, V_mats = [], []
    for _ in range(p.f):
        A = random_invertible(W, p.h1, rng)
        B = random_invertible(W, p.h1, rng)
        exps = _random_exponents(p.e, p.h1, p.e * p.d1, rng)
        D = [W.pi_pow(a) for a in exps]
        Dc = [W.mul(W.unit_u, W.pi_pow(p.e - a)) for a in exps]
        F_mats.append(_times_diag(A, D).mul(B))
        V_mats.append(_times_diag(B.inverse(), Dc).mul(A.inverse()).frob(-1))
    Fr, Vr = ([M.map(W.reduce, R) for M in mats] for mats in (F_mats, V_mats))
    hodges = [image(Vr[(i + 1) % p.f]) for i in range(p.f)]
    flags = [sample_flag(R, h, p.d1, rng) for h in hodges]
    return LiftedDatum._of(p, F_mats, V_mats, DieudonneDatum._of(p, Fr, Vr, flags, hodges))


def _stabilizing_twist(R, exps, rng):
    """Random invertible M with M (sum pi^exps[m] R) = sum pi^exps[m] R:
    entry (m, l) needs valuation at least exps[m] - exps[l]."""
    n = len(exps)
    for _ in range(_TWIST_TRIES):
        A = random_matrix(R, n, n, rng)
        M = Matrix._of(R, tuple(
            tuple(R.mul(R.pi_pow(exps[m] - exps[l]), x) if exps[m] > exps[l] else x
                  for l, x in enumerate(row))
            for m, row in enumerate(A.rows)), n)
        if M.is_invertible():
            return M
    raise RetryExhausted("no invertible stabilizing twist in %d tries" % _TWIST_TRIES)


def random_charp(params, rng) -> DieudonneDatum:
    """Random mod-p datum (no lift involved), plus random flags.  The extra
    middle twist M ranges over the stabilizer of the diagonal's kernel
    decomposition, which makes the construction cover every valid pair, not
    just reductions of diagonal lifts."""
    p = params
    R = p.R
    F_mats, V_mats = [], []
    for _ in range(p.f):
        UH = random_invertible(R, p.h1, rng)
        UC = random_invertible(R, p.h1, rng)
        exps = _random_exponents(p.e, p.h1, p.e * (p.h1 - p.d1), rng)
        D = [R.pi_pow(a) for a in exps]
        Dp = [R.pi_pow(p.e - a) for a in exps]
        M = _stabilizing_twist(R, exps, rng)
        V_mats.append(_times_diag(UH, D).mul(UC.inverse().frob(-1)))
        F_mats.append(_times_diag(UC, Dp).mul(M).mul(UH.inverse().frob(1)))
    hodges = [image(V_mats[(i + 1) % p.f]) for i in range(p.f)]
    flags = [sample_flag(R, h, p.d1, rng) for h in hodges]
    return DieudonneDatum._of(p, F_mats, V_mats, flags, hodges)


def random_datum(params, rng, lifted=True):
    return random_lifted(params, rng) if lifted else random_charp(params, rng)


# ---------------------------------------------------------------------------
# named instances


def _ord_split():
    par = Params(3, 1, 1, 2, 1)
    W = par.W
    F = Matrix(W, [[W.one, W.zero], [W.zero, W.from_int(par.p)]])
    V = Matrix(W, [[W.from_int(par.p), W.zero], [W.zero, W.one]])
    return LiftedDatum(par, [F], [V])


def _ss():
    par = Params(3, 1, 1, 2, 1)
    W = par.W
    M = Matrix(W, [[W.zero, W.one], [W.from_int(par.p), W.zero]])
    return LiftedDatum(par, [M], [M])


def _ram_split():
    par = Params(3, 1, 2, 2, 1)
    W = par.W
    pi2 = W.mul(W.uniformizer, W.uniformizer)
    F = Matrix(W, [[W.one, W.zero], [W.zero, pi2]])
    V = Matrix(W, [[W.from_int(par.p), W.zero], [W.zero, W.one]])
    R = par.R
    lvl1 = Submodule.span(R, 2, [(R.zero, R.uniformizer)])
    hodge = Submodule.span(R, 2, [(R.zero, R.one)])
    flag = [Submodule.zero(R, 2), lvl1, hodge]
    return LiftedDatum(par, [F], [V], pr_flags=[flag])


def _ram_ss():
    par = Params(3, 1, 2, 2, 1)
    W = par.W
    M = Matrix(W, [[W.zero, W.one], [W.from_int(par.p), W.zero]])
    R = par.R
    flag = [Submodule.zero(R, 2),
            Submodule.span(R, 2, [(R.uniformizer, R.zero)]),
            Submodule.span(R, 2, [(R.one, R.zero)])]
    return LiftedDatum(par, [M], [M], pr_flags=[flag])


def _ram_pi():
    par = Params(3, 1, 2, 2, 1)
    W = par.W
    M = Matrix(W, [[W.uniformizer, W.zero], [W.zero, W.uniformizer]])
    R = par.R
    flag = [Submodule.zero(R, 2),
            Submodule.span(R, 2, [(R.uniformizer, R.zero)]),
            Submodule.span(R, 2, [(R.uniformizer, R.zero), (R.zero, R.uniformizer)])]
    return LiftedDatum(par, [M], [M], pr_flags=[flag])


def _unram_f2():
    par = Params(2, 2, 1, 2, 1)
    W = par.W
    F = Matrix(W, [[W.one, W.zero], [W.zero, W.from_int(par.p)]])
    V = Matrix(W, [[W.from_int(par.p), W.zero], [W.zero, W.one]])
    return LiftedDatum(par, [F, F], [V, V])


_NAMED = {
    "ord-split": _ord_split,
    "ss": _ss,
    "ram-split": _ram_split,
    "ram-ss": _ram_ss,
    "ram-pi": _ram_pi,
    "unram-f2": _unram_f2,
}

NAMED_INSTANCES = tuple(sorted(_NAMED))


def named_instance(name) -> LiftedDatum:
    """One of the six built-in instances, freshly constructed."""
    if name not in _NAMED:
        raise InvalidSpec("unknown instance %r (have: %s)" % (name, ", ".join(NAMED_INSTANCES)))
    return _NAMED[name]()
