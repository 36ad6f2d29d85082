"""Data objects: shape parameters, mod-p data, and their mod-p^2 lifts.

A mod-p datum is a cyclic chain of h1 x h1 matrices over R indexed by the f
embeddings: F[i] maps E_{i-1} to E_i with frobenius twist +1, V[i] maps E_i
to E_{i-1} with twist -1, and at every index the kernel of each is exactly
the image of the other.  Validation decides that by rank plus composition,
with no kernel elimination: the k-dimensions of im V and im F add up to
h1*e, and F and V, which commute with pi, kill the generators of im V and of
im F (sigma keeps dimensions, so each inclusion is then an equality).  The
hodge submodule at i is im V[i+1] = ker F[i+1] inside E_i; a pi-compatible
flag from 0 up to it (levels 0..e, k-dimensions 0, d1, ..., e*d1, with pi
shifting each level into the previous one) is part of the data.

A lift replaces R by the length-two ramified Witt ring W and the
kernel/image axioms by the exact identities F V = V F = p.

Duality transposes the matrices, swaps F and V with a one-step
frobenius correction, and replaces every distinguished submodule by its
annihilator under the residue form.  A datum memoizes its dual, and the
dual refers back to it weakly, so the pair holds no reference cycle:
both are freed by reference counting as soon as the caller drops the
datum, with no wait for the cyclic collector.

Both kinds share one private base class: it places F and V, checks that
each matrix is h1 x h1 (raising the kind's own error), dualizes and
compares.  reduce() is the mod-p datum every invariant reads and that
carries the flags: a lift's reduction, or a mod-p datum itself.

Each datum class has two constructors: the class call places and then
validates (loads, duals, named instances; the dual's validation is the
duality statement), and _of only places, for generated data.
"""

from __future__ import annotations

import weakref

from .errors import InvalidDatum, InvalidLift, InvalidSpec
from .flags import extended_flag
from .kspace import annihilator
from .linalg import Matrix, SemilinearMap, Submodule
from .rings import FiniteField, RingTower


def check_heights(h1, d1):
    """Refuse a height or hodge rank out of range.  It reads only the two
    integers, so every caller checks them before any ring is built."""
    if h1 < 1:
        raise InvalidSpec("h1 must be positive")
    if not 0 <= d1 <= h1:
        raise InvalidSpec("need 0 <= d1 <= h1")


class Params:
    """Shape of a datum: prime, field degree, ramification degree, height
    per embedding, hodge rank per embedding, plus the ring tower built
    from the chosen (or default) moduli."""

    def __init__(self, p, f, e, h1, d1, field_modulus=None, eisenstein=None):
        check_heights(h1, d1)
        self._place(RingTower(FiniteField(p, f, field_modulus), e, eisenstein), h1, d1)

    @classmethod
    def on_tower(cls, tower: RingTower, h1, d1) -> "Params":
        """Params of height h1 and hodge rank d1 on an existing tower.
        Submodules and matrices compare by ring object, so data meant to
        meet (a datum and its dual, loads of one description) share one."""
        check_heights(h1, d1)
        par = object.__new__(cls)
        par._place(tower, h1, d1)
        return par

    def _place(self, tower, h1, d1):
        self.p, self.f, self.e, self.h1, self.d1 = tower.p, tower.f, tower.e, h1, d1
        self.tower = tower
        self.k = tower.k
        self.R = tower.R
        self.W2 = tower.W2
        self.W = tower.W

    def dual(self) -> "Params":
        """Same shape with complementary hodge rank, on the same tower."""
        return Params.on_tower(self.tower, self.h1, self.h1 - self.d1)

    def describe(self) -> dict:
        out = self.tower.describe()
        out["h1"] = self.h1
        out["d1"] = self.d1
        return out

    def __repr__(self):
        return "Params(p=%d, f=%d, e=%d, h1=%d, d1=%d)" % (self.p, self.f, self.e, self.h1, self.d1)


class _Datum:
    """What both datum kinds share.  A subclass sets _invalid, the error
    it raises, and implements _place, validate and reduce."""

    def __init__(self, params: Params, F_mats, V_mats, pr_flags=None):
        self._place(params, F_mats, V_mats, pr_flags)
        self.validate()

    def _place_maps(self, params, F_mats, V_mats):
        self.params = params
        if len(F_mats) != params.f or len(V_mats) != params.f:
            raise self._invalid("expected %d matrices for F and for V" % params.f)
        self.F = tuple(SemilinearMap(m, +1) for m in F_mats)
        self.V = tuple(SemilinearMap(m, -1) for m in V_mats)

    def _check_square(self, i):
        h1 = self.params.h1
        for M in (self.F[i].matrix, self.V[i].matrix):
            if M.m != h1 or M.n != h1:
                raise self._invalid("matrix at index %d is not %d x %d" % (i, h1, h1))

    def dualize(self):
        """The dual datum, built and validated by the class call (a failure
        reads "dual is not a valid datum: ...").  A lift's dual reduces to
        its reduction's dual, so only the flags come from the reduction."""
        f = self.params.f
        try:
            return type(self)(self.params.dual(),
                              [self.V[i].matrix.transpose().frob(1) for i in range(f)],
                              [self.F[i].matrix.transpose().frob(-1) for i in range(f)],
                              pr_flags=self.reduce().dual_flags())
        except self._invalid as exc:
            raise self._invalid("dual is not a valid datum: %s" % exc) from exc

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.params.describe() == other.params.describe()
            and all(self.F[i].matrix == other.F[i].matrix for i in range(self.params.f))
            and all(self.V[i].matrix == other.V[i].matrix for i in range(self.params.f))
            and self.reduce().pr_flags == other.reduce().pr_flags
        )

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.params)


class DieudonneDatum(_Datum):
    """Mod-p datum with its flag data.  The constructor validates; _of
    only places (see the module docstring)."""

    _invalid = InvalidDatum

    @classmethod
    def _of(cls, params: Params, F_mats, V_mats, pr_flags, hodges=()) -> "DieudonneDatum":
        """A datum placed without validate: one valid by construction, or
        a lift's reduction, which the lift's validate checks.  hodges[i],
        if given, must equal hodge(i), the image of V[i+1]; it seeds the
        memo, so hodge(i) needs no elimination."""
        D = object.__new__(cls)
        D._place(params, F_mats, V_mats, pr_flags, hodges)
        return D

    def _place(self, params, F_mats, V_mats, pr_flags, hodges=()):
        self._place_maps(params, F_mats, V_mats)
        f = params.f
        self._cache = {("hodge", i): h for i, h in enumerate(hodges)}
        if pr_flags is None:
            if params.e == 1:
                # e = 1 leaves no room: the flag is forced to (0, hodge) everywhere
                zero = Submodule.zero(params.R, params.h1)
                pr_flags = [[zero, self.hodge(i)] for i in range(f)]
            else:
                raise InvalidDatum("flag data is required when e > 1")
        self.pr_flags = tuple(tuple(level for level in flag) for flag in pr_flags)

    def reduce(self) -> "DieudonneDatum":
        """A mod-p datum is its own reduction."""
        return self

    def memo(self, key, build):
        """The value cached under key, built by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def shared(self, key, build):
        """memo for what the ring and the submodules alone fix: pi-preimages,
        quotient presentations and the maps induced between them.  A datum
        and its dual share the ring tower and this table (see dual), so
        each is built once for both."""
        table = self.memo("shared", dict)
        if key not in table:
            table[key] = build()
        return table[key]

    # -- distinguished submodules ------------------------------------

    def hodge(self, i: int) -> Submodule:
        i %= self.params.f
        return self.memo(("hodge", i), lambda: self.V[(i + 1) % self.params.f].image())

    def conj(self, i: int) -> Submodule:
        i %= self.params.f
        return self.memo(("conj0", i), lambda: self.F[i].image())

    # -- validation ----------------------------------------------------

    def validate(self):
        p = self.params
        for i in range(p.f):
            self._check_square(i)
            # exactness by rank plus composition (see the module docstring):
            # a rank failure breaks both equalities and is reported first
            hodge, conj = self.hodge(i - 1), self.conj(i)
            if (len(hodge.krows) + len(conj.krows) != p.h1 * p.e
                    or any(any(self.F[i].apply_k(g)) for g in hodge.gens())):
                raise InvalidDatum("ker F != im V at index %d" % i)
            if any(any(self.V[i].apply_k(g)) for g in conj.gens()):
                raise InvalidDatum("ker V != im F at index %d" % i)
        for i in range(p.f):
            if len(self.hodge(i).krows) != p.e * p.d1:
                raise InvalidDatum("hodge submodule at index %d has wrong dimension" % i)
        if len(self.pr_flags) != p.f:
            raise InvalidDatum("expected one flag per index")
        zero = Submodule.zero(p.R, p.h1)
        for i in range(p.f):
            flag = self.pr_flags[i]
            if len(flag) != p.e + 1:
                raise InvalidDatum("flag at index %d must have levels 0..e" % i)
            if flag[0] != zero:
                raise InvalidDatum("flag at index %d does not start at 0" % i)
            if flag[p.e] != self.hodge(i):
                raise InvalidDatum("flag at index %d does not end at the hodge submodule" % i)
            for j in range(1, p.e + 1):
                if not flag[j].contains_sub(flag[j - 1]):
                    raise InvalidDatum("flag at index %d is not nested at level %d" % (i, j))
                if len(flag[j].krows) != j * p.d1:
                    raise InvalidDatum("flag at index %d has wrong dimension at level %d" % (i, j))
                if not flag[j - 1].contains_sub(flag[j].pi_times(1)):
                    raise InvalidDatum("flag at index %d is not pi-compatible at level %d" % (i, j))

    # -- duality ---------------------------------------------------------

    def dual_flags(self):
        """Flags of the dual datum: annihilators of the extended flag, top down."""
        p = self.params
        flags = []
        for i in range(p.f):
            ext = extended_flag(self, i)
            flags.append([annihilator(p.R, p.h1, ext[2 * p.e - j]) for j in range(p.e + 1)])
        return flags

    def dual(self) -> "DieudonneDatum":
        """dualize, built once, sharing the shared table.  The datum holds
        its dual, and the dual holds the datum only by a weak reference:
        a strong one both ways would make a cycle that only the cyclic
        collector frees.  So the dual's dual is self while self lives;
        a dual that outlives its datum builds its own dual once."""
        back = self._cache.get("dual_of")
        D = back() if back is not None else None
        if D is not None:
            return D

        def build():
            dd = self.dualize()
            dd._cache["dual_of"] = weakref.ref(self)
            dd._cache["shared"] = self.memo("shared", dict)
            return dd
        return self.memo("dualized", build)


class LiftedDatum(_Datum):
    """Mod-p^2 datum over W: the same shaped chain of matrices with the
    exact relations F V = p and V F = p at every index, carrying flag
    data for its reduction."""

    _invalid = InvalidLift

    @classmethod
    def _of(cls, params: Params, F_mats, V_mats, reduction) -> "LiftedDatum":
        """A lift valid by construction, placed without validate, with its
        reduction already placed by DieudonneDatum._of from the reduced
        matrices; that reduction carries the flags."""
        L = object.__new__(cls)
        L._place(params, F_mats, V_mats, None)
        L._reduction = reduction
        return L

    def _place(self, params, F_mats, V_mats, pr_flags):
        self._place_maps(params, F_mats, V_mats)
        self._pr_flags = pr_flags
        self._reduction = None

    def validate(self):
        p = self.params
        W = p.W
        pI = Matrix.identity(W, p.h1).scale(W.from_int(p.p))
        for i in range(p.f):
            self._check_square(i)
            FV = self.F[i].compose(self.V[i])
            if FV.matrix != pI:
                raise InvalidLift("F V != p at index %d" % i)
            VF = self.V[i].compose(self.F[i])
            if VF.matrix != pI:
                raise InvalidLift("V F != p at index %d" % i)
        try:
            self.reduce().validate()
        except InvalidDatum as exc:
            raise InvalidLift("reduction is not a valid datum: %s" % exc) from exc

    def reduce(self) -> DieudonneDatum:
        """The mod-p datum, placed on first use; validate checks it along
        with the lift."""
        if self._reduction is None:
            p = self.params
            red = p.W.reduce
            Fr = [self.F[i].matrix.map(red, p.R) for i in range(p.f)]
            Vr = [self.V[i].matrix.map(red, p.R) for i in range(p.f)]
            self._reduction = DieudonneDatum._of(p, Fr, Vr, self._pr_flags)
        return self._reduction
