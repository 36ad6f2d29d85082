"""Flags of submodules attached to a datum at each embedding index.

Three chains live on E_i = R^h1, all indexed by levels 0..2e (the
auxiliary one only 0..e-1):

  extended: the stored pi-compatible flag inside the hodge submodule,
    continued upward by pi-power preimages;
  auxiliary: pi-preimages of the individual extended levels;
  conjugate: the previous index's extended flag transported through F
    (lower half, images) and V (upper half, preimages), meeting at the
    validated im F = ker V.

Everything here is untwisted submodule arithmetic; the frobenius twists
of F and V only matter once maps between quotients get coordinates.
Results are cached on the datum since the invariant chains revisit the
same levels many times.  pi^s has no map object: it acts on flat vectors
as a digit shift (linalg.pi_shift), and each pi-preimage is solved once
per document, the datum and its dual sharing the table that holds them.
The kernel of pi^t is the preimage pi^(-t)(0), so the invariants read it
from the same table.
"""

from __future__ import annotations


def pi_preimage(datum, s: int, X):
    """pi^(-s)(X), solved once per document for each (s, X): the stored
    levels' preimages recur across the extended and auxiliary flags and
    between a datum and its dual."""
    return datum.shared(("pi-1", s, X), lambda: X.pi_preimage(s))


def extended_flag(datum, i: int):
    """Levels 0..2e; level e-s is the stored flag, level e+s is the
    pi^s-preimage of level e-s.  Level e is the hodge submodule and
    level 2e is all of E_i."""
    p = datum.params
    i %= p.f

    def build():
        levels = list(datum.pr_flags[i])
        for s in range(1, p.e + 1):
            levels.append(pi_preimage(datum, s, levels[p.e - s]))
        return tuple(levels)

    return datum.memo(("ext", i), build)


def aux_flag(datum, i: int):
    """Levels 0..e-1: the pi-preimage of each stored flag level.  Since
    level j of the stored flag is killed by pi^j it sits inside
    pi^(e-j) E_i, which pins the preimage's k-dimension at h1 + j*d1.
    Level e-1 is extended level e+1."""
    p = datum.params
    i %= p.f
    return datum.memo(("aux", i), lambda: tuple(pi_preimage(datum, 1, datum.pr_flags[i][j])
                                                for j in range(p.e)))


def conj_flag(datum, i: int):
    """Levels 0..2e: level j < e is the F-image of the previous index's
    extended level e+j, level e+j is the V-preimage of the previous
    index's extended level j.  Level e is im F = ker V, read as the
    datum's memoized im F: validate decided ker V = im F for every loaded
    datum, dual and lift reduction, and the _of data the generators place
    carry that guarantee by construction, so ker V is not solved again."""
    p = datum.params
    i %= p.f

    def build():
        prev = extended_flag(datum, (i - 1) % p.f)
        lower = [datum.F[i].image_of(prev[p.e + j]) for j in range(p.e)]
        upper = [datum.V[i].preimage(prev[j]) for j in range(1, p.e + 1)]
        return tuple(lower + [datum.conj(i)] + upper)

    return datum.memo(("conj", i), build)


def pi_divisibility(datum, i: int) -> bool:
    """Whether pi^j carries conjugate level e+j onto conjugate level e-j
    for every j.  Holds whenever the datum is the reduction of a lift;
    a bare mod-p datum can fail it."""
    p = datum.params
    ft = conj_flag(datum, i)
    for j in range(1, p.e + 1):
        if ft[p.e + j].pi_times(j) != ft[p.e - j]:
            return False
    return True
