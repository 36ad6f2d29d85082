"""Changing the residue field's modulus is a metamorphic invariant.

K = F_p[x]/(m) and K' = F_p[x]/(m') are isomorphic for any two monic
irreducibles m, m' of degree f, through phi: x -> r for a root r of m in
K'.  Carrying every k code of a mod-p document (F, V and pr_flags) through
phi and loading it over Params(..., field_modulus=m') gives D over K', so
every section scalar and every verdict's scalar_G, scalar_GD and
canonical_iso_scalar map by phi, and every verdict's (status, equal)
stays.  The transports run over every m' and every root r but the
identity (m' = m, r = x), so at m' = m they are K's other automorphisms.
The mutant that loads the codes unchanged over m' != m must disagree.
Mod-p reductions of both kinds, from fixed seeds.
"""

import itertools
import random

from hasseforge import polyutil, serialize
from hasseforge.datum import Params
from hasseforge.errors import HasseForgeError
from hasseforge.generate import random_datum
from hasseforge.invariants import all_sections, all_verdicts

SHAPES = ((3, 2, 2, 2, 1), (2, 3, 2, 2, 1), (5, 2, 1, 3, 1), (2, 2, 3, 3, 2), (3, 3, 1, 2, 1))


def _moduli(p, f):
    """Every monic irreducible of degree f over F_p, low coefficient first."""
    return [list(c) + [1] for c in itertools.product(range(p), repeat=f)
            if polyutil.is_irreducible_fp(list(c) + [1], p)]


def _isomorphisms(K, K2):
    """phi: K -> K2 as a table of codes, one per root of K's modulus in K2."""
    for r in range(K2.q):
        powers = [K2.one]
        for _ in range(K.f):
            powers.append(K2.mul(powers[-1], r))

        def at_r(coeffs):
            acc = K2.zero
            for c, x in zip(coeffs, powers):
                acc = K2.add(acc, K2.mul(K2.from_int(c), x))
            return acc

        if at_r(K.modulus) == K2.zero:
            yield [at_r(K.to_poly(a)) for a in range(K.q)]


def _codes_through(x, phi):
    return [_codes_through(y, phi) for y in x] if isinstance(x, list) else phi[x]


def transported(D, par2, phi):
    """D's document with every k code carried through phi, loaded over par2."""
    doc = serialize.parse(serialize.dumps(D))
    doc["params"] = par2.describe()
    for key in ("F", "V", "pr_flags"):
        doc[key] = _codes_through(doc[key], phi)
    return serialize.datum_from_dict(doc, par2)


def mismatches(D, D2, phi):
    """Sections and verdicts of D2 that are not phi of D's."""
    def image(c):
        return None if c is None else phi[c]

    bad = 0
    for s, s2 in zip(all_sections(D), all_sections(D2), strict=True):
        bad += (s2.name, s2.i, s2.j, s2.scalar) != (s.name, s.i, s.j, phi[s.scalar])
    for v, v2 in zip(all_verdicts(D), all_verdicts(D2), strict=True):
        bad += ((v2.name, v2.i, v2.j, v2.scalar_G, v2.scalar_GD, v2.canonical_iso_scalar,
                 v2.status, v2.equal)
                != (v.name, v.i, v.j, phi[v.scalar_G], phi[v.scalar_GD],
                    image(v.canonical_iso_scalar), v.status, v.equal))
    return bad


def _data():
    """(D, Params over m') for each mod-p datum and each modulus m' of its degree."""
    rng = random.Random(25)
    for shape in SHAPES:
        par = Params(*shape)
        for lifted in (True, False):
            D = random_datum(par, rng, lifted=lifted).reduce()
            for m2 in _moduli(par.p, par.f):
                yield D, Params(*shape, field_modulus=m2)


def test_field_isomorphism_maps_sections_and_verdicts():
    count = 0
    for D, par2 in _data():
        K = D.params.k
        for phi in _isomorphisms(K, par2.k):
            if phi != list(range(K.q)):
                assert mismatches(D, transported(D, par2, phi), phi) == 0, (D, par2.k.modulus)
                count += 1
    # (3*2 - 1) + (2*3 - 1) + (10*2 - 1) + (1*2 - 1) + (8*3 - 1) per kind
    assert count == 2 * 53


def test_codes_without_phi_disagree():
    tried = disagree = 0
    for D, par2 in _data():
        if par2.k.modulus == D.params.k.modulus:
            continue
        identity = list(range(D.params.k.q))
        tried += 1
        try:
            disagree += mismatches(D, transported(D, par2, identity), identity) > 0
        except HasseForgeError:
            disagree += 1
    # 2 + 1 + 9 + 0 + 7 other moduli per kind
    assert tried == 2 * 19 and disagree == tried
