"""Bit-exact JSON round-tripping of data.

Ring elements are nested little-endian integer coefficient tuples, so they
serialize as nested lists with no encoding choices to make.  Matrices are
row-major; submodules are stored by their canonical generator rows, which
re-normalize to themselves on load.  dumps() output is stable: sorted keys,
no whitespace, same string for equal data.
"""

import functools
import json
import sys

from .errors import InvalidSpec
from .datum import DieudonneDatum, LiftedDatum, Params, check_heights
from .linalg import Matrix, Submodule
from .rings import FiniteField, RingTower

FORMAT = "hasse-forge/1"
# Loads of one description share one tower, and towers over one field share
# the field.  A field keeps O(p^f) tables (about 15 MB at p^f = 2^16), so
# both tables are bounded; see the README for the worst case.
FIELD_TABLE_SIZE = 8
TOWER_TABLE_SIZE = 16


def _list(x, what, length=None):
    if not isinstance(x, (list, tuple)):
        raise InvalidSpec("%s must be a list, got %.40r" % (what, x))
    if length is not None and len(x) != length:
        raise InvalidSpec("%s must be a list of length %d, got %.40r" % (what, length, x))
    return x


def _codes(x, what, n, bound, code):
    """x as a tuple, once it is checked to be a list of n integers in
    [0, bound); what names the list and code one entry in the messages.
    type() rather than isinstance() keeps JSON true/false from passing as
    1/0."""
    for c in _list(x, what, n):
        if type(c) is not int or not 0 <= c < bound:
            raise InvalidSpec("%s must be an integer in [0, %d), got %.40r" % (code, bound, c))
    return tuple(x)


def _elt_reader(params, lifted):
    """Reader for one document ring element over params.R, or over params.W
    when lifted: checks type, shape and range in one pass over the element
    and returns its tuple form, a W element being e lists of W2 codes."""
    e, f = params.e, params.f
    if lifted:
        m = params.W2.m
        return lambda x: tuple([_codes(c, "a W2 element", f, m, "a W2 coefficient")
                                for c in _list(x, "a W element", e)])
    q = params.k.q
    return lambda x: _codes(x, "an R element", e, q, "a k code")


def matrix_in(ring, data, n, read):
    """n x n matrix over ring; read turns one document element into a ring
    element.  The length checks fix its shape, so the rows are placed as read."""
    return Matrix._of(ring, tuple([tuple([read(x) for x in _list(row, "a matrix row", n)])
                                   for row in _list(data, "a matrix", n)]), n)


def sub_in(R, n, data, read):
    """Span in R^n of the generator rows in data (any number of rows)."""
    return Submodule.span(R, n, [tuple([read(x) for x in _list(v, "a submodule row", n)])
                                 for v in _list(data, "a submodule")])


def _key(d, key):
    try:
        return d[key]
    except KeyError:
        raise InvalidSpec("document lacks the key %r" % key) from None


def _shape_in(d):
    if not isinstance(d, dict):
        raise InvalidSpec("params must be an object, got %.40r" % (d,))
    shape = []
    for key in ("p", "f", "e", "h1", "d1"):
        v = _key(d, key)
        if type(v) is not int:
            raise InvalidSpec("params %s must be an integer, got %.40r" % (key, v))
        shape.append(v)
    check_heights(*shape[3:])
    return shape


def _document(d):
    if not isinstance(d, dict) or d.get("format") != FORMAT:
        raise InvalidSpec("not a %s document" % FORMAT)
    return d


def doc_shape(d) -> tuple:
    """The checked integers (p, f, e, h1, d1) of a document, h1 and d1 in
    range, read without building its ring tower, so that a caller can
    refuse a shape first."""
    return tuple(_shape_in(_key(_document(d), "params")))


@functools.lru_cache(maxsize=FIELD_TABLE_SIZE)
def interned_field(p, f, modulus):
    """FiniteField(p, f, modulus), built once per key; modulus is a tuple
    or None.  A build that raises is not kept, so it raises again."""
    return FiniteField(p, f, modulus)


@functools.lru_cache(maxsize=TOWER_TABLE_SIZE)
def interned_tower(k, e, eisenstein):
    """RingTower(k, e, eisenstein), built once per key; eisenstein is a
    tuple or None.  k, a field from interned_field, keys by identity, so
    every tower a load gets is over the field that table holds now: one
    field serves every e, even after it was dropped and rebuilt."""
    return RingTower(k, e, eisenstein)


def params_in(d):
    p, f, e, h1, d1 = _shape_in(d)
    moduli = []
    for key in ("field_modulus", "eisenstein"):
        v = _key(d, key)
        if v is not None:
            if any(type(c) is not int for c in _list(v, "params " + key)):
                raise InvalidSpec("params %s must be a list of integers, got %.40r" % (key, v))
            v = tuple(v)
        moduli.append(v)
    k = interned_field(p, f, moduli[0])
    return Params.on_tower(interned_tower(k, e, moduli[1]), h1, d1)


def datum_to_dict(D) -> dict:
    # store flags explicitly even when e = 1 forced them, so equal data
    # always serializes to equal bytes; the tuples go in as the datum holds
    # them, since json writes a tuple as an array
    return {
        "format": FORMAT,
        "params": D.params.describe(),
        "lifted": isinstance(D, LiftedDatum),
        "F": [m.matrix.rows for m in D.F],
        "V": [m.matrix.rows for m in D.V],
        "pr_flags": [[S.rows for S in flag] for flag in D.reduce().pr_flags],
    }


def datum_from_dict(d, params=None):
    """Rebuild a datum, with every list length (f matrices for F and for
    V, f flags of e+1 levels, h1 x h1 matrices) checked here: a wrong one
    raises InvalidSpec.  Rings compare by identity; loads of one
    description share the tower that params_in interns for it, while data
    built in-process keep their own.  Pass params= to adopt an existing
    tower (it must describe the same shape)."""
    _document(d)
    if params is None:
        par = params_in(_key(d, "params"))
    elif params.describe() == _key(d, "params"):
        par = params
    else:
        raise InvalidSpec("document params do not match the supplied Params")
    lifted = _key(d, "lifted")
    if type(lifted) is not bool:
        raise InvalidSpec("lifted must be true or false, got %.40r" % (lifted,))
    ring = par.W if lifted else par.R
    read = _elt_reader(par, lifted)
    F = [matrix_in(ring, m, par.h1, read) for m in _list(_key(d, "F"), "F", par.f)]
    V = [matrix_in(ring, m, par.h1, read) for m in _list(_key(d, "V"), "V", par.f)]
    flags = d.get("pr_flags")
    if flags is not None:
        read_R = _elt_reader(par, False)
        flags = [[sub_in(par.R, par.h1, S, read_R) for S in _list(flag, "a flag", par.e + 1)]
                 for flag in _list(flags, "pr_flags", par.f)]
    cls = LiftedDatum if lifted else DieudonneDatum
    return cls(par, F, V, pr_flags=flags)


def encode(obj) -> str:
    """obj as canonical JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps(D) -> str:
    return encode(datum_to_dict(D))


def parse(text: str):
    """The JSON value in text.  Anything json cannot decode, nesting too
    deep for the decoder and integers too long to convert included, raises
    InvalidSpec."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidSpec("malformed JSON document: %s" % exc) from exc
    except ValueError as exc:
        # the one other ValueError of json.loads: int()'s digit limit, whose
        # own message names a call a document's author cannot make
        raise InvalidSpec("malformed JSON document: an integer has more than %d digits"
                          % sys.get_int_max_str_digits()) from exc


def loads(s: str, params=None):
    return datum_from_dict(parse(s), params=params)

