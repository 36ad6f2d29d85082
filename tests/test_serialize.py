import json
import random

import pytest

from hasseforge import serialize as ser
from hasseforge.datum import LiftedDatum, Params
from hasseforge.errors import InvalidSpec
from hasseforge.generate import NAMED_INSTANCES, named_instance, random_datum
from hasseforge.invariants import all_sections, all_verdicts

SHAPES = [
    (2, 1, 1, 2, 1),
    (3, 1, 2, 2, 1),
    (2, 2, 2, 2, 1),
    (3, 3, 1, 3, 2),
    (5, 1, 2, 2, 1),
    (7, 1, 1, 2, 1),
]


def test_byte_stable_round_trip():
    rng = random.Random(5)
    for shape in SHAPES:
        for lifted in (True, False):
            D = random_datum(Params(*shape), rng, lifted=lifted)
            s = ser.dumps(D)
            assert ser.dumps(ser.loads(s)) == s
            # adopting the original tower recovers an equal object
            assert ser.loads(s, params=D.params) == D


def test_named_instances_round_trip():
    for name in NAMED_INSTANCES:
        D = named_instance(name)
        s = ser.dumps(D)
        assert ser.dumps(ser.loads(s)) == s
        assert ser.loads(s, params=D.params) == D


def test_dumps_is_deterministic():
    D1 = named_instance("ram-ss")
    D2 = named_instance("ram-ss")
    assert D1 is not D2
    assert ser.dumps(D1) == ser.dumps(D2)


def test_bidual_serializes_to_same_bytes():
    rng = random.Random(11)
    for shape in SHAPES:
        for lifted in (True, False):
            D = random_datum(Params(*shape), rng, lifted=lifted)
            assert ser.dumps(D.dualize().dualize()) == ser.dumps(D)


def test_e1_lifted_flags_are_normalized():
    # a lifted datum built with implicit flags serializes identically to
    # one built with the explicit trivial flags
    rng = random.Random(3)
    D = random_datum(Params(3, 2, 1, 2, 1), rng, lifted=True)
    bare = LiftedDatum(D.params, [m.matrix for m in D.F],
                       [m.matrix for m in D.V], pr_flags=None)
    doc = ser.datum_to_dict(bare)
    assert doc["pr_flags"] is not None
    assert ser.dumps(bare) == ser.dumps(D)


def test_invariants_survive_fresh_tower_reload():
    for name in ("ram-ss", "unram-f2"):
        D = named_instance(name)
        D2 = ser.loads(ser.dumps(D))
        assert D2.params is not D.params
        sec1 = [(s.name, s.i, s.j, s.scalar, s.vanished) for s in all_sections(D)]
        sec2 = [(s.name, s.i, s.j, s.scalar, s.vanished) for s in all_sections(D2)]
        assert sec1 == sec2
        ver1 = [(v.name, v.i, v.j, v.scalar_G, v.scalar_GD,
                 v.canonical_iso_scalar, v.equal, v.status) for v in all_verdicts(D)]
        ver2 = [(v.name, v.i, v.j, v.scalar_G, v.scalar_GD,
                 v.canonical_iso_scalar, v.equal, v.status) for v in all_verdicts(D2)]
        assert ver1 == ver2


def test_document_shape():
    doc = ser.datum_to_dict(named_instance("ram-split"))
    assert doc["format"] == "hasse-forge/1"
    assert doc["lifted"] is True
    assert set(doc) == {"format", "params", "lifted", "F", "V", "pr_flags"}
    par = doc["params"]
    assert par["p"] == 3 and par["e"] == 2 and par["h1"] == 2 and par["d1"] == 1
    # F is one matrix per embedding, h1 x h1, nested coefficient lists
    assert len(doc["F"]) == par["f"]
    assert len(doc["F"][0]) == par["h1"] and len(doc["F"][0][0]) == par["h1"]
    json.dumps(doc)  # every leaf is JSON-native


def test_params_mismatch_rejected():
    D = named_instance("ram-ss")
    other = Params(3, 1, 2, 3, 2)
    with pytest.raises(InvalidSpec):
        ser.loads(ser.dumps(D), params=other)


def test_wrong_format_rejected():
    with pytest.raises(InvalidSpec):
        ser.datum_from_dict({"format": "other/9"})
    with pytest.raises(InvalidSpec):
        ser.loads("{ not json")


_DROP = object()


def _malformed(doc, path, value):
    """Copy of doc with the entry at path (a tuple of keys/indices) set to
    value, or deleted when value is _DROP."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def test_malformed_charp_documents_raise_invalid_spec():
    # F_25, e = 2: R elements are pairs of k codes in [0, 25)
    doc = ser.datum_to_dict(random_datum(Params(5, 2, 2, 2, 1), random.Random(4),
                                         lifted=False))
    cases = [
        (("F", 0, 0, 0), "ab"),               # string entry
        (("F", 0, 0, 0), [1, "2"]),           # string k code
        (("F", 0, 0, 0), [99, 0]),            # k code >= q
        (("F", 0, 0, 0), [-1, 0]),            # negative k code
        (("F", 0, 0, 0), [True, 0]),          # bool is not a k code
        (("F", 0, 0, 0), [1.0, 0]),           # float is not a k code
        (("F", 0, 0, 0), [1, 0, 0]),          # R tuple of length != e
        (("F", 0, 1), [[0, 0]]),              # ragged row
        (("V", 0), [[[0, 0], [0, 0]]]),       # h1 - 1 rows
        (("pr_flags", 0, 1, 0), [[0, 0]]),    # flag row of length != h1
        (("pr_flags", 0, 1, 0, 0), [0, 25]),  # flag k code out of range
        (("pr_flags", 0), 3),                 # flag that is not a list
        (("F",), 7),                          # F that is not a list
        (("lifted",), 0),                     # lifted must be a bool
        (("V",), _DROP),                      # missing key
        (("params", "h1"), _DROP),            # missing params key
        (("params", "f"), "2"),               # params entry of the wrong type
        (("params", "field_modulus"), [2, "0", 1]),
    ]
    for path, value in cases:
        with pytest.raises(InvalidSpec):
            ser.datum_from_dict(_malformed(doc, path, value))
    assert ser.dumps(ser.datum_from_dict(doc)) == json.dumps(doc, sort_keys=True,
                                                             separators=(",", ":"))


def test_malformed_lifted_documents_raise_invalid_spec():
    # W over W2(F_9), e = 2: W elements are pairs of W2 pairs in [0, 9)
    doc = ser.datum_to_dict(random_datum(Params(3, 2, 2, 2, 1), random.Random(4),
                                         lifted=True))
    cases = [
        (("F", 0, 0, 0), [[0, 0]]),           # W tuple of length != e
        (("F", 0, 0, 0, 1), [0]),             # W2 tuple of length != f
        (("F", 0, 0, 0, 1), [0, 9]),          # W2 coefficient >= p^2
        (("F", 0, 0, 0, 1), [0, False]),      # bool is not a coefficient
        (("F", 0, 0, 0), "abc"),              # string entry
    ]
    for path, value in cases:
        with pytest.raises(InvalidSpec):
            ser.datum_from_dict(_malformed(doc, path, value))
    assert ser.dumps(ser.datum_from_dict(doc)) == json.dumps(doc, sort_keys=True,
                                                             separators=(",", ":"))
