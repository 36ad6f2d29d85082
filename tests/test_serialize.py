import json
import random

import pytest

from hasseforge import serialize as ser
from hasseforge.datum import LiftedDatum, Params
from hasseforge.errors import InvalidSpec
from hasseforge.cli import main
from hasseforge.generate import NAMED_INSTANCES, named_instance, random_datum
from hasseforge.invariants import all_sections, all_verdicts

SHAPES = [
    (2, 1, 1, 2, 1),
    (3, 1, 2, 2, 1),
    (2, 2, 2, 2, 1),
    (3, 3, 1, 3, 2),
    (5, 1, 2, 2, 1),
    (7, 1, 1, 2, 1),
    # f = 2 at e = 3 and at h1 = 3, d1 = 2: the dual is validated by rank
    (3, 2, 3, 3, 1),
    (5, 2, 2, 3, 2),
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


def test_list_lengths_are_checked_at_load(capsys, tmp_path):
    # f = 2, e = 2: two matrices for F and for V, two flags of three levels
    for lifted in (False, True):
        doc = ser.datum_to_dict(random_datum(Params(3, 2, 2, 2, 1), random.Random(6),
                                             lifted=lifted))
        F, V, flags = doc["F"], doc["V"], doc["pr_flags"]
        cases = [
            (("F",), F + F[:1]),                        # f + 1 matrices for F
            (("V",), V[:1]),                            # f - 1 matrices for V
            (("pr_flags",), flags[:1]),                 # fewer than f flags
            (("pr_flags",), flags + flags[:1]),         # more than f flags
            (("pr_flags", 1), flags[1][:2]),            # a flag with e levels
            (("pr_flags", 0), flags[0] + flags[0][-1:]),  # a flag with e + 2 levels
        ]
        for path, value in cases:
            bad = _malformed(doc, path, value)
            with pytest.raises(InvalidSpec):
                ser.datum_from_dict(bad)
            src = tmp_path / "bad.json"
            src.write_text(json.dumps(bad) + "\n")
            assert main(["validate", "--in", str(src)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


# p in {5, 7} with f = 4, at f*e*h1 up to 24, inside the default work cap
ROUND_TRIP_SHAPES = SHAPES + [
    (5, 4, 1, 2, 1),
    (7, 4, 1, 3, 1),
    (5, 4, 2, 2, 1),
    (7, 4, 2, 3, 2),
]


def test_round_trip_on_interned_towers():
    """A datum built on the tower a load interns for its description reloads
    to an equal datum, and its document to the same bytes, for both kinds."""
    rng = random.Random(8)
    for shape in ROUND_TRIP_SHAPES:
        par = ser.params_in(Params(*shape).describe())
        for lifted in (True, False):
            D = random_datum(par, rng, lifted=lifted)
            s = ser.dumps(D)
            assert ser.dumps(ser.loads(s)) == s
            assert ser.loads(ser.dumps(D)) == D


# -- the interned tower table that params_in loads through ----------------


def test_loads_of_one_description_share_a_tower():
    s = ser.dumps(named_instance("ram-ss"))
    A, B = ser.loads(s), ser.loads(s)
    assert A.params is not B.params
    assert A.params.tower is B.params.tower and A.params.k is B.params.k
    assert A == B and A.params.describe() == B.params.describe()


def test_ramifications_over_one_field_share_k():
    rng = random.Random(2)
    P1, P2 = (ser.loads(ser.dumps(random_datum(Params(5, 2, e, 2, 1), rng, lifted=False))).params
              for e in (1, 2))
    assert P1.tower is not P2.tower
    assert P1.k is P2.k


def test_each_modulus_gets_its_own_tower():
    desc = Params(3, 2, 2, 2, 1).describe()
    base = ser.params_in(desc)
    other_field = ser.params_in(dict(desc, field_modulus=[2, 1, 1]))
    other_eis = ser.params_in(dict(desc, eisenstein=[3, 0, 1]))
    assert other_field.tower is not base.tower and other_field.k is not base.k
    assert other_eis.tower is not base.tower and other_eis.k is base.k
    assert other_field.describe()["field_modulus"] == [2, 1, 1]
    assert other_eis.describe()["eisenstein"] == [3, 0, 1]
    # a null modulus is its own key and loads the default
    default = ser.params_in(dict(desc, field_modulus=None, eisenstein=None))
    assert default.tower is not base.tower and default.describe() == desc


def test_invalid_modulus_raises_on_every_load():
    desc = Params(3, 2, 2, 2, 1).describe()
    for bad in (dict(desc, field_modulus=[2, 0, 1]),  # x^2 - 1 is reducible
                dict(desc, eisenstein=[6, 1, 1])):    # does not reduce to X^2
        for _ in range(2):
            with pytest.raises(InvalidSpec):
                ser.params_in(bad)


def test_tower_and_field_tables_evict():
    ser.interned_field.cache_clear()
    ser.interned_tower.cache_clear()
    desc = Params(2, 1, 1, 2, 1).describe()
    first = ser.params_in(desc)
    for e in range(2, 2 + ser.TOWER_TABLE_SIZE):
        ser.params_in(dict(desc, e=e, eisenstein=None))
    assert ser.interned_tower.cache_info().currsize == ser.TOWER_TABLE_SIZE
    assert ser.params_in(desc).tower is not first.tower
    for f in range(2, 2 + ser.FIELD_TABLE_SIZE):
        ser.interned_field(2, f, None)
    assert ser.interned_field.cache_info().currsize == ser.FIELD_TABLE_SIZE
    # the dropped field is rebuilt, and every tower a load gets is over it
    again = ser.params_in(desc)
    assert again.k is not first.k
    assert ser.params_in(dict(desc, e=2, eisenstein=None)).k is again.k


def test_loads_with_params_adopts_them():
    D = named_instance("ram-ss")
    s = ser.dumps(D)
    assert ser.loads(s, params=D.params).params is D.params
    assert ser.loads(s).params.tower is not D.params.tower


def test_interned_batch_matches_fresh_towers(capsys, monkeypatch, tmp_path):
    # 24 documents of one 7^4 shape: the CLI rows are byte-identical
    # whether every load shares one tower or each builds its own
    batch = tmp_path / "batch.json"
    assert main(["generate", "--params", "7,4,2,2,1", "--count", "24", "--seed", "3",
                 "--out", str(batch)]) == 0

    def rows():
        out = {}
        for cmd in ("invariants", "verify"):
            assert main([cmd, "--in", str(batch)]) == 0
            out[cmd] = capsys.readouterr().out
        return out

    lines = batch.read_text().splitlines()
    assert len({id(ser.loads(ln).params.tower) for ln in lines}) == 1
    shared = rows()
    interned, built = ser.interned_field, []

    def fresh(*key):
        interned.cache_clear()
        ser.interned_tower.cache_clear()
        built.append(interned(*key))
        return built[-1]

    monkeypatch.setattr(ser, "interned_field", fresh)
    assert rows() == shared
    assert len(built) == 2 * len(lines) and len({id(k) for k in built}) == len(built)
    assert len(shared["verify"].splitlines()) == len(lines)
