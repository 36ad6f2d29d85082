"""Every datum is freed by reference counting alone.

A datum memoizes its dual and the dual refers back to it weakly, so a
finished document leaves no reference cycle behind.  These tests run with
the cyclic collector switched off and check, by weak references, that each
datum (and each lift's reduction) is gone as soon as its last user drops it,
and that the CLI drops each parsed document once its datum is built.
"""

import gc
import random
import weakref

import pytest

from hasseforge import serialize as ser
from hasseforge.cli import main
from hasseforge.datum import DieudonneDatum, LiftedDatum, Params
from hasseforge.generate import NAMED_INSTANCES, named_instance, random_datum
from hasseforge.invariants import (all_verdicts, check_pi_divisibility,
                                   factorization_check, family_indices,
                                   product_identity_check)

SHAPES = (((3, 1, 2, 2, 1), True), ((2, 2, 2, 2, 1), True), ((5, 2, 1, 2, 1), False),
          ((3, 1, 3, 2, 1), False))


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _corpus(tmp_path):
    """The named instances, then two seeded documents of each shape."""
    lines = [ser.dumps(named_instance(name)) for name in NAMED_INSTANCES]
    for shape, lifted in SHAPES:
        rng = random.Random(7)
        lines += [ser.dumps(random_datum(Params(*shape), rng, lifted)) for _ in range(2)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return path, len(lines)


@pytest.mark.parametrize("argv", [("verify",), ("invariants",), ("invariants", "--format", "csv"),
                                  ("dualize",), ("validate",)],
                         ids=["verify", "invariants-json", "invariants-csv", "dualize", "validate"])
def test_cli_frees_every_datum_without_a_collection(no_gc, capsys, monkeypatch, tmp_path, argv):
    path, n_docs = _corpus(tmp_path)
    refs = []
    load = ser.datum_from_dict

    def watched(d, params=None):
        D = load(d, params)
        refs.append(weakref.ref(D))
        if isinstance(D, LiftedDatum):
            refs.append(weakref.ref(D._reduction))
        return D

    monkeypatch.setattr(ser, "datum_from_dict", watched)
    # argparse leaves cycles of its own, so the check is on the weak
    # references, not on what a collection would find
    code = main([*argv, "--in", str(path)])
    assert code == 0 and capsys.readouterr().out
    assert len(refs) > n_docs
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, "%d of %d data still alive" % (len(alive), len(refs))


@pytest.mark.parametrize("argv", [("verify",), ("invariants",), ("dualize",), ("validate",)])
def test_cli_drops_each_document_once_the_next_datum_is_built(no_gc, capsys, monkeypatch,
                                                              tmp_path, argv):
    path, n_docs = _corpus(tmp_path)
    docs, stale = [], []
    parse, load = ser.parse, ser.datum_from_dict

    class Doc(dict):
        """A parsed document that a weak reference can watch."""

    def watched_parse(text):
        d = Doc(parse(text))
        docs.append(weakref.ref(d))
        return d

    def watched_load(d, params=None):
        D = load(d, params)
        # this is datum k: every document before k must be gone
        k = next(n for n, ref in enumerate(docs) if ref() is d)
        stale.extend(n for n, ref in enumerate(docs[:k]) if ref() is not None)
        return D

    monkeypatch.setattr(ser, "parse", watched_parse)
    monkeypatch.setattr(ser, "datum_from_dict", watched_load)
    code = main([*argv, "--in", str(path)])
    assert code == 0 and capsys.readouterr().out
    assert len(docs) == n_docs and stale == []


def _checks(D):
    p = D.params
    all_verdicts(D)
    product_identity_check(D)
    for ij in family_indices("ha_pr", p):
        factorization_check(D, *ij)
    if isinstance(D, LiftedDatum):
        for i in range(p.f):
            check_pi_divisibility(D, i)


def test_library_path_leaves_no_cyclic_garbage(no_gc):
    for shape, lifted in SHAPES:
        rng = random.Random(3)
        for _ in range(2):
            text = ser.dumps(random_datum(Params(*shape), rng, lifted))
            _checks(ser.loads(text))
            assert gc.collect() == 0, shape


def test_a_dual_outliving_its_datum_builds_its_dual_once(no_gc, monkeypatch):
    calls = []
    dualize = DieudonneDatum.dualize

    def counted(self):
        calls.append(1)
        return dualize(self)

    monkeypatch.setattr(DieudonneDatum, "dualize", counted)
    for name in NAMED_INSTANCES:
        D = named_instance(name).reduce()
        original = ser.dumps(D)
        Dd = D.dual()
        ref = weakref.ref(D)
        del D
        assert ref() is None, name
        calls.clear()
        again = Dd.dual()
        assert ser.dumps(again) == original and Dd.dual() is again
        assert again.dual() is Dd
        assert len(calls) == 1, name
