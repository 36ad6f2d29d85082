"""A seeded generate | verify campaign at shapes no acceptance campaign
reaches: f = 4 over F_625 and F_2401, and primes above 7 (p = 11, 13, 31,
251 and 65521; residue fields of up to 65521 elements): both kinds, run
through the CLI in this process.  Every checked identity holds on
every document, every ok verdict is an equality, pi-divisibility holds on
every lift, the mod-p data include boundary-map comparisons that are
not_applicable, and dualizing twice returns the input byte for byte."""

import contextlib
import functools
import io
import json
import sys
from unittest import mock

import pytest

from hasseforge.cli import main

F4_SHAPES = ("5,4,2,2,1", "7,4,2,3,1", "5,4,3,2,1", "7,4,1,3,2")
PRIME_SHAPES = ("11,1,2,2,1", "13,2,2,3,1", "31,3,2,2,1", "251,2,2,2,1", "65521,1,2,2,1")
SHAPES = F4_SHAPES + PRIME_SHAPES
KINDS = ("lifted", "charp")
SEED = 0
COUNT = 3


def _run(argv, stdin=""):
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def _campaign(shape, kind):
    """The generated documents and their verify reports."""
    docs = _run(["generate", "--params", shape, "--kind", kind,
                 "--count", str(COUNT), "--seed", str(SEED)])
    reports = [json.loads(ln) for ln in _run(["verify"], docs).splitlines()]
    assert len(reports) == COUNT
    return docs, reports


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_every_identity_holds(shape, kind):
    for r in _campaign(shape, kind)[1]:
        assert r["ok"] is True
        assert all(v["equal"] for v in r["verdicts"] if v["status"] == "ok")
        assert r["product_identity"] is True and r["factorization"] is True
        assert r["pi_divisibility"] is (True if kind == "lifted" else None)
        if kind == "lifted":
            assert r["not_applicable"] == 0


def test_some_mod_p_comparison_is_not_applicable():
    assert any(r["not_applicable"] > 0
               for shape in SHAPES for r in _campaign(shape, "charp")[1])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_dualizing_twice_gives_the_same_bytes(shape, kind):
    docs = _campaign(shape, kind)[0]
    assert _run(["dualize"], _run(["dualize"], docs)) == docs
