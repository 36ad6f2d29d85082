"""A fuzz of the JSON boundary, with Hypothesis: one valid lifted and one
valid mod-p document, mutated (dropped keys, wrong types, ragged rows,
out-of-range codes, a reducible field modulus, bad flag levels), go
through the CLI's verify, invariants and dualize in this process.  Each
must exit 0, 1 or 2, and no exception other than a HasseForgeError may
escape the library (main turns those into exit codes 1 and 2).  Examples
are derandomized and no example database is kept."""

import contextlib
import copy
import io
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hasseforge import serialize
from hasseforge.cli import main
from hasseforge.datum import Params
from hasseforge.errors import InvalidSpec
from hasseforge.generate import random_datum

DOCS = {kind: json.loads(serialize.dumps(random_datum(Params(2, 2, 2, 2, 1), random.Random(0),
                                                     kind == "lifted")))
        for kind in ("lifted", "charp")}
WRONG_TYPES = ["x", None, 1.5, True, {}, [], [[]]]
# in-range codes too, so that some mutations pass decoding and fail later
INTS = [-1, 0, 1, 2, 3, 4, 5, 9, 2**64]
# x^2 and x^2 + 1 = (x + 1)^2 are reducible over F_2
REDUCIBLE = [[0, 0, 1], [1, 0, 1]]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(doc, data):
    """One mutation of doc, in place unless the whole document is replaced;
    returns the mutated document."""
    kind = data.draw(st.sampled_from(["drop", "append", "retype", "code", "modulus", "flags"]))
    if kind == "modulus":
        if isinstance(doc, dict) and isinstance(doc.get("params"), dict):
            doc["params"]["field_modulus"] = data.draw(st.sampled_from(REDUCIBLE))
        return doc
    if kind == "flags":
        flags = doc.get("pr_flags") if isinstance(doc, dict) else None
        if isinstance(flags, list) and flags and all(isinstance(f, list) and f for f in flags):
            flag = flags[data.draw(st.integers(0, len(flags) - 1))]
            other = data.draw(st.sampled_from(flags))
            how = data.draw(st.sampled_from(["swap", "repeat", "foreign", "reverse"]))
            i, j = (data.draw(st.integers(0, len(flag) - 1)) for _ in range(2))
            if how == "swap":
                flag[i], flag[j] = flag[j], flag[i]
            elif how == "repeat":
                flag.insert(i, copy.deepcopy(flag[j]))
            elif how == "foreign":
                flag[i] = copy.deepcopy(other[min(j, len(other) - 1)])
            else:
                flag.reverse()
        return doc
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(st.sampled_from(WRONG_TYPES))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if kind == "drop":
        del parent[last]
    elif kind == "append":
        if isinstance(parent[last], list) and parent[last]:
            parent[last].append(copy.deepcopy(parent[last][0]))
    elif kind == "retype":
        parent[last] = data.draw(st.sampled_from(WRONG_TYPES))
    else:
        parent[last] = data.draw(st.sampled_from(INTS))
    return doc


def _run(command, line):
    """Exit code, stdout and stderr of one in-process CLI run on line."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(line + "\n")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", list(DOCS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_exit_with_a_documented_code(kind, data):
    doc = copy.deepcopy(DOCS[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    line = json.dumps(doc)
    for command in ("verify", "invariants", "dualize"):
        assert _run(command, line)[0] in (0, 1, 2)


def test_unmutated_documents_pass():
    for doc in DOCS.values():
        assert _run("verify", json.dumps(doc))[0] == 0


# json itself refuses these two: one nests deeper than its decoder recurses,
# the other holds an integer longer than int() converts
UNDECODABLE = ["[" * 200_000,
               '{"format":"%s","params":{"p":%s}}' % (serialize.FORMAT, "9" * 5000)]


@pytest.mark.parametrize("line", UNDECODABLE, ids=["deep", "long-int"])
def test_undecodable_lines_are_malformed_input(line):
    with pytest.raises(InvalidSpec):
        serialize.loads(line)
    for command in ("verify", "invariants", "dualize", "validate"):
        code, out, err = _run(command, line)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        # the limit is reported in the document's terms, not as Python's advice
        assert "set_int_max_str_digits" not in err


# p = 65537 is prime, but p^f is over the field-size cap; p = 9 is under it
# and composite
@pytest.mark.parametrize("kind", list(DOCS))
@pytest.mark.parametrize("p, message", [(65537, "field size 65537^2 exceeds 65536"),
                                        (9, "p must be a prime, got 9")])
def test_a_residue_field_that_cannot_exist_is_malformed_input(kind, p, message):
    doc = copy.deepcopy(DOCS[kind])
    doc["params"]["p"] = p
    line = json.dumps(doc)
    for command in ("verify", "invariants", "dualize", "validate"):
        assert _run(command, line) == (2, "", "error: %s\n" % message)
