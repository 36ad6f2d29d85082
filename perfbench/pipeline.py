"""Workloads, the seeded document stream, and the per-document pipeline.

The pipeline drives the library the way the ``hasse-forge`` CLI does:
generate a document, serialize it, parse the JSON line and load it as
``cli._load_data`` does (a fresh ring tower per document), then run
``verify`` or ``invariants`` and build the report row.  Only public
functions of the library are called; the row layout mirrors the CLI's, and
the benchmark's gate checks the two agree byte for byte.

Every layer call goes through ``call``, which records a span when a
``Tracer`` is given and is a plain call otherwise.
"""

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hasseforge import serialize  # noqa: E402
from hasseforge.datum import Params  # noqa: E402
from hasseforge.generate import random_datum  # noqa: E402
from hasseforge.invariants import (all_sections, all_verdicts,  # noqa: E402
                                   check_pi_divisibility, factorization_check,
                                   product_identity_check, vanishing_pattern)

DEFAULT_SEED = 0
# p90 needs at least ten documents above it
MIN_DOCS = 100
# the gate corpus (CLI child, digest, counts) is the first whole rounds
# holding at least this many documents
CORPUS_DOCS = 36


@dataclass(frozen=True)
class Workload:
    """A grid of shapes run as rounds: each round holds every shape once, in
    a seeded order, with fresh seeded data.  Shape number s is always
    generated lifted when s % period < lifted_per_period and mod p
    otherwise, so every round has the same mix and a run's mix does not
    depend on how many rounds it fits in."""

    name: str
    mode: str  # "verify" or "invariants": the CLI subcommand it mirrors
    shapes: tuple  # (p, f, e, h1, d1)
    period: int
    lifted_per_period: int
    digest: str  # sha256 of the gate corpus report stream at DEFAULT_SEED

    @property
    def corpus_rounds(self):
        return -(-CORPUS_DOCS // len(self.shapes))


def _duality_shapes(ps, fs, es, h1s):
    # duality verdicts need 0 < d1 < h1
    return tuple((p, f, e, h1, d1) for p, f, e, h1 in product(ps, fs, es, h1s)
                 for d1 in range(1, h1))


WORKLOADS = {w.name: w for w in (
    # the main user path: verdicts over R dominate, with kspace, flags and
    # pi-divisibility; 3/4 lifted, 1/4 charp (some with not_applicable)
    Workload("verify-ramified", "verify",
             _duality_shapes((2, 3, 5), (1, 2), (2, 3), (2, 3)), 4, 3,
             "bc07ab97a0c6718c5bb487f1dd4cc1eadfc12b75ba714bd86f07e088b9f7214a"),
    # read-only invariants over large residue fields: the per-document
    # tower rebuild in params_in and k arithmetic on up to 7^4 elements
    Workload("invariants-wide", "invariants",
             tuple((p, f, e, 2, 1) for p, f, e in product((5, 7), (2, 3, 4), (1, 2))),
             1, 0,
             "4f6c457519c6f870ae1012ab258b5a856c7049c86e3c7454fd24338401c148f8"),
)}


@dataclass(frozen=True)
class DocSpec:
    index: int
    shape: tuple
    lifted: bool
    gen_seed: int


def doc_stream(workload, seed):
    """Endless seeded stream of rounds; yields one list of DocSpec per round."""
    rng = random.Random("%s/%d" % (workload.name, seed))
    index = 0
    while True:
        order = list(range(len(workload.shapes)))
        rng.shuffle(order)
        specs = []
        for s in order:
            lifted = s % workload.period < workload.lifted_per_period
            specs.append(DocSpec(index, workload.shapes[s], lifted, rng.getrandbits(32)))
            index += 1
        yield specs


def call(tracer, name, doc, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.call(name, doc, fn, *args)


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _verdict_row(v):
    return {"name": v.name, "i": v.i, "j": v.j,
            "scalar_G": v.scalar_G, "scalar_GD": v.scalar_GD,
            "canonical_iso_scalar": v.canonical_iso_scalar,
            "equal": v.equal, "status": v.status}


def _section_row(s):
    return {"name": s.name, "i": s.i, "j": s.j, "scalar": s.scalar,
            "vanished": s.vanished, "line": [list(t) for t in s.line]}


def _factorization(D):
    p = D.params
    return all(factorization_check(D, i, j)
               for i in range(p.f) for j in range(1, p.e + 1))


def _pi_divisibility(D):
    # cli verify seeds a fresh sampler per document with its --seed (0)
    rng = random.Random(0)
    return all(check_pi_divisibility(D, i, rng) for i in range(D.params.f))


def _verify_report(doc, verdicts, product_ok, factor, pidiv):
    n_a = sum(1 for v in verdicts if v.status == "not_applicable")
    equal_ok = all(v.equal for v in verdicts if v.status == "ok")
    ok = equal_ok and product_ok and factor and pidiv is not False
    return dump_json({
        "doc": doc,
        "ok": ok,
        "verdicts": [_verdict_row(v) for v in verdicts],
        "product_identity": product_ok,
        "factorization": factor,
        "pi_divisibility": pidiv,
        "not_applicable": n_a,
    })


def _invariants_report(doc, sections, pattern):
    return dump_json({"doc": doc, "sections": [_section_row(s) for s in sections],
                      "pattern": pattern})


@dataclass
class DocResult:
    spec: DocSpec
    line: str  # the generated document, one JSON line
    row: str  # the report row, as the CLI prints it
    seconds: float  # from the generate call to the finished row
    sections: int
    verdicts: int
    not_applicable: int
    problems: list  # gate findings; empty when the document passed


def _pipeline(workload, spec, gen_params, tracer):
    """The timed part: generate, serialize, parse, load, compute, report.
    Returns the document line, the report row, the loaded datum, its
    verdicts, and the verify checks (None in invariants mode)."""
    doc = spec.index
    D = call(tracer, "generate.random_datum", doc, random_datum,
             gen_params, random.Random(spec.gen_seed), spec.lifted)
    line = call(tracer, "serialize.dumps", doc, serialize.dumps, D)
    d = call(tracer, "cli.parse", doc, json.loads, line)
    par = call(tracer, "serialize.params_in", doc, serialize.params_in, d["params"])
    D = call(tracer, "serialize.datum_from_dict", doc, serialize.datum_from_dict, d, par)
    if workload.mode == "verify":
        verdicts = call(tracer, "invariants.all_verdicts", doc, all_verdicts, D)
        checks = (
            call(tracer, "invariants.product_identity", doc, product_identity_check, D),
            call(tracer, "invariants.factorization", doc, _factorization, D),
            call(tracer, "invariants.pi_divisibility", doc, _pi_divisibility, D)
            if spec.lifted else None)
        row = call(tracer, "cli.report", doc, _verify_report, doc, verdicts, *checks)
        return line, row, D, verdicts, checks
    sections = call(tracer, "invariants.all_sections", doc, all_sections, D)
    pattern = call(tracer, "invariants.vanishing_pattern", doc, vanishing_pattern, D)
    row = call(tracer, "cli.report", doc, _invariants_report, doc, sections, pattern)
    return line, row, D, [], None


def run_doc(workload, spec, clock, tracer=None):
    """Push one document through generate | verify (or invariants) and
    gate the result.  The generator's ring tower is built before the clock
    starts, once per document, so no tower is shared between documents."""
    gen_params = Params(*spec.shape)
    t0 = clock()
    try:
        line, row, D, verdicts, checks = call(tracer, "doc", spec.index, _pipeline,
                                              workload, spec, gen_params, tracer)
        seconds = clock() - t0
        # untimed from here: the correctness gate and the exact counts
        if checks is None:
            checks = (product_identity_check(D), _factorization(D),
                      _pi_divisibility(D) if spec.lifted else None)
        n_a = sum(1 for v in verdicts if v.status == "not_applicable")
        return DocResult(spec, line, row, seconds, len(all_sections(D)), len(verdicts), n_a,
                         check_row(workload, spec, row, *checks))
    except Exception:
        # a document that raises is a failed document; the run goes on
        return DocResult(spec, "", "", clock() - t0, 0, 0, 0,
                         ["raised " + traceback.format_exc(limit=-1).strip()])


def check_row(workload, spec, row, product_ok, factor, pidiv):
    """Gate findings for one document: every lifted verify report is ok,
    every ok verdict is equal, and the product, factorization and (lifted)
    pi-divisibility checks all hold."""
    problems = []
    if not product_ok:
        problems.append("product identity failed")
    if not factor:
        problems.append("factorization failed")
    if spec.lifted and pidiv is not True:
        problems.append("pi-divisibility failed")
    if workload.mode == "verify":
        rep = json.loads(row)
        if spec.lifted and rep["ok"] is not True:
            problems.append("lifted document is not ok")
        for v in rep["verdicts"]:
            if v["status"] == "ok" and v["equal"] is not True:
                problems.append("verdict %s(%s,%s) is not equal" % (v["name"], v["i"], v["j"]))
    return problems


def compare_rows(expected, got):
    """Indices of documents whose CLI row differs from the in-process row."""
    bad = [i for i, (a, b) in enumerate(zip(expected, got)) if a != b]
    bad.extend(range(min(len(expected), len(got)), max(len(expected), len(got))))
    return bad


def digest(rows):
    return hashlib.sha256("\n".join(rows).encode("ascii")).hexdigest()
