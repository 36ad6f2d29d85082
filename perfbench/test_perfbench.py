"""Self-tests of the benchmark (run with: python3 -m pytest perfbench)."""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pipeline
from hasseforge import serialize
from hasseforge.datum import Params
from hasseforge.generate import random_datum

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# verify-mode documents for the gate; the cheaper workload for whole runs
VERIFY = pipeline.WORKLOADS["verify-ramified"]
SMALL = pipeline.WORKLOADS["invariants-wide"]


def corpus_digest(specs):
    """Digest of the generated documents themselves (not their reports)."""
    return pipeline.digest([
        serialize.dumps(random_datum(Params(*s.shape), random.Random(s.gen_seed), s.lifted))
        for s in specs])


def _first(workload, seed, n):
    return next(pipeline.doc_stream(workload, seed))[:n]


def _run_docs(workload, specs):
    return [pipeline.run_doc(workload, s, time.perf_counter) for s in specs]


def test_same_seed_same_corpus_and_counts():
    specs = _first(VERIFY, 5, 6)
    assert specs == _first(VERIFY, 5, 6)
    assert corpus_digest(specs) == corpus_digest(_first(VERIFY, 5, 6))
    a, b = _run_docs(VERIFY, specs), _run_docs(VERIFY, specs)
    assert [r.row for r in a] == [r.row for r in b]
    counts = lambda rs: [(r.sections, r.verdicts, r.not_applicable) for r in rs]
    assert counts(a) == counts(b)
    assert all(not r.problems for r in a)


def test_different_seed_different_corpus():
    for w in pipeline.WORKLOADS.values():
        assert (corpus_digest(_first(w, 1, 4))
                != corpus_digest(_first(w, 2, 4)))


def test_rounds_keep_the_lifted_share():
    w = pipeline.WORKLOADS["verify-ramified"]
    stream = pipeline.doc_stream(w, 3)
    for _ in range(4):
        specs = next(stream)
        assert sorted(s.shape for s in specs) == sorted(w.shapes)
        assert sum(s.lifted for s in specs) * w.period == len(specs) * w.lifted_per_period


def _edit_first_verdict(row, **changes):
    rep = json.loads(row)
    rep["verdicts"][0].update(changes)
    return pipeline.dump_json(rep)


def test_gate_trips_on_one_flipped_scalar():
    res = _run_docs(VERIFY, _first(VERIFY, 0, 2))
    rows = [r.row for r in res]
    scalar = json.loads(rows[1])["verdicts"][0]["scalar_G"]
    flipped = _edit_first_verdict(rows[1], scalar_G=scalar + 1)
    assert pipeline.compare_rows(rows, rows) == []
    assert pipeline.compare_rows(rows, [rows[0], flipped]) == [1]
    assert pipeline.compare_rows(rows, rows[:1]) == [1]
    assert pipeline.digest([rows[0], flipped]) != pipeline.digest(rows)

    spec = res[1].spec
    pidiv = True if spec.lifted else None
    assert pipeline.check_row(VERIFY, spec, rows[1], True, True, pidiv) == []
    unequal = _edit_first_verdict(rows[1], equal=False)
    assert any("not equal" in p
               for p in pipeline.check_row(VERIFY, spec, unequal, True, True, pidiv))
    assert pipeline.check_row(VERIFY, spec, rows[1], True, False, pidiv) == ["factorization failed"]


def test_a_raising_document_is_a_failed_document(monkeypatch):
    def boom(D):
        raise RuntimeError("injected")
    monkeypatch.setattr(pipeline, "all_verdicts", boom)
    res = _run_docs(VERIFY, _first(VERIFY, 0, 1))[0]
    assert res.problems and "injected" in res.problems[0]


def _bench(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", SMALL.name, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def test_every_printed_metric_is_declared_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {k: v["unit"] for k, v in _bench(trace).items()}
        assert printed == declared


def test_bare_directory_exits_nonzero():
    """A directory holding only the benchmark (no library sources) must fail
    without printing a result."""
    bare = HERE.parent / ".bench_build" / "perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", SMALL.name, "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
