"""The benchmark under perfbench/ drives the library through its public
names (pipeline: generate, serialize, invariants; probes: smith, kernel,
Submodule.span, quotient presentations, flags, the dual).  A rename there
would only surface in the benchmark's own slow self-test, so this runs the
first few seed-0 documents of each workload through both, quickly."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import pipeline  # noqa: E402
import probes  # noqa: E402


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_workload_entry_points(name):
    workload = pipeline.WORKLOADS[name]
    specs = next(pipeline.doc_stream(workload, 0))[:3]
    results = [pipeline.run_doc(workload, spec, lambda: 0.0) for spec in specs]
    for res in results:
        assert res.problems == []
    metrics = probes.run_probes(results)
    assert sorted(metrics) == sorted(name for name, _ in probes.PROBES)
    assert len(metrics) == 22
