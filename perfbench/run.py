"""Seeded benchmark of the hasse-forge pipeline.

    python3 perfbench/run.py --workload verify-ramified --seed 0 --seconds 10 --trace 0

One caller, one document at a time, in this process (a closed loop).
--trace 0 measures the end-to-end metrics with tracing off; --trace 1
reports the per-layer split from traced spans and probes.  Every run
gates correctness and exits 1 when any document fails.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hasseforge" / "__init__.py").is_file():
        print("error: no hasseforge sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    import measure
    import pipeline
    if args.workload not in pipeline.WORKLOADS:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(pipeline.WORKLOADS)), file=sys.stderr)
        return 2
    workload = pipeline.WORKLOADS[args.workload]
    run = measure.run_traced if args.trace else measure.run_untraced
    attempted, bad, metrics = run(workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
