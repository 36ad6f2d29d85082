"""One benchmark run: the timed loop, the CLI child, set-up children, the
correctness gate, and the traced split.  Imported by run.py once it has
checked that the library sources are present."""

import os
import resource
import subprocess
import sys
import time
from statistics import median, quantiles

import pipeline
import probes
from spans import Tracer, summarize

ROOT = pipeline.ROOT
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_CHILDREN = 9
# the CLI child runs at least this many times and for at least this long
CLI_RUNS = 3
CLI_SECONDS = 18.0
CHILD_TIMEOUT = 150

SPANS = ("generate.random_datum", "serialize.dumps", "cli.parse", "serialize.params_in",
         "serialize.datum_from_dict", "invariants.all_verdicts",
         "invariants.pi_divisibility", "invariants.factorization",
         "invariants.product_identity", "invariants.all_sections",
         "invariants.vanishing_pattern", "cli.report")

SETUP_CODE = ("import hasseforge.cli\n"
              "from hasseforge.datum import Params\n"
              "for s in %r:\n"
              "    Params(*s)\n")
CLI_CODE = "import sys\nfrom hasseforge.cli import main\nsys.exit(main())\n"


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(args):
    """Wall seconds and the completed process of one child interpreter."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c"] + args, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t, proc


def setup_child(workload):
    """Wall seconds of one fresh interpreter that imports hasseforge.cli and
    builds the Params tower of every shape the workload generates from."""
    secs, proc = _run_child([SETUP_CODE % (sorted(set(workload.shapes)),)])
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed: %s" % proc.stderr.strip())
    return secs


class CliChild:
    """The real CLI over the gate corpus, run as a child interpreter."""

    def __init__(self, workload, corpus):
        self.workload, self.corpus = workload, corpus
        WORK.mkdir(parents=True, exist_ok=True)
        self.corpus_file = WORK / ("corpus-%d.jsonl" % os.getpid())
        self.report_file = WORK / ("report-%d.jsonl" % os.getpid())
        self.corpus_file.write_text("".join(r.line + "\n" for r in corpus), encoding="ascii")
        self.times = []
        self.rows = []

    def run(self):
        self.report_file.unlink(missing_ok=True)
        secs, proc = _run_child([CLI_CODE, self.workload.mode, "--in", str(self.corpus_file),
                                 "--out", str(self.report_file)])
        self.times.append(secs)
        if proc.returncode not in (0, 1):
            _log("cli child exited %d: %s" % (proc.returncode, proc.stderr.strip()))
        # a CLI that stops on an error writes no report at all
        self.rows = (self.report_file.read_text(encoding="ascii").splitlines()
                     if self.report_file.exists() else [])

    def mismatches(self):
        """Indices of documents whose CLI row differs from the in-process row."""
        return pipeline.compare_rows([r.row for r in self.corpus], self.rows)

    def close(self):
        self.corpus_file.unlink(missing_ok=True)
        self.report_file.unlink(missing_ok=True)


def _rounds(workload, seed, seconds, min_docs, process, between=None):
    """Feed whole rounds to process(round) until `seconds` of round time
    have passed, at least min_docs documents are done and the gate corpus
    is complete.  After each round, between(corpus, share of `seconds`
    done) may run child processes; their time is not round time.  Returns
    the gate corpus results."""
    stream = pipeline.doc_stream(workload, seed)
    busy = 0.0
    done = 0
    rounds = 0
    corpus = []
    while rounds < workload.corpus_rounds or done < min_docs or busy < seconds:
        t = time.perf_counter()
        results = process(next(stream))
        busy += time.perf_counter() - t
        done += len(results)
        if rounds < workload.corpus_rounds:
            corpus.extend(results)
        rounds += 1
        if between is not None:
            between(corpus if rounds >= workload.corpus_rounds else None,
                    busy / seconds if seconds > 0 else 1.0)
    return corpus


def _failed_docs(results):
    bad = set()
    for r in results:
        if r.problems:
            bad.add(r.spec.index)
            _log("doc %d %s: %s" % (r.spec.index, r.spec.shape, "; ".join(r.problems)))
    return bad


def _gate_corpus(workload, seed, corpus, bad, cli_bad):
    for i in cli_bad:
        _log("doc %d: CLI row differs from the in-process row" % i)
    bad.update(cli_bad)
    if seed == pipeline.DEFAULT_SEED:
        got = pipeline.digest([r.row for r in corpus])
        if got != workload.digest:
            _log("report digest %s != committed %s" % (got, workload.digest))
            bad.update(r.spec.index for r in corpus)


def run_untraced(workload, seed, seconds):
    """The set-up and CLI children run between rounds, spread over the whole
    run, so that every metric samples the same stretch of a machine whose
    speed drifts within seconds."""
    results = []
    setup_times = []
    cli = None

    def process(specs):
        out = [pipeline.run_doc(workload, s, time.perf_counter) for s in specs]
        results.extend(out)
        return out

    def between(corpus, progress):
        nonlocal cli
        while len(setup_times) < SETUP_CHILDREN * min(progress, 1.0):
            setup_times.append(setup_child(workload))
        if corpus is not None:
            if cli is None:
                cli = CliChild(workload, corpus)
            while sum(cli.times) < CLI_SECONDS * min(progress, 1.0):
                cli.run()

    try:
        corpus = _rounds(workload, seed, seconds, pipeline.MIN_DOCS, process, between)
        between(corpus, 1.0)
        while len(cli.times) < CLI_RUNS:
            cli.run()
        cli_bad = cli.mismatches()
    finally:
        if cli is not None:
            cli.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad = _failed_docs(results)
    _gate_corpus(workload, seed, corpus, bad, cli_bad)
    lat = [r.seconds for r in results]
    metrics = {
        "docs_per_s": (len(lat) / sum(lat), "1/s"),
        "doc_ms_p50": (median(lat) * 1e3, "ms"),
        "doc_ms_p90": (quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (median(setup_times), "s"),
        "cli_s": (median(cli.times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return len(results), bad, metrics


def run_traced(workload, seed, seconds):
    """Each round runs twice, traced and untraced in alternating order, so
    the tracing overhead is measured on identical documents."""
    tracer = Tracer()
    traced, untraced = [], []

    def process(specs):
        traced_first = len(traced) // len(specs) % 2 == 0
        for tr in ((tracer, None) if traced_first else (None, tracer)):
            out = [pipeline.run_doc(workload, s, time.perf_counter, tr) for s in specs]
            if tr is None:
                untraced.extend(out)
            else:
                traced.extend(out)
                result = out
        return result

    corpus = _rounds(workload, seed, seconds, 0, process)
    bad = _failed_docs(traced + untraced)
    cli = CliChild(workload, corpus)
    try:
        cli.run()
    finally:
        cli.close()
    _gate_corpus(workload, seed, corpus, bad, cli.mismatches())

    layers, uncovered = summarize(tracer.spans, SPANS)
    metrics = {}
    for name in SPANS:
        ms, share = layers[name]
        metrics[name + "_ms"] = (ms, "ms")
        metrics[name + "_share"] = (share, "share")
    n0 = len(corpus)
    metrics["invariants.sections_per_doc"] = (sum(r.sections for r in corpus) / n0, "count")
    metrics["invariants.verdicts_per_doc"] = (sum(r.verdicts for r in corpus) / n0, "count")
    metrics["invariants.not_applicable_per_doc"] = (
        sum(r.not_applicable for r in corpus) / n0, "count")
    # one document per shape is enough for the probes
    metrics.update(probes.run_probes(corpus[:len(workload.shapes)]))
    metrics["trace.uncovered_share"] = (uncovered, "share")
    dps_plain = len(untraced) / sum(r.seconds for r in untraced)
    dps_traced = len(traced) / sum(r.seconds for r in traced)
    metrics["trace.overhead_docs_per_s"] = (dps_plain - dps_traced, "1/s")
    # the untraced passes repeat the traced documents
    attempted = len(traced)
    metrics["docs_failed"] = (len(bad) / attempted, "share")

    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / ("trace-%s-seed%d.jsonl" % (workload.name, seed))
    tracer.write(spans_path)
    _log("spans written to %s" % spans_path)
    return attempted, bad, metrics
