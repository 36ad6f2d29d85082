"""In-memory spans around the benchmark's calls into each layer.

A span is (id, name, doc, parent, start_ns, end_ns).  Spans of one
document share its index; each document has one root span named "doc",
and the layer spans below it.  Nothing is written until ``write``.
"""

import json
import time
from collections import defaultdict
from statistics import median


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def start(self, name, doc):
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        self.spans.append([sid, name, doc, parent, time.perf_counter_ns(), None])
        self._open.append(sid)

    def end(self):
        self.spans[self._open.pop()][5] = time.perf_counter_ns()

    def call(self, name, doc, fn, *args):
        self.start(name, doc)
        try:
            return fn(*args)
        finally:
            self.end()

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, doc, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "doc": doc, "parent": parent,
                                     "start_ns": start, "end_ns": end}) + "\n")


def self_times(spans):
    """Span id -> its duration minus the time its child spans cover (the
    children of one span run one after another, so they never overlap)."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for sid, _, _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans, names):
    """Per layer name: median self ms per document (0 where a document has
    no such span) and its share of all document time; plus the share of
    document time that no layer span covers."""
    own = self_times(spans)
    per_doc = defaultdict(lambda: defaultdict(int))
    doc_total = 0
    uncovered = 0
    for sid, name, doc, _, start, end in spans:
        if name == "doc":
            doc_total += end - start
            uncovered += own[sid]
        else:
            per_doc[doc][name] += own[sid]
    docs = sorted(per_doc)
    out = {}
    for name in names:
        vals = [per_doc[d].get(name, 0) for d in docs]
        out[name] = (median(vals) / 1e6 if vals else 0.0,
                     sum(vals) / doc_total if doc_total else 0.0)
    return out, (uncovered / doc_total if doc_total else 0.0)
