"""Byte-level pins of the CLI reports on a fixed corpus.

The corpus is the six named instances, seeded documents of four shapes and
the datum whose boundary-map verdicts are not_applicable.  Together they
reach e = 1 (no m or hasse rows), f = 2 and e = 3.  A change to any report
row, to the row order, to the generated documents or to the dual documents
that `dualize` prints changes a digest.
"""

import hashlib

from hasseforge import serialize as ser
from hasseforge.cli import main
from hasseforge.generate import NAMED_INSTANCES, named_instance

from test_invariants import gate_fail_witness

SEEDED = (("3,1,1,2,1", "charp"), ("2,2,2,3,1", "lifted"),
          ("3,1,3,2,1", "lifted"), ("5,2,2,2,1", "charp"))

DIGESTS = {
    "corpus": "f78620b3e7040d61f51ba5ad072ffa9b98804831c2b6470191855b1a1f9a12f7",
    "verify": "42fdada2744a23705568bfa083f2e31cac107e19483a2c7ada299348235d1d4e",
    "invariants": "91b68fa4c25864066f107ef850bec8df082d7bd29a1f990d91c86bf1547bcd7f",
    "invariants_csv": "44483abd8657e513ce380964c7259e6cd332fdebfbeb573376e3a1c26723e5ac",
    "dualize": "2e380caaac70ba902e0343abefa6dc9d0db395831af7816aa204df3ab2250516",
}


def _stdout(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_golden_reports(capsys, tmp_path):
    docs = [ser.dumps(named_instance(name)) + "\n" for name in NAMED_INSTANCES]
    for params, kind in SEEDED:
        docs.append(_stdout(capsys, "generate", "--params", params, "--kind", kind,
                            "--count", "2", "--seed", "1"))
    docs.append(ser.dumps(gate_fail_witness()) + "\n")
    corpus = tmp_path / "corpus.json"
    corpus.write_text("".join(docs))
    outputs = {
        "corpus": corpus.read_text(),
        "verify": _stdout(capsys, "verify", "--in", str(corpus)),
        "invariants": _stdout(capsys, "invariants", "--in", str(corpus)),
        "invariants_csv": _stdout(capsys, "invariants", "--in", str(corpus),
                                  "--format", "csv"),
        "dualize": _stdout(capsys, "dualize", "--in", str(corpus)),
    }
    got = {k: hashlib.sha256(v.encode("ascii")).hexdigest() for k, v in outputs.items()}
    assert got == DIGESTS
