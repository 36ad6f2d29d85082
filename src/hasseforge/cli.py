"""Command line front end.

Data travels as JSON documents, one per line when a stream carries several,
so generate/verify/dualize compose through pipes.  A reading subcommand
parses and shape-checks every document, then builds and processes one datum
at a time; its output is written once, at the end, so a failure writes
nothing.  Output is deterministic: fixed key order, fixed row order, no
timestamps.

Exit codes: 0 success, 1 a datum failed validation or a checked identity
failed, 2 usage errors, malformed input, unreadable or unwritable files, or
the size cap.
"""

import argparse
import csv
import io
import json
import os
import random
import sys
from collections import Counter

from . import serialize
from .datum import LiftedDatum, Params, check_heights
from .errors import HasseForgeError, InvalidSpec
from .generate import NAMED_INSTANCES, named_instance, random_datum
from .invariants import (all_sections, all_verdicts, check_pi_divisibility,
                         factorization_check, family_indices,
                         product_identity_check, vanishing_pattern)

DEFAULT_LIMIT = 64


def _size_limit() -> int:
    raw = os.environ.get("HASSE_FORGE_LIMIT")
    if raw is None or raw == "":
        return DEFAULT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise InvalidSpec("HASSE_FORGE_LIMIT must be an integer, got %r" % raw)


def _check_size(f, e, h1) -> None:
    """Refuse a shape over the work cap; called on the shape integers so
    that no ring tower is built for a refused shape."""
    cap = _size_limit()
    size = f * e * h1
    if size > cap:
        raise InvalidSpec(
            "shape f*e*h1 = %d exceeds the work cap %d "
            "(raise HASSE_FORGE_LIMIT to override)" % (size, cap))


def _parse_params(text: str) -> Params:
    parts = text.split(",")
    if len(parts) != 5:
        raise InvalidSpec("--params wants p,f,e,h1,d1 (five integers)")
    try:
        p, f, e, h1, d1 = (int(x) for x in parts)
    except ValueError:
        raise InvalidSpec("--params wants p,f,e,h1,d1 (five integers)")
    check_heights(h1, d1)
    _check_size(f, e, h1)
    return Params(p, f, e, h1, d1)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec("cannot read %s: %s" % (path, exc))
    # stdin arrives decoded in the locale's encoding, so ASCII is checked here
    if not text.isascii():
        raise InvalidSpec("cannot read %s: not ASCII text" % path)
    return text


def _documents(path: str):
    """(index, document) per document of the input.  Every line is parsed
    and shape-checked against the work cap before the first pair, so a
    malformed line or an over-cap shape anywhere exits 2 with nothing
    built; each document then leaves the list as it is handed out, so it
    outlives only the work done on it."""
    docs = [serialize.parse(ln) for ln in _read_text(path).splitlines() if ln.strip()]
    if not docs:
        raise InvalidSpec("no documents in input")
    for d in docs:
        _, f, e, h1, _ = serialize.doc_shape(d)
        _check_size(f, e, h1)
    for idx in range(len(docs)):
        d, docs[idx] = docs[idx], None
        yield idx, d


def _data(path: str):
    """(index, datum) per document, each datum built only when the loop
    reaches it."""
    return ((idx, serialize.datum_from_dict(d)) for idx, d in _documents(path))


def _random_data(args, params):
    """args.count random data of args.kind from args.seed."""
    rng = random.Random(args.seed)
    for _ in range(args.count):
        yield random_datum(params, rng, lifted=(args.kind == "lifted"))


def _csv_line(row) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(["" if x is None else x for x in row])
    return buf.getvalue()


def _emit(path: str, lines, failed=False) -> int:
    """Write the lines once, joined, and return the exit code."""
    text = "".join(ln + "\n" for ln in lines)
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidSpec("cannot write %s: %s" % (path, exc))
    return 1 if failed else 0


def _check_count(count) -> None:
    if count < 1:
        raise InvalidSpec("--count must be at least 1, got %d" % count)


def cmd_generate(args) -> int:
    if args.instance is not None:
        if args.count != 1:
            raise InvalidSpec("--instance emits exactly one datum")
        data = [named_instance(args.instance)]
    else:
        _check_count(args.count)
        data = _random_data(args, _parse_params(args.params))
    return _emit(args.out, map(serialize.dumps, data))


def cmd_validate(args) -> int:
    rows = []
    for idx, d in _documents(args.infile):
        try:
            serialize.datum_from_dict(d)
            rows.append({"doc": idx, "ok": True, "error": None})
        except InvalidSpec:
            raise
        except HasseForgeError as exc:
            rows.append({"doc": idx, "ok": False, "error": str(exc)})
    return _emit(args.out, map(serialize.encode, rows), not all(r["ok"] for r in rows))


def cmd_invariants(args) -> int:
    if args.format == "csv":
        lines = [_csv_line(("doc", "name", "i", "j", "scalar", "vanished"))]
        lines += (_csv_line((idx, s.name, s.i, s.j, s.scalar, int(s.vanished)))
                  for idx, D in _data(args.infile) for s in all_sections(D))
    else:
        lines = [serialize.encode({"doc": idx, "sections": [vars(s) for s in all_sections(D)],
                             "pattern": vanishing_pattern(D)})
                 for idx, D in _data(args.infile)]
    return _emit(args.out, lines)


def cmd_dualize(args) -> int:
    return _emit(args.out, [serialize.dumps(D.dualize()) for _, D in _data(args.infile)])


def _verify_row(idx, D, strict) -> dict:
    p = D.params
    verdicts = all_verdicts(D)
    n_a = sum(1 for v in verdicts if v.status == "not_applicable")
    equal_ok = all(v.equal for v in verdicts if v.status == "ok")
    product = product_identity_check(D)
    factor = all(factorization_check(D, *ij) for ij in family_indices("ha_pr", p))
    if isinstance(D, LiftedDatum):
        pidiv = all(check_pi_divisibility(D, i) for i in range(p.f))
    else:
        pidiv = None
    ok = equal_ok and product and factor and pidiv is not False and not (strict and n_a)
    return {
        "doc": idx,
        "ok": ok,
        "verdicts": [vars(v) for v in verdicts],
        "product_identity": product,
        "factorization": factor,
        "pi_divisibility": pidiv,
        "not_applicable": n_a,
    }


def cmd_verify(args) -> int:
    rows = [_verify_row(idx, D, args.strict) for idx, D in _data(args.infile)]
    return _emit(args.out, map(serialize.encode, rows), not all(r["ok"] for r in rows))


def cmd_survey(args) -> int:
    _check_count(args.count)
    params = _parse_params(args.params)
    tally = Counter(serialize.encode(vanishing_pattern(D)) for D in _random_data(args, params))
    items = sorted(tally.items())
    if args.format == "csv":
        lines = [_csv_line(row) for row in [("pattern", "count")] + items]
    else:
        lines = [serialize.encode({
            "params": params.describe(),
            "kind": args.kind,
            "seed": args.seed,
            "count": args.count,
            "patterns": [{"pattern": json.loads(k), "count": c} for k, c in items],
        })]
    return _emit(args.out, lines)


def _add_io(sub, reads=True):
    if reads:
        sub.add_argument("--in", dest="infile", default="-", metavar="FILE",
                         help="input file, - for stdin (default)")
    sub.add_argument("--out", default="-", metavar="FILE",
                     help="output file, - for stdout (default)")


def _add_shape(sub, require_params):
    if require_params:
        sub.add_argument("--params", required=True, metavar="p,f,e,h1,d1")
    else:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--params", metavar="p,f,e,h1,d1")
        group.add_argument("--instance", choices=NAMED_INSTANCES)
    sub.add_argument("--kind", choices=("lifted", "charp"), default="lifted")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--count", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hasse-forge",
        description="generate, transform, and verify filtered semilinear "
                    "module data with exact arithmetic")
    subs = ap.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("generate", help="emit random or named data")
    _add_shape(sub, require_params=False)
    _add_io(sub, reads=False)
    sub.set_defaults(func=cmd_generate)

    sub = subs.add_parser("validate", help="check structural axioms")
    _add_io(sub)
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("invariants", help="compute all invariant sections")
    _add_io(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=cmd_invariants)

    sub = subs.add_parser("dualize", help="emit the dual datum")
    _add_io(sub)
    sub.set_defaults(func=cmd_dualize)

    sub = subs.add_parser("verify", help="run every checked identity")
    _add_io(sub)
    sub.add_argument("--strict", action="store_true",
                     help="treat not_applicable comparisons as failures")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("survey", help="tally vanishing patterns over a "
                                         "random sample")
    _add_shape(sub, require_params=True)
    _add_io(sub, reads=False)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=cmd_survey)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidSpec as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except HasseForgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
