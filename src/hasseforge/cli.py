"""Command line front end.

Data travels as JSON documents, one per line when a stream carries several,
so generate/verify/dualize compose through pipes.  Output is deterministic:
fixed key order, fixed row order, no timestamps.

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

from . import serialize
from .datum import LiftedDatum, Params
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
    _check_size(f, e, h1)
    return Params(p, f, e, h1, d1)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec("cannot read %s: %s" % (path, exc))


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidSpec("cannot write %s: %s" % (path, exc))


def _read_docs(path: str) -> list:
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise InvalidSpec("no documents in input")
    return [serialize.parse(ln) for ln in lines]


def _load_datum(d):
    _, f, e, h1, _ = serialize.doc_shape(d)
    _check_size(f, e, h1)
    return serialize.datum_from_dict(d)


def _load_data(path: str) -> list:
    return [_load_datum(d) for d in _read_docs(path)]


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(["" if x is None else x for x in row])
    return buf.getvalue()


def _check_count(count) -> None:
    if count < 1:
        raise InvalidSpec("--count must be at least 1, got %d" % count)


def cmd_generate(args) -> int:
    lines = []
    if args.instance is not None:
        if args.count != 1:
            raise InvalidSpec("--instance emits exactly one datum")
        lines.append(serialize.dumps(named_instance(args.instance)))
    else:
        _check_count(args.count)
        params = _parse_params(args.params)
        rng = random.Random(args.seed)
        for _ in range(args.count):
            D = random_datum(params, rng, lifted=(args.kind == "lifted"))
            lines.append(serialize.dumps(D))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args) -> int:
    reports = []
    bad = 0
    for idx, d in enumerate(_read_docs(args.infile)):
        try:
            _load_datum(d)
            reports.append({"doc": idx, "ok": True, "error": None})
        except InvalidSpec:
            raise
        except HasseForgeError as exc:
            bad += 1
            reports.append({"doc": idx, "ok": False, "error": str(exc)})
    _write_text(args.out, "\n".join(_dump_json(r) for r in reports) + "\n")
    return 1 if bad else 0


def cmd_invariants(args) -> int:
    data = _load_data(args.infile)
    if args.format == "csv":
        rows = []
        for idx, D in enumerate(data):
            for s in all_sections(D):
                rows.append((idx, s.name, s.i, s.j, s.scalar, int(s.vanished)))
        text = _csv_text(("doc", "name", "i", "j", "scalar", "vanished"), rows)
    else:
        lines = []
        for idx, D in enumerate(data):
            lines.append(_dump_json({
                "doc": idx,
                "sections": [vars(s) for s in all_sections(D)],
                "pattern": vanishing_pattern(D),
            }))
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return 0


def cmd_dualize(args) -> int:
    data = _load_data(args.infile)
    lines = [serialize.dumps(D.dualize()) for D in data]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    data = _load_data(args.infile)
    reports = []
    failed = 0
    for idx, D in enumerate(data):
        p = D.params
        verdicts = all_verdicts(D)
        n_a = sum(1 for v in verdicts if v.status == "not_applicable")
        equal_ok = all(v.equal for v in verdicts if v.status == "ok")
        product = product_identity_check(D)
        factor = all(factorization_check(D, *idx)
                     for idx in family_indices("ha_pr", p))
        if isinstance(D, LiftedDatum):
            pidiv = all(check_pi_divisibility(D, i) for i in range(p.f))
        else:
            pidiv = None
        ok = equal_ok and product and factor and pidiv is not False
        if args.strict and n_a:
            ok = False
        if not ok:
            failed += 1
        reports.append({
            "doc": idx,
            "ok": ok,
            "verdicts": [vars(v) for v in verdicts],
            "product_identity": product,
            "factorization": factor,
            "pi_divisibility": pidiv,
            "not_applicable": n_a,
        })
    _write_text(args.out, "\n".join(_dump_json(r) for r in reports) + "\n")
    return 1 if failed else 0


def cmd_survey(args) -> int:
    _check_count(args.count)
    params = _parse_params(args.params)
    rng = random.Random(args.seed)
    tally = {}
    for _ in range(args.count):
        D = random_datum(params, rng, lifted=(args.kind == "lifted"))
        key = _dump_json(vanishing_pattern(D))
        tally[key] = tally.get(key, 0) + 1
    items = sorted(tally.items())
    if args.format == "csv":
        text = _csv_text(("pattern", "count"), items)
    else:
        text = _dump_json({
            "params": params.describe(),
            "kind": args.kind,
            "seed": args.seed,
            "count": args.count,
            "patterns": [{"pattern": json.loads(k), "count": c}
                         for k, c in items],
        }) + "\n"
    _write_text(args.out, text)
    return 0


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
