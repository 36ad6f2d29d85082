import importlib
import io
import json
import random
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from hasseforge import datum as datum_module
from hasseforge import serialize as ser
from hasseforge.cli import build_parser, main
from hasseforge.datum import Params
from hasseforge.generate import named_instance, random_datum


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_console_script_help(run_module_cli):
    proc = run_module_cli("--help", text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "verify" in proc.stdout


def test_console_script_entry_point_resolves():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["hasse-forge"] == "hasseforge.cli:main"
    module, _, attr = scripts["hasse-forge"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.skipif(shutil.which("hasse-forge") is None,
                    reason="hasse-forge console script not installed")
def test_installed_console_script_help():
    proc = subprocess.run(["hasse-forge", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "verify" in proc.stdout


def test_generate_instance_and_validate(capsys, tmp_path):
    path = tmp_path / "d.json"
    code, out, _ = run_cli(capsys, "generate", "--instance", "ram-ss",
                           "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == ser.dumps(named_instance("ram-ss")) + "\n"
    code, out, _ = run_cli(capsys, "validate", "--in", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_generate_is_deterministic(capsys):
    args = ("generate", "--params", "3,1,2,2,1", "--count", "3", "--seed", "7")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0 and len(out1.splitlines()) == 3
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "generate", "--params", "3,1,2,2,1",
                         "--count", "3", "--seed", "8")
    assert out3 != out1


def test_generate_charp_kind(capsys):
    code, out, _ = run_cli(capsys, "generate", "--params", "2,2,1,2,1",
                           "--kind", "charp", "--seed", "1")
    assert code == 0
    assert json.loads(out)["lifted"] is False


def test_verify_batch(capsys, tmp_path):
    path = tmp_path / "batch.json"
    code, out, _ = run_cli(capsys, "generate", "--params", "3,1,2,2,1",
                           "--count", "3", "--seed", "2", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    reports = [json.loads(ln) for ln in out.splitlines()]
    assert len(reports) == 3
    for r in reports:
        assert r["ok"] and r["product_identity"] and r["factorization"]
        assert r["pi_divisibility"] is True  # lifted input
        names = [v["name"] for v in r["verdicts"]]
        assert names == ["ha", "ha_i", "m", "hasse", "ha_pr", "ha_pr"]


def test_verify_strict_flags_gate_failures(capsys, tmp_path):
    # seed chosen so this charp batch contains data whose flags are not
    # divisible, hence some not_applicable comparisons
    path = tmp_path / "charp.json"
    run_cli(capsys, "generate", "--params", "3,1,2,2,1", "--kind", "charp",
            "--count", "4", "--seed", "9", "--out", str(path))
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    reports = [json.loads(ln) for ln in out.splitlines()]
    assert all(r["ok"] for r in reports)
    assert any(r["not_applicable"] > 0 for r in reports)
    assert all(r["pi_divisibility"] is None for r in reports)
    code, _, _ = run_cli(capsys, "verify", "--in", str(path), "--strict")
    assert code == 1


def test_invariants_json_and_csv(capsys, tmp_path):
    path = tmp_path / "d.json"
    run_cli(capsys, "generate", "--instance", "ram-ss", "--out", str(path))
    code, out, _ = run_cli(capsys, "invariants", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["doc"] == 0
    got = {(s["name"], s["i"], s["j"]): s["scalar"] for s in doc["sections"]}
    assert got[("ha", None, None)] == 0
    assert got[("m", 0, 2)] == 1
    assert got[("hasse", 0, None)] == 0
    assert doc["pattern"]["ha"] is True
    code, out, _ = run_cli(capsys, "invariants", "--in", str(path),
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "doc,name,i,j,scalar,vanished"
    assert "0,m,0,2,1,0" in lines


def test_dualize_round_trip(capsys, tmp_path):
    src = tmp_path / "d.json"
    dual = tmp_path / "dual.json"
    run_cli(capsys, "generate", "--instance", "unram-f2", "--out", str(src))
    code, _, _ = run_cli(capsys, "dualize", "--in", str(src),
                         "--out", str(dual))
    assert code == 0
    code, _, _ = run_cli(capsys, "validate", "--in", str(dual))
    assert code == 0
    back = tmp_path / "back.json"
    run_cli(capsys, "dualize", "--in", str(dual), "--out", str(back))
    assert back.read_text() == src.read_text()


def test_survey_deterministic(capsys):
    args = ("survey", "--params", "2,1,2,2,1", "--count", "10", "--seed", "3")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert sum(e["count"] for e in doc["patterns"]) == 10
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "pattern,count"


# two documents that pass the load and every earlier check of validate: a
# flag nested with the right dimensions whose level 1 is not killed by pi
# (F = 0, V = I, flag 0 < R e1 < R^2), and a lift with F = diag(1, p),
# V = [[p, 0], [p, 1]], so that F V = p but V F != p
PI_INCOMPATIBLE_FLAG = (
    '{"F":[[[[0,0],[0,0]],[[0,0],[0,0]]]],"V":[[[[1,0],[0,0]],[[0,0],[1,0]]]],'
    '"format":"hasse-forge/1","lifted":false,"params":{"d1":2,"e":2,"eisenstein":[6,0,1],'
    '"f":1,"field_modulus":[0,1],"h1":2,"p":3},'
    '"pr_flags":[[[],[[[1,0],[0,0]]],[[[1,0],[0,0]],[[0,0],[1,0]]]]]}')
V_F_NOT_P = (
    '{"F":[[[[[1]],[[0]]],[[[0]],[[3]]]]],"V":[[[[[3]],[[0]]],[[[3]],[[1]]]]],'
    '"format":"hasse-forge/1","lifted":true,"params":{"d1":1,"e":1,"eisenstein":[6,1],'
    '"f":1,"field_modulus":[0,1],"h1":2,"p":3},"pr_flags":[[[],[[[0],[1]]]]]}')


def _broken_lift_line():
    doc = json.loads(ser.dumps(named_instance("ram-ss")))
    doc["V"][0][0][0] = doc["V"][0][0][1]  # unit upper-left breaks F.V = p
    return json.dumps(doc)


def test_validate_reports_bad_datum(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("\n".join((_broken_lift_line(), PI_INCOMPATIBLE_FLAG, V_F_NOT_P)) + "\n")
    code, out, _ = run_cli(capsys, "validate", "--in", str(path))
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == [
        {"doc": 0, "ok": False, "error": "F V != p at index 0"},
        {"doc": 1, "ok": False, "error": "flag at index 0 is not pi-compatible at level 1"},
        {"doc": 2, "ok": False, "error": "V F != p at index 0"},
    ]


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "generate", "--params", "3,1,2")
    assert code == 2 and "five integers" in err
    code, out, err = run_cli(capsys, "generate", "--params", "3,1,2,x,1")
    assert code == 2 and out == "" and "five integers" in err
    code, out, err = run_cli(capsys, "generate", "--instance", "ss", "--count", "2")
    assert code == 2 and out == "" and err == "error: --instance emits exactly one datum\n"
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    code, _, err = run_cli(capsys, "validate", "--in", str(bad))
    assert code == 2 and "malformed" in err
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"format":"other/9"}\n')
    code, _, _ = run_cli(capsys, "verify", "--in", str(wrong))
    assert code == 2
    empty = tmp_path / "empty.json"
    empty.write_text("\n")
    code, _, _ = run_cli(capsys, "invariants", "--in", str(empty))
    assert code == 2


def test_file_errors_exit_2(capsys, tmp_path):
    # an unreadable --in or unwritable --out is a usage error: one error
    # line, nothing on stdout, no traceback
    nonascii = tmp_path / "latin.json"
    nonascii.write_bytes(b'{"format": "caf\xc3\xa9"}\n')
    good = tmp_path / "doc.json"
    good.write_text(ser.dumps(named_instance("ss")) + "\n")
    for argv in (("verify", "--in", str(tmp_path / "missing.json")),
                 ("verify", "--in", str(tmp_path)),
                 ("validate", "--in", str(nonascii)),
                 ("verify", "--in", str(good), "--out", str(tmp_path)),
                 ("generate", "--instance", "ss", "--out", str(tmp_path / "no" / "out.json"))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize("command", ["generate", "survey"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_count_below_one_is_a_usage_error(capsys, command, count):
    # no blank "document" and no count of -3 in a survey: one error line
    code, out, err = run_cli(capsys, command, "--params", "3,1,2,2,1", "--count", count)
    assert code == 2 and out == ""
    assert err == "error: --count must be at least 1, got %s\n" % count


def _no_tower(*args, **kwargs):
    raise AssertionError("a ring tower was built for an over-cap shape")


def test_size_cap(capsys, monkeypatch, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(ser.dumps(named_instance("ram-split")) + "\n")
    monkeypatch.setenv("HASSE_FORGE_LIMIT", "3")
    with monkeypatch.context() as m:
        # generate builds Params directly; verify and validate load through
        # the interned tables, hit or miss
        m.setattr(datum_module, "RingTower", _no_tower)
        m.setattr(ser, "interned_field", _no_tower)
        m.setattr(ser, "interned_tower", _no_tower)
        for argv in (("generate", "--params", "3,1,2,2,1"),
                     ("generate", "--params", "2,1,3000,1,1"),
                     ("verify", "--in", str(doc)),
                     ("validate", "--in", str(doc))):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and "work cap" in err, argv
    monkeypatch.setenv("HASSE_FORGE_LIMIT", "4")
    code, _, _ = run_cli(capsys, "generate", "--params", "3,1,2,2,1")
    assert code == 0
    monkeypatch.setenv("HASSE_FORGE_LIMIT", "three")
    code, _, err = run_cli(capsys, "generate", "--params", "3,1,2,2,1")
    assert code == 2 and "integer" in err


def _no_field(*args, **kwargs):
    raise AssertionError("a field was built for a shape with h1 < 1")


def test_heights_are_checked_before_any_ring(capsys, monkeypatch, tmp_path):
    # f*e*h1 = 0 passes the work cap, so only the h1 check, made on the
    # integers, keeps an e = 100000 tower from being built
    d = json.loads(ser.dumps(named_instance("ram-split")))
    d["params"].update(e=100000, h1=0)
    doc = tmp_path / "doc.json"
    doc.write_text(ser.encode(d) + "\n")
    monkeypatch.setattr(ser, "interned_field", _no_field)
    monkeypatch.setattr(datum_module, "FiniteField", _no_field)
    for argv in (("generate", "--params", "2,1,100000,0,0"),
                 ("survey", "--params", "2,1,100000,0,0"),
                 # f*e*h1 = 100 is over the cap, but the heights are read first,
                 # as they are in a document
                 ("generate", "--params", "2,1,-100,-1,0"),
                 ("survey", "--params", "2,1,-100,-1,0"),
                 ("verify", "--in", str(doc)),
                 ("validate", "--in", str(doc)),
                 ("invariants", "--in", str(doc)),
                 ("dualize", "--in", str(doc))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: h1 must be positive\n"), argv


def test_stdin_stdout_pipe(capsys, monkeypatch):
    doc = ser.dumps(named_instance("ss"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc + "\n"))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_stdin_is_held_to_ascii_like_a_file(capsys, monkeypatch, run_module_cli):
    # a non-ASCII character in an extra key; piped as UTF-8, and as latin-1,
    # which UTF-8 cannot decode
    d = json.loads(ser.dumps(named_instance("ss")))
    d["note"] = "café"
    line = json.dumps(d, ensure_ascii=False) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(line))
    code, out, err = run_cli(capsys, "validate")
    assert (code, out) == (2, "") and err.startswith("error: cannot read -")
    for data in (line.encode("utf-8"), line.encode("latin-1")):
        proc = run_module_cli("validate", input=data)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: cannot read -") and proc.stderr.count(b"\n") == 1


def test_subcommands_are_the_user_paths():
    assert "{generate,validate,invariants,dualize,verify,survey}" in build_parser().format_help()
    with pytest.raises(SystemExit) as exc:
        main(["oracle"])
    assert exc.value.code == 2
    with pytest.raises(ImportError):
        importlib.import_module("hasseforge.oracle")


def _seeded_corpus(capsys, tmp_path):
    parts = []
    for params, kind in (("3,1,2,2,1", "lifted"), ("5,2,1,2,1", "charp")):
        part = tmp_path / ("%s.json" % kind)
        code, _, _ = run_cli(capsys, "generate", "--params", params, "--kind", kind,
                             "--count", "2", "--seed", "5", "--out", str(part))
        assert code == 0
        parts.append(part.read_text())
    corpus = tmp_path / "corpus.json"
    corpus.write_text("".join(parts))
    return corpus


def test_optimized_interpreter_same_stdout(capsys, tmp_path, run_module_cli):
    # checks must not live in asserts, which python -O strips
    corpus = _seeded_corpus(capsys, tmp_path)
    for cmd in ("verify", "invariants"):
        plain = run_module_cli(cmd, "--in", str(corpus))
        optimized = run_module_cli(cmd, "--in", str(corpus), python_opts=("-O",))
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout and plain.stdout == optimized.stdout


def test_malformed_documents_exit_2_without_traceback(run_module_cli, tmp_path):
    # a mod-p document over F_25, so its entries are R elements of k codes
    doc = ser.datum_to_dict(random_datum(Params(5, 2, 1, 2, 1), random.Random(1),
                                         lifted=False))
    string_entry = json.loads(json.dumps(doc))
    string_entry["F"][0][0][0] = "abc"
    ragged_row = json.loads(json.dumps(doc))
    ragged_row["F"][0][1] = ragged_row["F"][0][1][:-1]
    k_code_out_of_range = json.loads(json.dumps(doc))
    k_code_out_of_range["F"][0][0][0] = [99]
    for bad in (string_entry, ragged_row, k_code_out_of_range):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad) + "\n")
        for opts in ((), ("-O",)):
            proc = run_module_cli("verify", "--in", str(path), python_opts=opts,
                                  text=True)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [("verify",), ("invariants",),
                                  ("invariants", "--format", "csv"), ("dualize",)],
                         ids=["verify", "invariants-json", "invariants-csv", "dualize"])
def test_reading_commands_keep_at_most_one_earlier_datum(capsys, monkeypatch, tmp_path, argv):
    corpus = _seeded_corpus(capsys, tmp_path)
    built = []
    load = ser.datum_from_dict

    def counted(d, params=None):
        assert sum(ref() is not None for ref in built) <= 1, len(built)
        D = load(d, params)
        built.append(weakref.ref(D))
        return D

    monkeypatch.setattr(ser, "datum_from_dict", counted)
    code, out, _ = run_cli(capsys, *argv, "--in", str(corpus))
    assert code == 0 and out
    assert len(built) == 4


def test_an_over_cap_document_exits_2_before_any_datum_is_built(capsys, monkeypatch, tmp_path):
    path = tmp_path / "docs.json"
    path.write_text(ser.dumps(named_instance("ss")) + "\n"
                    + ser.dumps(named_instance("ram-split")) + "\n")
    calls = []
    monkeypatch.setattr(ser, "datum_from_dict", lambda *a, **k: calls.append(a))
    monkeypatch.setenv("HASSE_FORGE_LIMIT", "3")
    for command in ("verify", "validate", "invariants", "dualize"):
        code, out, err = run_cli(capsys, command, "--in", str(path))
        assert code == 2 and out == "", command
        assert err.startswith("error: ") and "work cap" in err and err.count("\n") == 1
    assert calls == []


def test_an_invalid_later_datum_exits_1_with_nothing_written(capsys, tmp_path):
    path = tmp_path / "docs.json"
    path.write_text(ser.dumps(named_instance("ss")) + "\n" + _broken_lift_line() + "\n")
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 1 and out == ""
    assert err == "error: F V != p at index 0\n"


@pytest.mark.parametrize("d1", [0, 2])
def test_verify_needs_d1_strictly_between_0_and_h1(capsys, run_module_cli, tmp_path, d1):
    # a valid document with d1 = 0 or d1 = h1 has no duality verdicts; the
    # other reading commands still read it
    path = tmp_path / "edge.json"
    code, _, _ = run_cli(capsys, "generate", "--params", "3,1,2,2,%d" % d1,
                         "--count", "2", "--seed", "1", "--out", str(path))
    assert code == 0
    proc = run_module_cli("verify", "--in", str(path), text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: duality verdicts need 0 < d1 < h1\n"
    for command in ("invariants", "dualize", "validate"):
        code, out, _ = run_cli(capsys, command, "--in", str(path))
        assert code == 0 and out, command
