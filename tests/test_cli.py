import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import monocat
import oracles
from monocat import cli, connectivity, core, rees, twocat
from monocat.cli import main
from monocat.connectivity import group_of
from monocat.corpus import full_transformation_monoid
from monocat.core import Monoid, adjoin_identity, dump_cayley, validate_semigroup
from monocat.errors import AlgebraError, NotAssociative
from monocat.rees import ReesMatrixSemigroup, expand, rees_from_json_dict
from monocat.twocat import category_from_json_dict, validate_category


@pytest.fixture()
def files(tmp_path):
    t2 = Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID)
    z2 = Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)
    lz1 = adjoin_identity(validate_semigroup(oracles.lz2_table()))
    out = {}
    for name, m in (("t2", t2), ("z2", z2), ("lz1", lz1)):
        path = tmp_path / f"{name}.cayley"
        path.write_text(dump_cayley(m))
        out[name] = str(path)
    bad = tmp_path / "bad.cayley"
    rows = "\n".join(" ".join(map(str, r)) for r in oracles.first_nonassociative_table(3))
    bad.write_text(f"3\n{rows}\n")
    out["bad"] = str(bad)
    out["dir"] = tmp_path
    return out


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodes:
    def test_ok(self, files, capsys):
        code, _ = run(["validate", files["t2"]], capsys)
        assert code == 0

    def test_violation_names_the_triple(self, files, capsys):
        code, out = run(["validate", files["bad"]], capsys)
        assert code == 1
        assert "associativity fails at" in out

    def test_usage_error_for_missing_file(self, files, capsys):
        code, _ = run(["kernel", str(files["dir"] / "nope.cayley")], capsys)
        assert code == 2

    @pytest.mark.parametrize("line", ["identityX 0", "identity 0 junk", "identity"])
    def test_identity_line_must_be_two_tokens(self, line, capsys, tmp_path):
        path = tmp_path / "m.cayley"
        path.write_text(f"2\n0 1\n1 0\n{line}\n")
        report_path = tmp_path / "report.json"
        code, _ = run(["--quiet", "--json", str(report_path), "validate", str(path)], capsys)
        assert code == 2
        report = json.loads(report_path.read_text())
        assert report["status"] == "error" and repr(line) in report["results"]["error"]


def _eleven_with(token: str) -> str:
    """C_11 as Cayley text, the entry 10 opening its last row written as ``token``."""
    rows = [" ".join(map(str, r)) for r in oracles.cyclic_table(11)]
    rows[-1] = token + " " + rows[-1].split(" ", 1)[1]
    return "11\n" + "\n".join(rows) + "\n"


# each was read by int() and validated with exit code 0
NOT_ASCII_DIGITS = {
    "plus sign in a row": ("2\n0 1\n1 +1\n", "bad table row: '1 +1'"),
    "Arabic-Indic zero in a row": ("2\n\u0660 1\n1 1\n", "bad table row: '\u0660 1'"),
    "fullwidth three in a row": ("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 \uff13\n",
                                 "bad table row: '3 0 1 \uff13'"),
    "underscore in a row": (_eleven_with("1_0"), "bad table row: '1_0 0 1 2 3 4 5 6 7 8 9'"),
    "plus sign in the count": ("+2\n0 1\n1 1\n", "expected an element count, got '+2'"),
    "Arabic-Indic two as the count": ("\u0662\n0 1\n1 1\n", "expected an element count, got '\u0662'"),
    "Arabic-Indic zero as the identity": ("2\n0 1\n1 1\nidentity \u0660\n",
                                          "bad identity line: 'identity \u0660'"),
    "plus sign in the identity": ("2\n0 1\n1 1\nidentity +0\n", "bad identity line: 'identity +0'"),
    "a comment may hold them, a row may not": ("# +1 1_0 \u0660\n2\n0 1\n1 +1\n",
                                              "bad table row: '1 +1'"),
}


class TestCayleyNumbersAreAsciiDigits:
    """Counts, entries and the identity are ASCII ``-?[0-9]+``; anything
    else ``int`` would read is malformed input, exit code 2."""

    @pytest.mark.parametrize("case", list(NOT_ASCII_DIGITS))
    def test_rejected(self, case, capsys, tmp_path):
        text, error = NOT_ASCII_DIGITS[case]
        path = tmp_path / "m.cayley"
        path.write_text(text, encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert run(["--quiet", "--json", str(report_path), "validate", str(path)], capsys)[0] == 2
        assert json.loads(report_path.read_text())["results"]["error"] == error

    def test_the_same_table_in_plain_digits_is_valid(self, capsys, tmp_path):
        path = tmp_path / "m.cayley"
        path.write_text(_eleven_with("10"))
        assert run(["validate", str(path)], capsys)[0] == 0


class TestCommentLines:
    """A comment line may hold anything: a file's lines end at LF, CR LF or CR."""

    @pytest.mark.parametrize("separator", [b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8"],
                             ids=["form feed", "NEL", "line separator"])
    def test_a_line_separator_in_a_comment(self, separator, capsys, tmp_path):
        path = tmp_path / "m.cayley"
        path.write_bytes(b"# page" + separator + b"break\r\n2\r\n0 1\r\n1 0\r\n")
        assert run(["validate", str(path)], capsys)[0] == 0


class TestIdentityIndex:
    """An identity that is not an element index is malformed input (exit
    code 2); one that is an index but not the identity fails a law (1)."""

    @pytest.mark.parametrize("k,code", [(7, 2), (-1, 2), (1, 1)])
    def test_cayley_identity_line(self, k, code, capsys, tmp_path):
        path = tmp_path / "m.cayley"
        path.write_text(f"2\n0 1\n1 1\nidentity {k}\n")
        report_path = tmp_path / "report.json"
        assert run(["--quiet", "--json", str(report_path), "validate", str(path)], capsys)[0] == code
        error = json.loads(report_path.read_text())["results"]["error"]
        if code == 2:
            assert error == f"identity {k} is not an element index"
        else:
            assert error == "element 1 is not a two-sided identity (fails on 0)"

    def test_bimodule_monoid_identity(self, files, capsys, tmp_path):
        payload = _bimodule_payload(files, capsys, tmp_path)
        payload["left_monoid"]["identity"] = 9
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        assert main(["--quiet", "tensor", str(path), str(path)]) == 2
        assert capsys.readouterr().err == "error: identity 9 is not an element index\n"


# an output path under a regular file: before, writing it ended in a
# traceback with exit code 1
UNWRITABLE = {
    "report of a successful command": ("json", ["validate", "t2"]),
    "report of a violation": ("json", ["validate", "bad"]),
    "report of an input error": ("json", ["kernel", "missing"]),
    "connect witness": ("witness", ["connect", "z2", "z2"]),
    "corpus directory": ("out", ["corpus", "cyclic_group", "2"]),
}


@pytest.mark.parametrize("case", list(UNWRITABLE))
def test_unwritable_output_path_is_a_usage_error(case, files, capsys, tmp_path):
    flag, (command, *names) = UNWRITABLE[case]
    files = {**files, "missing": str(tmp_path / "nope.cayley")}
    bad = str(Path(files["t2"]) / "out")
    report_path = tmp_path / "report.json"
    args = [command, *(files.get(name, name) for name in names)]
    if flag == "json":
        args = ["--json", bad, *args]
    else:
        args = ["--json", str(report_path), *args, f"--{flag}", bad]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {bad}" in err and "Traceback" not in err
    if flag != "json":
        report = json.loads(report_path.read_text())
        assert report["status"] == "error" and bad in report["results"]["error"]


# a family's parameters are counted and typed before it is built: before,
# these ended in a TypeError traceback with exit code 1
@pytest.mark.parametrize("params", [
    ["left_zero"], ["rectangular_band", "2"], ["cyclic_group", "x"], ["left_zero", "1", "2"],
    ["rees_sample", "cyclic", "x", "2", "2"]])
def test_corpus_parameters_are_checked(params, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    outdir = tmp_path / "out"
    assert main(["--json", str(report_path), "corpus", *params, "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {params[0]} ") and "Traceback" not in err
    assert json.loads(report_path.read_text())["status"] == "error"
    assert not outdir.exists()


# a symmetric group on a negative number of points is refused like any other
# bound: before, both exited 0 and wrote a one-element "group".  So is a
# cyclic group, band or Rees sample with a size below 1: before, each exited
# 2 with "table must be square and nonempty", which names no parameter
@pytest.mark.parametrize("params", [
    ["symmetric_group", "-5"], ["rees_sample", "symmetric", "-1", "2", "2"],
    ["cyclic_group", "0"], ["cyclic_group", "-5"], ["left_zero", "0"], ["right_zero", "-2"],
    ["rectangular_band", "2", "0"], ["rectangular_band", "-1", "-1"],
    ["rees_sample", "cyclic", "0", "2", "2"]])
def test_a_negative_point_count_is_a_violation(params, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    outdir = tmp_path / "out"
    assert main(["--json", str(report_path), "corpus", *params, "--out", str(outdir)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(report_path.read_text())["status"] == "violation"
    assert not outdir.exists()


# only ASCII -?[0-9]+ is an integer parameter: "²" passed str.isdigit and
# then int() ended in a ValueError traceback with exit code 1
@pytest.mark.parametrize("token", ["²", "1" * 5000], ids=["superscript", "5000 digits"])
def test_corpus_parameter_digits_are_ascii(token, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    outdir = tmp_path / "out"
    assert main(["--json", str(report_path), "corpus", "cyclic_group", token,
                 "--out", str(outdir)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(report_path.read_text())["status"] == "error"
    assert not outdir.exists()


# JSON that is not an object where one is expected: before, the top-level
# values ended in a TypeError traceback, and a report whose results are a
# list in an AttributeError one, each with exit code 1
@pytest.mark.parametrize("command", ["category check", "extract", "compose"])
@pytest.mark.parametrize("payload", ["5", "null", '{"command": "category build", "results": []}'],
                         ids=["int", "null", "results list"])
def test_json_input_must_be_an_object(command, payload, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(payload)
    report_path = tmp_path / "report.json"
    inputs = [str(path)] * (2 if command == "compose" else 1)
    assert main(["--json", str(report_path), *command.split(), *inputs]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and "Traceback" not in err
    assert json.loads(report_path.read_text())["status"] == "error"


def test_deeply_nested_labels_are_a_format_error(files, capsys, tmp_path):
    # 500 nested lists parse as JSON but took 1,000 frames to convert to
    # tuples: before, a RecursionError traceback with exit code 1
    built = tmp_path / "built.json"
    assert main(["--quiet", "--json", str(built), "category", "build", files["t2"]]) == 0
    report = json.loads(built.read_text())
    report["results"]["category"]["labels"]["A"][0] = json.loads("[" * 500 + "]" * 500)
    built.write_text(json.dumps(report))
    assert main(["--quiet", "category", "check", str(built)]) == 2
    assert "bad category payload" in capsys.readouterr().err


def test_extract_compares_labels_as_they_are(files, capsys, tmp_path):
    # an A label that is not an integer cannot match the kernel; before, it
    # ended in a ValueError traceback from int() with exit code 1
    built = tmp_path / "built.json"
    assert main(["--quiet", "--json", str(built), "category", "build", files["t2"]]) == 0
    report = json.loads(built.read_text())
    labels = report["results"]["category"]["labels"]
    for a_labels, code in ((labels["A"], 0), (["x"] * len(labels["A"]), 1)):
        labels["A"] = a_labels
        built.write_text(json.dumps(report))
        extracted = tmp_path / "extract.json"
        assert main(["--quiet", "--json", str(extracted), "extract", str(built),
                     "--monoid", files["t2"]]) == code
        matches = json.loads(extracted.read_text())["results"]["round_trip_matches_kernel"]
        assert matches == (code == 0)


class TestInternalErrors:
    """An AssertionError is a fault of monocat: status ``internal-error``, exit code 1."""

    def test_a_failing_command(self, files, capsys, monkeypatch, tmp_path):
        def broken(args):
            raise AssertionError("broken command")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        report_path = tmp_path / "report.json"
        code, _ = run(["--quiet", "--json", str(report_path), "validate", files["t2"]], capsys)
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["status"] == "internal-error"
        assert report["results"] == {"error": "broken command"}
        assert report["inputs"] == [files["t2"]]

    def test_a_failing_suite_entry_fails_the_whole_suite(self, capsys, monkeypatch, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert run(["--quiet", "corpus", "cyclic_group", "2", "--out", str(corpus_dir)], capsys)[0] == 0

        def broken(monoid):
            raise AssertionError("broken entry")

        monkeypatch.setattr(cli, "_suite_entry", broken)
        report_path = tmp_path / "report.json"
        code, _ = run(["--quiet", "--json", str(report_path), "suite", str(corpus_dir)], capsys)
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["status"] == "internal-error"
        assert report["results"] == {"error": "broken entry"}


def _leaf_parsers(parser):
    """The parsers under ``parser`` that take no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


class TestOneParserPerProcess:
    """``main`` builds its parser on the first call and reuses it; each
    command is found by name when it runs."""

    def _call(self, argv, capsys, report_path):
        report_path.unlink(missing_ok=True)
        try:
            code = main(["--json", str(report_path), *argv])
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        report = report_path.read_bytes() if report_path.exists() else None
        return code, out.out, out.err, report

    def test_the_parser_is_built_once(self, files, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        calls = [["validate", files["t2"]], ["kernel"], ["--help"],
                 ["kernel", files["lz1"]], ["rees", files["t2"]]]
        first = []
        for argv in calls:
            cli._build_parser.cache_clear()
            first.append(self._call(argv, capsys, report_path))
        cli._build_parser.cache_clear()
        again = [self._call(argv, capsys, report_path) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert [c[0] for c in first] == [0, ("exit", 2), ("exit", 0), 0, 0]
        assert again == first

    def test_a_command_patched_after_the_first_call_runs(self, files, capsys, monkeypatch):
        assert main(["--quiet", "validate", files["t2"]]) == 0
        seen = []

        def patched(args):
            seen.append(args.file)
            return cli.Report("validate", [args.file], {}, "violation")

        monkeypatch.setattr(cli, "cmd_validate", patched)
        assert main(["--quiet", "validate", files["t2"]]) == 1
        assert seen == [files["t2"]]

    def test_every_command_is_named(self):
        names = [p.get_default("func") for p in _leaf_parsers(cli._build_parser())]
        assert all(name.startswith("cmd_") and callable(getattr(cli, name)) for name in names)
        assert sorted(names) == sorted(n for n in vars(cli) if n.startswith("cmd_"))


class TestKernelCommand:
    def test_t2_report(self, files, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _ = run(["--quiet", "--json", str(report_path), "kernel", files["t2"]], capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["status"] == "ok"
        results = report["results"]
        assert results["kernel"] == [oracles.T2_C0, oracles.T2_C1]
        assert results["sizes"] == {"kernel": 2, "L": 1, "R": 2, "G": 1}
        assert results["size_identity_holds"] and results["kernel_simple"]

    def test_identity_adjoined_when_missing(self, files, capsys, tmp_path):
        raw = tmp_path / "lz2_raw.cayley"
        raw.write_text("2\n0 0\n1 1\n")
        report_path = tmp_path / "r.json"
        code, _ = run(["--quiet", "--json", str(report_path), "kernel", str(raw)], capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["results"]["identity_adjoined"] is True
        assert report["results"]["kernel"] == [0, 1]


class TestDeterminism:
    def test_byte_identical_reports(self, files, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["--quiet", "--json", str(p1), "kernel", files["t2"]], capsys)
        run(["--quiet", "--json", str(p2), "kernel", files["t2"]], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_category_build_stable(self, files, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["--quiet", "--json", str(p1), "category", "build", files["t2"]], capsys)
        run(["--quiet", "--json", str(p2), "category", "build", files["t2"]], capsys)
        assert p1.read_bytes() == p2.read_bytes()


class TestCategoryCommands:
    def test_build_then_check(self, files, capsys, tmp_path):
        built = tmp_path / "cat.json"
        code, _ = run(["--quiet", "--json", str(built), "category", "build", files["t2"]], capsys)
        assert code == 0
        code, out = run(["category", "check", str(built)], capsys)
        assert code == 0
        assert '"valid": true' in json.dumps(json.loads(built.read_text())["results"])
        assert "bijection: true" in out

    def test_group_input_builds_a_groupoid(self, files, capsys, tmp_path):
        built = tmp_path / "cat.json"
        code, _ = run(["--quiet", "--json", str(built), "category", "build", files["z2"]], capsys)
        assert code == 0
        report = json.loads(built.read_text())
        assert report["results"]["groupoid"] is True
        assert report["results"]["hom_sizes"] == {"A": 2, "L": 2, "R": 2, "G": 2}


class TestExtractCommand:
    def test_round_trip_against_monoid(self, files, capsys, tmp_path):
        built = tmp_path / "cat.json"
        run(["--quiet", "--json", str(built), "category", "build", files["t2"]], capsys)
        report_path = tmp_path / "extract.json"
        code, _ = run(
            ["--quiet", "--json", str(report_path), "extract", str(built),
             "--monoid", files["t2"]],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["results"]["round_trip_matches_kernel"] is True


class TestReesCommand:
    def test_kernel_decomposition(self, files, capsys, tmp_path):
        report_path = tmp_path / "rees.json"
        code, _ = run(["--quiet", "--json", str(report_path), "rees", files["t2"]], capsys)
        assert code == 0
        results = json.loads(report_path.read_text())["results"]
        assert results["decomposed_kernel"] is True
        assert (results["I"], results["Lambda"], results["group_order"]) == (1, 2, 1)
        assert results["isomorphism_verified"] and results["round_trip_preserves_counts"]
        assert list(results["rees"]) == ["group_table", "I", "Lambda", "P"]

    def test_same_report_under_python_optimize(self, tmp_path):
        # -O strips assert statements; every check in the rees path must survive it.
        z2 = Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)
        sample = tmp_path / "rees.cayley"
        sample.write_text(dump_cayley(expand(ReesMatrixSemigroup(z2, 2, 3, ((0, 1), (1, 1), (1, 0))))))
        env = {**os.environ, "PYTHONPATH": str(Path(monocat.__file__).parent.parent)}
        reports = []
        for flags in ([], ["-O"]):
            report_path = tmp_path / f"rees{len(flags)}.json"
            subprocess.run(
                [sys.executable, *flags, "-m", "monocat.cli", "--quiet", "--json", str(report_path),
                 "rees", str(sample)],
                env=env, check=True,
            )
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["status"] == "ok"


class TestConnectCommand:
    def test_each_group_is_computed_once(self, files, capsys, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return group_of(m)

        for module in (connectivity, cli):
            monkeypatch.setattr(module, "group_of", counted)
        code, out = run(["connect", files["t2"], files["lz1"]], capsys)
        assert code == 0 and "group_orders: [1, 1]" in out
        assert len(calls) == 2

    @pytest.mark.parametrize("pair", [("t2", "lz1"), ("z2", "z2_shifted")])
    def test_same_report_and_witness_under_python_optimize(self, pair, files, tmp_path):
        # -O strips assert statements; every check on the connect path must
        # survive it.  z2 against its relabelling aligns through a nontrivial map.
        shifted = tmp_path / "z2_shifted.cayley"
        shifted.write_text(dump_cayley(Monoid(validate_semigroup([[1, 0], [0, 1]]), 1)))
        paths = {**files, "z2_shifted": str(shifted)}
        env = {**os.environ, "PYTHONPATH": str(Path(monocat.__file__).parent.parent)}
        outputs = []
        for flags in ([], ["-O"]):
            report_path = tmp_path / f"connect{len(flags)}.json"
            witness_path = tmp_path / f"witness{len(flags)}.json"
            subprocess.run(
                [sys.executable, *flags, "-m", "monocat.cli", "--quiet", "--json", str(report_path),
                 "connect", *(paths[name] for name in pair), "--witness", str(witness_path)],
                env=env, check=True,
            )
            report = json.loads(report_path.read_text())
            report["results"].pop("witness_file")
            outputs.append((json.dumps(report), witness_path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["results"]["connected"] is True

    def test_negative_verdict_is_status_ok(self, files, capsys):
        code, out = run(["connect", files["t2"], files["z2"]], capsys)
        assert code == 0
        assert "connected: false" in out

    def test_positive_verdict_writes_a_witness(self, files, capsys, tmp_path):
        witness_path = tmp_path / "witness.json"
        code, out = run(
            ["connect", files["t2"], files["lz1"], "--witness", str(witness_path)],
            capsys,
        )
        assert code == 0
        assert "connected: true" in out
        witness = category_from_json_dict(json.loads(witness_path.read_text()))
        assert validate_category(witness)

    def test_witness_file_passes_category_check(self, files, capsys, tmp_path):
        # the witness ends in the far monoid, which need not be a group, so
        # the group-side checks are skipped rather than failed
        witness_path = tmp_path / "witness.json"
        report_path = tmp_path / "report.json"
        run(["--quiet", "connect", files["t2"], files["lz1"],
             "--witness", str(witness_path)], capsys)
        code, _ = run(
            ["--quiet", "--json", str(report_path), "category", "check", str(witness_path)],
            capsys,
        )
        assert code == 0
        results = json.loads(report_path.read_text())["results"]
        assert results["valid"] is True
        assert results["free_actions"] is None and results["bijection"] is None


def test_suite_and_connect_reports_under_python_optimize(files, tmp_path):
    # -O strips assert statements; every theorem check must survive it
    corpus_dir = tmp_path / "corpus"
    env = {**os.environ, "PYTHONPATH": str(Path(monocat.__file__).parent.parent)}
    commands = {
        "corpus": ["corpus", "standard", "--out", str(corpus_dir)],
        "suite": ["suite", str(corpus_dir)],
        "connect": ["connect", files["t2"], files["lz1"], "--witness", str(tmp_path / "w.json")],
    }
    for name, command in commands.items():
        reports = []
        for flags in ([], ["-O"]):
            report_path = tmp_path / f"{name}{len(flags)}.json"
            subprocess.run([sys.executable, *flags, "-m", "monocat.cli", "--quiet",
                            "--json", str(report_path), *command], env=env, check=True)
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1], name
        assert json.loads(reports[0])["status"] == "ok"


class TestCorpusAndSuite:
    def test_family_dump_and_suite(self, capsys, tmp_path):
        outdir = tmp_path / "corpus"
        code, _ = run(
            ["--quiet", "corpus", "rectangular_band", "2", "2", "--out", str(outdir)],
            capsys,
        )
        assert code == 0
        code, _ = run(
            ["--quiet", "corpus", "cyclic_group", "3", "--out", str(outdir)], capsys
        )
        assert code == 0
        code, out = run(["suite", str(outdir)], capsys)
        assert code == 0
        assert "passed: 2" in out

    def test_suite_flags_a_failure(self, capsys, tmp_path, files):
        outdir = tmp_path / "corpus"
        outdir.mkdir()
        rows = "\n".join(
            " ".join(map(str, r)) for r in oracles.first_nonassociative_table(3)
        )
        (outdir / "broken.cayley").write_text(f"3\n{rows}\n")
        (outdir / "unreadable.cayley").mkdir()
        report_path = tmp_path / "report.json"
        code, out = run(["--json", str(report_path), "suite", str(outdir)], capsys)
        assert code == 1
        assert "passed: 0" in out
        entries = json.loads(report_path.read_text())["results"]["entries"]
        assert "associativity fails" in entries["broken.cayley"]["error"]
        assert "cannot read" in entries["unreadable.cayley"]["error"]


class TestTensorAndCompose:
    def test_tensor_regular_bimodule(self, capsys, tmp_path):
        z2 = oracles.cyclic_table(2)
        payload = {
            "left_monoid": {"table": z2, "identity": 0},
            "right_monoid": {"table": z2, "identity": 0},
            "size": 2,
            "left_action": z2,
            "right_action": z2,
        }
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(payload))
        report_path = tmp_path / "tensor.json"
        code, _ = run(["--quiet", "--json", str(report_path), "tensor", str(path), str(path)], capsys)
        assert code == 0
        assert json.loads(report_path.read_text())["results"]["class_count"] == 2

    def test_tensor_text_nests_the_classes(self, capsys, tmp_path):
        # each class is a list of pairs: a list nested in a list of lists
        z2 = oracles.cyclic_table(2)
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"left_monoid": {"table": z2, "identity": 0},
                                    "right_monoid": {"table": z2, "identity": 0},
                                    "size": 2, "left_action": z2, "right_action": z2}))
        code, out = run(["tensor", str(path), str(path)], capsys)
        assert code == 0
        assert out.split("results:\n", 1)[1] == (
            "  pair_count: 4\n"
            "  class_count: 2\n"
            "  representatives:\n"
            "    - [0, 0]\n"
            "    - [0, 1]\n"
            "  classes:\n"
            "    -\n"
            "      - [0, 0]\n"
            "      - [1, 1]\n"
            "    -\n"
            "      - [0, 1]\n"
            "      - [1, 0]\n"
            "  induced_left_action:\n"
            "    - [0, 1]\n"
            "    - [1, 0]\n"
            "  induced_right_action:\n"
            "    - [0, 1]\n"
            "    - [1, 0]\n")

    def test_compose_mismatch_is_a_violation(self, files, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["--quiet", "--json", str(a), "category", "build", files["t2"]], capsys)
        run(["--quiet", "--json", str(b), "category", "build", files["z2"]], capsys)
        code, _ = run(["--quiet", "compose", str(a), str(b)], capsys)
        assert code == 1


def _category_payload(files, capsys, tmp_path):
    built = tmp_path / "built.json"
    run(["--quiet", "--json", str(built), "category", "build", files["t2"]], capsys)
    return json.loads(built.read_text())["results"]["category"]


def _bimodule_payload(files, capsys, tmp_path):
    z2 = oracles.cyclic_table
    return {"left_monoid": {"table": z2(2), "identity": 0},
            "right_monoid": {"table": z2(2), "identity": 0},
            "size": 2, "left_action": z2(2), "right_action": z2(2)}


# each case sets one value of a valid payload to a JSON value of the wrong
# type that equals the old value in Python; before the shared table check a
# float entry in a category ended in a TypeError traceback, and the bools
# were read as 0 and 1
HOSTILE = {
    "category": (_category_payload, ["category", "check"], {
        "float entry": (("tables", "AA", 0, 0), 0.0),
        "bool entry": (("tables", "AA", 1, 1), True),
        "bool identity": (("a_identity",), True),
    }),
    "bimodule": (_bimodule_payload, ["tensor"], {
        "float entry": (("left_action", 1, 1), 0.0),
        "bool entry": (("right_action", 0, 1), True),
        "bool identity": (("left_monoid", "identity"), False),
    }),
}


@pytest.mark.parametrize("kind,case", [(k, c) for k, (_, _, cases) in HOSTILE.items() for c in cases])
def test_wrongly_typed_json_values_are_reported(kind, case, files, capsys, tmp_path):
    make, command, cases = HOSTILE[kind]
    payload = make(files, capsys, tmp_path)
    (*keys, last), value = cases[case]
    target = payload
    for key in keys:
        target = target[key]
    assert target[last] == value and type(target[last]) is int
    target[last] = value
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(payload))
    report_path = tmp_path / "report.json"
    paths = [str(path)] * (2 if command == ["tensor"] else 1)
    code, _ = run(["--quiet", "--json", str(report_path), *command, *paths], capsys)
    assert code in (1, 2)
    assert json.loads(report_path.read_text())["status"] in ("violation", "error")


@pytest.mark.parametrize("field,value", [("P", [[1.0, 0], [0, 1]]), ("P", [[True, 0], [0, 1]]),
                                         ("I", True), ("Lambda", 2.0), ("I", "2")])
def test_wrongly_typed_rees_values_are_rejected(field, value):
    payload = {"group_table": oracles.cyclic_table(2), "I": 2, "Lambda": 2, "P": [[0, 1], [1, 0]]}
    rees_from_json_dict(payload)
    with pytest.raises(AlgebraError):
        rees_from_json_dict({**payload, field: value})


def _broken_category(tmp_path, table, entries):
    """The category built from the Cayley ``table`` text, written with the
    ``(key, i, j, value)`` entries of its tables changed, and the paths
    ``(source, built, broken)``."""
    source, built, broken = tmp_path / "m.cayley", tmp_path / "built.json", tmp_path / "broken.json"
    source.write_text(table)
    assert main(["--quiet", "--json", str(built), "category", "build", str(source)]) == 0
    report = json.loads(built.read_text())
    for key, i, j, value in entries:
        report["results"]["category"]["tables"][key][i][j] = value
    broken.write_text(json.dumps(report))
    return source, built, broken


def _refusals(source, built, broken, tmp_path):
    """The ``category check`` detail, and the reports of ``extract`` and of
    ``compose`` on either side, for a broken category."""
    out = tmp_path / "out.json"
    assert main(["--quiet", "--json", str(out), "category", "check", str(broken)]) == 1
    detail = json.loads(out.read_text())["results"]["valid_detail"]
    reports = []
    for command in (["extract", str(broken), "--monoid", str(source)],
                    ["compose", str(broken), str(built)], ["compose", str(built), str(broken)]):
        code = main(["--quiet", "--json", str(out), *command])
        reports.append((code, json.loads(out.read_text())))
    return detail, reports


class TestLoadedCategoriesAreValidated:
    """``extract`` and ``compose`` run ``validate_category`` on each loaded
    category first; before, ``extract`` reported a simple ideal for a
    category that ``category check`` refused."""

    def test_every_single_entry_corruption_of_the_actions(self, tmp_path, capsys):
        monoid = "3\n0 0 0\n1 1 1\n0 1 2\nidentity 2\n"
        _, built, _ = _broken_category(tmp_path, monoid, [])
        tables = json.loads(built.read_text())["results"]["category"]["tables"]
        corruptions = [(key, i, j, 1 - v) for key in ("AL", "LG")
                       for i, row in enumerate(tables[key]) for j, v in enumerate(row)]
        assert len(corruptions) == 8  # L has two elements, so each entry has one other value
        details = {}
        for entry in corruptions:
            paths = _broken_category(tmp_path, monoid, [entry])
            ok, expected = oracles.category_verdict(category_from_json_dict(
                json.loads(paths[2].read_text())["results"]["category"]))
            assert not ok, entry
            details[entry], reports = _refusals(*paths, tmp_path)
            assert details[entry] == expected
            for code, report in reports:
                assert code == 1 and report["status"] == "violation"
                assert report["results"] == {"error": f"{paths[2]} is not a valid category: {expected}"}
        assert details["AL", 2, 0, 1] == "A identity law fails on L at 0"


class TestLoadersRejectNonAssociativeTables:
    """Every loader names the first bad triple of a non-associative table."""

    TABLE = oracles.first_nonassociative_table(3)

    def _message(self):
        return "associativity fails at ({},{},{})".format(*oracles.assoc_violation(self.TABLE))

    def test_cayley_text(self, files, capsys, tmp_path):
        out = tmp_path / "out.json"
        assert main(["--quiet", "--json", str(out), "validate", files["bad"]]) == 1
        assert json.loads(out.read_text())["results"]["error"].startswith(self._message())

    @pytest.mark.parametrize("side", ["left_monoid", "right_monoid"])
    def test_bimodule_monoids(self, side, files, capsys, tmp_path):
        payload = _bimodule_payload(files, capsys, tmp_path)
        payload[side] = {"table": self.TABLE, "identity": 0}
        path, out = tmp_path / "x.json", tmp_path / "out.json"
        path.write_text(json.dumps(payload))
        assert main(["--quiet", "--json", str(out), "tensor", str(path), str(path)]) == 1
        assert json.loads(out.read_text())["results"]["error"].startswith(self._message())

    def test_rees_group_table(self):
        payload = {"group_table": self.TABLE, "I": 1, "Lambda": 1, "P": [[0]]}
        with pytest.raises(NotAssociative) as err:
            rees_from_json_dict(payload)
        assert err.value.triple == oracles.assoc_violation(self.TABLE)

    def test_category_a_side(self, files, capsys, tmp_path):
        # the T_2 envelope has A = T_2 with identity 1; AA[0][0] = 2 keeps
        # the identity laws and breaks AAA first
        paths = _broken_category(tmp_path, Path(files["t2"]).read_text(), [("AA", 0, 0, 2)])
        ok, expected = oracles.category_verdict(category_from_json_dict(
            json.loads(paths[2].read_text())["results"]["category"]))
        assert not ok and expected == "associativity pattern AAA fails at (0,0,0)"
        detail, reports = _refusals(*paths, tmp_path)
        assert detail == expected
        for code, report in reports:
            assert code == 1 and report["results"]["error"].endswith(expected)


@pytest.fixture()
def light_tests(monkeypatch):
    """The tables that ``core``'s Light's test runs on, in order."""
    tables = []
    test = core._passes_light_test

    def counted(table):
        tables.append(table)
        return test(table)

    monkeypatch.setattr(core, "_passes_light_test", counted)
    return tables


class TestEachTableIsTestedOnce:
    """Light's test runs once per table read from a file, never on a table
    derived from one."""

    def test_suite_tests_each_file_once(self, light_tests, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main(["--quiet", "corpus", "standard", "--out", str(corpus_dir)]) == 0
        light_tests.clear()
        assert main(["--quiet", "suite", str(corpus_dir)]) == 0
        assert len(light_tests) == len(list(corpus_dir.glob("*.cayley")))

    @pytest.mark.parametrize("pair", [("t2", "lz1"), ("t2", "z2"), ("lz1", "lz1")])
    def test_connect_tests_each_file_once(self, pair, light_tests, files, capsys, monkeypatch):
        during = []

        def watched(a, b):
            before = len(light_tests)
            outcome = connectivity.are_connected(a, b)
            during.append(len(light_tests) - before)
            return outcome

        monkeypatch.setattr(cli, "are_connected", watched)
        light_tests.clear()  # the fixture files were validated as they were written
        assert main(["--quiet", "connect", *(files[name] for name in pair)]) == 0
        assert len(light_tests) == 2 and during == [0]

    @pytest.mark.parametrize("name", ["t2", "z2", "lz1"])
    def test_rees_tests_the_file_and_the_expansion(self, name, light_tests, files, capsys,
                                                   monkeypatch):
        # Light's test runs on the file alone: the expansion is isomorphic to
        # it by the first certificate.  Both mappings stay verified, each on a
        # set that generates its table; both tables are associative, so the
        # set's left-bracketed words reach every element.  Each reads rows of
        # its structure, so the one product table built is the expansion's.
        certified = []
        certify = rees._multiplicative

        def counted(t, code, rms, gens):
            certified.append((t, list(gens), rms))
            return certify(t, code, rms, gens)

        monkeypatch.setattr(rees, "_multiplicative", counted)
        light_tests.clear()
        assert main(["--quiet", "rees", files[name]]) == 0
        assert len(light_tests) == 1 and len(certified) == 2
        assert all(oracles.generated(t, gens) == set(range(len(t))) for t, gens, _ in certified)
        assert ["table" in vars(rms) for _, _, rms in certified] == [True, False]


class TestASuiteEntryDecidesItsTableOnce:
    """One suite entry runs Light's test's ``AAA`` pattern once, at load,
    ``word_generators`` once on the loaded table, and builds its envelope's
    tables once, though ``standardize`` cuts the envelope again."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = {"patterns": [], "generated": [], "envelopes": [], "pairs": 0}
        light, generators = twocat.light_test, core.word_generators
        envelope, pair = twocat._envelope, twocat.karoubi_pair

        def patterns(tables, gens, by_middle):
            seen["patterns"] += [p for middle in by_middle.values() for p in middle]
            return light(tables, gens, by_middle)

        def generated(table):
            seen["generated"].append(table)  # keeps each table, so its id stays its own
            return generators(table)

        def envelopes(base, e1, e2):
            seen["envelopes"].append((base, e1, e2))
            return envelope(base, e1, e2)

        def pairs(m, e1, e2):
            seen["pairs"] += 1
            return pair(m, e1, e2)

        monkeypatch.setattr(twocat, "light_test", patterns)
        monkeypatch.setattr(twocat, "_envelope", envelopes)
        monkeypatch.setattr(twocat, "karoubi_pair", pairs)
        for module in (core, cli, twocat, rees, connectivity):
            monkeypatch.setattr(module, "word_generators", generated)
        return seen

    @pytest.mark.parametrize("monoid, group", [("t3", False), ("c4", True)])
    def test_once_each(self, monoid, group, calls, light_tests, capsys, tmp_path):
        m = (full_transformation_monoid(3) if monoid == "t3"
             else Monoid(validate_semigroup(oracles.cyclic_table(4)), 0))
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "m.cayley").write_text(dump_cayley(m))
        light_tests.clear()
        calls["generated"].clear()
        assert main(["--quiet", "suite", str(tmp_path / "in")]) == 0
        (loaded,) = light_tests  # the loader's Light's test: AAA, once
        assert ("AA",) * 4 not in calls["patterns"] and calls["patterns"]
        assert (("GG",) * 4 in calls["patterns"]) is not group
        assert [t for t in calls["generated"] if t is loaded] == [loaded]
        assert len({id(t) for t in calls["generated"]}) == len(calls["generated"])
        assert len(calls["envelopes"]) == 1 and calls["pairs"] == (1 if group else 2)
        assert calls["envelopes"][0][0].table is loaded

    def test_the_kernel_structure_builds_no_table(self, corpus, monkeypatch, capsys, tmp_path):
        # the kernel decomposition is certified on rows of its generators
        structures = []
        decompose = cli._decompose

        def kept(sub, gens):
            found = decompose(sub, gens)
            structures.append(found[0])
            return found

        monkeypatch.setattr(cli, "_decompose", kept)
        for k, (_, m) in enumerate(corpus[::10]):
            (tmp_path / f"{k:03d}.cayley").write_text(dump_cayley(m))
        assert main(["--quiet", "suite", str(tmp_path)]) == 0
        assert structures and not any("table" in vars(rms) for rms in structures)

    def test_a_pass_decides_two_latin_squares_an_entry(self, corpus, monkeypatch, capsys, tmp_path):
        # is_group never reads the identity, so a base keeps its verdict: an
        # entry decides its loaded table and its G side's table, once each.
        # Before, a pass over the standard corpus decided 903 times.
        decided = []
        latin = core._is_latin

        def counted(s):
            decided.append(s)  # keeps each base, so its id stays its own
            return latin(s)

        monkeypatch.setattr(core, "_is_latin", counted)
        for k, (_, m) in enumerate(corpus):
            (tmp_path / f"{k:03d}.cayley").write_text(dump_cayley(m))
        assert main(["--quiet", "suite", str(tmp_path)]) == 0
        assert len(corpus) == 182 and len(decided) == 364
        assert len({id(s) for s in decided}) == 364


class TestHostileInput:
    """Malformed input gets exit code 2 and a message; a table that omits
    its identity line still has its identity found."""

    def test_an_element_count_of_zero(self, capsys, tmp_path):
        path, report = tmp_path / "zero.cayley", tmp_path / "r.json"
        path.write_text("0\n")
        assert main(["--quiet", "--json", str(report), "validate", str(path)]) == 2
        assert json.loads(report.read_text())["results"]["error"] == "element count must be positive"

    def test_suite_on_a_file(self, files, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert main(["--quiet", "--json", str(report), "suite", files["t2"]]) == 2
        assert json.loads(report.read_text())["results"]["error"] == f"{files['t2']} is not a directory"

    def test_an_identity_without_an_identity_line_is_found(self, capsys, tmp_path):
        # Z_3 with identity 0 and no identity line: found, not adjoined
        path, report = tmp_path / "z3.cayley", tmp_path / "r.json"
        path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
        assert main(["--quiet", "--json", str(report), "kernel", str(path)]) == 0
        results = json.loads(report.read_text())["results"]
        assert results["n"] == 3 and results["identity_adjoined"] is False
        assert results["kernel"] == [0, 1, 2]


class TestStatedHomSizes:
    """A category's ``hom_sizes``, when given, must be its four label counts
    as JSON integers; before, it was never read."""

    def _check(self, files, capsys, tmp_path, change) -> int:
        built = tmp_path / "built.json"
        run(["--quiet", "--json", str(built), "category", "build", files["lz1"]], capsys)
        category = json.loads(built.read_text())["results"]["category"]
        assert category["hom_sizes"] == {"A": 3, "L": 2, "R": 1, "G": 1}
        change(category)
        path = tmp_path / "category.json"
        path.write_text(json.dumps(category))
        return main(["--quiet", "category", "check", str(path)])

    @pytest.mark.parametrize("change", [lambda c: None, lambda c: c.pop("hom_sizes")],
                             ids=["stated", "absent"])
    def test_true_or_absent_counts_are_accepted(self, change, files, capsys, tmp_path):
        assert self._check(files, capsys, tmp_path, change) == 0

    @pytest.mark.parametrize("change", [
        lambda c: c["hom_sizes"].update(A=99),
        lambda c: c["hom_sizes"].update(R=True),
        lambda c: c["hom_sizes"].update(A=3.0),
        lambda c: c["hom_sizes"].pop("G"),
        lambda c: c["hom_sizes"].update(X=0),
        lambda c: c.update(hom_sizes=[3, 2, 1, 1]),
    ], ids=["wrong count", "bool", "float", "missing slot", "extra key", "not an object"])
    def test_other_counts_are_a_format_error(self, change, files, capsys, tmp_path):
        assert self._check(files, capsys, tmp_path, change) == 2
        assert "hom_sizes must be the label counts" in capsys.readouterr().err


def _failing_command_lines(files, capsys, tmp_path):
    """Per command: a command line that succeeds, and a change to its inputs
    after which the same command line fails."""
    t2, z2 = Path(files["t2"]), Path(files["z2"])
    cat, groupoid = tmp_path / "cat.json", tmp_path / "groupoid.json"
    bimodule, suite = tmp_path / "x.json", tmp_path / "suite"
    run(["--quiet", "--json", str(cat), "category", "build", str(t2)], capsys)
    run(["--quiet", "--json", str(groupoid), "category", "build", str(z2)], capsys)
    bimodule.write_text(json.dumps(_bimodule_payload(files, capsys, tmp_path)))
    suite.mkdir()
    (suite / "t2.cayley").write_text(t2.read_text())
    out = tmp_path / "out"

    def block_out():  # a file where corpus makes its output directory
        shutil.rmtree(out)
        out.touch()

    return {
        "validate": (["validate", str(t2)], t2.unlink),
        "kernel": (["kernel", str(t2)], lambda: t2.write_text("2\n0 1\n")),
        "category build": (["category", "build", str(t2)], t2.unlink),
        "category check": (["category", "check", str(cat)], lambda: cat.write_text("5")),
        "extract": (["extract", str(cat), "--monoid", str(t2)], t2.unlink),
        "rees": (["rees", str(t2)], t2.unlink),
        "tensor": (["tensor", str(bimodule), str(bimodule)], bimodule.unlink),
        "compose": (["compose", str(groupoid), str(groupoid)], groupoid.unlink),
        "connect": (["connect", str(t2), str(z2)], z2.unlink),
        "corpus": (["corpus", "cyclic_group", "4", "--out", str(out)], block_out),
        "suite": (["suite", str(suite)], (suite / "t2.cayley").unlink),
    }


@pytest.mark.parametrize("command", ["validate", "kernel", "category build", "category check",
                                     "extract", "rees", "tensor", "compose", "connect",
                                     "corpus", "suite"])
def test_a_failure_report_names_its_command_line(command, files, capsys, tmp_path):
    # before, a failure report named the parser's command alone ("category"),
    # and a format error no inputs at all
    argv, spoil = _failing_command_lines(files, capsys, tmp_path)[command]
    report_path = tmp_path / "report.json"
    assert run(["--quiet", "--json", str(report_path), *argv], capsys)[0] == 0
    ok = json.loads(report_path.read_text())
    spoil()
    assert run(["--quiet", "--json", str(report_path), *argv], capsys)[0] != 0
    failure = json.loads(report_path.read_text())
    assert ok["command"] == command and failure["status"] != "ok"
    assert (failure["command"], failure["inputs"]) == (ok["command"], ok["inputs"])


def test_a_refused_corpus_names_its_parameters(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, _ = run(["--quiet", "--json", str(report_path), "corpus", "cyclic_group", "99",
                   "--out", str(tmp_path / "out")], capsys)
    report = json.loads(report_path.read_text())
    assert code == 1 and report["inputs"] == ["cyclic_group", "99"]
