import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monocat
import oracles
from monocat import cli, connectivity
from monocat.cli import main
from monocat.connectivity import group_of
from monocat.core import Monoid, adjoin_identity, dump_cayley, validate_semigroup
from monocat.errors import AlgebraError
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
