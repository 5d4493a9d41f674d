"""Golden reports: every CLI ``--json`` report over ``corpus standard`` is pinned.

Each report (and each connect witness file) is reduced to its SHA-256 and
compared with ``golden_reports.json``.  Commands run in-process from a
scratch working directory with relative paths, so the reports do not
depend on where the test runs.  To rewrite the golden file after an
intended report change, run ``python tests/test_golden.py`` with ``src`` on
``PYTHONPATH``.
"""

import hashlib
import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from monocat.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv) -> str:
    """Run one command; ``exit code:report digest``."""
    with redirect_stdout(StringIO()):
        code = main(["--quiet", "--json", "report.json", *argv])
    return f"{code}:{_digest(Path('report.json'))}"


def golden_reports(workdir: Path) -> dict[str, str]:
    """The digest of every report, keyed by the command line that made it."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = {"corpus standard": _run(["corpus", "standard", "--out", "corpus"])}
        files = sorted(p.name for p in Path("corpus").glob("*.cayley"))
        for name in files:
            path = f"corpus/{name}"
            for command in ("validate", "kernel", "rees"):
                out[f"{command} {name}"] = _run([command, path])
            out[f"category build {name}"] = _run(["category", "build", path])
            os.replace("report.json", "built.json")
            out[f"category check {name}"] = _run(["category", "check", "built.json"])
            out[f"extract {name}"] = _run(["extract", "built.json", "--monoid", path])
        for a, b in zip(files, files[1:]):
            key = f"connect {a} {b}"
            out[key] = _run(["connect", f"corpus/{a}", f"corpus/{b}", "--witness", "witness.json"])
            if os.path.exists("witness.json"):
                out[f"witness {a} {b}"] = _digest(Path("witness.json"))
                os.remove("witness.json")
        out["suite corpus"] = _run(["suite", "corpus"])
        return out
    finally:
        os.chdir(cwd)


def test_reports_match_the_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = golden_reports(tmp_path)
    assert list(got) == list(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = golden_reports(Path(tmp))
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(reports)} digests to {GOLDEN}\n")
