"""Golden machine reports: the exit code, JSON report and error text of every
subcommand on four corpus manifests, of a few `--base generic` runs, of the
jet (`--order 5`) runs of the subcommands that build series, of the greedy
orbit at a low jet order (`orbit` and `multitype --order 3`, where ex8_6
loses its bracket to truncation and exits 1) and at another seed
(`minimality --seed 3`), of the derivations at the lowest jet order
(`hormander`, `levi` and `orbit --order 2`, where truncation merges the
most orders), of certified EXACT ranks (`ranks --certify`) and of a
single-point sample (`multitype --trials 1 --seed 5`), and of `checkall`,
pinned byte for byte in tests/data/reports.json.

Corpus paths are written as the entry name, so the file does not depend on
where the package is installed.  Regenerate it only for an intended report
change, from the repository root:

    PYTHONPATH=src python tests/test_reports.py --write
"""

import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from segrechains.cli import main
from segrechains.corpus import corpus

DATA = Path(__file__).parent / "data" / "reports.json"
NAMES = ("heisenberg", "ex8_6", "quadric_elliptic", "orbit_heisenberg_like")
COMMANDS = ("validate", "chains", "ranks", "minimality", "multitype", "witness",
            "hormander", "levi", "e1det", "orbit")
JET_COMMANDS = ("chains", "ranks", "multitype", "orbit", "levi", "hormander")


def cases():
    """Argument vectors, with corpus entries named instead of their paths."""
    out = [[cmd, name] for name in NAMES for cmd in COMMANDS]
    for name in NAMES:
        out.append(["ranks", name, "--base", "generic", "--certify"])
        out.append(["levi", name, "--base", "generic"])
        out.append(["hormander", name, "--base", "generic"])
    out += [[cmd, name, "--order", "5"] for name in NAMES for cmd in JET_COMMANDS]
    for name in NAMES:
        out.append(["orbit", name, "--order", "3"])
        out.append(["multitype", name, "--order", "3"])
        out.append(["minimality", name, "--seed", "3"])
    out += [[cmd, name, "--order", "2"]
            for name in NAMES for cmd in ("hormander", "levi", "orbit")]
    for name in NAMES:
        out.append(["ranks", name, "--certify"])
        out.append(["multitype", name, "--trials", "1", "--seed", "5"])
    return out + [["corpus"], ["checkall"]]


def run(case):
    """(exit code, stdout, stderr) of `case` in machine format, with every
    corpus path in the output replaced by its entry name."""
    paths = dict(corpus())
    argv = [str(paths[a]) if a in paths else a for a in case] + ["--format", "machine"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    texts = [out.getvalue(), err.getvalue()]
    for name, path in paths.items():
        texts = [t.replace(str(path), name) for t in texts]
    return code, texts[0], texts[1]


def record(case):
    code, out, err = run(case)
    return {"argv": case, "code": code, "report": json.loads(out) if out else None,
            "stderr": err}


@functools.cache
def _golden():
    return {tuple(r["argv"]): r for r in json.loads(DATA.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("case", cases(), ids=" ".join)
def test_machine_report_matches_golden(case):
    want = _golden()[tuple(case)]
    code, out, err = run(case)
    assert code == want["code"]
    expected_out = "" if want["report"] is None else (
        json.dumps(want["report"], sort_keys=True, indent=2) + "\n")
    assert out == expected_out
    assert err == want["stderr"]


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(tuple(c) for c in cases())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([record(c) for c in cases()], indent=1, sort_keys=True)
                    + "\n", encoding="utf-8")
