"""Golden reports: the determinism contract checked against committed files.

Each case runs one command line through ``corrsets.cli.main`` and
compares its exit code, its standard output and error, and its ``--json``
report with the file of the same name under ``tests/golden/``. The inputs
are written by the test: the tic-tac-toe table, the same table with a
constant text column before it and a constant number after it, and a
seeded table shaped like the benchmark's discover input, whose numeric
columns are binned and which drops rows with empty fields. The report's ``timing`` block is
removed and the printed search time masked: they are the only parts of a
run that the contract lets change. A change that moves any other part of
an output, a score's last bit included, shows as a diff of these files.

Rewrite the files with ``python -m pytest tests/test_golden.py
--update-golden`` and say in CHANGES.md why the output moved.

Floats are compared exactly, as ``json`` writes them (shortest repr, which
round-trips). The files were written on x86-64 Linux. If a platform's float
bits differ, these tests fail there: compare its floats with a tolerance
rather than rewrite the files from it.
"""

import json
import re
from pathlib import Path

import pytest

from corrsets.cli import main
from helpers import discover_like_csv

GOLDEN = Path(__file__).parent / "golden"

SCORE_SET = "top-left,middle-middle,bottom-right,class"
TTT = ["--input", "tictactoe.csv"]
CONSTANT = ["discover", "--input", "constant.csv", "--k", "3"]
LIKE = ["discover", "--input", "like.csv", "--k", "5"]

CASES = {
    "discover-bnb-k9": ["discover", *TTT, "--k", "9"],
    "discover-greedy-k9": ["discover", *TTT, "--algo", "greedy", "--k", "9"],
    "discover-bnb-k5-alpha0.5": ["discover", *TTT, "--k", "5", "--alpha", "0.5"],
    **{f"score-{est}": ["score", *TTT, "--set", SCORE_SET, "--estimator", est]
       for est in ("plugin", "relaxed", "upper", "exact")},
    "discover-constant-k3": CONSTANT,
    "discover-constant-k3-dropped": [*CONSTANT, "--drop-constant"],
    "discover-like-bnb-k5": LIKE,
    "discover-like-greedy-k5": [*LIKE, "--algo", "greedy"],
    "chance": ["chance"],
}


def write_inputs(ttt_csv, directory):
    """The tables that the cases read, written into ``directory``."""
    (directory / "tictactoe.csv").write_bytes(ttt_csv.read_bytes())
    rows = ttt_csv.read_text(encoding="utf-8").splitlines()
    constant = [f"pad,{rows[0]},version"] + [f"x,{row},1" for row in rows[1:]]
    (directory / "constant.csv").write_text("\n".join(constant) + "\n", encoding="utf-8")
    discover_like_csv(directory / "like.csv")


def run_case(argv, capsys) -> dict:
    """The exit code, outputs and report of one command line, run in the
    current directory."""
    code = main(argv + ["--json", "report.json"])
    captured = capsys.readouterr()
    with open("report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timing", None)  # score writes none
    return {
        "argv": argv,
        "exit": code,
        "stdout": re.sub(r"time \d+\.\d+s", "time <masked>s", captured.out),
        "stderr": captured.err,
        "report": report,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, ttt_csv, tmp_path, monkeypatch, capsys, request):
    # a relative input path keeps the temporary directory out of the report
    write_inputs(ttt_csv, tmp_path)
    monkeypatch.chdir(tmp_path)
    got = run_case(CASES[name], capsys)
    path = GOLDEN / f"{name}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    assert got == json.loads(path.read_text(encoding="utf-8"))


def test_no_stray_golden_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
