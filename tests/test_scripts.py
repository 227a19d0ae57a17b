import subprocess
import sys

from helpers import ROOT, src_env


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=cwd, env=src_env(), timeout=120,
    )


def test_make_tictactoe(tmp_path):
    out = tmp_path / "ttt.csv"
    proc = run_script("make_tictactoe.py", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text(encoding="utf-8").splitlines()) == 959


def test_tictactoe_discovery(tmp_path):
    proc = run_script("tictactoe_discovery.py", "--k", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "top-2:" in proc.stdout


def test_estimator_experiments(tmp_path):
    out = tmp_path / "experiments"
    proc = run_script("estimator_experiments.py", "--trials", "2", "--out-dir", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "chance.json", "regret_plugin.tsv", "regret_relaxed.tsv", "regret_summary.json",
    ]
