import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
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
