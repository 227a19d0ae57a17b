import csv
import json
import subprocess
import sys

import pytest

from corrsets.cli import main
from helpers import src_env


def strip_timing(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timing", None)
    return json.dumps(report, sort_keys=True)


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    rows = ["a,b,c"]
    for i in range(40):
        x = i % 3
        rows.append(f"v{x},w{(x + i // 20) % 3},u{i % 2}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestDiscover:
    def test_bnb_on_tictactoe(self, ttt_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "discover", "--input", str(ttt_csv), "--k", "3",
            "--alpha", "1", "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 2
        assert report["dataset"]["n"] == 958
        assert report["dataset"]["d"] == 10
        top = report["results"][0]
        assert top["rank"] == 1
        assert top["corrected_score"] == pytest.approx(0.08, abs=0.01)
        assert len(report["results"]) == 3
        assert report["stats"]["completed"] is True
        captured = capsys.readouterr()
        assert "rank" in captured.out

    def test_greedy_algo(self, small_csv):
        rc = main(["discover", "--input", str(small_csv), "--algo", "greedy"])
        assert rc == 0

    def test_budget_exit_code(self, ttt_csv):
        rc = main([
            "discover", "--input", str(ttt_csv), "--budget", "0.0",
        ])
        assert rc == 3

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["discover", "--input", str(tmp_path / "nope.csv")])
        assert rc == 2

    def test_ragged_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1\n", encoding="utf-8")
        assert main(["discover", "--input", str(bad)]) == 2

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "big.csv"
        bad.write_text("a,b\n" + "x" * (csv.field_size_limit() + 1) + ",1\n",
                       encoding="utf-8")
        assert main(["discover", "--input", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "error:" in err[0] and "line 2" in err[0]

    def test_bad_flags_are_usage_errors(self, small_csv):
        with pytest.raises(SystemExit) as exc:
            main(["discover", "--input", str(small_csv), "--k", "0"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["discover", "--input", str(small_csv), "--alpha", "1.5"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["discover"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["discover", "--input", str(small_csv), "--algo", "dfs"])
        assert exc.value.code == 1

    def test_drop_constant_and_no_header(self, tmp_path):
        path = tmp_path / "nh.csv"
        path.write_text("a,b,k\nc,b,k\na,d,k\nc,d,k\n", encoding="utf-8")
        rc = main(["discover", "--input", str(path), "--no-header",
                   "--drop-constant"])
        assert rc == 0

    def test_drop_constant_below_two_attributes(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("a,k\nx,k\ny,k\n", encoding="utf-8")
        rc = main(["discover", "--input", str(path), "--drop-constant"])
        assert rc == 2
        assert "at least 2 attributes" in capsys.readouterr().err

    def test_numeric_csv_discretized(self, tmp_path):
        path = tmp_path / "num.csv"
        rows = ["x,y"] + [f"{i},{i % 4}" for i in range(40)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "num.json"
        rc = main(["discover", "--input", str(path), "--bins", "4",
                   "--json", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        domains = {a["name"]: a["domain_size"] for a in
                   report["dataset"]["attributes"]}
        assert domains == {"x": 4, "y": 4}

    def test_deterministic_reports(self, small_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["discover", "--input", str(small_csv), "--k", "4", "--json"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert strip_timing(out1) == strip_timing(out2)


@pytest.mark.parametrize("argv, code", [
    (["regret", "--dims", "1"], 1),
    (["regret", "--dims", ""], 1),
    (["regret", "--bands", "0.5:0.1"], 1),
    (["regret", "--bands=-0.1:0.5"], 1),
    (["regret", "--bands", "0.2:1.5"], 1),
    (["regret", "--bands", "0.3:0.3"], 1),
    (["regret", "--bands", "0.5"], 1),
    (["regret", "--bands", "nan:0.5"], 1),
    (["regret", "--n-grid", "10,1"], 1),
    (["regret", "--estimators", "plugin,bogus"], 1),
    (["discover", "--input", "{tmp}/x.csv", "--budget", "-1"], 1),
    (["discover", "--input", "{tmp}"], 2),
    (["score", "--input", "{tmp}", "--set", "a,b"], 2),
    (["regret", "--dims", "6", "--bands", "0:1", "--estimators", "exact",
      "--n-grid", "10", "--trials", "1"], 1),
    (["regret", "--dims", "10"], 1),
    (["chance", "--n", "1"], 1),
    (["chance", "--d", "1"], 1),
])
def test_error_contract(argv, code, tmp_path, capsys):
    """Bad values exit 1 at parse time and unreadable input exits 2, each
    with a one-line error and no escaping exception."""
    argv = [tok.replace("{tmp}", str(tmp_path)) for tok in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    assert "error:" in err[-1]


class TestScore:
    def test_named_set(self, ttt_csv, tmp_path, capsys):
        out = tmp_path / "score.json"
        rc = main([
            "score", "--input", str(ttt_csv),
            "--set", "top-left,middle-middle,bottom-right,class",
            "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["score"]["corrected_score"] == pytest.approx(0.08, abs=0.01)
        assert report["score"]["plugin_score"] == pytest.approx(0.12, abs=0.01)
        assert "corrected_score" in capsys.readouterr().out

    def test_duplicated_column_scores_one(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n0,0\n1,1\n0,0\n1,1\n", encoding="utf-8")
        rc = main(["score", "--input", str(path), "--set", "x,y",
                   "--numeric-cols", "none"])
        assert rc == 0

    def test_unknown_attribute_lists_candidates(self, small_csv, capsys):
        rc = main(["score", "--input", str(small_csv), "--set", "a,zz"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "zz" in err and "available" in err

    def test_duplicate_names_rejected(self, small_csv, capsys):
        rc = main(["score", "--input", str(small_csv), "--set", "a,a"])
        assert rc == 2
        assert "distinct" in capsys.readouterr().err

    def test_utf8_bom_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,b\n0,0\n1,1\n0,1\n".encode("utf-8-sig"))
        assert main(["score", "--input", str(path), "--set", "a,b"]) == 0

    def test_set_whitespace_tolerated(self, small_csv):
        assert main(["score", "--input", str(small_csv),
                     "--set", " a , b "]) == 0

    def test_oracle_cap_refused(self, ttt_csv):
        names = ",".join([
            "top-left", "top-middle", "top-right", "middle-left",
            "middle-middle", "middle-right", "bottom-left", "bottom-middle",
            "bottom-right",
        ])
        rc = main(["score", "--input", str(ttt_csv), "--set", names,
                   "--estimator", "exact"])
        assert rc == 1

    def test_estimator_selection(self, small_csv):
        for est in ("plugin", "relaxed", "upper", "exact"):
            assert main(["score", "--input", str(small_csv), "--set", "a,b",
                         "--estimator", est]) == 0


class TestRegret:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        rc = main([
            "regret", "--dims", "2", "--bands", "0.1:0.4", "--n-grid", "20,30",
            "--trials", "3", "--seed", "1", "--out-dir", str(tmp_path),
            "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["command"] == "regret"
        assert len(report["cells"]) == 1
        assert report["cells"][0]["d"] == 2
        agg = report["aggregate"]
        assert set(agg) == {"plugin", "relaxed"}
        assert agg["plugin"]["n"] == [20, 30]
        tsv = (tmp_path / "regret_relaxed.tsv").read_text().splitlines()
        assert tsv[0] == "estimator\tn\tmean_regret\tstderr"
        assert len(tsv) == 3

    def test_estimator_selection(self, tmp_path):
        rc = main([
            "regret", "--dims", "2", "--bands", "0.0:1.0", "--n-grid", "15",
            "--trials", "2", "--estimators", "relaxed", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "regret_relaxed.tsv").exists()
        assert not (tmp_path / "regret_plugin.tsv").exists()

    def test_infeasible_band_skipped(self, tmp_path, capsys):
        rc = main([
            "regret", "--dims", "3", "--bands", "0.97:1.0", "--n-grid", "10",
            "--trials", "1", "--max-attempts", "200", "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "skipped" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            rc = main([
                "regret", "--dims", "2", "--bands", "0.1:0.4", "--n-grid", "20",
                "--trials", "3", "--seed", "9", "--out-dir", str(tmp_path),
                "--json", str(out),
            ])
            assert rc == 0
            outs.append(strip_timing(out))
        assert outs[0] == outs[1]


class TestChance:
    def test_default_shape(self, tmp_path, capsys):
        out = tmp_path / "chance.json"
        rc = main(["chance", "--d", "6", "--n", "200", "--seed", "2",
                   "--json", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        records = report["records"]
        assert [r["cardinality"] for r in records] == list(range(2, 7))
        for r in records:
            assert r["corrected_bits"] <= r["plugin_bits"]
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "cardinality\tplugin_bits\tcorrected_bits"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["chance", "--d", "5", "--n", "150", "--seed", "3",
                         "--json", str(out)]) == 0
        assert strip_timing(a) == strip_timing(b)

    def test_seed_changes_values_not_direction(self):
        from corrsets.synth import chance_demo

        r1 = chance_demo(d=6, n=300, seed=1)
        r2 = chance_demo(d=6, n=300, seed=2)
        assert r1 != r2
        for rec in r1 + r2:
            assert rec.corrected_bits <= rec.plugin_bits


class TestTopLevel:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "corrsets", "chance", "--d", "3", "--n", "50"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("cardinality")

    @pytest.mark.parametrize("module", ["corrsets", "corrsets.cli"])
    def test_import_leaves_scipy_unloaded(self, module):
        # scipy is needed only by the exact oracle and dominates import time
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
