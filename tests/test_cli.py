import csv
import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from corrsets import cli
from corrsets import data as data_module
from corrsets.cli import main
from corrsets.search import SearchStats
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

    def test_report_counts_rejected_rows(self, small_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["discover", "--input", str(small_csv), "--json", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["dataset"]["rejected_rows"] == 0
        assert "note:" not in capsys.readouterr().err
        text = small_csv.read_text(encoding="utf-8")
        small_csv.write_text(text + "v1,,u0\n,w2,u1\n", encoding="utf-8")
        assert main(argv) == 0
        assert json.loads(out.read_text())["dataset"]["rejected_rows"] == 2
        assert capsys.readouterr().err == "note: dropped 2 rows with empty fields\n"

    def test_greedy_algo(self, small_csv):
        rc = main(["discover", "--input", str(small_csv), "--algo", "greedy"])
        assert rc == 0

    def test_greedy_refuses_alpha(self, small_csv, capsys):
        # greedy never reads alpha, so a report echoing 0.5 would mislead
        flags = ["discover", "--input", str(small_csv), "--algo", "greedy", "--alpha"]
        with pytest.raises(SystemExit) as exc:
            main(flags + ["0.5"])
        assert exc.value.code == 1
        assert "--alpha applies only to --algo bnb" in capsys.readouterr().err
        assert main(flags + ["1"]) == 0  # the default is no approximation

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
        bins = {a["name"]: a["bins"] for a in report["dataset"]["attributes"]}
        assert bins == {"x": [[0.0, 9.0], [10.0, 19.0], [20.0, 29.0], [30.0, 39.0]],
                        "y": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]}

    def test_zero_edges_do_not_depend_on_row_order(self, tmp_path):
        # the sort may put either zero first; an edge reads 0.0 either way
        reports = []
        for rows in (["-0.0,x", "0,y"], ["0,y", "-0.0,x"]):
            path, out = tmp_path / "zeros.csv", tmp_path / f"zeros{len(reports)}.json"
            path.write_text("\n".join(["a,b", *rows, "1,x", "2,y"]) + "\n", encoding="utf-8")
            assert main(["discover", "--input", str(path), "--json", str(out)]) == 0
            reports.append(strip_timing(out))
        assert reports[0] == reports[1]
        bins = json.loads(reports[0])["dataset"]["attributes"][0]["bins"]
        assert json.dumps(bins) == "[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]"

    def test_report_records_kind_and_non_finite_note(self, tmp_path, capsys):
        path = tmp_path / "kinds.csv"
        rows = ["x,t,z"] + [f"{i},v{i % 3},{'nan' if i == 7 else i % 5}" for i in range(40)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "kinds.json"
        assert main(["discover", "--input", str(path), "--json", str(out)]) == 0
        attrs = json.loads(out.read_text())["dataset"]["attributes"]
        assert [(a["name"], a["kind"], a["non_finite"], "bins" in a) for a in attrs] == [
            ("x", "binned", False, True), ("t", "categorical", False, False),
            ("z", "categorical", True, False)]
        assert capsys.readouterr().err == (
            "note: kept column 'z' categorical: it holds a non-finite number\n")
        argv = ["discover", "--input", str(path), "--numeric-cols", "none"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_named_numeric_columns(self, tmp_path, capsys):
        path = tmp_path / "named.csv"
        rows = ["a,b,c"] + [f"{i},{i % 4},{i * 7 % 10}" for i in range(30)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "named.json"
        argv = ["discover", "--input", str(path), "--bins", "3", "--numeric-cols"]
        assert main(argv + ["a,c", "--json", str(out)]) == 0
        attrs = json.loads(out.read_text())["dataset"]["attributes"]
        assert [(a["name"], a["kind"], a["domain_size"]) for a in attrs] == [
            ("a", "binned", 3), ("b", "categorical", 4), ("c", "binned", 3)]
        path.write_text("\n".join(["a,b", "1,0", "2,v7", "3,1"]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(argv + ["a,b"]) == 2
        assert capsys.readouterr().err == (
            "corrsets discover: error: column 'b': non-numeric value 'v7'\n")

    def test_deterministic_reports(self, small_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["discover", "--input", str(small_csv), "--k", "4", "--json"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert strip_timing(out1) == strip_timing(out2)


def discover_like_csv(path, n=600, quote=False):
    """A seeded table shaped like the benchmark's discover input: ID-like
    and categorical text columns, numeric columns, and a few empty fields,
    two near the top and one more every 30,000 rows. With ``quote``, the
    header and every text field are quoted, as R's ``write.csv`` writes
    them."""
    rng = np.random.default_rng(7)
    user = rng.integers(0, 120, n)
    region = rng.integers(0, 6, n)
    columns = {
        "user_id": [f"u{v:04d}" for v in user],
        "region": [f"reg_{'abcdef'[v]}" for v in region],
        "channel": [f"cha_{'abcd'[(v * 7 + 3) % 4]}" for v in region],
        "amount": [f"{v:.6f}" for v in rng.random(n) * 100 + region],
        "score": [f"{v:.6f}" for v in rng.random(n) * 10],
    }
    columns["score"][5] = columns["region"][9] = ""
    for row in range(30_000, n, 30_000):
        columns["amount"][row] = ""
    header = list(columns)
    if quote:
        header = [f'"{name}"' for name in header]
        for name in ("user_id", "region", "channel"):
            columns[name] = [f'"{v}"' for v in columns[name]]
    lines = [",".join(header)] + [",".join(row) for row in zip(*columns.values())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("algo", ["greedy", "bnb"])
def test_plain_path_reports_like_csv_reader(algo, ttt_csv, tmp_path, monkeypatch, capsys):
    like = discover_like_csv(tmp_path / "like.csv")
    quoted = discover_like_csv(tmp_path / "quoted.csv", quote=True)
    # three chunks of the plain path, each dropping a row with an empty field
    big = discover_like_csv(tmp_path / "big.csv", n=72_000)
    assert big.stat().st_size > 2 * data_module._CHUNK_BYTES
    runs = []
    for plain in (True, False):
        if not plain:
            monkeypatch.setattr(data_module, "_parse_plain", lambda *args: None)
        for path in (like, quoted, big, ttt_csv):
            out = tmp_path / f"{plain}-{path.stem}.json"
            assert main(["discover", "--input", str(path), "--algo", algo,
                         "--k", "5", "--json", str(out)]) == 0
            report = json.loads(strip_timing(out))
            report["config"].pop("input")
            runs.append((report, capsys.readouterr().err))
    assert runs[:4] == runs[4:]
    assert runs[1] == runs[0]  # the quoted copy reports as the plain file does
    assert runs[0][1] == "note: dropped 2 rows with empty fields\n"
    assert runs[2][1] == "note: dropped 4 rows with empty fields\n"


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
    (["discover", "--input", "{tmp}/x.csv", "--budget", "inf"], 1),
    (["discover", "--input", "{tmp}/x.csv", "--algo", "greedy", "--budget", "0"], 1),
    (["discover", "--input", "{tmp}/x.csv", "--json", "{tmp}/missing/r.json"], 2),
    (["discover", "--input", "{tmp}/x.csv", "--algo", "greedy", "--json", "{tmp}"], 2),
    (["score", "--input", "{tmp}/x.csv", "--set", "a,b",
      "--json", "{tmp}/missing/r.json"], 2),
    (["chance", "--d", "3", "--n", "20", "--json", "{tmp}/missing/r.json"], 2),
    (["regret", "--json", "{tmp}/missing/r.json"], 2),
    (["discover", "--input", "{tmp}/absent.csv", "--json", ""], 1),
    (["chance", "--d", "3", "--n", "20", "--json", ""], 1),
    (["chance", "--seed", "-1"], 1),
    (["regret", "--seed", "-1"], 1),
    (["discover", "--input", "{tmp}/x.csv", "--alpha", "abc"], 1),
    (["discover", "--input", "{tmp}/x.csv", "--budget", "zz"], 1),
    (["regret", "--dims", "x"], 1),
    (["regret", "--n-grid", "x"], 1),
    (["regret", "--bands", "a:b"], 1),
    (["chance", "--d", "x"], 1),
    (["discover", "--input", "{tmp}/x.csv", "--algo", "greedy", "--alpha", "0.5"], 1),
])
def test_error_contract(argv, code, tmp_path, capsys):
    """Bad values exit 1 at parse time, and unreadable input or an output
    path that cannot be written exits 2 before any work: each with a
    one-line error that names no private helper of the CLI, nothing on
    stdout and no escaping exception."""
    (tmp_path / "x.csv").write_text("a,b\n0,1\n1,0\n1,1\n", encoding="utf-8")
    argv = [tok.replace("{tmp}", str(tmp_path)) for tok in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err.splitlines()[-1]
    helpers = {name for name in vars(cli) if name.startswith("_")}
    assert not helpers & set(re.findall(r"\w+", err.splitlines()[-1]))


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

    def test_single_name_rejected(self, small_csv, capsys):
        rc = main(["score", "--input", str(small_csv), "--set", "a"])
        assert rc == 2
        assert "need at least 2 attribute names" in capsys.readouterr().err

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


    def test_json_describes_the_dataset_as_discover_does(self, tmp_path, capsys):
        like = discover_like_csv(tmp_path / "like.csv")
        reports = []
        for argv in (["score", "--set", "region,amount"], ["discover"]):
            out = tmp_path / f"{argv[0]}.json"
            assert main(argv + ["--input", str(like), "--json", str(out)]) == 0
            reports.append(json.loads(out.read_text())["dataset"])
        assert reports[0] == reports[1]
        assert reports[0]["rejected_rows"] == 2


@pytest.mark.parametrize("command", [
    ["discover", "--k", "3"],
    ["score", "--set", "top-left,middle-middle,class"],
])
def test_drop_constant_names_the_dropped_columns(command, ttt_csv, tmp_path):
    lines = ttt_csv.read_text(encoding="utf-8").splitlines()
    const = tmp_path / "const.csv"
    const.write_text("\n".join([lines[0] + ",const_a,const_b"]
                               + [line + ",z,0" for line in lines[1:]]) + "\n",
                     encoding="utf-8")

    def report(path, *flags):
        out = tmp_path / "report.json"
        assert main([command[0], "--input", str(path), *command[1:], *flags,
                     "--json", str(out)]) == 0
        return json.loads(out.read_text())

    assert "dropped_constant" not in report(const)["dataset"]
    assert report(ttt_csv, "--drop-constant")["dataset"]["dropped_constant"] == []
    dropped, plain = report(const, "--drop-constant"), report(ttt_csv)
    assert dropped["dataset"].pop("dropped_constant") == ["const_a", "const_b"]
    # apart from the new key, as if the constant columns were never there
    for key in ("dataset", "results", "stats", "score"):
        assert dropped.get(key) == plain.get(key)


@pytest.mark.parametrize("argv, blocks", [
    (["discover", "--input", "{ttt}", "--k", "2"],
     {"config", "dataset", "results", "stats", "timing"}),
    (["score", "--input", "{ttt}", "--set", "top-left,class"], {"config", "dataset", "score"}),
    (["chance", "--d", "3", "--n", "50"], {"config", "records"}),
    (["regret", "--dims", "2", "--bands", "0.0:1.0", "--n-grid", "10", "--trials", "2",
      "--out-dir", "{tmp}"], {"config", "cells", "aggregate", "timing"}),
])
def test_report_envelope(argv, blocks, ttt_csv, tmp_path):
    # every report has one envelope; stats holds the search's counts, and
    # the time goes only in timing
    argv = [arg.format(ttt=ttt_csv, tmp=tmp_path) for arg in argv]
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"schema_version", "command"} | blocks
    assert report["schema_version"] == cli.SCHEMA_VERSION
    assert report["command"] == argv[0]
    if "timing" in report:  # discover times its ingest apart from its search
        expected = {"parse_s", "encode_s", "wall_s"} if argv[0] == "discover" else {"wall_s"}
        assert set(report["timing"]) == expected
    if "stats" in report:
        assert set(report["stats"]) == {field.name for field in dataclasses.fields(SearchStats)}
        assert not any("time" in key for key in report["stats"])


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

    def test_single_trial(self, tmp_path):
        out = tmp_path / "summary.json"
        rc = main([
            "regret", "--dims", "2,3", "--bands", "0.1:0.4", "--n-grid", "20,30",
            "--trials", "1", "--out-dir", str(tmp_path), "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        curves = [c for cell in report["cells"] for c in cell["curves"].values()]
        curves += report["aggregate"].values()
        assert len(curves) == 6
        assert all(c["stderr"] == [0.0, 0.0] for c in curves)

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

    @pytest.mark.parametrize("flags", [
        ["--out-dir", "{tmp}/missing"],
        ["--json", "{tmp}/missing/r.json"],
        ["--json", "{tmp}"],
    ])
    def test_bad_output_path_refused_before_sampling(self, flags, tmp_path,
                                                     monkeypatch, capsys):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the output paths were checked")

        monkeypatch.setattr(cli, "sample_joint_in_band", sample)
        rc = main(["regret", "--dims", "2", "--bands", "0.1:0.4", "--n-grid", "20",
                   "--trials", "1", "--out-dir", str(tmp_path)]
                  + [flag.replace("{tmp}", str(tmp_path)) for flag in flags])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("corrsets regret: error:")
        assert list(tmp_path.iterdir()) == []

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
        # corrsets depends on numpy alone; no import may pull scipy back in
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_exact_runs_without_scipy(self, ttt_csv):
        # numpy is the only runtime dependency, the exact oracle included
        code = ("import sys; sys.modules['scipy'] = None; from corrsets import cli; "
                "sys.exit(cli.main(['score', '--input', sys.argv[1], '--set', "
                "'top-left,middle-middle,class', '--estimator', 'exact']))")
        proc = subprocess.run([sys.executable, "-c", code, str(ttt_csv)],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
