import csv
import io
import json

import pytest

from directcorr.cli import main
from directcorr.report import MeasureEntry, MeasureReport, csv_rows, fmt, to_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_berkeley_values(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "berkeley", "--measures", "rmi,rcmi")
        assert code == 0
        assert "rmi" in out and "0.061262" in out
        assert "0.030162" in out

    def test_rmi_do_value(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "berkeley", "--measures", "rmi_do")
        assert code == 0
        assert "0.018089" in out

    def test_backdoor_caveat_on_do_family(self, capsys):
        _, _, err = run(capsys, "analyze", "--builtin", "berkeley", "--measures", "nace")
        assert "back-door" in err

    def test_no_caveat_without_do_family(self, capsys):
        _, _, err = run(capsys, "analyze", "--builtin", "berkeley", "--measures", "rmi")
        assert "back-door" not in err

    def test_unknown_measure_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--builtin", "berkeley", "--measures", "bogus")
        assert code == 2
        assert "rmi" in err and "rcmi" in err  # the message lists valid ids

    def test_missing_csv_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--csv", "/nonexistent/file.csv", "--schema", "titanic")
        assert code == 1
        assert "data error" in err

    def test_pc_omitted_for_berkeley(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "berkeley", "--measures", "pcc,pc")
        assert code == 0
        assert "pc omitted" in out

    def test_bootstrap_skips_omitted_pc(self, capsys, tmp_path):
        # Z is nominal and always equals X, so pc is undefined on the data
        # and on every resample; the report omits it, so it is not resampled
        cells = (("a", "no", 5), ("a", "yes", 3), ("b", "no", 2), ("b", "yes", 6))
        rows = ["gx,gy,gz"] + [f"{x},{y},{x}" for x, y, k in cells for _ in range(k)]
        data = tmp_path / "nominal.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        schema = tmp_path / "nominal.json"
        schema.write_text(json.dumps({
            "name": "nominal_z",
            "csv": {"has_header": True},
            "roles": {
                "x": {"column": "gx", "categories": ["a", "b"]},
                "y": {"column": "gy", "categories": ["no", "yes"]},
                "z": {"column": "gz", "categories": ["a", "b"], "ordinal": False},
            },
        }), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--csv", str(data), "--schema", str(schema),
                             "--measures", "pc,rmi", "--bootstrap", "50")
        assert code == 0, err
        assert "pc omitted" in out

    def test_bounds_flag(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--builtin", "titanic", "--measures", "rcmi", "--bounds"
        )
        assert code == 0
        assert "0.245957" in out


class TestCsvRoundTrip:
    def test_emitted_csv_reproduces_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "analyze", "--builtin", "titanic", "--bounds",
            "--bootstrap", "50", "--format", "csv", "--output", str(out_file),
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {r["measure"] for r in rows} >= {"pcc", "rcmi", "nace"}
        # re-render from parsed values and compare at printed precision
        for row in rows:
            assert row["value"] == fmt(float(row["value"]))
            if row["bound"]:
                assert float(row["value"]) <= float(row["bound"]) + 1e-9

    def test_report_rows_round_trip_exactly(self):
        report = MeasureReport(
            dataset="demo",
            entries=(
                MeasureEntry(measure="rmi", value=0.123456789, bound=0.5),
                MeasureEntry(measure="pmi", value=float("inf")),
            ),
        )
        text = to_csv([report])
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["value"] == "0.123457"
        assert parsed[1]["value"] == "inf"
        assert csv_rows(report)[0]["value"] == parsed[0]["value"]


class TestBoundsCommand:
    def test_titanic(self, capsys):
        code, out, _ = run(capsys, "bounds", "--builtin", "titanic", "--measures", "rmi,nace")
        assert code == 0
        assert "0.555334" in out and "1.000000" in out

    def test_rejects_unboundable(self, capsys):
        code, _, err = run(capsys, "bounds", "--builtin", "titanic", "--measures", "cmi")
        assert code == 2


class TestBootstrapCommand:
    def test_deterministic(self, capsys):
        args = ("bootstrap", "--builtin", "berkeley", "--measures", "rmi", "-B", "50")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fig5_has_no_records(self, capsys):
        code, _, err = run(capsys, "bootstrap", "--builtin", "fig5", "--measures", "rmi")
        assert code == 2
        assert "records" in err


class TestSweep:
    def test_simple_model_monotone_output(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "simple", "--set", "lam0=0.5",
            "--sweep", "lam1", "--points", "6", "--measures", "nace,rcmi",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        nace_vals = [float(r["value"]) for r in rows if r["measure"] == "nace"]
        assert nace_vals == sorted(nace_vals)
        assert nace_vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_lam1_zero_row(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "simple", "--set", "lam0=0.3",
            "--sweep", "lam1", "--points", "1", "--stop", "0", "--measures", "nace,cmi",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["value"]) == pytest.approx(0.0, abs=1e-12) for r in rows)

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "simple", "--set", "lam0=3",
            "--sweep", "lam1", "--points", "2",
        )
        assert code == 2


class TestReproduce:
    def test_byte_identical_with_fixed_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))  # no files: titanic falls back
        args = ("reproduce", "--bootstrap", "25")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_missing_adult_column_skipped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))
        code, out, _ = run(capsys, "reproduce", "--bootstrap", "0")
        assert "adult [skipped" in out
        assert "== titanic" in out and "== berkeley" in out
        assert "reproduce summary" in out
