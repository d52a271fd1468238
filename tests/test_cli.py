import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from directcorr.bounds import BOUND_MEASURES, CouplingIterator, candidate_family
from directcorr.cli import BACKDOOR_CAVEAT, main
from directcorr.datasets import dataset_from_csv, load_schema
from directcorr.engine import STACK_CELLS
from directcorr.errors import Undefined
from directcorr.models import DecisionParams, SimpleParams, decision_model_joint, simple_model_joint
from directcorr.registry import MEASURES, TABLE_MEASURES, evaluate
from directcorr.report import MeasureEntry, MeasureReport, csv_rows, fmt, human_table, to_csv, to_json
from directcorr.resampling import RNG_ID


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_dataset(tmp_path, cells, x_labels, z_labels, z_ordinal=True, y_labels=("no", "yes")) -> tuple[str, str]:
    """A CSV of (x, y, z, count) cells and its schema."""
    rows = ["gx,gy,gz"] + [f"{x},{y},{z}" for x, y, z, k in cells for _ in range(k)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "name": "gen",
        "csv": {"has_header": True},
        "roles": {
            "x": {"column": "gx", "categories": list(x_labels)},
            "y": {"column": "gy", "categories": list(y_labels)},
            "z": {"column": "gz", "categories": list(z_labels), "ordinal": z_ordinal},
        },
    }), encoding="utf-8")
    return str(data), str(schema)


# Z always equals X, so pc is undefined on the data and on every resample
Z_IS_X = tuple((x, y, x, k) for x, y, k in (("a", "no", 5), ("a", "yes", 3), ("b", "no", 2), ("b", "yes", 6)))
# X has one category, so no pair of interventions exists for the do-family contrasts
ONE_X = tuple(("a", y, z, k) for y, z, k in (("no", "p", 4), ("yes", "p", 2), ("no", "q", 1), ("yes", "q", 5)))
# X = a occurs once in 8 rows, so about a third of the resamples miss it and leave pcc undefined
RARE_X = (("a", "yes", "p", 1), ("b", "no", "p", 3), ("b", "yes", "q", 2), ("b", "no", "q", 2))
# A 3x3x3 count table with 10 empty (x,y,z) cells, on which each coupling scored
# on its own support falls below the observed rcmi, rpmi and ricmi values.
SPARSE_333 = [[[3, 3, 4], [5, 1, 1], [0, 5, 2]],
              [[0, 0, 0], [2, 5, 2], [0, 4, 3]],
              [[0, 0, 0], [0, 5, 3], [5, 2, 0]]]


def write_counts(tmp_path, counts) -> tuple[str, str]:
    """A CSV expanding a 3x3x3 count table into rows, and its schema: X in abc, Y in uvw, Z in pqr."""
    cells = [("abc"[x], "uvw"[y], "pqr"[z], k) for (x, y, z), k in np.ndenumerate(np.array(counts))]
    return write_dataset(tmp_path, cells, "abc", "pqr", y_labels="uvw")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--csv", "any.csv"),
        ("analyze", "--builtin", "titanic", "--schema", "titanic"),
        ("analyze", "--builtin", "berkeley", "--measures", ","),
        ("bounds", "--builtin", "berkeley", "--measures", ","),
        ("analyze", "--measures", "rmi"),
        ("sweep", "--model", "simple", "--set", "lam0", "--sweep", "lam1"),
        ("sweep", "--model", "simple", "--set", "lam9=0.5", "--sweep", "lam1"),
        ("sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--points", "0"),
        ("sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--points", "-1"),
        ("analyze", "--builtin", "titanic", "--output", "out.csv"),
        ("analyze", "--builtin", "titanic", "--format", "csv"),
        ("sweep", "--model", "simple", "--set", "lam0=0.5", "--set", "lam1=0.2", "--sweep", "lam1"),
        ("bootstrap", "--builtin", "titanic", "-B", "0"),
        ("bootstrap", "--builtin", "titanic", "-B", "1"),
        ("analyze", "--builtin", "berkeley", "--measures", ""),
        ("analyze", "--builtin", "berkeley", "--measures", "rmi,rcmi,rmi"),
        ("bounds", "--builtin", "berkeley", "--measures", "rmi,rmi"),
        ("bootstrap", "--builtin", "berkeley", "--measures", "nace, nace", "-B", "20"),
        ("sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--measures", "rmi,rmi"),
        # the back-door caveat is not printed before the error of a do-family run
        ("analyze", "--builtin", "titanic", "--bootstrap", "1"),
        ("analyze", "--builtin", "fig5", "--bootstrap", "10"),
    ],
    ids=["csv-without-schema", "schema-without-csv", "analyze-no-measures", "bounds-no-measures", "no-dataset",
         "set-without-value", "set-unknown-parameter", "zero-points", "negative-points",
         "output-without-format", "format-without-output", "set-and-sweep-same-parameter",
         "bootstrap-zero-resamples", "bootstrap-one-resample", "analyze-empty-measures", "analyze-repeated-id",
         "bounds-repeated-id", "bootstrap-repeated-id", "sweep-repeated-id", "analyze-one-resample",
         "analyze-fig5-bootstrap"],
)
def test_usage_error_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--seed", "5"), None),
        (("sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--cap", "3"), None),
        (("bounds", "--builtin", "titanic", "--seed", "5"), None),
        (("bootstrap", "--builtin", "titanic", "--cap", "3"), None),
        (("analyze", "--builtin", "titanic", "--strategy", "z"), "argument --strategy: invalid choice: 'z'"),
        # one dataset source per call, not the built-in resolved and the CSV ignored
        (("bounds", "--builtin", "titanic", "--csv", "x.csv", "--schema", "titanic"),
         "argument --csv: not allowed with argument --builtin"),
        # numpy's RNG streams take no negative seed
        (("bootstrap", "--builtin", "titanic", "--seed", "-1"), "argument --seed: must be a non-negative integer, got -1"),
    ],
    ids=["sweep-seed", "sweep-cap", "bounds-seed", "bootstrap-cap", "invalid-strategy", "builtin-and-csv",
         "negative-seed"],
)
def test_flag_the_command_does_not_read_rejected(capsys, argv, message):
    """Argparse's own errors are one ``error:`` line too, with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (message or "unrecognized arguments: " + " ".join(argv[-2:])) in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda s: s["roles"]["x"].update(bin="nope"), "schema role 'x' has unknown key 'bin'"),
        (lambda s: s["roles"]["z"].update(mapp={"P": "p"}), "schema role 'z' has unknown key 'mapp'"),
        (lambda s: s.update(extra=1), "schema has unknown key 'extra'"),
        (lambda s: s["csv"].update(header=True), "schema 'csv' has unknown key 'header'"),
        (lambda s: s["roles"]["y"].pop("categories"), "schema role 'y' is missing 'categories'"),
        (lambda s: s["roles"]["x"].pop("column"), "schema role 'x' is missing 'column'"),
        (lambda s: s.pop("name"), "schema is missing 'name'"),
        (lambda s: s.pop("roles"), "schema is missing 'roles'"),
        (lambda s: s["roles"].pop("z"), "schema 'roles' is missing 'z'"),
        (lambda s: s["roles"]["z"].update(map={"p": "p", "q": "Q"}), "map targets ['Q'] are not among"),
        (lambda s: s["csv"].update(delimiter=";;"), "delimiter must be a 1-character string, got ';;'"),
        (lambda s: s["roles"]["z"].update(map=["p"]), "schema role 'z': 'map' must be a JSON object"),
        (lambda s: s["roles"]["z"]["categories"].append(["r"]), "schema role 'z': 'categories' must be a list"),
        (lambda s: s["roles"]["z"].update(encoding=[1]), "encoding for ('p', 'q') must be 2 finite values"),
        (lambda s: s["roles"]["z"].update(encoding=1), "schema role 'z': 'encoding' must be a list"),
        (lambda s: s["roles"]["x"].update(column=True), "schema role 'x': 'column' must be a name or an index >= 0"),
        (lambda s: s["roles"]["x"].update(column=-1), "schema role 'x': 'column' must be a name or an index >= 0"),
        (lambda s: s["roles"]["x"].update(column=1.5), "schema role 'x': 'column' must be a name or an index >= 0"),
        (lambda s: s["roles"]["z"].update(ordinal="no"), "schema role 'z': 'ordinal' must be true or false"),
        (lambda s: s["csv"].update(has_header="false"), "schema 'csv': 'has_header' must be true or false"),
        (lambda s: s["csv"].update(strip="false"), "schema 'csv': 'strip' must be true or false"),
        (lambda s: s.update(name=5), "schema 'name' must be a string, got 5"),
        (lambda s: s["roles"]["z"].update(encoding=[True, False]), "schema role 'z': 'encoding' must be a list"),
        (lambda s: s["roles"]["z"]["categories"].insert(0, None), "schema role 'z': 'categories' must be a list"),
        (lambda s: s["roles"]["z"].update(categories=[1, 2]),
         "schema role 'z': 'categories' must be strings unless a 'map' leads to them"),
    ],
    ids=["bin", "misspelt-map", "top-level-key", "csv-key", "no-categories", "no-column", "no-name",
         "no-roles", "no-role", "undeclared-map-target", "long-delimiter", "list-map", "list-category",
         "short-encoding", "scalar-encoding", "boolean-column", "negative-column", "fractional-column",
         "string-ordinal", "string-has-header", "string-strip", "numeric-name", "boolean-encoding",
         "null-category", "numeric-categories-without-map"],
)
def test_malformed_schema_exit_2(capsys, tmp_path, edit, message):
    """A malformed schema fails at load with one ``error:`` line, not a traceback or a silent skip."""
    data, schema = write_dataset(tmp_path, ONE_X, ("a",), ("p", "q"))
    obj = json.loads(Path(schema).read_text(encoding="utf-8"))
    edit(obj)
    Path(schema).write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--csv", data, "--schema", schema, "--measures", "rmi")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


class TestAnalyze:
    @pytest.mark.parametrize("name, n_reported", [("titanic", 11), ("berkeley", 10)])
    def test_one_evaluate_per_reported_value(self, capsys, monkeypatch, name, n_reported):
        # the bootstrap reports the point values analyze computed; it evaluates only the resamples
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr("directcorr.cli.evaluate", counted)
        monkeypatch.setattr("directcorr.resampling.evaluate", counted)
        code, out, err = run(capsys, "analyze", "--builtin", name, "--bounds", "--bootstrap", "50")
        assert code == 0, err
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.split()[0] == "measure") + 1
        reported = [line.split()[0] for line in lines[start:]]
        assert len(calls) == len(reported) == n_reported
        assert sorted(calls) == sorted(reported)

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

    @pytest.mark.parametrize("content, message", [
        (None, "Is a directory"),
        (b"Pclass,Survived,Sex\n1,0,male\n2,1,f\xe9male\n", "data.csv, line 3: byte 0xe9 is not UTF-8"),
        (b"Pclass,Survived,Sex\n1,0,male\n3,0," + b"m" * 140_000 + b"\n",
         "data.csv, line 3: field larger than field limit (131072)"),
    ], ids=["directory", "not-utf8", "long-field"])
    def test_unreadable_csv_exit_1(self, capsys, tmp_path, content, message):
        """A CSV that cannot be read is one ``data error:`` line naming it, and exit 1."""
        path = tmp_path / "data.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run(capsys, "analyze", "--csv", str(path), "--schema", "titanic")
        assert (code, out) == (1, "")
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert message in err

    def test_schema_not_utf8_exit_1(self, capsys, tmp_path):
        """A schema that is not UTF-8 is a ``data error:`` naming the schema file and line, and exit 1."""
        schema = tmp_path / "schema.json"
        schema.write_bytes(b'{"name": "g\xe9n"}\n')
        code, out, err = run(capsys, "analyze", "--csv", str(tmp_path / "data.csv"), "--schema", str(schema))
        assert (code, out) == (1, "")
        assert err == f"data error: schema {schema}, line 1: byte 0xe9 is not UTF-8\n"

    def test_csv_directory_names_the_csv(self, capsys, tmp_path):
        path = tmp_path / "csv_dir"
        path.mkdir()
        code, out, err = run(capsys, "analyze", "--csv", str(path), "--schema", "titanic")
        assert (code, out, err) == (1, "", f"data error: csv {path}: Is a directory\n")

    def test_pc_omitted_for_berkeley(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "berkeley", "--measures", "pcc,pc")
        assert code == 0
        assert "pc omitted" in out

    def test_bootstrap_skips_omitted_pc(self, capsys, tmp_path):
        # Z is nominal, so the report omits pc, and it is not resampled either
        data, schema = write_dataset(tmp_path, Z_IS_X, "ab", "ab", z_ordinal=False)
        code, out, err = run(capsys, "analyze", "--csv", data, "--schema", schema,
                             "--measures", "pc,rmi", "--bootstrap", "50")
        assert code == 0, err
        assert "pc omitted" in out

    @pytest.mark.parametrize("cells, measures, flags, reason", [
        (Z_IS_X, "pc,rmi", ("--bootstrap", "50"), "a conditioning correlation has magnitude 1; PC undefined"),
        (ONE_X, "nace,rmi", ("--bootstrap", "20"), "X has a single category; no pair of interventions to contrast"),
        (ONE_X, "nace,rmi", ("--bounds",), "X has a single category; no pair of interventions to contrast"),
        (ONE_X, "nace,rmi", ("--bounds", "--bootstrap", "20"),
         "X has a single category; no pair of interventions to contrast"),
    ], ids=["pc-bootstrap", "nace-bootstrap", "nace-bounds", "nace-both"])
    def test_undefined_value_not_resampled_or_bounded(self, capsys, tmp_path, cells, measures, flags, reason):
        data, schema = write_dataset(tmp_path, cells, sorted({c[0] for c in cells}), sorted({c[2] for c in cells}))
        code, out, err = run(capsys, "analyze", "--csv", data, "--schema", schema, "--measures", measures, *flags)
        assert code == 0, err
        undefined, other = measures.split(",")
        assert out.splitlines()[4].split(None, 2) == [undefined, "---", reason]  # no CI, no bound
        _, alone, _ = run(capsys, "analyze", "--csv", data, "--schema", schema, "--measures", other, *flags)
        assert out.splitlines()[5] == alone.splitlines()[4]

    def test_too_many_excluded_resamples_leave_ci_empty(self, capsys, tmp_path):
        data, schema = write_dataset(tmp_path, RARE_X, "ab", "pq")
        args = ("analyze", "--csv", data, "--schema", schema, "--bootstrap", "100")
        code, out, err = run(capsys, *args, "--measures", "pcc,rmi,nace")
        assert code == 0, err
        assert out.splitlines()[4].split(None, 2) == ["pcc", "-0.487950", "excluded=32 (> 5% of 100 resamples; no CI)"]
        _, others, _ = run(capsys, *args, "--measures", "rmi,nace")
        assert out.splitlines()[5:] == others.splitlines()[4:]
        out_file = tmp_path / "report.csv"
        code, _, _ = run(capsys, *args, "--measures", "pcc,rmi", "--format", "csv", "--output", str(out_file))
        rows = list(csv.DictReader(io.StringIO(out_file.read_text(encoding="utf-8"))))
        assert code == 0 and [(r["ci_low"], r["ci_high"]) for r in rows] == [("", ""), ("0.000000", "0.490554")]

    def test_bounds_flag(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--builtin", "titanic", "--measures", "rcmi", "--bounds"
        )
        assert code == 0
        assert "0.245957" in out

    @pytest.mark.parametrize("source", ["fig5", "sparse_333"])
    def test_every_value_within_its_bound(self, capsys, tmp_path, source):
        # Both tables have empty (x,y,z) cells; the observed joint enters each bound at its reported value.
        if source == "fig5":
            argv = ("--builtin", "fig5")
        else:
            data, schema = write_counts(tmp_path, SPARSE_333)
            argv = ("--csv", data, "--schema", schema)
        out_file = tmp_path / "report.csv"
        code, _, err = run(capsys, "analyze", *argv, "--bounds", "--format", "csv", "--output", str(out_file))
        assert code == 0, err
        rows = {r["measure"]: r for r in csv.DictReader(io.StringIO(out_file.read_text(encoding="utf-8")))}
        bounded = {m: (float(r["value"]), float(r["bound"])) for m, r in rows.items() if r["bound"]}
        assert sorted(bounded) == sorted(BOUND_MEASURES)
        assert all(value <= bound for value, bound in bounded.values()), bounded
        if source == "fig5":
            assert rows["rpmi"]["bound"] == rows["rpmi"]["value"] == "0.513351"

    def test_undefined_value_printed_as_dashes(self, capsys):
        # on fig5 a conditioning correlation is 1, so pc has no value
        code, out, err = run(capsys, "analyze", "--builtin", "fig5", "--measures", "all")
        assert code == 0, err
        rows = {line.split()[0]: line for line in out.splitlines()[4:]}
        assert sorted(rows) == sorted(TABLE_MEASURES)
        assert rows["pc"].split(None, 2)[1:] == [
            "---", "a conditioning correlation has magnitude 1; PC undefined"
        ]
        assert "---" not in rows["rcmi"]


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

    def test_undefined_value_is_an_empty_field(self):
        report = MeasureReport(dataset="demo", entries=(MeasureEntry(measure="pc", value=None, note="why"),))
        assert "---" in human_table(report)
        assert list(csv.DictReader(io.StringIO(to_csv([report]))))[0]["value"] == ""
        assert json.loads(to_json([report]))[0]["entries"][0]["value"] == ""


class TestBoundsCommand:
    def test_titanic(self, capsys):
        code, out, _ = run(capsys, "bounds", "--builtin", "titanic", "--measures", "rmi,nace")
        assert code == 0
        assert "0.555334" in out and "1.000000" in out

    def test_observed_joint_attains_its_reported_value(self, capsys, tmp_path):
        # On a sparse table a bound attained by the observed joint prints the value analyze reports.
        data, schema = write_counts(tmp_path, SPARSE_333)
        joint = dataset_from_csv(data, load_schema(schema))[0].joint
        code, out, err = run(capsys, "bounds", "--csv", data, "--schema", schema)
        assert code == 0, err
        lines = {line.split()[1]: line.split() for line in out.splitlines()[1:]}
        assert sorted(lines) == sorted(BOUND_MEASURES)
        observed = [m for m, words in lines.items() if words[-2:] == ["observed", "joint"]]
        assert {"rcmi", "rpmi", "ricmi_two"} <= set(observed)
        for m, words in lines.items():
            value = evaluate(joint, m)
            assert float(words[2]) >= round(value, 6), m
            if m in observed:
                assert words[2] == fmt(value), m

    def test_rejects_unboundable(self, capsys):
        code, _, err = run(capsys, "bounds", "--builtin", "titanic", "--measures", "cmi")
        assert code == 2

    def test_undefined_measure_printed_with_reason(self, capsys, tmp_path):
        # X has one category: nace and race have no value, and the other measures are bounded as without them
        data, schema = write_dataset(tmp_path, ONE_X, "a", "pq")
        reason = "X has a single category; no pair of interventions to contrast"
        undefined = [f"  bound {m:<10} ---  {reason}" for m in ("nace", "race")]
        code, out, err = run(capsys, "bounds", "--csv", data, "--schema", schema)
        assert code == 0, err
        lines = out.splitlines()
        assert [line for line in lines if "---" in line] == undefined
        others = ",".join(m for m in BOUND_MEASURES if m not in ("nace", "race"))
        _, alone, _ = run(capsys, "bounds", "--csv", data, "--schema", schema, "--measures", others)
        assert [line for line in lines if "---" not in line] == alone.splitlines()
        code, out, err = run(capsys, "bounds", "--csv", data, "--schema", schema, "--measures", "nace,race")
        assert code == 0, err
        assert out.splitlines() == [lines[0], *undefined]

    @pytest.mark.parametrize(
        "argv",
        [("bounds",), ("bounds", "--measures", "rcmi"), ("bounds", "--measures", "rmi"),
         ("analyze", "--bounds", "--measures", "rcmi")],
        ids=["bounds", "bounds-rcmi", "bounds-rmi", "analyze-rcmi"],
    )
    def test_family_past_int64_is_refused_whatever_the_cap(self, capsys, tmp_path, argv):
        # Every (x,z) cell of an 8x2x8 table occupied: 2^64 couplings, more than int64 indices can number.
        xs, zs = "abcdefgh", "pqrstuvw"
        cells = [(x, ("no", "yes")[(i + k) % 2], z, 1 + (i * 8 + k) % 3)
                 for i, x in enumerate(xs) for k, z in enumerate(zs)]
        data, schema = write_dataset(tmp_path, cells, xs, zs)
        code, out, err = run(capsys, argv[0], "--csv", data, "--schema", schema, "--cap", str(10**24), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "18446744073709551616 couplings" in err


class TestBootstrapCommand:
    def test_deterministic(self, capsys):
        args = ("bootstrap", "--builtin", "berkeley", "--measures", "rmi", "-B", "50")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_omits_pc_like_analyze(self, capsys):
        code, out, _ = run(capsys, "bootstrap", "--builtin", "berkeley", "--measures", "pc,rmi", "-B", "50")
        assert code == 0
        _, rmi_only, _ = run(capsys, "bootstrap", "--builtin", "berkeley", "--measures", "rmi", "-B", "50")
        lines = out.splitlines()
        assert lines[1] == "  pc         omitted: a variable has no ordinal interpretation"
        assert [lines[0], lines[2]] == rmi_only.splitlines()

    def test_undefined_value_printed_with_reason(self, capsys, tmp_path):
        data, schema = write_dataset(tmp_path, Z_IS_X, "ab", "ab")
        code, out, err = run(capsys, "bootstrap", "--csv", data, "--schema", schema, "--measures", "pc", "-B", "50")
        assert code == 0, err
        assert out.splitlines() == [
            f"dataset: gen (B=50, seed=20260419, rng={RNG_ID})",
            "  pc         ---  a conditioning correlation has magnitude 1; PC undefined",
        ]

    def test_too_many_excluded_resamples_leave_ci_empty(self, capsys, tmp_path):
        data, schema = write_dataset(tmp_path, RARE_X, "ab", "pq")
        code, out, err = run(capsys, "bootstrap", "--csv", data, "--schema", schema, "--measures", "pcc,rmi", "-B", "100")
        assert code == 0, err
        assert out.splitlines()[1:] == [
            "  pcc        -0.487950  ci=--- excluded=32 (> 5% of 100 resamples; no CI)",
            "  rmi        0.240940  ci=[0.000000, 0.490554]",
        ]

    def test_backdoor_caveat_once_on_success(self, capsys):
        code, _, err = run(capsys, "bootstrap", "--builtin", "titanic", "--measures", "nace,rmi", "-B", "50")
        assert code == 0
        assert err == BACKDOOR_CAVEAT + "\n"
        code, _, err = run(capsys, "bootstrap", "--builtin", "titanic", "--measures", "rmi", "-B", "50")
        assert code == 0
        assert err == ""

    def test_fig5_has_no_records(self, capsys):
        code, _, err = run(capsys, "bootstrap", "--builtin", "fig5", "--measures", "rmi")
        assert code == 2
        assert "records" in err


class TestNoMaskedArrays:
    """``np.unique`` and ``np.isin`` import ``numpy.ma`` (numpy 2.4), a cost every call would pay."""

    PROBE = "import sys; from directcorr.cli import main; main(sys.argv[1:]); print('numpy.ma' in sys.modules)"

    def probe(self, *argv) -> str:
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        done = subprocess.run([sys.executable, "-c", self.PROBE, *argv], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_berkeley_analyze_bounds(self):
        assert self.probe("analyze", "--builtin", "berkeley", "--bounds") == "False"

    def test_searched_4x2x4_bounds(self, tmp_path):
        rng = np.random.default_rng(13)
        cells = [(x, y, z, int(k)) for (x, y, z), k in
                 zip(itertools.product("abcd", ("no", "yes"), "pqrs"), rng.integers(1, 40, size=32))]
        data, schema = write_dataset(tmp_path, cells, "abcd", "pqrs")
        joint = dataset_from_csv(data, load_schema(schema))[0].joint
        assert candidate_family("rpmi", CouplingIterator(joint), "b") == "search"
        assert self.probe("bounds", "--csv", data, "--schema", schema) == "False"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["fails-in-main", "fails-in-final-flush"])
def test_stdout_whose_reader_has_gone_exits_1_quietly(unbuffered):
    # unbuffered, print fails inside the command; block-buffered, the entry's final flush fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PYTHONUNBUFFERED": unbuffered}
    try:
        done = subprocess.run([sys.executable, "-m", "directcorr.cli", "bounds", "--builtin", "titanic"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


# Starts ``python -m directcorr.cli ARGV`` from a small interpreter and prints its peak RSS in KB: a child's
# ru_maxrss includes the peak of the process it was forked from, and the test process is large.
PEAK_RSS = ("import os, subprocess, sys; "
            "p = subprocess.Popen([sys.executable, '-m', 'directcorr.cli', *sys.argv[1:]], stdout=subprocess.DEVNULL); "
            "_, status, ru = os.wait4(p.pid, 0); print(os.waitstatus_to_exitcode(status), ru.ru_maxrss)")


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

    def test_undefined_cell_left_empty(self, capsys):
        # pc is undefined at lam1 = 0 (a conditioning correlation is 1)
        code, out, err = run(
            capsys, "sweep", "--model", "simple", "--set", "lam0=0.5",
            "--sweep", "lam1", "--points", "5", "--measures", "rcmi,pc",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11  # header and 5 points x 2 measures
        assert "lam1,0.000000,pc," in lines
        assert all(r["value"] for r in csv.DictReader(io.StringIO(out)) if r["measure"] == "rcmi")
        assert err.count("note: pc undefined at 1 of 5 points") == 1

    def test_lam1_zero_row(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "simple", "--set", "lam0=0.3",
            "--sweep", "lam1", "--points", "1", "--stop", "0", "--measures", "nace,cmi",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["value"]) == pytest.approx(0.0, abs=1e-12) for r in rows)

    @pytest.mark.parametrize("sets, message", [
        # the first value is not dropped for the last one
        (("lam0=0.5", "lam0=0.2"), "--set lam0 given twice"),
        (("lam0=abc",), "--set lam0 expects a number, got 'abc'"),
    ], ids=["set-twice", "set-not-a-number"])
    def test_bad_set_names_the_parameter(self, capsys, sets, message):
        argv = [arg for item in sets for arg in ("--set", item)]
        code, out, err = run(capsys, "sweep", "--model", "simple", *argv, "--sweep", "lam1", "--points", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("strategy", "abc")
    @pytest.mark.parametrize("model, fixed, sweep", [
        ("simple", {"lam0": 0.5}, "lam1"),
        ("simple", {"lam1": 0.7}, "lam0"),
        ("decision", {"q0": 0.2, "q1": 0.5, "q2": -0.3, "q4": 0.1}, "q3"),
        # pc and pcc are undefined at every point
        ("decision", {"q0": 1, "q1": 1, "q2": 1, "q4": 1}, "q3"),
        # pc is undefined at an earlier point than pcc, which comes first in the ids
        ("decision", {"q0": 0, "q2": -1, "q3": 1, "q4": -1}, "q1"),
        # pc is undefined for two different reasons
        ("decision", {"q1": -1, "q2": -1, "q3": 0.5, "q4": 0}, "q0"),
    ])
    def test_equals_one_evaluate_per_cell(self, capsys, tmp_path, monkeypatch, model, fixed, sweep, strategy):
        params_type, joint_of = {
            "simple": (SimpleParams, simple_model_joint),
            "decision": (DecisionParams, decision_model_joint),
        }[model]
        start = 0.0 if sweep == "lam1" else -1.0
        grid = np.linspace(start, 1.0, 9)
        lines = ["param,param_value,measure,value"]
        undefined: dict[str, list[str]] = {}
        for v in grid:
            joint = joint_of(params_type(**fixed, **{sweep: float(v)}))
            for m in MEASURES:
                try:
                    cell = fmt(evaluate(joint, m, strategy))
                except Undefined as exc:
                    cell = ""
                    undefined.setdefault(m, []).append(str(exc))
                lines.append(f"{sweep},{v:.6f},{m},{cell}")
        notes = "".join(
            f"note: {m} undefined at {len(why)} of {len(grid)} points, left empty ({' / '.join(dict.fromkeys(why))})\n"
            for m, why in undefined.items()
        )
        argv = ["sweep", "--model", model, "--sweep", sweep, "--start", str(start), "--points", str(len(grid)),
                "--strategy", strategy, "--measures", ",".join(MEASURES)]
        for k, v in fixed.items():
            argv += ["--set", f"{k}={v}"]
        expected = "\n".join(lines) + "\n"
        for cells in (STACK_CELLS, 1, 16, 24):  # the grid as one stack, then stacks of one, two and three points
            monkeypatch.setattr("directcorr.cli.STACK_CELLS", cells)
            assert run(capsys, *argv) == (0, expected, notes)
            written = tmp_path / f"{cells}.csv"
            assert run(capsys, *argv, "--output", str(written)) == (0, f"wrote {written}\n", notes)
            assert written.read_bytes() == expected.encode()

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
    def test_grid_leaving_its_range_writes_no_row(self, capsys, tmp_path, output):
        # lam1 leaves [0, 1] at the fourth of five points
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--start", "0.5",
                "--stop", "1.5", "--points", "5", *(["--output", str(out)] if output else [])]
        assert run(capsys, *argv) == (2, "", "error: lam1 must be in [0.0, 1.0], got 1.25\n")
        assert not out.exists()

    def test_long_grid_holds_one_stack(self, tmp_path):
        # memory does not grow with the grid: 50,000 points peak within 3 MB of 201
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        peaks = {}
        for points in (201, 50_000):
            argv = ["sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1", "--points", str(points),
                    "--measures", "rmi,ricmi_two,nace", "--output", str(tmp_path / f"{points}.csv")]
            done = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True, text=True, env=env)
            code, peaks[points] = map(int, done.stdout.split())
            assert code == 0, done.stderr
        assert len((tmp_path / "50000.csv").read_text(encoding="utf-8").splitlines()) == 1 + 50_000 * 3
        assert peaks[50_000] - peaks[201] <= 3 * 1024, peaks

    def test_note_order_and_reasons(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "decision", "--set", "q0=0", "--set", "q2=-1", "--set", "q3=1",
            "--set", "q4=-1", "--sweep", "q1", "--start", "-1", "--points", "5", "--measures", "pcc,pc",
        )
        assert code == 0
        assert [line.split(" undefined")[0] for line in err.splitlines()] == ["note: pc", "note: pcc"]
        assert err.splitlines()[0].count(" / ") == 1

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "simple", "--set", "lam0=3",
            "--sweep", "lam1", "--points", "2",
        )
        assert code == 2

    def test_builds_each_points_joint_once(self, capsys, monkeypatch):
        built = []

        def counted(params):
            built.append(params.lam1)
            return simple_model_joint(params)

        monkeypatch.setattr("directcorr.cli.simple_model_joint", counted)
        code, _, _ = run(capsys, "sweep", "--model", "simple", "--set", "lam0=0.5", "--sweep", "lam1",
                         "--points", "201", "--measures", "rmi")
        assert code == 0
        assert built == np.linspace(0.0, 1.0, 201).tolist()


class TestReproduce:
    def test_byte_identical_with_fixed_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))  # no files: titanic falls back
        args = ("reproduce", "--bootstrap", "25")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_default_run_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))
        code, out, err = run(capsys, "reproduce")
        assert code == 2
        assert out.splitlines()[-1] == "reproduce summary: 18 cells ok, 4 failed, 11 skipped"
        failed, dataset = [], None
        for line in out.splitlines():
            if line.startswith("== "):
                dataset = line.split()[1]
            elif "FAIL" in line:
                failed.append((dataset, line.split()[0]))
        assert failed == [("titanic", "rpmi"), ("titanic", "ricmi_yx"), ("berkeley", "rpmi"), ("berkeley", "ricmi_yx")]
        assert err.count("back-door") == 1

    def test_undefined_value_fails_without_abort(self, capsys, tmp_path, monkeypatch):
        # every passenger travels first class, so Pclass is constant and pcc, pc have no value
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))
        cells = ((0, "male", 30), (1, "male", 10), (0, "female", 5), (1, "female", 25))
        people = [(s, g) for s, g, k in cells for _ in range(k)]
        rows = ["PassengerId,Survived,Pclass,Sex,Age"] + [f"{i},{s},1,{g},30" for i, (s, g) in enumerate(people)]
        titanic = tmp_path / "one_class.csv"
        titanic.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "reproduce", "--titanic", str(titanic), "--bootstrap", "0")
        assert code == 2, err
        lines = out.splitlines()
        assert lines[1:3] == ["  pcc        value --- vs -0.339 FAIL", "  pc         value --- vs -0.321 FAIL"]
        assert "== berkeley [embedded counts]" in lines

    def test_ci_left_empty_fails_its_check(self, capsys, tmp_path, monkeypatch):
        # one passenger in second class: about a third of the resamples miss
        # that class, so pcc and pc get no CI, and the run goes on
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))
        cells = ((0, 2, "male", 1), (0, 1, "male", 11), (1, 1, "male", 8), (0, 1, "female", 5), (1, 1, "female", 14))
        people = [(s, c, g) for s, c, g, k in cells for _ in range(k)]
        rows = ["PassengerId,Survived,Pclass,Sex,Age"] + [f"{i},{s},{c},{g},30" for i, (s, c, g) in enumerate(people)]
        titanic = tmp_path / "one_second_class.csv"
        titanic.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "reproduce", "--titanic", str(titanic), "--bootstrap", "100")
        assert code == 2, err
        lines = out.splitlines()
        assert lines[1].endswith("; ci --- vs [-0.4, -0.28] FAIL")
        assert lines[2].endswith("; ci --- vs [-0.38, -0.26] FAIL")
        assert "== berkeley [embedded counts]" in lines

    def test_no_caveat_before_an_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))
        code, _, err = run(capsys, "reproduce", "--bootstrap", "1")
        assert code == 2
        assert err == "error: need at least 2 bootstrap resamples\n"

    def test_missing_adult_column_skipped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRECTCORR_DATA", str(tmp_path))
        code, out, _ = run(capsys, "reproduce", "--bootstrap", "0")
        assert "adult [skipped" in out
        assert "== titanic" in out and "== berkeley" in out
        assert "reproduce summary" in out
