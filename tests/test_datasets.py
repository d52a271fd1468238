import csv
import re
from importlib import resources

import numpy as np
import pytest

from directcorr.datasets import (
    TITANIC_ALPHABETS,
    ColumnSpec,
    DatasetSchema,
    berkeley_counts,
    dataset_from_builtin,
    load_csv_report,
    load_schema,
    titanic_counts,
)
from directcorr.errors import DataError, EmptyAfterFiltering, MissingColumn, UnknownCategory
from directcorr.prob import Alphabet
from conftest import data_file


class TestBerkeleyBuiltin:
    def test_totals(self):
        counts = berkeley_counts()
        assert counts.sum() == 4526
        assert counts[:, 1, :].sum() == 1755

    def test_admit_rates_by_sex(self):
        counts = berkeley_counts()
        male = counts[1].sum()
        female = counts[0].sum()
        assert male == 2691 and female == 1835
        assert counts[1, 1, :].sum() / male == pytest.approx(0.445, abs=5e-4)
        assert counts[0, 1, :].sum() / female == pytest.approx(0.304, abs=5e-4)

    def test_department_cells(self):
        counts = berkeley_counts()
        # dept A male: 512 admitted of 825; dept F male rate 5.9%
        assert counts[1, 1, 0] == 512
        assert counts[1, :, 0].sum() == 825
        assert counts[0, 1, 0] == 89 and counts[0, :, 0].sum() == 108
        assert counts[1, 1, 5] == 22 and counts[1, :, 5].sum() == 373
        assert counts[1, 1, 5] / counts[1, :, 5].sum() == pytest.approx(0.059, abs=5e-4)

    def test_joint_cell(self):
        j = dataset_from_builtin("berkeley").joint
        xi = j.alphabets[0].index("male")
        yi = j.alphabets[1].index("admitted")
        assert j.probs[xi, yi, 0] == pytest.approx(512 / 4526, abs=1e-15)

    def test_observations_match_counts(self):
        obs = dataset_from_builtin("berkeley").observations
        assert obs.n == 4526
        assert np.array_equal(obs.counts(), berkeley_counts())


class TestTitanicBuiltin:
    def test_totals(self):
        counts = titanic_counts()
        assert counts.sum() == 891
        assert counts[:, 1, :].sum() == 342

    def test_survival_marginal(self):
        j = dataset_from_builtin("titanic").joint
        assert j.probs.sum(axis=(0, 2))[1] == pytest.approx(342 / 891, abs=1e-15)

    def test_all_cells_nonzero(self):
        assert np.all(titanic_counts() > 0)

    def test_stratified_cells(self):
        counts = titanic_counts()
        f = TITANIC_ALPHABETS[2].index("female")
        m = TITANIC_ALPHABETS[2].index("male")
        assert counts[0, 1, f] == 91 and counts[0, :, f].sum() == 94
        assert counts[0, 1, m] == 45 and counts[0, :, m].sum() == 122
        assert counts[2, 1, m] == 47 and counts[2, :, m].sum() == 347

    def test_observations(self):
        obs = dataset_from_builtin("titanic").observations
        assert obs.n == 891
        assert np.array_equal(obs.counts(), titanic_counts())


class TestAdultEducationBin:
    @pytest.mark.parametrize(
        "label,group",
        [
            ("Preschool", 0), ("7th-8th", 0), ("12th", 0),
            ("HS-grad", 1), ("Some-college", 1),
            ("Assoc-voc", 2), ("Assoc-acdm", 2), ("Bachelors", 2),
            ("Masters", 3), ("Prof-school", 3), ("Doctorate", 3),
        ],
    )
    def test_group_mapping(self, label, group):
        x = load_schema("adult").x
        assert x.categories[x.lookup()[label]] == group

    def test_unknown_category(self):
        assert "Kindergarten" not in load_schema("adult").x.lookup()


def synthesize_titanic_csv(path):
    """A CSV with the real header whose rows expand the embedded counts."""
    counts = titanic_counts()
    header = "PassengerId,Survived,Pclass,Name,Sex,Age,SibSp,Parch,Ticket,Fare,Cabin,Embarked"
    rows = [header]
    pid = 0
    for xi, pclass in enumerate(TITANIC_ALPHABETS[0].labels):
        for yi, survived in enumerate(TITANIC_ALPHABETS[1].labels):
            for zi, sex in enumerate(TITANIC_ALPHABETS[2].labels):
                for _ in range(int(counts[xi, yi, zi])):
                    pid += 1
                    rows.append(f'{pid},{survived},{pclass},"Doe, J.",{sex},30,0,0,T{pid},7.25,,S')
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


ADULT_SAMPLE = """\
39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K
38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, Not-in-family, White, Male, 0, 0, 40, United-States, >50K
28, Private, 338409, Doctorate, 16, Married-civ-spouse, Prof-specialty, Wife, Black, Female, 0, 0, 40, Cuba, >50K
37, Private, 284582, 11th, 7, Married-civ-spouse, Exec-managerial, Wife, White, Female, 0, 0, 40, United-States, <=50K
"""


class TestLoadCsv:
    def test_synthesized_titanic_roundtrip(self, tmp_path):
        csv_path = synthesize_titanic_csv(tmp_path / "titanic.csv")
        schema = load_schema("titanic")
        report = load_csv_report(csv_path, schema)
        assert report.n_rows == 891
        assert report.n_skipped == 0
        assert np.array_equal(report.table.counts(), titanic_counts())
        assert np.allclose(report.table.joint().probs, dataset_from_builtin("titanic").joint.probs, atol=1e-15)

    def test_byte_order_mark_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM, here right before
        # the header's first name; the same rows load to the same counts
        rows = "Pclass,Survived,Sex\n3,0,male\n1,1,female\n2,1,female\n3,0,male\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_text(rows, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        schema = load_schema("titanic")
        marked_counts = load_csv_report(marked, schema).table.counts()
        assert np.array_equal(marked_counts, load_csv_report(plain, schema).table.counts())
        assert load_csv_report(plain, schema).table.n == 4

    def test_deterministic(self, tmp_path):
        csv_path = synthesize_titanic_csv(tmp_path / "titanic.csv")
        schema = load_schema("titanic")
        a = load_csv_report(csv_path, schema).table
        b = load_csv_report(csv_path, schema).table
        assert np.array_equal(a.counts(), b.counts())

    def test_adult_raw_format(self, tmp_path):
        path = tmp_path / "adult.data"
        path.write_text(ADULT_SAMPLE, encoding="utf-8")
        schema = load_schema("adult")
        table = load_csv_report(path, schema).table
        assert table.n == 5
        counts = table.counts()
        x, y, z = table.alphabets
        # education groups: Bachelors->2 (x2), HS-grad->1, Doctorate->3, 11th->0
        assert [counts[x.index(g)].sum() for g in (0, 1, 2, 3)] == [1, 1, 2, 1]
        assert counts[:, y.index(">50K"), :].sum() == 2
        assert counts[:, :, z.index("Female")].sum() == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyAfterFiltering):
            load_csv_report(path, load_schema("titanic"))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("A,B\n1,2\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_csv_report(path, load_schema("titanic"))

    def test_unmapped_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "Pclass,Survived,Sex\n1,1,female\n9,1,male\n2,0,unknown\n3,0,male\n",
            encoding="utf-8",
        )
        report = load_csv_report(path, load_schema("titanic"))
        assert report.n_rows == 2
        assert report.n_skipped == 2
        assert report.skipped_examples

    def test_skipped_examples_distinct(self, tmp_path):
        path = tmp_path / "adult.data"
        bad = ADULT_SAMPLE.splitlines()[0].replace("Bachelors", "Kindergarten")
        path.write_text(ADULT_SAMPLE + "\n".join([bad] * 5) + "\n", encoding="utf-8")
        report = load_csv_report(path, load_schema("adult"))
        assert (report.n_rows, report.n_skipped) == (5, 5)
        assert report.skipped_examples == ("unmapped value 'Kindergarten' in column 3",)

    def test_unmapped_error_policy(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("Pclass,Survived,Sex\n9,1,male\n", encoding="utf-8")
        schema = load_schema("titanic")
        strict = DatasetSchema(
            name=schema.name, x=schema.x, y=schema.y, z=schema.z,
            has_header=True, on_unmapped="error",
        )
        with pytest.raises(UnknownCategory):
            load_csv_report(path, strict)

    def test_all_rows_unusable(self, tmp_path):
        path = tmp_path / "allbad.csv"
        path.write_text("Pclass,Survived,Sex\n9,9,cat\n", encoding="utf-8")
        with pytest.raises(EmptyAfterFiltering):
            load_csv_report(path, load_schema("titanic"))

    def test_joint_marginals_match_column_frequencies(self, tmp_path):
        csv_path = synthesize_titanic_csv(tmp_path / "titanic.csv")
        table = load_csv_report(csv_path, load_schema("titanic")).table
        j = table.joint()
        with open(csv_path, newline="", encoding="utf-8") as fh:
            pclass = [row["Pclass"] for row in csv.DictReader(fh)]
        class_counts = [pclass.count(c) for c in TITANIC_ALPHABETS[0].labels]
        assert np.allclose(j.probs.sum(axis=(1, 2)), np.array(class_counts) / table.n, atol=1e-15)

    def test_counts_tallied_per_cell(self, tmp_path):
        # two blank lines, which are not rows, and a short row, which is skipped with the column it lacks
        path = tmp_path / "rows.csv"
        path.write_text(
            "Pclass,Survived,Sex\n3,0,male\n\n1,1,female\n3,0,male\n9,0,male\n\n3\n3,1,male\n",
            encoding="utf-8",
        )
        report = load_csv_report(path, load_schema("titanic"))
        expected = np.zeros((3, 2, 2), dtype=np.int64)
        expected[2, 0, 1] = 2
        expected[0, 1, 0] = 1
        expected[2, 1, 1] = 1
        assert np.array_equal(report.table.counts(), expected)
        assert (report.n_rows, report.n_skipped) == (4, 2)
        assert report.skipped_examples == ("unmapped value '9' in column 'Pclass'", "no field for column 'Survived'")


# Raw spellings per role, the plain valid ones first (5, 2 and 3 of them);
# "l", "L" and "low" all map to "lo".  Padded spellings load only under
# strip, and each role has several unmapped values, so a file gives more
# than 5 distinct messages.
EQUIV_X = ColumnSpec("d", ("lo", "mid", "hi"), value_map={"l": "lo", "L": "lo", "low": "lo", "m": "mid", "h": "hi"})
EQUIV_Y = ColumnSpec(0, ("no", "yes"))
EQUIV_Z = ColumnSpec("e", ("p", "q", "r"), ordinal=False)
EQUIV_RAW = (
    (("l", "L", "low", "m", "h", " low", "h ", "lo", "x1", "x2"), 5),
    (("no", "yes", " yes", "no ", "maybe", "y"), 2),
    (("p", "q", "r", " r", "p ", "s", "t", ""), 3),
)


def equivalence_csv(path, seed: int) -> None:
    """Rows drawn from ``EQUIV_RAW``, with empty and short rows and padding columns among them."""
    rng = np.random.default_rng(seed)

    def draw(raw, n_plain):  # a plain valid spelling 3 times in 4
        return raw[int(rng.integers(n_plain if rng.random() < 0.75 else len(raw)))]

    lines = ["b,c,x,d,e"]
    for _ in range(400):
        x, y, z = (draw(*role) for role in EQUIV_RAW)
        fields = [y, str(rng.integers(3)), "pad", x, z] + ["extra"] * int(rng.integers(2))
        kind = rng.random()
        lines.append("" if kind < 0.03 else ",".join(fields[:int(rng.integers(1, 5))] if kind < 0.08 else fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_load(path, schema: DatasetSchema):
    """Counts, skipped rows, the first 5 distinct messages and all distinct messages, one row at a time.

    A blank line is not a row; a short row is skipped with a message naming
    the first role whose column it lacks.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    cols = [spec.column if isinstance(spec.column, int) else header.index(spec.column) for spec in schema.roles]
    counts = np.zeros(tuple(len(spec.categories) for spec in schema.roles), dtype=np.int64)
    skipped, messages = 0, []
    for row in rows:
        if not row:
            continue
        if len(row) <= max(cols):
            missing = next(spec.column for spec, col in zip(schema.roles, cols) if col >= len(row))
            message = f"no field for column {missing!r}"
            skipped += 1
            messages += [message] if message not in messages else []
            continue
        cell = []
        for spec, col in zip(schema.roles, cols):
            raw = row[col].strip() if schema.strip else row[col]
            if raw not in spec.lookup():
                message = f"unmapped value {raw!r} in column {spec.column!r}"
                if schema.on_unmapped == "error":
                    raise UnknownCategory(message)
                skipped += 1
                messages += [message] if message not in messages else []
                break
            cell.append(spec.lookup()[raw])
        else:
            counts[tuple(cell)] += 1
    return counts, skipped, tuple(messages[:5]), messages


class TestCsvTallyEquivalence:
    """The tally by distinct raw triple agrees with a plain per-row reading."""

    @pytest.mark.parametrize("strip", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_row_reference(self, tmp_path, seed, strip):
        path = tmp_path / "rows.csv"
        equivalence_csv(path, seed)
        schema = DatasetSchema("equiv", EQUIV_X, EQUIV_Y, EQUIV_Z, strip=strip)
        counts, skipped, examples, messages = reference_load(path, schema)
        assert len(messages) > 5
        assert {m.rsplit(" ", 1)[1] for m in messages} == {"'d'", "0", "'e'"}  # each role leaves rows unmapped
        report = load_csv_report(path, schema)
        assert np.array_equal(report.table.counts(), counts)
        assert (report.n_rows, report.n_skipped, report.skipped_examples) == (counts.sum(), skipped, examples)

    @pytest.mark.parametrize("seed", range(5))
    def test_error_names_first_bad_row(self, tmp_path, seed):
        path = tmp_path / "rows.csv"
        equivalence_csv(path, seed)
        schema = DatasetSchema("equiv", EQUIV_X, EQUIV_Y, EQUIV_Z, strip=bool(seed % 2), on_unmapped="error")
        with pytest.raises(UnknownCategory) as expected:
            reference_load(path, schema)
        with pytest.raises(UnknownCategory) as got:
            load_csv_report(path, schema)
        assert str(got.value) == str(expected.value)


class TestSchemas:
    def test_canned_schemas_load(self):
        for name in ("titanic", "adult", "berkeley"):
            schema = load_schema(name)
            assert schema.name == name

    def test_pc_allowed_flags(self):
        assert load_schema("titanic").pc_allowed
        assert load_schema("adult").pc_allowed
        assert not load_schema("berkeley").pc_allowed  # departments are unordered

    def test_builtin_alphabets_are_the_canned_schemas(self):
        berkeley = (Alphabet(("female", "male")), Alphabet(("rejected", "admitted")), Alphabet(tuple("ABCDEF")))
        assert load_schema("berkeley").alphabets() == berkeley
        assert load_schema("titanic").alphabets() == TITANIC_ALPHABETS

    def test_distinct_columns_required(self):
        schema = load_schema("titanic")
        with pytest.raises(ValueError):
            DatasetSchema(name="bad", x=schema.x, y=schema.x, z=schema.z)

    def test_schema_from_path(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(
            '{"name": "custom", "roles": {'
            '"x": {"column": "a", "categories": ["0", "1"]},'
            '"y": {"column": "b", "categories": ["0", "1"]},'
            '"z": {"column": "c", "categories": ["0", "1"]}}}',
            encoding="utf-8",
        )
        assert load_schema(str(path)).name == "custom"

    def test_schema_with_byte_order_mark(self, tmp_path):
        text = (resources.files("directcorr") / "schemas" / "titanic.json").read_text(encoding="utf-8")
        path = tmp_path / "titanic_bom.json"
        path.write_text(text, encoding="utf-8-sig")
        assert load_schema(str(path)) == load_schema("titanic")

    def test_unknown_canned_schema(self):
        """Neither a canned name nor a file: one message names both readings."""
        with pytest.raises(FileNotFoundError, match=r"^no canned schema named 'nonexistent' "
                                                     r"\(titanic, adult, berkeley\) and no such file$"):
            load_schema("nonexistent")

    @pytest.mark.parametrize("name", ["custom.txt", "custom", "custom.JSON"])
    def test_schema_path_read_whatever_its_suffix(self, tmp_path, name):
        text = (resources.files("directcorr") / "schemas" / "titanic.json").read_text(encoding="utf-8")
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert load_schema(str(path)) == load_schema("titanic")

    def test_canned_name_read_before_a_file_of_that_name(self, tmp_path, monkeypatch):
        (tmp_path / "titanic").write_text("not a schema", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert load_schema("titanic").name == "titanic"

    def test_schema_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{\n "name": "g\xe9n"\n}\n')
        with pytest.raises(DataError, match=rf"^schema {re.escape(str(path))}, line 2: byte 0xe9 is not UTF-8$"):
            load_schema(str(path))

    def test_schema_directory_names_the_schema(self, tmp_path):
        """A directory given as the schema is a ``DataError`` that says it was read as the schema."""
        with pytest.raises(DataError, match=rf"^schema {re.escape(str(tmp_path))}: "):
            load_schema(str(tmp_path))

    def test_builtin_dataset_flags(self):
        assert not dataset_from_builtin("berkeley").pc_allowed
        assert dataset_from_builtin("titanic").pc_allowed
        with pytest.raises(ValueError):
            dataset_from_builtin("nope")


@pytest.mark.skipif(data_file("titanic.csv") is None, reason="titanic.csv not fetched")
def test_real_titanic_file_matches_embedded_counts():
    table = load_csv_report(data_file("titanic.csv"), load_schema("titanic")).table
    assert table.n == 891
    assert np.array_equal(table.counts(), titanic_counts())


@pytest.mark.skipif(data_file("adult.data") is None, reason="adult.data not fetched")
def test_real_adult_file_shape_and_marginals():
    table = load_csv_report(data_file("adult.data"), load_schema("adult")).table
    assert table.n == 32561
    counts = table.counts()
    assert counts.min() >= 23  # every cell of the empirical joint is occupied
    edu = counts.sum(axis=(1, 2)) / table.n
    for got, want in zip(edu, (0.132, 0.540, 0.244, 0.084)):
        assert got == pytest.approx(want, abs=0.01)
