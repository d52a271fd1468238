import csv

import numpy as np
import pytest

from directcorr.datasets import (
    BERKELEY_ALPHABETS,
    TITANIC_ALPHABETS,
    DatasetSchema,
    berkeley_counts,
    builtin_berkeley,
    builtin_titanic,
    dataset_from_builtin,
    load_csv,
    load_csv_report,
    load_schema,
    titanic_counts,
)
from directcorr.errors import EmptyAfterFiltering, MissingColumn, UnknownCategory
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
        j = builtin_berkeley()
        xi = BERKELEY_ALPHABETS[0].index("male")
        yi = BERKELEY_ALPHABETS[1].index("admitted")
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
        j = builtin_titanic()
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
        assert np.allclose(report.table.joint().probs, builtin_titanic().probs, atol=1e-15)

    def test_deterministic(self, tmp_path):
        csv_path = synthesize_titanic_csv(tmp_path / "titanic.csv")
        schema = load_schema("titanic")
        a = load_csv(csv_path, schema)
        b = load_csv(csv_path, schema)
        assert np.array_equal(a.counts(), b.counts())

    def test_adult_raw_format(self, tmp_path):
        path = tmp_path / "adult.data"
        path.write_text(ADULT_SAMPLE, encoding="utf-8")
        schema = load_schema("adult")
        table = load_csv(path, schema)
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
            load_csv(path, load_schema("titanic"))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("A,B\n1,2\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_csv(path, load_schema("titanic"))

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
            load_csv(path, strict)

    def test_all_rows_unusable(self, tmp_path):
        path = tmp_path / "allbad.csv"
        path.write_text("Pclass,Survived,Sex\n9,9,cat\n", encoding="utf-8")
        with pytest.raises(EmptyAfterFiltering):
            load_csv(path, load_schema("titanic"))

    def test_joint_marginals_match_column_frequencies(self, tmp_path):
        csv_path = synthesize_titanic_csv(tmp_path / "titanic.csv")
        table = load_csv(csv_path, load_schema("titanic"))
        j = table.joint()
        with open(csv_path, newline="", encoding="utf-8") as fh:
            pclass = [row["Pclass"] for row in csv.DictReader(fh)]
        class_counts = [pclass.count(c) for c in TITANIC_ALPHABETS[0].labels]
        assert np.allclose(j.probs.sum(axis=(1, 2)), np.array(class_counts) / table.n, atol=1e-15)

    def test_counts_tallied_per_cell(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "Pclass,Survived,Sex\n3,0,male\n1,1,female\n3,0,male\n9,0,male\n3\n3,1,male\n",
            encoding="utf-8",
        )
        report = load_csv_report(path, load_schema("titanic"))
        expected = np.zeros((3, 2, 2), dtype=np.int64)
        expected[2, 0, 1] = 2
        expected[0, 1, 0] = 1
        expected[2, 1, 1] = 1
        assert np.array_equal(report.table.counts(), expected)
        assert (report.n_rows, report.n_skipped) == (4, 2)


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
        assert load_schema("berkeley").alphabets() == BERKELEY_ALPHABETS
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

    def test_unknown_canned_schema(self):
        with pytest.raises(FileNotFoundError):
            load_schema("nonexistent")

    def test_builtin_dataset_flags(self):
        assert not dataset_from_builtin("berkeley").pc_allowed
        assert dataset_from_builtin("titanic").pc_allowed
        with pytest.raises(ValueError):
            dataset_from_builtin("nope")


@pytest.mark.skipif(data_file("titanic.csv") is None, reason="titanic.csv not fetched")
def test_real_titanic_file_matches_embedded_counts():
    table = load_csv(data_file("titanic.csv"), load_schema("titanic"))
    assert table.n == 891
    assert np.array_equal(table.counts(), titanic_counts())


@pytest.mark.skipif(data_file("adult.data") is None, reason="adult.data not fetched")
def test_real_adult_file_shape_and_marginals():
    table = load_csv(data_file("adult.data"), load_schema("adult"))
    assert table.n == 32561
    counts = table.counts()
    assert counts.min() >= 23  # every cell of the empirical joint is occupied
    edu = counts.sum(axis=(1, 2)) / table.n
    for got, want in zip(edu, (0.132, 0.540, 0.244, 0.084)):
        assert got == pytest.approx(want, abs=0.01)
