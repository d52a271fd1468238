"""Error paths that no other test reaches: each raises its own error with its own message."""

import dataclasses
import re

import numpy as np
import pytest

from directcorr import benchmarks
from directcorr.bounds import candidate_values
from directcorr.cli import _compare
from directcorr.datasets import dataset_from_builtin, load_csv_report, load_schema, schema_from_json
from directcorr.errors import InvalidDistribution, MissingColumn, ShapeMismatch, UnknownMeasure
from directcorr.prob import Alphabet, Joint3
from directcorr.registry import evaluate
from directcorr.report import MeasureEntry
from directcorr.sparse import SparseStrategy


def titanic():
    return dataset_from_builtin("titanic").joint


def headless_titanic(tmp_path):
    """The titanic schema, which names its columns, read from a file declared to have no header row."""
    path = tmp_path / "headless.csv"
    path.write_text("1,0,male\n", encoding="utf-8")
    return load_csv_report(path, dataclasses.replace(load_schema("titanic"), has_header=False))


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp_path: evaluate(titanic(), "bogus"), UnknownMeasure, "unknown measure 'bogus'; valid ids: "),
    (lambda tmp_path: Joint3(tuple(map(Alphabet.of_size, (2, 2, 3))), np.full((2, 2, 2), 0.125)), InvalidDistribution,
     "alphabet sizes (2, 2, 3) do not match table shape (2, 2, 2)"),
    (lambda tmp_path: SparseStrategy.parse("d"), ValueError, "unknown sparse strategy 'd'; expected one of a, b, c"),
    (lambda tmp_path: schema_from_json("[]"), ValueError, "schema must be a JSON object"),
    (lambda tmp_path: dataclasses.replace(load_schema("titanic"), on_unmapped="warn"), ValueError,
     "on_unmapped must be 'skip' or 'error'"),
    (headless_titanic, MissingColumn, "column 'Pclass' needs a header row, but the schema declares none"),
    (lambda tmp_path: MeasureEntry("rmi", 1.5), ValueError, "rmi value 1.5 outside documented range [0, 1]"),
    (lambda tmp_path: MeasureEntry("rmi", 0.5, bound=0.4), ValueError,
     "rmi value 0.5 exceeds its achievable bound 0.4"),
    (lambda tmp_path: candidate_values(titanic(), np.zeros((4, 2, 2, 3)), ["rmi"]), ShapeMismatch,
     "candidates of shape (2, 2, 3) for a joint of shape (3, 2, 2)"),
], ids=["unknown-measure", "alphabet-sizes", "sparse-strategy", "schema-not-object", "on-unmapped",
        "named-column-headless", "entry-range", "entry-above-bound", "candidate-shape"])
def test_raises_its_error(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call(tmp_path)


def test_entry_omitted_where_reference_has_value():
    assert _compare(None, benchmarks.ReferenceCell(0.5), with_ci=False) == (
        False, "omitted but reference has a value: FAIL")
