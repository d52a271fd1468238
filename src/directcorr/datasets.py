"""Benchmark datasets and declarative CSV ingestion.

Two of the three benchmark contingencies (the 1973 Berkeley admissions
cross-tabulation and the 1912 Titanic class/sex/survival table) are
embedded here as exact integer counts, so they work offline.  The census
income dataset has no compact published form and must be loaded from its
raw CSV; ``scripts/fetch_data.py`` downloads all three source files.

CSV ingestion is driven by a :class:`DatasetSchema`: column names or
indices for the three roles, raw-value maps, optional binning rules, and
numeric encodings for the linear measures.  Category order is fixed by
the schema declaration, not by file order, so alphabets stay stable
across resamples.  Each usable row is tallied straight into the count
table of an :class:`ObservationTable`; skipped rows are counted by the
:class:`LoadReport`.  The library only ever reads local files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Hashable, Mapping

import numpy as np

from .errors import EmptyAfterFiltering, MissingColumn, UnknownCategory
from .prob import Alphabet, Joint3, ObservationTable, from_counts
from .registry import NumericEncoding

ENV_DATA_DIR = "DIRECTCORR_DATA"


def data_dir() -> Path:
    return Path(os.environ.get(ENV_DATA_DIR, "data"))


# ---------------------------------------------------------------------------
# Embedded contingency tables.
# ---------------------------------------------------------------------------

# Berkeley 1973 graduate admissions, six largest departments.
# X = applicant sex, Y = admission outcome, Z = department.
_BERKELEY_ADMITTED = {  # dept -> (male admitted, male total, female admitted, female total)
    "A": (512, 825, 89, 108),
    "B": (353, 560, 17, 25),
    "C": (120, 325, 202, 593),
    "D": (138, 417, 131, 375),
    "E": (53, 191, 94, 393),
    "F": (22, 373, 24, 341),
}

BERKELEY_ALPHABETS = (
    Alphabet(("female", "male")),
    Alphabet(("rejected", "admitted")),
    Alphabet(tuple("ABCDEF")),
)


def berkeley_counts() -> np.ndarray:
    counts = np.zeros((2, 2, 6), dtype=np.int64)
    for zi, dept in enumerate("ABCDEF"):
        m_adm, m_tot, f_adm, f_tot = _BERKELEY_ADMITTED[dept]
        counts[1, 1, zi] = m_adm
        counts[1, 0, zi] = m_tot - m_adm
        counts[0, 1, zi] = f_adm
        counts[0, 0, zi] = f_tot - f_adm
    return counts


def builtin_berkeley() -> Joint3:
    """Exact embedded Berkeley admissions joint (n = 4526)."""
    return from_counts(berkeley_counts(), BERKELEY_ALPHABETS)


# Titanic training split (n = 891): survivors / totals by class and sex.
# X = passenger class, Y = survival, Z = sex.
_TITANIC_SURVIVAL = {  # (class, sex) -> (survived, total)
    ("1", "female"): (91, 94),
    ("1", "male"): (45, 122),
    ("2", "female"): (70, 76),
    ("2", "male"): (17, 108),
    ("3", "female"): (72, 144),
    ("3", "male"): (47, 347),
}

TITANIC_ALPHABETS = (
    Alphabet(("1", "2", "3")),
    Alphabet(("0", "1")),
    Alphabet(("female", "male")),
)


def titanic_counts() -> np.ndarray:
    counts = np.zeros((3, 2, 2), dtype=np.int64)
    for (pclass, sex), (survived, total) in _TITANIC_SURVIVAL.items():
        xi = TITANIC_ALPHABETS[0].index(pclass)
        zi = TITANIC_ALPHABETS[2].index(sex)
        counts[xi, 1, zi] = survived
        counts[xi, 0, zi] = total - survived
    return counts


def builtin_titanic() -> Joint3:
    """Embedded Titanic class/survival/sex joint (n = 891)."""
    return from_counts(titanic_counts(), TITANIC_ALPHABETS)


# ---------------------------------------------------------------------------
# Binning rules.
# ---------------------------------------------------------------------------

_ADULT_EDU_GROUPS: dict[str, int] = {}
for _lab in ("Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th", "12th"):
    _ADULT_EDU_GROUPS[_lab] = 0
for _lab in ("HS-grad", "Some-college"):
    _ADULT_EDU_GROUPS[_lab] = 1
for _lab in ("Assoc-voc", "Assoc-acdm", "Bachelors"):
    _ADULT_EDU_GROUPS[_lab] = 2
for _lab in ("Masters", "Prof-school", "Doctorate"):
    _ADULT_EDU_GROUPS[_lab] = 3


def adult_education_bin(raw: str) -> int:
    """Census education label binned into four ordinal groups (0 lowest .. 3 highest)."""
    try:
        return _ADULT_EDU_GROUPS[raw]
    except KeyError:
        raise UnknownCategory(f"not an education category: {raw!r}") from None


BIN_FUNCTIONS: dict[str, Callable[[str], Hashable]] = {
    "adult_education": adult_education_bin,
}


# ---------------------------------------------------------------------------
# Declarative CSV schemas.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    """How one variable role is extracted from a CSV row."""

    column: str | int
    categories: tuple[Hashable, ...]
    value_map: Mapping[str, Hashable] | None = None
    bin: str | None = None
    encoding: tuple[float, ...] | None = None
    ordinal: bool = True

    def to_label(self, raw: str) -> Hashable:
        if self.bin is not None:
            return BIN_FUNCTIONS[self.bin](raw)
        if self.value_map is not None:
            if raw not in self.value_map:
                raise UnknownCategory(f"unmapped value {raw!r}")
            return self.value_map[raw]
        return raw


@dataclass(frozen=True)
class DatasetSchema:
    """Column mapping and category declarations for one dataset."""

    name: str
    x: ColumnSpec
    y: ColumnSpec
    z: ColumnSpec
    has_header: bool = True
    delimiter: str = ","
    strip: bool = False
    on_unmapped: str = "skip"  # or "error"

    def __post_init__(self) -> None:
        cols = [spec.column for spec in (self.x, self.y, self.z)]
        if len(set(cols)) != 3:
            raise ValueError(f"the three roles must map to distinct columns, got {cols!r}")
        if self.on_unmapped not in ("skip", "error"):
            raise ValueError("on_unmapped must be 'skip' or 'error'")

    @property
    def roles(self) -> tuple[ColumnSpec, ColumnSpec, ColumnSpec]:
        return (self.x, self.y, self.z)

    def alphabets(self) -> tuple[Alphabet, Alphabet, Alphabet]:
        return tuple(Alphabet(spec.categories) for spec in self.roles)  # type: ignore[return-value]

    def numeric_encoding(self) -> NumericEncoding:
        return NumericEncoding(*(spec.encoding for spec in self.roles))

    @property
    def pc_allowed(self) -> bool:
        return all(spec.ordinal for spec in self.roles)


def _column_spec_from_json(obj: dict) -> ColumnSpec:
    return ColumnSpec(
        column=obj["column"],
        categories=tuple(obj["categories"]),
        value_map=obj.get("map"),
        bin=obj.get("bin"),
        encoding=tuple(obj["encoding"]) if "encoding" in obj else None,
        ordinal=bool(obj.get("ordinal", True)),
    )


def schema_from_json(text: str) -> DatasetSchema:
    obj = json.loads(text)
    csv_opts = obj.get("csv", {})
    roles = obj["roles"]
    return DatasetSchema(
        name=obj["name"],
        x=_column_spec_from_json(roles["x"]),
        y=_column_spec_from_json(roles["y"]),
        z=_column_spec_from_json(roles["z"]),
        has_header=bool(csv_opts.get("has_header", True)),
        delimiter=str(csv_opts.get("delimiter", ",")),
        strip=bool(csv_opts.get("strip", False)),
        on_unmapped=str(csv_opts.get("on_unmapped", "skip")),
    )


def load_schema(name_or_path: str) -> DatasetSchema:
    """A canned schema by name (titanic, adult, berkeley) or any schema JSON by path."""
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        return schema_from_json(path.read_text(encoding="utf-8"))
    ref = resources.files("directcorr") / "schemas" / f"{name_or_path}.json"
    if not ref.is_file():
        raise FileNotFoundError(f"no canned schema named {name_or_path!r} and no such file")
    return schema_from_json(ref.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class LoadReport:
    """Ingestion result: the table plus how many rows were set aside and why."""

    table: ObservationTable
    n_rows: int
    n_skipped: int
    skipped_examples: tuple[str, ...] = field(default_factory=tuple)


def _resolve_columns(schema: DatasetSchema, header: list[str] | None) -> list[int]:
    out = []
    for spec in schema.roles:
        if isinstance(spec.column, int):
            out.append(spec.column)
        else:
            if header is None:
                raise MissingColumn(f"column {spec.column!r} needs a header row, but the schema declares none")
            try:
                out.append(header.index(spec.column))
            except ValueError:
                raise MissingColumn(f"column {spec.column!r} not found in header {header!r}") from None
    return out


def load_csv_report(path: str | os.PathLike, schema: DatasetSchema) -> LoadReport:
    """Load a CSV per the schema; invalid rows are skipped and counted (or raise, per policy).

    Rows are tallied straight into the count table, so memory does not grow
    with the number of rows.
    """
    alphabets = schema.alphabets()
    shape = tuple(a.size for a in alphabets)
    index_of = [{lab: i for i, lab in enumerate(a.labels)} for a in alphabets]
    tally = [0] * math.prod(shape)  # flat (x, y, z) cell -> count
    n_skipped = 0
    examples: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header = None
        if schema.has_header:
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyAfterFiltering(f"{path}: file is empty") from None
        cols = _resolve_columns(schema, header)
        width = max(cols) + 1
        for row in reader:
            if not row or len(row) < width:
                n_skipped += 1
                continue
            try:
                cell = 0
                for spec, ci, idx, d in zip(schema.roles, cols, index_of, shape):
                    raw = row[ci].strip() if schema.strip else row[ci]
                    label = spec.to_label(raw)
                    if label not in idx:
                        raise UnknownCategory(f"{label!r} not among declared categories")
                    cell = cell * d + idx[label]
            except UnknownCategory as exc:
                if schema.on_unmapped == "error":
                    raise
                n_skipped += 1
                if len(examples) < 5:
                    examples.append(str(exc))
                continue
            tally[cell] += 1
    n_rows = sum(tally)
    if not n_rows:
        raise EmptyAfterFiltering(f"{path}: no usable rows for schema {schema.name!r}")
    table = ObservationTable(alphabets, np.array(tally, dtype=np.int64).reshape(shape))
    return LoadReport(table=table, n_rows=n_rows, n_skipped=n_skipped, skipped_examples=tuple(examples))


def load_csv(path: str | os.PathLike, schema: DatasetSchema) -> ObservationTable:
    return load_csv_report(path, schema).table


# ---------------------------------------------------------------------------
# Resolved datasets as consumed by the CLI.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    name: str
    joint: Joint3
    observations: ObservationTable | None
    encoding: NumericEncoding
    pc_allowed: bool
    source: str


# name -> (count table, alphabets, whether pc applies)
_BUILTINS = {
    "berkeley": (berkeley_counts, BERKELEY_ALPHABETS, False),  # departments carry no ordinal interpretation
    "titanic": (titanic_counts, TITANIC_ALPHABETS, True),
}


def dataset_from_builtin(name: str) -> Dataset:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin dataset {name!r}; available: berkeley, titanic")
    counts, alphabets, pc_allowed = _BUILTINS[name]
    table = ObservationTable(alphabets, counts())
    return Dataset(
        name=name,
        joint=table.joint(),
        observations=table,
        encoding=NumericEncoding(),
        pc_allowed=pc_allowed,
        source="embedded counts",
    )


def dataset_from_csv(path: str | os.PathLike, schema: DatasetSchema) -> tuple[Dataset, LoadReport]:
    report = load_csv_report(path, schema)
    ds = Dataset(
        name=schema.name,
        joint=report.table.joint(),
        observations=report.table,
        encoding=schema.numeric_encoding(),
        pc_allowed=schema.pc_allowed,
        source=f"csv:{path}",
    )
    return ds, report
