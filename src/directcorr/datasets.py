"""Benchmark datasets and declarative CSV ingestion.

Two of the three benchmark contingencies (the 1973 Berkeley admissions
cross-tabulation and the 1912 Titanic class/sex/survival table) are
embedded here as exact integer counts, so they work offline.  The census
income dataset has no compact published form and must be loaded from its
raw CSV; ``scripts/fetch_data.py`` downloads all three source files.

CSV ingestion is driven by a :class:`DatasetSchema`, checked when built:
column names or indices for the three roles, optional raw-value maps, and
numeric encodings for the linear measures.  Category order is fixed by
the schema, not by file order, so alphabets stay stable across resamples.
Each role reads a row through one raw-value -> category-index lookup, and
each usable row is tallied into an :class:`ObservationTable`'s counts.
The built-ins take their alphabets from their canned schemas.  Only local
files are ever read.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from .errors import EmptyAfterFiltering, MissingColumn, UnknownCategory
from .prob import Alphabet, Joint3, ObservationTable
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
    return dataset_from_builtin("berkeley").joint


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
    return dataset_from_builtin("titanic").joint


# ---------------------------------------------------------------------------
# Declarative CSV schemas.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    """How one variable role is extracted from a CSV row."""

    column: str | int
    categories: tuple[Hashable, ...]
    value_map: Mapping[str, Hashable] | None = None
    encoding: tuple[float, ...] | None = None
    ordinal: bool = True

    def __post_init__(self) -> None:
        self.lookup()  # raises on a map target outside the categories

    def lookup(self) -> dict[str, int]:
        """Raw field value -> category index, through ``value_map`` when there is one."""
        index = {label: i for i, label in enumerate(self.categories)}
        if self.value_map is None:
            return index
        undeclared = [label for label in self.value_map.values() if label not in self.categories]
        if undeclared:
            raise ValueError(f"column {self.column!r}: map targets {undeclared!r} are not among its categories")
        return {raw: index[label] for raw, label in self.value_map.items()}


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


def _checked(obj, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``obj`` if it is a JSON object with every required key and no key outside the two lists."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{where} is missing {', '.join(map(repr, missing))}")
    allowed = (*required, *optional)
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{where} has unknown key {', '.join(map(repr, unknown))}; allowed: {', '.join(allowed)}")
    return obj


def _column_spec_from_json(obj: dict, role: str) -> ColumnSpec:
    obj = _checked(obj, f"schema role {role!r}", ("column", "categories"), ("map", "encoding", "ordinal"))
    return ColumnSpec(
        column=obj["column"],
        categories=tuple(obj["categories"]),
        value_map=obj.get("map"),
        encoding=tuple(obj["encoding"]) if "encoding" in obj else None,
        ordinal=bool(obj.get("ordinal", True)),
    )


def schema_from_json(text: str) -> DatasetSchema:
    """A schema from its JSON text; a missing or unknown key raises ``ValueError``."""
    obj = _checked(json.loads(text), "schema", ("name", "roles"), ("csv",))
    roles = _checked(obj["roles"], "schema 'roles'", ("x", "y", "z"))
    csv_opts = _checked(obj.get("csv", {}), "schema 'csv'", (), ("has_header", "delimiter", "strip", "on_unmapped"))
    return DatasetSchema(obj["name"], *(_column_spec_from_json(roles[role], role) for role in "xyz"), **csv_opts)


def load_schema(name_or_path: str) -> DatasetSchema:
    """A canned schema by name (titanic, adult, berkeley) or any schema JSON by path."""
    path = Path(name_or_path)
    if path.suffix != ".json" or not path.exists():
        path = resources.files("directcorr") / "schemas" / f"{name_or_path}.json"
        if not path.is_file():
            raise FileNotFoundError(f"no canned schema named {name_or_path!r} and no such file")
    return schema_from_json(path.read_text(encoding="utf-8"))


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
    lookups = [spec.lookup() for spec in schema.roles]
    tally = [0] * math.prod(shape)  # flat (x, y, z) cell -> count
    n_skipped = 0
    examples: dict[str, None] = {}  # distinct messages, in order of first occurrence
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header = next(reader, None) if schema.has_header else None
        if schema.has_header and header is None:
            raise EmptyAfterFiltering(f"{path}: file is empty")
        cols = _resolve_columns(schema, header)
        width = max(cols) + 1
        for row in reader:
            if not row or len(row) < width:
                n_skipped += 1
                continue
            cell = 0
            for spec, ci, lookup, d in zip(schema.roles, cols, lookups, shape):
                raw = row[ci].strip() if schema.strip else row[ci]
                i = lookup.get(raw)
                if i is None:
                    break
                cell = cell * d + i
            else:
                tally[cell] += 1
                continue
            message = f"unmapped value {raw!r} in column {spec.column!r}"
            if schema.on_unmapped == "error":
                raise UnknownCategory(message)
            n_skipped += 1
            if len(examples) < 5:
                examples[message] = None
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


def _dataset(schema: DatasetSchema, table: ObservationTable, source: str) -> Dataset:
    return Dataset(
        name=schema.name,
        joint=table.joint(),
        observations=table,
        encoding=schema.numeric_encoding(),
        pc_allowed=schema.pc_allowed,
        source=source,
    )


# name -> embedded count table, in the category order of the canned schema of that name
_BUILTINS = {"berkeley": berkeley_counts, "titanic": titanic_counts}


def dataset_from_builtin(name: str) -> Dataset:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin dataset {name!r}; available: berkeley, titanic")
    schema = load_schema(name)
    return _dataset(schema, ObservationTable(schema.alphabets(), _BUILTINS[name]()), "embedded counts")


def dataset_from_csv(path: str | os.PathLike, schema: DatasetSchema) -> tuple[Dataset, LoadReport]:
    report = load_csv_report(path, schema)
    return _dataset(schema, report.table, f"csv:{path}"), report
