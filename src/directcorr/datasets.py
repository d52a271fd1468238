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
A row is read as its raw (x, y, z) triple of fields.  Each distinct triple
goes through the roles' raw-value -> category-index lookups once, the first
time it appears; later rows with it are counted through a dict from triple
to cell of an :class:`ObservationTable`'s counts.  Triples that fail to map
are not kept, so memory is bounded by the schema, not by the number of rows.
The built-ins take their alphabets from their canned schemas.  Only local
files are ever read.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Hashable, Mapping, NamedTuple

import numpy as np

from .errors import DataError, EmptyAfterFiltering, MissingColumn, UnknownCategory
from .prob import Alphabet, Joint3, ObservationTable
from .registry import NumericEncoding

ENV_DATA_DIR = "DIRECTCORR_DATA"


def data_dir() -> Path:
    return Path(os.environ.get(ENV_DATA_DIR, "data"))


# ---------------------------------------------------------------------------
# Embedded contingency tables.
# ---------------------------------------------------------------------------

# Berkeley 1973 graduate admissions, six largest departments.
# X = applicant sex (female, male), Y = admission outcome (rejected, admitted), Z = department.
_BERKELEY_ADMITTED = {  # dept -> (male admitted, male total, female admitted, female total)
    "A": (512, 825, 89, 108),
    "B": (353, 560, 17, 25),
    "C": (120, 325, 202, 593),
    "D": (138, 417, 131, 375),
    "E": (53, 191, 94, 393),
    "F": (22, 373, 24, 341),
}


def berkeley_counts() -> np.ndarray:
    counts = np.zeros((2, 2, 6), dtype=np.int64)
    for zi, dept in enumerate("ABCDEF"):
        m_adm, m_tot, f_adm, f_tot = _BERKELEY_ADMITTED[dept]
        counts[1, 1, zi] = m_adm
        counts[1, 0, zi] = m_tot - m_adm
        counts[0, 1, zi] = f_adm
        counts[0, 0, zi] = f_tot - f_adm
    return counts


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
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be a 1-character string, got {self.delimiter!r}")
        self.numeric_encoding().codes(self.alphabets())  # raises on a wrong-length or non-finite encoding

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


def _is_number(value) -> bool:
    """A JSON number; JSON's true and false are not numbers, though Python's bools are ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _column_spec_from_json(obj: dict, role: str) -> ColumnSpec:
    where = f"schema role {role!r}"
    obj = _checked(obj, where, ("column", "categories"), ("map", "encoding", "ordinal"))
    column, categories = obj["column"], obj["categories"]
    if not (isinstance(column, str) or type(column) is int and column >= 0):
        raise ValueError(f"{where}: 'column' must be a name or an index >= 0, got {column!r}")
    if not isinstance(categories, list) or not all(isinstance(c, str) or _is_number(c) for c in categories):
        raise ValueError(f"{where}: 'categories' must be a list of strings or numbers")
    if "map" not in obj and not all(isinstance(c, str) for c in categories):
        # a CSV field is text, so only a map can lead one to a numeric category
        raise ValueError(f"{where}: 'categories' must be strings unless a 'map' leads to them")
    if not isinstance(obj.get("map", {}), dict):
        raise ValueError(f"{where}: 'map' must be a JSON object of raw value -> category")
    encoding = obj.get("encoding", [])
    if not isinstance(encoding, list) or not all(map(_is_number, encoding)):
        raise ValueError(f"{where}: 'encoding' must be a list of numbers")
    if not isinstance(obj.get("ordinal", True), bool):
        raise ValueError(f"{where}: 'ordinal' must be true or false")
    return ColumnSpec(
        column=column,
        categories=tuple(categories),
        value_map=obj.get("map"),
        encoding=tuple(encoding) if "encoding" in obj else None,
        ordinal=obj.get("ordinal", True),
    )


def schema_from_json(text: str) -> DatasetSchema:
    """A schema from its JSON text; a missing or unknown key or a value of the wrong type raises ``ValueError``."""
    obj = _checked(json.loads(text), "schema", ("name", "roles"), ("csv",))
    if not isinstance(obj["name"], str):
        raise ValueError(f"schema 'name' must be a string, got {obj['name']!r}")
    roles = _checked(obj["roles"], "schema 'roles'", ("x", "y", "z"))
    csv_opts = _checked(obj.get("csv", {}), "schema 'csv'", (), ("has_header", "delimiter", "strip", "on_unmapped"))
    for flag in ("has_header", "strip"):
        if not isinstance(csv_opts.get(flag, False), bool):
            raise ValueError(f"schema 'csv': {flag!r} must be true or false")
    return DatasetSchema(obj["name"], *(_column_spec_from_json(roles[role], role) for role in "xyz"), **csv_opts)


CANNED_SCHEMAS = ("titanic", "adult", "berkeley")


def _not_utf8(where: str, exc: UnicodeDecodeError) -> DataError:
    """The error for bytes that are not UTF-8, naming ``where`` and the line of the first bad byte."""
    line = exc.object.count(b"\n", 0, exc.start) + 1
    return DataError(f"{where}, line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8")


def load_schema(name_or_path: str) -> DatasetSchema:
    """A canned schema by name (titanic, adult, berkeley), else a schema JSON by path, whatever its suffix.

    A byte-order mark is dropped.  A file that is not UTF-8 raises ``DataError``
    naming it and the line of its first bad byte; a path that cannot be read,
    such as a directory, raises ``DataError`` naming it as the schema.
    """
    if name_or_path in CANNED_SCHEMAS:
        path = resources.files("directcorr") / "schemas" / f"{name_or_path}.json"
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise FileNotFoundError(
                f"no canned schema named {name_or_path!r} ({', '.join(CANNED_SCHEMAS)}) and no such file"
            )
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(f"schema {name_or_path}", exc) from None
    except OSError as exc:
        raise DataError(f"schema {name_or_path}: {exc.strerror}") from None
    return schema_from_json(text)


class LoadReport(NamedTuple):
    """Ingestion result: the table plus how many rows were set aside and why."""

    table: ObservationTable
    n_rows: int
    n_skipped: int
    skipped_examples: tuple[str, ...] = ()


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

    A row is read as its raw (x, y, z) triple of fields, and each distinct
    triple is resolved once: stripped, mapped and looked up the first time
    it appears, then counted through a dict from triple to table cell.  A
    triple that fails to map is not kept but resolved again where it
    recurs, so memory is bounded by the schema's lookups (times the raw
    spellings ``strip`` folds together), not by the number of rows, even
    when a role is pointed at an ID column by mistake.  Under
    ``on_unmapped: error`` the first unmapped row raises; a short row is
    skipped under either policy, and a blank line is not a row.  A UTF-8
    byte-order mark (as Excel writes one) is dropped from the header.  A file
    that is not UTF-8, or that the csv module cannot parse (a field past its
    131,072 characters), raises ``DataError`` naming the file and line; a path
    that cannot be opened, such as a directory, raises ``DataError`` naming it
    as the csv.
    """
    alphabets = schema.alphabets()
    shape = tuple(a.size for a in alphabets)
    roles = list(zip(schema.roles, [spec.lookup() for spec in schema.roles], shape))
    tally = [0] * math.prod(shape)  # flat (x, y, z) cell -> count
    cells: dict[tuple[str, ...], int] = {}  # raw triple -> flat cell, for the triples that map
    n_skipped = 0
    examples: dict[str, None] = {}  # distinct messages, in order of first occurrence

    def resolve(key: tuple[str, ...]) -> int | str:
        """The flat cell of a raw triple, or the message naming its first unmapped value."""
        cell = 0
        for raw, (spec, lookup, d) in zip(key, roles):
            if schema.strip:
                raw = raw.strip()
            i = lookup.get(raw)
            if i is None:
                return f"unmapped value {raw!r} in column {spec.column!r}"
            cell = cell * d + i
        return cell

    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"csv {path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader, None) if schema.has_header else None
            if schema.has_header and header is None:
                raise EmptyAfterFiltering(f"{path}: file is empty")
            cols = _resolve_columns(schema, header)
            width = max(cols) + 1
            triple = operator.itemgetter(*cols)
            for row in reader:
                if len(row) < width:
                    if row:  # a blank line is not a row
                        n_skipped += 1
                        if len(examples) < 5:
                            missing = next(spec.column for spec, col in zip(schema.roles, cols) if col >= len(row))
                            examples[f"no field for column {missing!r}"] = None
                    continue
                key = triple(row)
                cell = cells.get(key)
                if cell is None:
                    cell = resolve(key)
                    if isinstance(cell, str):
                        if schema.on_unmapped == "error":
                            raise UnknownCategory(cell)
                        n_skipped += 1
                        if len(examples) < 5:
                            examples[cell] = None
                        continue
                    cells[key] = cell
                tally[cell] += 1
        except csv.Error as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            try:  # decoded whole, so the offset is in the file, not in the chunk the reader had buffered
                Path(path).read_bytes().decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                raise _not_utf8(str(path), exc) from None
            raise
    n_rows = sum(tally)
    if not n_rows:
        raise EmptyAfterFiltering(f"{path}: no usable rows for schema {schema.name!r}")
    table = ObservationTable(alphabets, np.array(tally, dtype=np.int64).reshape(shape))
    return LoadReport(table=table, n_rows=n_rows, n_skipped=n_skipped, skipped_examples=tuple(examples))


# ---------------------------------------------------------------------------
# Resolved datasets as consumed by the CLI.
# ---------------------------------------------------------------------------


class Dataset(NamedTuple):
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
