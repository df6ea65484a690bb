"""Vocabulary, attribute and value model for fuzzy relational data.

Attributes come in four flavours (ftype 1-4): crisp numeric domains that
take linguistic labels for querying (1), numeric domains that also store
possibility distributions (2), and discrete label domains with (3) or
without (4) a similarity relation between labels.  Cell values are crisp
numbers, trapezoids, label references, or one of Unknown / Undefined /
Null.  Everything here is immutable after construction.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .errors import ConfigurationError, DataError, SchemaError

FTYPES = (1, 2, 3, 4)

# Conventional degrees for the special marks: Unknown is totally possible
# against every label, Undefined and Null are impossible against all.
UNKNOWN_DEGREE = 1.0
UNDEFINED_DEGREE = 0.0
NULL_DEGREE = 0.0


def trapezoid_membership(x: float, shape: tuple[float, float, float, float]) -> float:
    """Degree of x under the trapezoid (a, b, c, d): 0 outside [a, d],
    1 on the core [b, c], linear on the ramps.  Degenerate ramps (a == b
    or c == d) behave as step edges."""
    a, b, c, d = shape
    if not (a <= b <= c <= d):
        raise ConfigurationError(f"malformed trapezoid {shape!r}: need a <= b <= c <= d")
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def trapezoid_overlap(value_shape, label_shape) -> float:
    """sup over x of min(value(x), label(x)) for two normalized trapezoids.

    The min of two piecewise-linear unimodal functions peaks either where a
    core overlaps or where the facing ramps cross, so the supremum has a
    closed form.
    """
    a1, b1, c1, d1 = value_shape
    a2, b2, c2, d2 = label_shape
    if b1 <= c2 and b2 <= c1:  # cores intersect
        return 1.0
    if c1 < b2:  # value entirely left of label's core
        if d1 <= a2:
            return 0.0
        return min(1.0, (d1 - a2) / ((d1 - c1) + (b2 - a2)))
    # mirrored: value right of label's core
    if d2 <= a1:
        return 0.0
    return min(1.0, (d2 - a1) / ((d2 - c2) + (b1 - a1)))


@dataclass(frozen=True)
class LinguisticLabel:
    """One vocabulary entry of an attribute."""

    name: str
    order_index: int
    trapezoid: tuple[float, float, float, float] | None = None


@dataclass(frozen=True)
class AttributeSpec:
    """An attribute with its ordered label vocabulary.

    ``similarity`` (ftype 3 only) is a label-by-label matrix aligned with
    the vocabulary order.  ``cluster_count`` defaults to the vocabulary
    size; attributes with an empty vocabulary are projection-only and
    never contribute context columns.
    """

    name: str
    ftype: int
    labels: tuple[LinguisticLabel, ...]
    cluster_count: int = 0
    similarity: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.cluster_count == 0 and self.labels:
            object.__setattr__(self, "cluster_count", len(self.labels))

    @property
    def label_names(self) -> tuple[str, ...]:
        return tuple(lab.name for lab in self.labels)

    def label(self, name: str) -> LinguisticLabel:
        for lab in self.labels:
            if lab.name == name:
                return lab
        raise SchemaError(f"attribute {self.name!r} has no label {name!r}")

    def has_label(self, name: str) -> bool:
        return any(lab.name == name for lab in self.labels)

    @property
    def ordered(self) -> bool:
        """Order comparators (FGT, MLT, ...) only make sense on ftype 1/2."""
        return self.ftype in (1, 2)

    def label_similarity(self, name_a: str, name_b: str) -> float:
        """Similarity of two labels: the ftype-3 matrix entry when present,
        identity matching otherwise (the ftype-4 reading)."""
        ia = self.label(name_a).order_index
        ib = self.label(name_b).order_index
        if self.ftype == 3 and self.similarity is not None:
            return self.similarity[ia][ib]
        return 1.0 if ia == ib else 0.0


@dataclass(frozen=True)
class FuzzyValue:
    """A single cell: exactly one of the six variants."""

    kind: str  # crisp | trapezoid | label | unknown | undefined | null
    number: float | None = None
    shape: tuple[float, float, float, float] | None = None
    label_name: str | None = None

    @staticmethod
    def crisp(x: float) -> "FuzzyValue":
        return FuzzyValue("crisp", number=float(x))

    @staticmethod
    def trapezoid(a, b, c, d) -> "FuzzyValue":
        shape = (float(a), float(b), float(c), float(d))
        if not (shape[0] <= shape[1] <= shape[2] <= shape[3]):
            raise DataError(f"malformed trapezoid value {shape!r}")
        return FuzzyValue("trapezoid", shape=shape)

    @staticmethod
    def label(name: str) -> "FuzzyValue":
        return FuzzyValue("label", label_name=name)


UNKNOWN = FuzzyValue("unknown")
UNDEFINED = FuzzyValue("undefined")
NULL = FuzzyValue("null")


def value_label_membership(value: FuzzyValue, label: LinguisticLabel, attr: AttributeSpec) -> float:
    """Degree to which a cell value matches one linguistic label.

    Crisp and trapezoid values are compared against the label's trapezoid
    (possibility of the value under the label); label references go through
    the attribute's similarity relation or identity matching.
    """
    if not attr.has_label(label.name):
        raise SchemaError(f"label {label.name!r} does not belong to attribute {attr.name!r}")
    if value.kind == "unknown":
        return UNKNOWN_DEGREE
    if value.kind == "undefined":
        return UNDEFINED_DEGREE
    if value.kind == "null":
        return NULL_DEGREE
    if value.kind == "label":
        if not attr.has_label(value.label_name):
            raise SchemaError(
                f"value references label {value.label_name!r} unknown to attribute {attr.name!r}"
            )
        return attr.label_similarity(value.label_name, label.name)
    # numeric kinds need a trapezoid on the label side
    if label.trapezoid is None:
        raise ConfigurationError(
            f"attribute {attr.name!r}: numeric value cannot be matched against "
            f"label {label.name!r}, which carries no trapezoid"
        )
    if value.kind == "crisp":
        return trapezoid_membership(value.number, label.trapezoid)
    return trapezoid_overlap(value.shape, label.trapezoid)


@dataclass(frozen=True)
class Dataset:
    """Rows of fuzzy values keyed by tuple id, against a fixed schema."""

    schema: tuple[AttributeSpec, ...]
    tuple_ids: tuple[str, ...]
    rows: dict[str, dict[str, FuzzyValue]] = field(repr=False, default_factory=dict)

    def value(self, tuple_id: str, attr_name: str) -> FuzzyValue:
        return self.rows[tuple_id][attr_name]

    def validate(self) -> list[str]:
        problems = []
        if len(set(self.tuple_ids)) != len(self.tuple_ids):
            problems.append("duplicate tuple ids")
        names = [a.name for a in self.schema]
        for tid in self.tuple_ids:
            row = self.rows.get(tid)
            if row is None:
                problems.append(f"tuple {tid!r}: row missing")
                continue
            for name in names:
                if name not in row:
                    problems.append(f"tuple {tid!r}: no value for attribute {name!r}")
        return problems


def validate_schema(schema) -> list[str]:
    """Collect every invariant violation with attribute/label coordinates.

    Violations are returned as data (an empty list means the schema is ok);
    nothing raises here.
    """
    problems = []
    seen_attrs = set()
    for attr in schema:
        where = f"attribute {attr.name!r}"
        if attr.name in seen_attrs:
            problems.append(f"{where}: duplicate attribute name")
        seen_attrs.add(attr.name)
        if attr.ftype not in FTYPES:
            problems.append(f"{where}: ftype must be one of {FTYPES}, got {attr.ftype!r}")
        seen_labels = set()
        for pos, lab in enumerate(attr.labels):
            lwhere = f"{where}, label {lab.name!r}"
            if lab.name in seen_labels:
                problems.append(f"{lwhere}: duplicate label")
            seen_labels.add(lab.name)
            if lab.order_index != pos:
                problems.append(f"{lwhere}: order_index {lab.order_index} != position {pos}")
            shape = lab.trapezoid
            if shape is not None and (len(shape) != 4 or list(shape) != sorted(shape)):
                problems.append(f"{lwhere}: malformed trapezoid {shape!r}")
        if attr.labels and attr.cluster_count != len(attr.labels):
            problems.append(
                f"{where}: cluster_count {attr.cluster_count} != vocabulary size {len(attr.labels)}"
            )
        if attr.similarity is not None:
            n = len(attr.labels)
            matrix = attr.similarity
            if len(matrix) != n or any(len(row) != n for row in matrix):
                problems.append(f"{where}: similarity matrix is not {n}x{n}")
            else:
                for i in range(n):
                    if abs(matrix[i][i] - 1.0) > 1e-12:
                        problems.append(f"{where}: similarity diagonal entry {i} != 1")
                    for j in range(i + 1, n):
                        if abs(matrix[i][j] - matrix[j][i]) > 1e-12:
                            problems.append(f"{where}: similarity not symmetric at ({i},{j})")
                        if not (0.0 <= matrix[i][j] <= 1.0):
                            problems.append(f"{where}: similarity ({i},{j}) outside [0,1]")
    return problems


def read_json(path):
    """The JSON value in the file at ``path``; text that is not JSON raises
    DataError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path} is not valid JSON: {exc}")


def load_schema(path) -> tuple[AttributeSpec, ...]:
    """Read the schema JSON file: a list of attributes, each with a name,
    ftype, ordered labels (optionally carrying a trapezoid), and an
    optional similarity matrix."""
    return schema_from_dict(read_json(path))


def schema_from_dict(raw: dict) -> tuple[AttributeSpec, ...]:
    entries = raw.get("attributes") if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise DataError("schema JSON must be an object with an 'attributes' list")
    schema = tuple(_attribute_from_dict(pos, entry) for pos, entry in enumerate(entries))
    problems = validate_schema(schema)
    if problems:
        raise SchemaError("invalid schema: " + "; ".join(problems))
    return schema


def _attribute_from_dict(pos: int, entry) -> AttributeSpec:
    """One entry of the 'attributes' list; a JSON value of the wrong type
    raises DataError naming the attribute and the field."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise DataError(f"schema attribute {pos}: not an object with a string 'name'")
    where = f"schema attribute {entry['name']!r}"
    raw_labels = entry.get("labels", [])
    if not isinstance(raw_labels, list):
        raise DataError(f"{where}: 'labels' is not a list")
    labels = []
    for lpos, lab in enumerate(raw_labels):
        lab = {"name": lab} if isinstance(lab, str) else lab
        if not isinstance(lab, dict) or not isinstance(lab.get("name"), str):
            raise DataError(f"{where}, label {lpos}: not a name or an object with a string 'name'")
        shape = lab.get("trapezoid")
        shape = None if shape is None else float_list(shape, f"{where}, label {lpos}: trapezoid")
        labels.append(LinguisticLabel(lab["name"], lpos, shape))
    similarity = entry.get("similarity")
    return AttributeSpec(
        name=entry["name"],
        ftype=_integer(entry.get("ftype", 1), f"{where}: ftype"),
        labels=tuple(labels),
        cluster_count=_integer(entry.get("cluster_count", 0), f"{where}: cluster_count"),
        similarity=None if similarity is None else float_rows(similarity, f"{where}: similarity"),
    )


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: {value!r} is not an integer")
    return value


def str_list(values, where: str) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise DataError(f"{where} is not a list of strings")
    return tuple(values)


def float_list(values, where: str) -> tuple[float, ...]:
    """A JSON list of finite numbers, as floats."""
    if not isinstance(values, list) or not all(
        not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
        for v in values
    ):
        raise DataError(f"{where} is not a list of finite numbers")
    return tuple(float(v) for v in values)


def float_rows(rows, where: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(rows, list):
        raise DataError(f"{where} is not a list of rows")
    return tuple(float_list(row, f"{where}, row {i}") for i, row in enumerate(rows))


def schema_to_dict(schema) -> dict:
    entries = []
    for attr in schema:
        labels = []
        for lab in attr.labels:
            if lab.trapezoid is None:
                labels.append({"name": lab.name})
            else:
                labels.append({"name": lab.name, "trapezoid": list(lab.trapezoid)})
        entry = {"name": attr.name, "ftype": attr.ftype, "labels": labels}
        if attr.labels:
            entry["cluster_count"] = attr.cluster_count
        if attr.similarity is not None:
            entry["similarity"] = [list(row) for row in attr.similarity]
        entries.append(entry)
    return {"attributes": entries}
