"""Loading and saving variable catalogs, inference systems and training data.

Catalog documents are JSON with a fixed layout (see schema/catalog.schema.json).
Serialization is canonical: fixed key order, two-space indent, floats written
in shortest round-trip form, one trailing newline.  Saving a just-loaded
catalog therefore reproduces the file byte for byte, which makes the format
safe to diff and to keep under version control.

Schema problems are reported as SchemaError with a JSON-pointer-style path
("/variables/0/terms/1/mf/a") so the offending node can be found directly.

Every file lingmap writes (a saved catalog, a surface CSV) overwrites an
existing file in place and then cuts it to the new length, rather than
truncating it first: ext4 flushes a file that was truncated and rewritten
when it is closed, which costs more than writing a small file.  A target that
is not a regular file (a pipe, a terminal, /dev/null) is written without
the cut.  The write is not atomic: one that fails part way leaves a mixed
file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import stat
from dataclasses import dataclass, field, fields

import numpy as np

from .elicit import TrainingSet
from .errors import DatasetError, DefinitionError, SchemaError
from .inference import FuzzyInferenceSystem
from .membership import SHAPES
from .rules import RuleSyntaxError, RuleValidationError, format_rules, parse_rules
from .variables import VARIABLE_KINDS, CodeList, Interval, LinguisticVariable

SCHEMA_VERSION = 1


@dataclass
class Catalog:
    """An ordered collection of variables, optionally with an inference system.

    Each fis input, then each output, that variables lacks is added after
    the given ones, so Catalog(fis=fis) holds a whole system.  A given
    variable that differs from the system's own raises DefinitionError.
    """

    variables: dict[str, LinguisticVariable] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    fis: FuzzyInferenceSystem | None = None

    def __post_init__(self):
        self.variables = dict(self.variables)
        for name, var in self.variables.items():
            if name != var.name:
                raise DefinitionError(
                    f"catalog key '{name}' does not match variable name '{var.name}'"
                )
        system = {} if self.fis is None else {**self.fis.inputs, **self.fis.outputs}
        for name, var in system.items():
            if self.variables.setdefault(name, var) != var:
                raise DefinitionError(f"catalog variable '{name}' differs from its system's")


def _num(value: float) -> float:
    # float() unifies ints and numpy scalars; the == 0 check drops -0.0
    value = float(value)
    return 0.0 if value == 0.0 else value


def _mf_to_json(mf) -> dict:
    doc = {"type": mf.tag}
    for f in fields(mf):
        value = getattr(mf, f.name)
        doc[f.name] = sorted(value) if f.name == "levels" else _num(value)
    return doc


def _variable_to_json(var: LinguisticVariable) -> dict:
    if isinstance(var.domain, Interval):
        domain = [_num(var.domain.lo), _num(var.domain.hi)]
    else:
        domain = {"codes": list(var.domain.codes)}
    return {
        "name": var.name,
        "kind": var.kind,
        "domain": domain,
        "terms": [{"name": t, "mf": _mf_to_json(mf)} for t, mf in var.terms.items()],
    }


def catalog_to_doc(catalog: Catalog) -> dict:
    """The plain JSON document for a catalog, keys in canonical order."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "metadata": catalog.metadata,
        "variables": [_variable_to_json(v) for v in catalog.variables.values()],
    }
    if catalog.fis is not None:
        doc["fis"] = {
            "inputs": list(catalog.fis.inputs),
            "outputs": list(catalog.fis.outputs),
            "rules": format_rules(catalog.fis.rules),
            "defuzz_resolution": catalog.fis.defuzz_resolution,
        }
    return doc


def dumps_catalog(catalog: Catalog) -> str:
    """Canonical text form; stable byte-for-byte across round trips."""
    return json.dumps(catalog_to_doc(catalog), indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def save_catalog(catalog: Catalog, path) -> None:
    """Write the canonical text, which is made before the file is opened.

    An existing file is overwritten in place and cut to the new length, to
    spare ext4's flush after a truncate-and-rewrite; the write is not
    atomic.  A catalog that has no such text, because its metadata holds a
    non-finite float or a value JSON cannot hold, or because its text
    cannot be encoded as UTF-8 (a lone surrogate in a name or code),
    raises DefinitionError and leaves any file at path as it was.
    """
    try:
        data = dumps_catalog(catalog).encode("utf-8")
    except (TypeError, ValueError) as exc:  # UnicodeEncodeError is a ValueError
        raise DefinitionError(f"catalog cannot be saved: {exc}") from None
    _overwrite(path, data)


def _overwrite(path, data: bytes) -> None:
    """Write data over the file at path in place, then cut a regular file to its length.

    Opening with truncation would make ext4 flush the file on close (see
    the module docstring).  A pipe or device cannot be cut, and need not be.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _object(node, path, keys=None) -> dict:
    """node, refused unless it is an object with no key outside keys (any keys if None)."""
    if not isinstance(node, dict):
        raise SchemaError(path, f"expected an object, got {type(node).__name__}")
    if keys is not None:
        extra = node.keys() - keys
        if extra:
            raise SchemaError(path, f"unknown key '{min(extra)}'")
    return node


def _get(node: dict, key: str, path: str, types=object, what=None):
    """node[key], refused if missing or, at path/key, if not of types (named by what)."""
    if key not in node:
        raise SchemaError(path, f"missing required key '{key}'")
    value = node[key]
    if not isinstance(value, types):
        at = f"{path.rstrip('/')}/{key}"
        raise SchemaError(at, f"expected {what}, got {type(value).__name__}")
    return value


def _number(node, path) -> float:
    """node as a float, refused unless it is a finite number (a bool is not one)."""
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:  # an integer past the largest float; its digits are not echoed
        message = "expected a finite number, got an integer too large for a float"
        raise SchemaError(path, message) from None
    if not math.isfinite(value):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return value


def _codes(node: dict, key: str, path: str):
    """Each string of the array node[key], yielded as it is checked, so that a
    caller's own check of one code comes before the next code is read."""
    for i, code in enumerate(_get(node, key, path, list, "an array")):
        if not isinstance(code, str):
            raise SchemaError(f"{path}/{key}/{i}", f"expected a string, got {type(code).__name__}")
        yield code


def _mf_from_json(node, path):
    mtype = _get(_object(node, path), "type", path, str, "a string")
    cls = SHAPES.get(mtype)
    if cls is None:
        raise SchemaError(
            f"{path}/type", f"unknown membership type {mtype!r} (use one of {', '.join(SHAPES)})"
        )
    names = [f.name for f in fields(cls)]
    _object(node, path, {"type", *names})
    args = {}
    for name in names:
        if name == "levels":
            args[name] = list(_codes(node, name, path))
            if not args[name]:
                raise SchemaError(f"{path}/{name}", "needs at least one code")
        else:
            args[name] = _number(_get(node, name, path), f"{path}/{name}")
    try:
        return cls(**args)
    except DefinitionError as exc:
        raise SchemaError(path, str(exc)) from None


def _variable_from_json(node, path) -> LinguisticVariable:
    node = _object(node, path, {"name", "kind", "domain", "terms"})
    name = _get(node, "name", path, str, "a string")
    kind = _get(node, "kind", path, str, "a string")
    if kind not in VARIABLE_KINDS:
        raise SchemaError(
            f"{path}/kind", f"unknown kind {kind!r} (use one of {', '.join(VARIABLE_KINDS)})"
        )

    dom_node = _get(node, "domain", path)
    dom_path = f"{path}/domain"
    try:
        if isinstance(dom_node, list):
            if len(dom_node) != 2:
                raise SchemaError(dom_path, "interval domain must be a [lo, hi] pair")
            domain = Interval(*(_number(b, f"{dom_path}/{i}") for i, b in enumerate(dom_node)))
        elif isinstance(dom_node, dict):
            domain = CodeList(_codes(_object(dom_node, dom_path, {"codes"}), "codes", dom_path))
        else:
            raise SchemaError(dom_path, "domain must be a [lo, hi] pair or {\"codes\": [...]}")
    except DefinitionError as exc:
        raise SchemaError(dom_path, str(exc)) from None

    terms = {}
    for i, term_node in enumerate(_get(node, "terms", path, list, "an array")):
        term_path = f"{path}/terms/{i}"
        term_node = _object(term_node, term_path, {"name", "mf"})
        term_name = _get(term_node, "name", term_path, str, "a string")
        if term_name in terms:
            raise SchemaError(f"{term_path}/name", f"duplicate term name '{term_name}'")
        terms[term_name] = _mf_from_json(_get(term_node, "mf", term_path), f"{term_path}/mf")

    try:
        return LinguisticVariable(name=name, kind=kind, domain=domain, terms=terms)
    except DefinitionError as exc:
        raise SchemaError(path, str(exc)) from None


def catalog_from_doc(doc) -> Catalog:
    """Build a Catalog from a parsed JSON document, validating as it goes."""
    doc = _object(doc, "/", {"schema_version", "metadata", "variables", "fis"})
    version = _get(doc, "schema_version", "/")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            "/schema_version", f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    metadata = _object(doc.get("metadata", {}), "/metadata")

    var_nodes = _get(doc, "variables", "/", list, "an array")
    if not var_nodes:
        raise SchemaError("/variables", "needs at least one variable")
    variables: dict[str, LinguisticVariable] = {}
    for i, node in enumerate(var_nodes):
        var = _variable_from_json(node, f"/variables/{i}")
        if var.name in variables:
            raise SchemaError(f"/variables/{i}/name", f"duplicate variable name '{var.name}'")
        variables[var.name] = var

    fis = _fis_from_json(doc["fis"], "/fis", variables) if "fis" in doc else None
    return Catalog(variables=variables, metadata=metadata, fis=fis)


def _fis_from_json(node, path, variables) -> FuzzyInferenceSystem:
    node = _object(node, path, {"inputs", "outputs", "rules", "defuzz_resolution"})

    def named(key):
        chosen = {}
        for i, n in enumerate(_codes(node, key, path)):
            if n not in variables:
                raise SchemaError(f"{path}/{key}/{i}", f"unknown variable '{n}'")
            chosen[n] = variables[n]
        if not chosen:
            raise SchemaError(f"{path}/{key}", "needs at least one variable")
        return chosen

    inputs = named("inputs")
    outputs = named("outputs")
    rules_text = _get(node, "rules", path, str, "a string")
    resolution = node.get("defuzz_resolution", 1001)
    if isinstance(resolution, bool) or not isinstance(resolution, int):
        raise SchemaError(f"{path}/defuzz_resolution", "expected an integer")
    try:
        return FuzzyInferenceSystem(inputs, outputs, parse_rules(rules_text), resolution)
    except (RuleSyntaxError, RuleValidationError) as exc:
        raise SchemaError(f"{path}/rules", str(exc)) from None
    except DefinitionError as exc:
        raise SchemaError(path, str(exc)) from None


def load_catalog(path) -> Catalog:
    """Read a catalog from a UTF-8 JSON file, skipping a byte-order mark as some editors write.

    Text that is not UTF-8, or not JSON that Python reads (an integer of over
    4300 digits is not), raises SchemaError at "/"."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError("/", f"{path}: not UTF-8 text: {exc}") from None
        except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
            raise SchemaError("/", f"not valid JSON: {exc}") from None
    return catalog_from_doc(doc)


def load_fis(path) -> FuzzyInferenceSystem:
    """Load a catalog and return its inference system; error if it has none."""
    catalog = load_catalog(path)
    if catalog.fis is None:
        raise SchemaError("/fis", "document does not define an inference system")
    return catalog.fis


def load_training_csv(path) -> TrainingSet:
    """Read observations from a CSV with header ``label,value`` or ``value``.

    Labels are ignored.  A UTF-8 byte-order mark, as spreadsheet exports
    write, is skipped.  Problems, among them text that is not UTF-8 and a
    field longer than ``csv.field_size_limit()``, raise DatasetError, with
    1-based row numbers counting the header as row 1.

    The file is read once.  A plain file, ASCII with LF line ends as a
    script writes it, is converted in one ``map(float, ...)`` over its
    lines (see _plain_values).  Any other file, and every fault, goes to
    the ``csv`` row loop below, which alone parses quoted labels, a
    byte-order mark, CR LF and blank rows, and reports errors; the
    conversion returns only values that loop would return, bit for bit.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    values = _plain_values(data)
    if values is not None:
        return TrainingSet(values)
    row_no = 0
    try:
        with io.TextIOWrapper(io.BytesIO(data), newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{path}: file is empty") from None
            row_no = 1
            cols = [h.strip().lower() for h in header]
            if cols not in (["label", "value"], ["value"]):
                raise DatasetError(
                    f"{path}: header must be 'label,value' or 'value', got {','.join(header)!r}"
                )
            width = len(cols)
            values: list[float] = []
            for row_no, row in enumerate(reader, start=2):
                # a blank row's cells, joined, are blank: one join and strip
                # costs far less than a strip per cell in a generator
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise DatasetError(
                        f"{path}: row {row_no}: expected {width} column(s), got {len(row)}"
                    )
                # float() alone would refuse the separators U+001C to U+001F,
                # which str.strip() removes as whitespace
                raw = row[-1].strip()
                try:
                    value = float(raw)
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {row_no}: could not parse {raw!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DatasetError(f"{path}: row {row_no}: non-finite value {raw!r}")
                values.append(value)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        # the reader failed on the row after the last one it returned
        raise DatasetError(f"{path}: row {row_no + 1}: {exc}") from None
    if not values:
        raise DatasetError(f"{path}: no data rows")
    return TrainingSet(np.array(values))


def _plain_values(data: bytes) -> np.ndarray | None:
    """The values of a plain training CSV file's bytes, or None where the row loop must read them.

    A plain file is ASCII with no quote, no NUL and no carriage return,
    so each line is a row and each comma ends a cell; no line longer than
    csv.field_size_limit() bytes; a ``value`` or ``label,value`` header;
    and a last cell in every row that float() takes to a finite value.
    float() of a cell's bytes takes what the loop's float(cell.strip())
    takes of its text, with the same value, except that it refuses the
    separators U+001C to U+001F and a blank row, and a row with a comma
    too many keeps it in its last cell, which float() then refuses.  The
    lines are read one at a time, so no list of them is built.
    """
    if not data.isascii() or b'"' in data or b"\0" in data or b"\r" in data:
        return None
    limit = csv.field_size_limit()
    if len(data) > limit and max(map(len, io.BytesIO(data))) > limit:
        return None
    lines = io.BytesIO(data)
    cols = [h.strip().lower() for h in lines.readline().split(b",")]
    if cols not in ([b"label", b"value"], [b"value"]):
        return None
    cells = lines
    if len(cols) == 2:
        cells = map(operator.itemgetter(2), map(operator.methodcaller("partition", b","), lines))
    try:
        values = np.fromiter(map(float, cells), float)
    except ValueError:
        return None
    if not values.size or not np.isfinite(values).all():
        return None
    return values
