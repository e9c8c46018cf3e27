"""Canonical JSON algebra documents.

Format: {"dim": n, "labels": [...], "brackets": [{"i": i, "j": j, "v": {...}}],
"meta": {...}} with 0 <= i < j < dim, v keyed by stringified basis indices and
valued by rationals rendered "p/q" (or "p" for integers), parsed to an int
when integral, else a Fraction.  Keys and rationals are ASCII decimals, keys
without sign, space or leading zero.  Unlisted pairs are zero brackets.  Any
other key, of the document or of a bracket entry, is an error, so a misspelt
one is not read as absent.  meta is free-form, except that d, defect and t
must be nonnegative integers:
``analyze`` reads meta d as the generator count of the Heisenberg part and
checks meta defect, t and variant against the values it derives from the
algebra and d.
Serialization is canonical: brackets sorted by (i, j), v keys sorted
numerically, UTF-8, no floats; parse ∘ serialize is the identity on canonical
documents.  A key repeated in any JSON object is an error, not the last value.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

from .exactla import _ratio
from .liealg import LieAlgebra


class DocumentError(ValueError):
    """Malformed algebra document."""


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


def rational_str(x: Fraction) -> str:
    return str(x)


def parse_rational(s) -> int | Fraction:
    """"p" or "p/q" as an exact rational: an int when integral, else a Fraction."""
    if not isinstance(s, str) or not _RATIONAL.match(s):
        raise DocumentError(f"rational must look like 'p' or 'p/q', got {s!r}")
    p, _, q = s.partition("/")
    return _ratio(int(p), int(q or 1))


def vector_to_json(v: dict) -> dict:
    """A sparse vector as JSON: string keys in ascending order, rational values."""
    return {str(k): rational_str(v[k]) for k in sorted(v)}


def algebra_to_document(a: LieAlgebra, meta: dict | None = None) -> dict:
    brackets = [{"i": i, "j": j, "v": vector_to_json(a.bracket[(i, j)])} for (i, j) in sorted(a.bracket)]
    doc = {"dim": a.dim, "labels": list(a.labels), "brackets": brackets}
    if meta is not None:
        doc["meta"] = meta
    return doc


def _is_int(x) -> bool:
    # bool is an int subclass, but true/false are not indices.
    return isinstance(x, int) and not isinstance(x, bool)


def _reject_unknown_keys(obj: dict, known: tuple, what: str) -> None:
    for key in obj:
        if key not in known:
            raise DocumentError(f"unknown {what} key {key!r}")


def document_to_algebra(doc) -> tuple[LieAlgebra, dict]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    _reject_unknown_keys(doc, ("dim", "labels", "brackets", "meta"), "document")
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 0:
        raise DocumentError("dim must be a nonnegative integer")
    labels = doc.get("labels")
    if not isinstance(labels, list) or len(labels) != dim or not all(
        isinstance(s, str) for s in labels
    ):
        raise DocumentError("labels must be a list of dim strings")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise DocumentError("brackets must be a list")
    # Every pair and coordinate read is kept, zeros too, so that a repeat is
    # caught whatever its first value; LieAlgebra drops the zeros.
    table = {}
    for entry in brackets:
        if not isinstance(entry, dict) or not {"i", "j", "v"} <= set(entry):
            raise DocumentError("each bracket needs i, j and v")
        _reject_unknown_keys(entry, ("i", "j", "v"), "bracket")
        i, j, v = entry["i"], entry["j"], entry["v"]
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < dim):
            raise DocumentError(f"bracket pair ({i},{j}) violates 0 <= i < j < dim")
        if (i, j) in table:
            raise DocumentError(f"duplicate bracket pair ({i},{j})")
        if not isinstance(v, dict):
            raise DocumentError("bracket value must be an object")
        vec = table[(i, j)] = {}
        for k_str, x_str in v.items():
            try:
                k = int(k_str)
            except (TypeError, ValueError) as e:
                raise DocumentError(f"bad coordinate key {k_str!r}") from e
            if not 0 <= k < dim:
                raise DocumentError(f"coordinate {k} outside dimension {dim}")
            if k in vec:
                raise DocumentError(f"coordinate {k} given twice in bracket ({i},{j})")
            vec[k] = parse_rational(x_str)
        # A key is the ASCII decimal of its index; int() also reads "+2", " 2", "1_0" and
        # non-ASCII digits, so a key that reads as a repeat is reported as one first.
        for k_str, k in zip(v, vec):
            if k_str != str(k):
                raise DocumentError(f"bad coordinate key {k_str!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DocumentError("meta must be an object")
    for key in ("d", "defect", "t"):
        if key in meta and not (_is_int(meta[key]) and meta[key] >= 0):
            raise DocumentError(f"meta {key} must be a nonnegative integer")
    return LieAlgebra(dim, labels, table), meta


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is an error (json keeps the last)."""
    for key, n in Counter(k for k, _ in pairs).items():
        if n > 1:
            raise DocumentError(f"key {key!r} given twice in one JSON object")
    return dict(pairs)


def loads(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nesting too deep
        raise DocumentError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    return doc


def read_document(path: str) -> tuple[LieAlgebra, dict]:
    with open(path, encoding="utf-8") as f:
        return document_to_algebra(loads(f.read()))


def write_document(path: str, a: LieAlgebra, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(algebra_to_document(a, meta)))
