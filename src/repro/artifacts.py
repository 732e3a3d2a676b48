"""Schema-checked loading of the JSON artifacts the CLI reads back.

Every ``repro.*/N`` document a command loads from disk — replay records,
the performance ledger — goes through :func:`load_document`, which turns
each way a file can be unusable (unreadable, truncated, not an object,
wrong schema, a field of the wrong JSON type) into one
:class:`ArtifactError` carrying the reason.  The CLI prints it as
``error: <path>: <reason>`` and exits 2, never with a traceback.
"""

from __future__ import annotations

import json
from functools import cache

#: How each Python type a field may be checked against reads in JSON.
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}

#: A JSON number: an integer or a float (never a boolean).
NUMBER = (int, float)


class ArtifactError(ValueError):
    """An artifact file that cannot be used; ``str()`` is the reason."""


def json_name(value) -> str:
    """How ``value``'s type reads in JSON (``"an array"``, ``"null"``)."""
    return _JSON_NAMES[type(value)]


def _describe(kind) -> str:
    if kind == NUMBER:
        return "a number"
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    return _JSON_NAMES[kind]


@cache  # the kinds are the loaders' constant field tables
def _types(kind) -> tuple:
    return sum(map(_types, kind), ()) if isinstance(kind, tuple) else (kind,)


def check_fields(document: dict, fields: dict, optional=()) -> None:
    """Raise :class:`ArtifactError` unless every field of ``fields`` is in
    ``document`` with its type.

    ``fields`` maps a dotted field path (``"program.words_hex"``) to the
    JSON type its value must have: a type, or a tuple of alternatives
    (``NUMBER``, ``(bool, type(None))``); list a parent before its
    children.  A name in ``optional`` may be absent.  Types match exactly,
    so a boolean is never an integer."""
    for name, kind in fields.items():
        parent, _, key = name.rpartition(".")
        holder = _field(document, parent) if parent else document
        if key not in holder:
            if name in optional:
                continue
            raise ArtifactError(f"missing field {name}")
        if type(holder[key]) not in _types(kind):
            raise ArtifactError(
                f"field {name} is {json_name(holder[key])}, "
                f"not {_describe(kind)}")


def check_items(name: str, items: list, kind) -> None:
    """Raise :class:`ArtifactError` unless every item of the array field
    ``name`` has the JSON type ``kind``."""
    types = _types(kind)
    for item in items:
        if type(item) not in types:
            raise ArtifactError(
                f"field {name} holds {json_name(item)}, "
                f"not {_describe(kind)}")


def load_document(path: str, schema: str, fields: dict) -> dict:
    """The JSON object at ``path``, checked against ``schema`` and
    ``fields`` (see :func:`check_fields`)."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ArtifactError(exc.strerror or str(exc)) from exc
    except ValueError as exc:  # malformed or truncated JSON, bad encoding
        raise ArtifactError(f"not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ArtifactError(
            f"top level is {json_name(document)}, not an object")
    if document.get("schema") != schema:
        raise ArtifactError(
            f"schema is {document.get('schema')!r}, not {schema!r}")
    check_fields(document, fields)
    return document


def _field(document: dict, name: str):
    value = document
    for key in name.split("."):
        value = value[key]
    return value
