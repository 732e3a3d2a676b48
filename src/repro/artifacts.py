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

#: How each Python type a field may be checked against reads in JSON.
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


class ArtifactError(ValueError):
    """An artifact file that cannot be used; ``str()`` is the reason."""


def load_document(path: str, schema: str, fields: dict[str, type]) -> dict:
    """The JSON object at ``path``, checked against ``schema`` and ``fields``.

    ``fields`` maps a dotted field path (``"program.words_hex"``) to the
    type its value must have; list a parent before its children."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ArtifactError(exc.strerror or str(exc)) from exc
    except ValueError as exc:  # malformed or truncated JSON, bad encoding
        raise ArtifactError(f"not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ArtifactError(
            f"top level is {_JSON_NAMES[type(document)]}, not an object")
    if document.get("schema") != schema:
        raise ArtifactError(
            f"schema is {document.get('schema')!r}, not {schema!r}")
    for name, kind in fields.items():
        parent, _, key = name.rpartition(".")
        holder = _field(document, parent) if parent else document
        if key not in holder:
            raise ArtifactError(f"missing field {name}")
        if not isinstance(holder[key], kind):
            raise ArtifactError(
                f"field {name} is {_JSON_NAMES[type(holder[key])]}, "
                f"not {_JSON_NAMES[kind]}")
    return document


def _field(document: dict, name: str):
    value = document
    for key in name.split("."):
        value = value[key]
    return value
