"""Request envelopes as field tables, and the typed v1 response envelopes.

Every request body the server reads is declared once, as a *table*: a
tuple of :class:`Field` rows, one per wire field, in the order they are
checked.  One function, :func:`parse`, runs any table over a body and
returns the values by attribute name.  What a bad value is, and the 400
naming it, comes from the row's *kind* (:data:`KINDS`), so every
envelope decides it alike: a body that is not a JSON object, or that
carries a key outside its table, is a 400; every string is UTF-8
encodable ``text`` (``json.loads`` accepts a lone surrogate, which
neither SQLite nor the text codec stores); every ``int`` fits the 64
bits SQLite stores; every ``vector`` entry is finite in float32.

The Table-3 routes parse their own tables ``legacy``: unknown keys
pass, and a text field is ``str(value)``, as those handlers always
stored it.

Cursors are opaque base64url-encoded JSON, *scoped*: a cursor minted by
one listing (say ``pes``) is rejected by every other with a 400 instead
of silently mis-paginating.  All v1 listings order by **ascending
record id**, so a cursor marks a stable position: records inserted
concurrently receive higher ids and appear on later pages — a walk
never skips or duplicates a pre-existing row.
"""

from __future__ import annotations

import base64
import binascii
import bisect
import json
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.jobs.manager import JOB_STATES
from repro.net.latency import PRESETS

#: the version prefix every v1 cursor carries on the wire
_CURSOR_PREFIX = "v1."

#: listing page-size bounds; DEFAULT_LIMIT applies when the client
#: sends no ``limit``
DEFAULT_LIMIT = 100
MAX_LIMIT = 1000

#: ranking engines a search may name (``GET /v1/backends``)
BACKENDS = ("exact",)

#: the most items one bulk write (or ingest batch) lands
MAX_BULK_ITEMS = 1000

#: the integers SQLite stores (64-bit signed): a wider JSON integer
#: bound into a statement raises ``OverflowError``
INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Opaque cursors
# ---------------------------------------------------------------------------
def encode_cursor(scope: str, after: int) -> str:
    """Mint an opaque cursor resuming ``scope`` after record id ``after``."""
    raw = json.dumps({"s": scope, "a": int(after)}, separators=(",", ":"))
    token = base64.urlsafe_b64encode(raw.encode("utf-8")).decode("ascii")
    return _CURSOR_PREFIX + token


def decode_cursor(cursor: str, scope: str, limit: int = 0) -> int:
    """The ``after`` id of ``cursor``; 400 on garbage, on a scope
    mismatch, or on a position whose page of ``limit`` would end past
    :data:`INT64_MAX` (no response mints one: a search ranks to the
    page's end, which SQLite must bind)."""

    def bad(details: str) -> ValidationError:
        return ValidationError(
            "invalid cursor", params={"cursor": cursor}, details=details
        )

    if not isinstance(cursor, str) or not cursor.startswith(_CURSOR_PREFIX):
        raise bad("cursors are opaque v1 tokens minted by a listing response")
    try:
        raw = base64.urlsafe_b64decode(
            cursor[len(_CURSOR_PREFIX) :].encode("ascii")
        )
        payload = json.loads(raw.decode("utf-8"))
    except (binascii.Error, ValueError, UnicodeError) as exc:
        raise bad(f"undecodable cursor token: {exc}") from None
    position = payload.get("a") if isinstance(payload, dict) else None
    # bools pass isinstance(int) and negative offsets would silently
    # page backwards — both are forgeries, not positions
    if isinstance(position, bool) or not isinstance(position, int) or position < 0:
        raise bad("cursor payload is not a position")
    if position > INT64_MAX - limit:
        raise bad("cursor position is past the last one a page can reach")
    if payload.get("s") != scope:
        raise bad(
            f"cursor was minted by {payload.get('s')!r}, not {scope!r}"
        )
    return int(position)


def parse_int(value: Any) -> Any:
    """``value`` as an ``int`` when it is a string of at most 18 ASCII
    digits (every one fits SQLite's 64-bit integers); any other value
    unchanged, for the caller's own check.

    The one place text becomes a number: a path segment or URL query
    string carries every value as text.  ``str.isdigit`` alone would
    take ``"²"`` (which ``int`` refuses) and ``"٣"`` (which ``int``
    reads as 3), and ``int`` alone takes ``"+1"``, ``" 1"`` and
    ``"1_0"``.
    """
    if (
        isinstance(value, str)
        and value.isascii()
        and value.isdigit()
        and len(value) <= 18
    ):
        return int(value)
    return value


# ---------------------------------------------------------------------------
# Field tables
# ---------------------------------------------------------------------------
#: the ``default`` of a field the body must carry
REQUIRED: Any = object()


@dataclass(frozen=True, slots=True)
class Field:
    """One wire field of a request envelope.

    ``key`` is the JSON key and ``attr`` the name :func:`parse` returns
    the value under; ``kind`` names its check in :data:`KINDS`.  An
    absent field takes ``default`` (or is a 400 when :data:`REQUIRED`);
    so does a ``null`` one when the default is ``None``.  ``bounds`` are
    the kind's limits: an ``int``'s ``(low, high)`` (``high`` ``None``
    for "any 64-bit integer from ``low``"), an ``enum``'s choices, a
    ``name``'s greatest length, an ``items`` field's item table.
    ``meta`` marks a request-level field, refused inside a bulk item.
    ``loose`` lets an ``int`` arrive as ASCII digits and an ``enum`` in
    any letter case.  ``message`` and ``details`` replace the wording
    of the kind's 400, and ``params(body)`` its offending parameters,
    where an envelope has always worded it otherwise.
    """

    key: str
    attr: str
    kind: str
    default: Any = None
    bounds: Any = None
    meta: bool = False
    loose: bool = False
    message: str | None = None
    details: str | None = None
    params: Callable[[dict], dict] | None = None


class _Wrong(Exception):
    """A kind's verdict on a value, which :func:`parse` words as the
    400.  Its args: a message template over the field's ``key`` and
    ``bounds``, the ``value``, its ``type`` and the envelope
    (``where``); the value; and, if given, what ``params`` report in
    place of the value."""


def _utf8(key: str, value: str) -> str:
    """``value``, if UTF-8 can encode it; a lone surrogate is a 400."""
    if value.isascii():
        return value
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as err:
        raise ValidationError(
            f"{key} is not valid Unicode text: a lone surrogate at"
            f" offset {err.start}",
            params={"field": key, "offset": err.start},
        ) from None
    return value


def _text(row: Field, value: Any, legacy: bool) -> str:
    """Any string UTF-8 can encode (a Table-3 body: ``str(value)``)."""
    if legacy:
        value = str(value)
    elif not isinstance(value, str):
        raise _Wrong("{key} must be a string, got {type}", value)
    return _utf8(row.key, value)


def _name(row: Field, value: Any, legacy: bool) -> str:
    """Non-empty text, at most ``bounds`` characters.  A Table-3 body
    takes any truthy value in its string form; a falsy one is absent."""
    if legacy:
        if not value and row.default is REQUIRED:
            raise _Wrong("{key} is required", value)
        if not value:
            return row.default
        value = str(value)
    elif (
        not isinstance(value, str)
        or not value.strip()
        or (row.bounds is not None and len(value) > row.bounds)
    ):
        raise _Wrong(
            "{key} is required and must be a non-empty string in {where}", value
        )
    return _utf8(row.key, value)


#: what an ``int`` must be, worded by its lower bound when it has no
#: upper one
_INTEGER = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def _int(row: Field, value: Any, legacy: bool) -> int:
    """An integer within ``bounds``, and always within 64 bits; ASCII
    digits too when ``loose`` (a value from a query string)."""
    if row.loose:
        value = parse_int(value)
    low, high = row.bounds or (None, None)
    wrong = isinstance(value, bool) or not isinstance(value, int)
    if wrong or (high is None and low is not None and value < low):
        what = _INTEGER[low if high is None else None]
        raise _Wrong(f"{{key}} must be {what}, got {{value!r}}", value)
    if high is not None and not low <= value <= high:
        raise _Wrong(f"{{key}} must be between {low} and {high}, got {{value}}", value)
    if not -INT64_MAX - 1 <= value <= INT64_MAX:
        raise _Wrong("{key} must fit in 64 bits, got {value}", value)
    return value


def _int_list(row: Field, value: Any, legacy: bool) -> list[int]:
    """An array of integers, each within 64 bits."""
    if not isinstance(value, list) or not all(
        isinstance(item, int) and not isinstance(item, bool) for item in value
    ):
        raise _Wrong("{key} must be an array of integers", value)
    for item in value:
        if not -INT64_MAX - 1 <= item <= INT64_MAX:
            raise _Wrong(f"{{key}} must fit in 64 bits, got {item}", value)
    return list(value)


def _str_list(row: Field, value: Any, legacy: bool) -> list[str]:
    """An array of text."""
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise _Wrong("{key} must be an array of strings", value)
    return [_utf8(row.key, item) for item in value]


def _vector(row: Field, value: Any, legacy: bool) -> np.ndarray:
    """A non-empty array of numbers, each finite in float32, as a
    float32 array.  ``json.loads`` reads ``NaN``, ``Infinity`` and
    ``1e400``, and ``1e300`` overflows float32: stored, any of them
    would make every later score on its shard ``NaN``."""
    numbers = isinstance(value, (list, tuple)) and (
        # one C-level pass over the types; bools are ints to isinstance
        set(map(type, value)) <= {int, float}
        or all(
            isinstance(item, (int, float)) and not isinstance(item, bool)
            for item in value
        )
    )
    if not numbers or not value:
        raise _Wrong(
            "{key} must be a non-empty array of numbers", value, type(value).__name__
        )
    try:
        with np.errstate(over="ignore"):
            vector = np.asarray(value, dtype=np.float32)
    except OverflowError:  # an integer wider than a double
        vector = None
    if vector is None or not np.isfinite(vector).all():
        raise _Wrong(
            "{key} must hold numbers that are finite in float32", value, "non-finite"
        )
    return vector


def _enum(row: Field, value: Any, legacy: bool) -> str:
    """One of the ``bounds`` choices (a Table-3 body: ``str(value)``,
    and its messages name the folded value)."""
    if legacy:
        value = str(value)
    choice = value.lower() if row.loose and isinstance(value, str) else value
    if choice not in row.bounds:
        choices = ", ".join(row.bounds)
        raise _Wrong(
            f"{{key}} must be one of {choices}; got {{value!r}}",
            choice if legacy else value,
        )
    return choice


def _cursor(row: Field, value: Any, legacy: bool) -> str:
    """A resume token: a string, which :func:`decode_cursor` checks
    against the scope of the listing it resumes."""
    if not isinstance(value, str):
        raise _Wrong("{key} must be a string, got {type}", value)
    return value


def _items(row: Field, value: Any, legacy: bool) -> list[dict]:
    """A bulk body's items: 1 to :data:`MAX_BULK_ITEMS` objects, each
    parsed with the item table in ``bounds``."""
    if not isinstance(value, list) or not value:
        raise _Wrong(
            "{key} is required and must be a non-empty array",
            value,
            type(value).__name__,
        )
    if len(value) > MAX_BULK_ITEMS:
        raise _Wrong(
            f"{{key}} must contain at most {MAX_BULK_ITEMS} entries, "
            f"got {len(value)}",
            value,
            len(value),
        )
    parsed = []
    for position, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"{row.key}[{position}] must be a JSON object, got "
                f"{type(entry).__name__}",
                params={"position": position},
            )
        parsed.append(parse(row.bounds, entry, f"{row.key}[{position}]"))
    return parsed


def _base64(row: Field, value: Any, legacy: bool) -> bytes:
    """Non-empty base64 text, decoded."""
    if not isinstance(value, str) or not value:
        raise _Wrong("{key} must be a base64 string", value, type(value).__name__)
    try:
        return base64.b64decode(value.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeError) as exc:
        raise ValidationError(
            f"{row.key} is not valid base64", details=str(exc)
        ) from None


def _number(row: Field, value: Any, legacy: bool) -> float:
    """What ``float`` reads: the Table-3 bodies' one numeric form."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise _Wrong("{key} must be a number, got {value!r}", value) from None


def _ref(row: Field, value: Any, legacy: bool) -> dict:
    """A registry reference, ``{"id": <int>}`` or ``{"name": <text>}``;
    a wrong id is reported as ``{key} id`` with the whole reference."""
    if isinstance(value, dict) and "id" in value:
        by_id = Field(row.key, "id", "int", loose=True)
        try:
            return {"id": _int(by_id, value["id"], legacy)}
        except _Wrong as wrong:
            template, wrong_id = wrong.args
            raise _Wrong(template.replace("{key}", "{key} id"), wrong_id, value)
    if isinstance(value, dict) and "name" in value:
        return {"name": _text(row, value["name"], legacy)}
    raise _Wrong("{key} must contain 'id' or 'name'", value)


#: every field kind, by the name a :class:`Field` gives it
KINDS: dict[str, Callable[[Field, Any, bool], Any]] = {
    "text": _text,
    "name": _name,
    "int": _int,
    "int_list": _int_list,
    "str_list": _str_list,
    "vector": _vector,
    "enum": _enum,
    "cursor": _cursor,
    "items": _items,
    "base64": _base64,
    "number": _number,
    "ref": _ref,
}


class Table(tuple):
    """An envelope's fields, in the order :func:`parse` checks them.
    ``keys`` holds their JSON keys, and ``steps`` what :func:`parse`
    reads of each field (its key, attr, default, kind check and row),
    looked up once."""

    def __new__(cls, *fields: Field) -> "Table":
        table = super().__new__(cls, fields)
        table.keys = frozenset(field.key for field in fields)
        table.steps = tuple(
            (field.key, field.attr, field.default, KINDS[field.kind], field)
            for field in fields
        )
        return table


def parse(
    table: Table,
    body: Any,
    where: str,
    *,
    legacy: bool = False,
    path: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Check ``body`` against ``table``; the values by ``attr``.

    ``where`` names the envelope in 400 messages.  ``legacy`` parses a
    Table-3 body (unknown keys pass, text is ``str(value)``).  ``path``
    holds fields the route's path supplies: the body may repeat one only
    with the same value.  Only an absent body (``None``) reads as
    ``{}``; any other value that is not an object is a 400.
    """
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ValidationError(
            f"{where} must be a JSON object, got {type(body).__name__}"
        )
    if not legacy and not table.keys.issuperset(body):
        unknown = sorted(body.keys() - table.keys)
        raise ValidationError(
            f"unknown field(s) in {where}: {', '.join(unknown)}",
            params={"unknownFields": unknown},
            details=f"allowed fields: {', '.join(sorted(table.keys))}",
        )
    values = {}
    for key, attr, default, check, row in table.steps:
        if path is not None and key in path:
            given, named = body.get(key), path[key]
            if given is not None and given != named:
                raise ValidationError(
                    f"{key} in the body ({given!r}) disagrees with the "
                    f"path segment ({named!r})",
                    params={key: given, "path": named},
                )
            values[attr] = named
            continue
        value = body.get(key, default)
        if value is REQUIRED:
            value = None  # absent: the kind refuses it
        elif value is default:
            values[attr] = default  # absent, or null where that is the default
            continue
        try:
            values[attr] = check(row, value, legacy)
        except _Wrong as wrong:
            template, wrong_value, *shown = wrong.args
            message = (row.message or template).format(
                key=key,
                value=wrong_value,
                type=type(wrong_value).__name__,
                bounds=row.bounds,
                where=where,
            )
            shown = shown[0] if shown else wrong_value
            params = row.params(body) if row.params else {key: shown}
            raise ValidationError(
                message, params=params, details=row.details
            ) from None
    return values


# -- the v1 envelopes ---------------------------------------------------
#: ``POST /v1/registry/{user}/search``; a ``limit`` or ``cursor`` pages
#: over the ranked hits
SEARCH = Table(
    Field(
        "query", "query", "name", REQUIRED,
        message="{key} is required and must be a non-empty string",
    ),
    Field("kind", "kind", "enum", "both", ("pe", "workflow", "both"), loose=True),
    Field(
        "queryType", "query_type", "enum", "text",
        ("text", "semantic", "code", "hybrid"), loose=True,
    ),
    Field(
        "backend", "backend", "enum", "exact", BACKENDS,
        message="unknown index backend {value!r}",
        details=f"registered backends: {', '.join(BACKENDS)}",
    ),
    Field("k", "k", "int", bounds=(1, None)),
    Field("limit", "limit", "int", bounds=(1, MAX_LIMIT), loose=True),
    Field("cursor", "cursor", "cursor"),
    Field("queryEmbedding", "query_embedding", "vector"),
)

#: a write's precondition: the target's ``revision`` (for bulk, the
#: registry mutation counter) it expects; 0 = "must not exist yet"
IF_VERSION = Field(
    "ifVersion", "if_version", "int", bounds=(0, None), meta=True, loose=True
)
#: makes a write safely retryable (also the ``Idempotency-Key`` header)
IDEMPOTENCY_KEY = Field(
    "idempotencyKey", "idempotency_key", "name",
    bounds=200, meta=True,
    message="{key} must be a non-empty string of at most {bounds} characters",
)

#: ``PUT /v1/registry/{user}/pes/{name}`` (the name from the path)
PE = Table(
    Field("peName", "name", "name", REQUIRED),
    Field("peCode", "code", "name", REQUIRED),
    Field("peImports", "imports", "str_list", ()),
    Field("description", "description", "text", ""),
    Field("descriptionOrigin", "description_origin", "text", "user"),
    Field("peSource", "source", "text", ""),
    Field("descEmbedding", "desc_embedding", "vector"),
    Field("codeEmbedding", "code_embedding", "vector"),
    IF_VERSION,
    IDEMPOTENCY_KEY,
)

#: ``PUT /v1/registry/{user}/workflows/{name}``: the path names the
#: workflow's entry point
WORKFLOW = Table(
    Field("entryPoint", "entry_point", "name", REQUIRED),
    Field("workflowCode", "code", "name", REQUIRED),
    Field("peIds", "pe_ids", "int_list", ()),
    Field("workflowName", "workflow_name", "text", ""),
    Field("description", "description", "text", ""),
    Field("workflowSource", "source", "text", ""),
    Field("descEmbedding", "desc_embedding", "vector"),
    IF_VERSION,
    IDEMPOTENCY_KEY,
)


def _bulk(item: Table) -> Table:
    """A bulk body over ``item``'s kind: the items carry their name
    field and no request-level one."""
    rows = Table(*(row for row in item if not row.meta))
    return Table(
        Field("items", "items", "items", REQUIRED, rows),
        IF_VERSION,
        IDEMPOTENCY_KEY,
    )


#: ``POST /v1/registry/{user}/pes:bulk`` and ``…/workflows:bulk``
PE_BULK = _bulk(PE)
WORKFLOW_BULK = _bulk(WORKFLOW)

#: the (optional) body of the v1 DELETE routes
DELETE = Table(IF_VERSION, IDEMPOTENCY_KEY)

#: ``POST /v1/registry/{user}/ingest``: exactly one source, ``path`` (a
#: directory on the *server's* filesystem) or ``archive`` (a base64
#: ``.tar.gz``), and the knobs bounding the work per file/chunk/batch
INGEST = Table(
    Field("path", "path", "name", message="{key} must be a non-empty string"),
    Field(
        "archive", "archive", "base64",
        message="{key} must be a base64-encoded tarball string",
    ),
    Field("batchSize", "batch_size", "int", 64, (1, MAX_BULK_ITEMS), loose=True),
    Field(
        "maxFileBytes", "max_file_bytes", "int", 1_000_000, (1, 10_000_000),
        loose=True,
    ),
    Field(
        "maxChunkLines", "max_chunk_lines", "int", 200, (10, 2000), loose=True
    ),
)

#: every v1 listing (``limit`` defaults to :data:`DEFAULT_LIMIT`)
PAGE = Table(
    Field("limit", "limit", "int", bounds=(1, MAX_LIMIT), loose=True),
    Field("cursor", "cursor", "cursor"),
)

#: ``GET /v1/jobs``
JOBS = Table(
    Field("limit", "limit", "int", DEFAULT_LIMIT, (1, MAX_LIMIT), loose=True),
    Field("state", "state", "enum", bounds=JOB_STATES),
)

# -- the Table-3 bodies (parsed ``legacy``) --------------------------------
#: ``/auth/register`` and ``/auth/login``
AUTH = Table(
    Field("userName", "name", "text", ""),
    Field("password", "password", "text", ""),
)

#: ``POST /registry/{user}/pe/add``
PE_ADD = Table(
    Field(
        "peName", "name", "name", REQUIRED,
        params=lambda body: {"keys": sorted(body)},
    ),
    Field(
        "peCode", "code", "name", REQUIRED,
        params=lambda body: {"pe": body.get("peName")},
    ),
    Field("description", "description", "name", ""),
    Field("descriptionOrigin", "description_origin", "text", "user"),
    Field("peSource", "source", "text", ""),
    Field("peImports", "imports", "str_list", ()),
    Field("descEmbedding", "desc_embedding", "vector"),
    Field("codeEmbedding", "code_embedding", "vector"),
)

#: ``POST /registry/{user}/workflow/add``
WORKFLOW_ADD = Table(
    Field(
        "entryPoint", "entry_point", "name", REQUIRED,
        params=lambda body: {"keys": sorted(body)},
    ),
    Field(
        "workflowCode", "code", "name", REQUIRED,
        params=lambda body: {"workflow": body.get("entryPoint")},
    ),
    Field("workflowName", "workflow_name", "text", ""),
    Field("description", "description", "name", ""),
    Field("workflowSource", "source", "text", ""),
    Field("peIds", "pe_ids", "int_list", ()),
    Field("descEmbedding", "desc_embedding", "vector"),
)

#: the body of ``GET /registry/{user}/search/{search}/type/{type}``
T3_SEARCH = Table(
    Field(
        "queryType", "query_type", "enum", "text", ("text", "semantic", "code"),
        loose=True, message="unknown query type {value!r}",
        details="expected 'text', 'semantic' or 'code'",
    ),
    Field("k", "k", "int", bounds=(1, None)),
    Field("queryEmbedding", "query_embedding", "vector"),
)

#: what ``POST /execution/{user}/run`` reads itself (the execution
#: request parses the rest)
RUN = Table(
    Field("workflowRef", "workflow_ref", "ref"),
    Field("imports", "imports", "str_list", ()),
    Field("timeout", "timeout", "number", 300.0),
)

#: ``POST /engines/{user}/register``
ENGINE = Table(
    Field("engineName", "name", "name", REQUIRED, params=lambda body: {}),
    Field("installScale", "install_scale", "number", 0.0),
    Field(
        "latencyPreset", "latency_preset", "enum",
        bounds=tuple(PRESETS), loose=True,
    ),
    Field("description", "description", "text", ""),
)


class SearchRequest(SimpleNamespace):
    """A parsed :data:`SEARCH` body."""

    @classmethod
    def from_json(cls, body: Any) -> "SearchRequest":
        return cls(**parse(SEARCH, body, "search request"))


class RegisterPERequest(SimpleNamespace):
    """A parsed :data:`PE` body, its name from the path."""

    @classmethod
    def from_json(cls, body: Any, *, name: str) -> "RegisterPERequest":
        return cls(**parse(PE, body, "register request", path={"peName": name}))


class RegisterWorkflowRequest(SimpleNamespace):
    """A parsed :data:`WORKFLOW` body, its entry point from the path."""

    @classmethod
    def from_json(cls, body: Any, *, name: str) -> "RegisterWorkflowRequest":
        return cls(
            **parse(WORKFLOW, body, "register request", path={"entryPoint": name})
        )


class BulkRegisterRequest(SimpleNamespace):
    """A parsed :data:`PE_BULK` or :data:`WORKFLOW_BULK` body."""

    @classmethod
    def from_json(cls, body: Any, *, table: Table) -> "BulkRegisterRequest":
        return cls(**parse(table, body, "bulk register request"))


# ---------------------------------------------------------------------------
# Response envelopes
# ---------------------------------------------------------------------------
@dataclass
class SearchResponse:
    """The typed result envelope of the unified v1 search endpoint."""

    query: str
    kind: str
    query_type: str
    backend: str
    search_kind: str  # result-row shape: text | semantic | code
    k: int | None
    hits: list[dict] = field(default_factory=list)
    next_cursor: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "apiVersion": "v1",
            "query": self.query,
            "kind": self.kind,
            "queryType": self.query_type,
            "backend": self.backend,
            "searchKind": self.search_kind,
            "k": self.k,
            "count": len(self.hits),
            "hits": self.hits,
            "nextCursor": self.next_cursor,
        }


@dataclass
class Page:
    """One page of a v1 listing (ascending-id order, opaque cursor)."""

    items: list[dict]
    limit: int
    next_cursor: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "apiVersion": "v1",
            "count": len(self.items),
            "limit": self.limit,
            "items": self.items,
            "nextCursor": self.next_cursor,
        }


def check_embedding_dim(key: str, value: Any, dim: int) -> None:
    """400 unless the client vector ``value`` (if any) has ``dim``
    entries: the width of the model that ranks its shard."""
    if value is not None and len(value) != dim:
        raise ValidationError(
            f"{key} must have {dim} dimensions, got {len(value)}",
            params={f"{key}Dim": len(value)},
        )


@dataclass
class WriteResponse:
    """The typed result envelope of every v1 write.

    ``items`` carry the stored record JSON extended with ``revision``
    (the per-record conditional-write version) and ``created`` (False =
    the §3.1 dedup resolved onto an existing record).
    ``registryVersion`` is the registry mutation counter *after* the
    write — a replayed idempotent request returns the stored envelope,
    so equal ``registryVersion`` values are the observable no-op proof.
    """

    op: str  # register | delete | bulk-register
    kind: str  # pe | workflow
    status: int  # HTTP status served alongside (201 created / 200 ok)
    items: list[dict] = field(default_factory=list)
    removed: bool = False
    registry_version: int = 0
    idempotency_key: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "apiVersion": "v1",
            "op": self.op,
            "kind": self.kind,
            "count": len(self.items),
            "items": self.items,
            "removed": self.removed,
            "registryVersion": self.registry_version,
            "idempotencyKey": self.idempotency_key,
        }


def paginate_ids(
    ids: Sequence[int],
    *,
    scope: str,
    limit: int,
    cursor: str | None,
) -> tuple[list[int], str | None]:
    """Slice an ascending id listing into one page.

    Returns ``(page_ids, next_cursor)``; ``next_cursor`` is ``None``
    when the page reaches the end of the listing *as of this snapshot*.
    Because ids ascend and new records always receive higher ids, a
    cursor walk over a concurrently growing registry never skips or
    repeats a pre-existing record.
    """
    after = decode_cursor(cursor, scope) if cursor is not None else -1
    start = bisect.bisect_right(ids, after)
    page = [int(rid) for rid in ids[start : start + limit]]
    if start + limit < len(ids):
        return page, encode_cursor(scope, page[-1])
    return page, None
