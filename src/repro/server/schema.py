"""Typed API envelopes for the versioned ``/v1/`` surface.

The legacy Table-3 endpoints grew their parameters ad hoc: search
options travel as loosely typed body keys, listings return whole
collections, and validation is scattered through the controllers.  The
v1 surface validates **once at the edge** instead:

* :class:`SearchRequest` — the body of ``POST /v1/registry/{user}/search``,
  parsed by :meth:`SearchRequest.from_json` with *strict* field
  checking: unknown fields are rejected (400), every default is
  explicit, and enum/type errors carry the offending value.
* :class:`SearchResponse` — the typed result envelope
  (``apiVersion``/``backend``/``searchKind``/``hits``/``nextCursor``),
  emitted verbatim by the server and by ``repro search --json``.
* :class:`Page` — the envelope of every v1 listing: ``items`` plus an
  opaque ``nextCursor`` resuming after the last item.

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
from typing import Any, Sequence

from repro.errors import ValidationError

#: the version prefix every v1 cursor carries on the wire
_CURSOR_PREFIX = "v1."

#: listing page-size bounds; DEFAULT_LIMIT applies when the client
#: sends no ``limit``
DEFAULT_LIMIT = 100
MAX_LIMIT = 1000

#: search-parameter enums (shared with the legacy adapter)
SEARCH_KINDS = ("pe", "workflow", "both")
QUERY_TYPES = ("text", "semantic", "code", "hybrid")
#: ranking engines a search may name (``GET /v1/backends``)
BACKENDS = ("exact",)

#: write-surface bounds
MAX_BULK_ITEMS = 1000
MAX_IDEMPOTENCY_KEY_LEN = 200


# ---------------------------------------------------------------------------
# Opaque cursors
# ---------------------------------------------------------------------------
def encode_cursor(scope: str, after: int) -> str:
    """Mint an opaque cursor resuming ``scope`` after record id ``after``."""
    raw = json.dumps({"s": scope, "a": int(after)}, separators=(",", ":"))
    token = base64.urlsafe_b64encode(raw.encode("utf-8")).decode("ascii")
    return _CURSOR_PREFIX + token


def decode_cursor(cursor: str, scope: str) -> int:
    """The ``after`` id of ``cursor``; 400 on garbage or scope mismatch."""

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
    if payload.get("s") != scope:
        raise bad(
            f"cursor was minted by {payload.get('s')!r}, not {scope!r}"
        )
    return int(position)


# ---------------------------------------------------------------------------
# Strict field parsing
# ---------------------------------------------------------------------------
def reject_unknown_fields(
    body: dict[str, Any], allowed: Sequence[str], *, where: str
) -> None:
    """400 when ``body`` carries any key outside ``allowed``.

    Unknown fields are almost always a client bug (a typoed option
    silently changing nothing); the v1 edge refuses them instead of
    guessing.
    """
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown field(s) in {where}: {', '.join(unknown)}",
            params={"unknownFields": unknown},
            details=f"allowed fields: {', '.join(sorted(allowed))}",
        )


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


#: the integers SQLite stores (64-bit signed): a wider JSON integer
#: bound into a statement raises ``OverflowError``
INT64_MAX = 2**63 - 1


def check_int64(value: int, field: str, params: dict[str, Any]) -> None:
    """400 naming ``field`` when the integer ``value`` is outside the
    64 bits SQLite stores."""
    if not -INT64_MAX - 1 <= value <= INT64_MAX:
        raise ValidationError(
            f"{field} must fit in 64 bits, got {value}", params=params
        )


def parse_limit(value: Any) -> int:
    """Validate a listing/search page size (defaults handled by caller).

    Digit strings are accepted because listings also take their page
    parameters from the URL query string (``?limit=5``), where every
    value arrives as text.
    """
    value = parse_int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"limit must be an integer, got {value!r}",
            params={"limit": value},
        )
    if not 1 <= value <= MAX_LIMIT:
        raise ValidationError(
            f"limit must be between 1 and {MAX_LIMIT}, got {value}",
            params={"limit": value},
        )
    return int(value)


def parse_k(body: dict[str, Any]) -> int | None:
    """A search's ``k``: ``None`` (unbounded) or a positive integer."""
    k = body.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k <= 0):
        raise ValidationError(
            f"k must be a positive integer, got {k!r}", params={"k": k}
        )
    if k is not None:
        check_int64(k, "k", {"k": k})
    return k


def _parse_enum(body: dict, key: str, choices: Sequence[str], default: str) -> str:
    value = body.get(key, default)
    if not isinstance(value, str) or value.lower() not in choices:
        raise ValidationError(
            f"{key} must be one of {', '.join(choices)}; got {value!r}",
            params={key: value},
        )
    return value.lower()


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------
@dataclass
class SearchRequest:
    """The validated body of ``POST /v1/registry/{user}/search``.

    Every default is explicit here — the wire body may omit any field
    except ``query`` and always resolves to the same request.
    """

    query: str
    kind: str = "both"  # pe | workflow | both
    query_type: str = "text"  # text | semantic | code (paper default: text)
    backend: str = "exact"  # ranking engine; "exact" is the only one
    k: int | None = None  # top-k cap applied at ranking time
    limit: int | None = None  # page size over the ranked hits
    cursor: str | None = None  # resume token from a previous page
    query_embedding: Any = None  # client-side query vector (optional)

    #: every wire field the envelope accepts
    FIELDS = (
        "query",
        "kind",
        "queryType",
        "backend",
        "k",
        "limit",
        "cursor",
        "queryEmbedding",
    )

    @classmethod
    def from_json(cls, body: dict[str, Any] | None) -> "SearchRequest":
        """Parse + validate a wire body; raises 400 on any malformation."""
        body = body or {}
        if not isinstance(body, dict):
            raise ValidationError(
                f"search request must be a JSON object, got "
                f"{type(body).__name__}"
            )
        reject_unknown_fields(body, cls.FIELDS, where="search request")
        query = body.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ValidationError(
                "query is required and must be a non-empty string",
                params={"query": query},
            )
        _check_text("query", query)
        kind = _parse_enum(body, "kind", SEARCH_KINDS, "both")
        query_type = _parse_enum(body, "queryType", QUERY_TYPES, "text")
        backend = body.get("backend", "exact")
        if not isinstance(backend, str) or backend not in BACKENDS:
            raise ValidationError(
                f"unknown index backend {backend!r}",
                params={"backend": backend},
                details=f"registered backends: {', '.join(BACKENDS)}",
            )
        k = parse_k(body)
        limit = body.get("limit")
        if limit is not None:
            limit = parse_limit(limit)
        cursor = body.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise ValidationError(
                f"cursor must be a string, got {type(cursor).__name__}",
                params={"cursor": cursor},
            )
        # edge validation: malformed embeddings must 400 here, not 500
        # when np.asarray/the shard product chokes downstream
        query_embedding = parse_embedding_field(body, "queryEmbedding")
        return cls(
            query=query,
            kind=kind,
            query_type=query_type,
            backend=backend,
            k=k,
            limit=limit,
            cursor=cursor,
            query_embedding=query_embedding,
        )


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


# ---------------------------------------------------------------------------
# Write envelopes (the v1 write surface)
# ---------------------------------------------------------------------------
def parse_embedding_field(body: dict[str, Any], key: str) -> list | None:
    """A client-side embedding field: ``None`` or a non-empty number array."""
    value = body.get(key)
    if value is None:
        return None
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(
            isinstance(item, (int, float)) and not isinstance(item, bool)
            for item in value
        )
    ):
        raise ValidationError(
            f"{key} must be a non-empty array of numbers",
            params={key: type(value).__name__},
        )
    return list(value)


def check_embedding_dim(key: str, value: list | None, dim: int) -> None:
    """400 unless the client vector ``value`` (if any) has ``dim``
    entries: the width of the model that ranks its shard."""
    if value is not None and len(value) != dim:
        raise ValidationError(
            f"{key} must have {dim} dimensions, got {len(value)}",
            params={f"{key}Dim": len(value)},
        )


def parse_pe_imports(body: dict[str, Any]) -> list[str]:
    """``peImports``: an array of strings (empty when absent)."""
    imports = body.get("peImports", [])
    if not isinstance(imports, list) or not all(
        isinstance(item, str) for item in imports
    ):
        raise ValidationError(
            "peImports must be an array of strings",
            params={"peImports": imports},
        )
    return list(imports)


def parse_pe_ids(body: dict[str, Any]) -> list[int]:
    """``peIds``: an array of integers (empty when absent)."""
    pe_ids = body.get("peIds", [])
    if not isinstance(pe_ids, list) or not all(
        isinstance(item, int) and not isinstance(item, bool) for item in pe_ids
    ):
        raise ValidationError(
            "peIds must be an array of integers", params={"peIds": pe_ids}
        )
    for item in pe_ids:
        check_int64(item, "peIds", {"peIds": pe_ids})
    return list(pe_ids)


def parse_if_version(body: dict[str, Any]) -> int | None:
    """``ifVersion``: a non-negative integer or absent.

    0 means "the target must not exist yet" (create-only); n > 0 pins
    the target's current revision.  Anything else is a 400.
    """
    value = body.get("ifVersion")
    if value is None:
        return None
    value = parse_int(value)  # CLI/query-string friendliness, like limit
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(
            f"ifVersion must be a non-negative integer, got {value!r}",
            params={"ifVersion": value},
        )
    return int(value)


def parse_idempotency_key(body: dict[str, Any]) -> str | None:
    """``idempotencyKey``: a short, non-empty opaque string or absent."""
    value = body.get("idempotencyKey")
    if value is None:
        return None
    if (
        not isinstance(value, str)
        or not value.strip()
        or len(value) > MAX_IDEMPOTENCY_KEY_LEN
    ):
        raise ValidationError(
            "idempotencyKey must be a non-empty string of at most "
            f"{MAX_IDEMPOTENCY_KEY_LEN} characters",
            params={"idempotencyKey": value},
        )
    return value


def _check_text(key: str, value: str) -> str:
    """``value``, if UTF-8 can encode it.  ``json.loads`` accepts a lone
    surrogate (``"\\ud800"``), which neither SQLite nor the text codec
    can store: such a string is a 400 naming its field, not a 500."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as err:
        raise ValidationError(
            f"{key} is not valid Unicode text: a lone surrogate at"
            f" offset {err.start}",
            params={"field": key, "offset": err.start},
        ) from None
    return value


def legacy_text(key: str, value: Any) -> str:
    """A legacy Table-3 body field in the string form its handler stores
    (``str(value)``), through :func:`_check_text`: those routes read
    their fields one by one, not through a parser here."""
    return _check_text(key, str(value))


def _parse_required_str(body: dict[str, Any], key: str, *, where: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ValidationError(
            f"{key} is required and must be a non-empty string in {where}",
            params={key: value},
        )
    return _check_text(key, value)


def _parse_optional_str(body: dict[str, Any], key: str, default: str = "") -> str:
    value = body.get(key, default)
    if not isinstance(value, str):
        raise ValidationError(
            f"{key} must be a string, got {type(value).__name__}",
            params={key: value},
        )
    return _check_text(key, value)


def parse_credentials(body: dict[str, Any]) -> tuple[str, str]:
    """The ``(userName, password)`` of an ``/auth`` body, each as its
    string form (a missing one is empty)."""
    return (
        _check_text("userName", str(body.get("userName", ""))),
        _check_text("password", str(body.get("password", ""))),
    )


def _check_path_name(body: dict[str, Any], key: str, name: str) -> None:
    """A body identity field, when present, must agree with the path."""
    value = body.get(key)
    if value is not None and value != name:
        raise ValidationError(
            f"{key} in the body ({value!r}) disagrees with the path "
            f"segment ({name!r})",
            params={key: value, "path": name},
        )


@dataclass
class RegisterPERequest:
    """The validated body of ``PUT /v1/registry/{user}/pes/{name}``.

    The PE's name comes from the *path*; a ``peName`` body field is
    allowed only when it agrees.  ``ifVersion`` pins the caller's
    current record of that name (0 = create-only) and
    ``idempotencyKey`` makes the write safely retryable.
    """

    name: str
    code: str
    description: str = ""
    description_origin: str = "user"
    source: str = ""
    imports: list[str] = field(default_factory=list)
    desc_embedding: list | None = None
    code_embedding: list | None = None
    if_version: int | None = None
    idempotency_key: str | None = None

    FIELDS = (
        "peName",
        "peCode",
        "description",
        "descriptionOrigin",
        "peSource",
        "peImports",
        "descEmbedding",
        "codeEmbedding",
        "ifVersion",
        "idempotencyKey",
    )
    #: fields rejected inside bulk items (they are request-level knobs)
    META_FIELDS = ("ifVersion", "idempotencyKey")

    @classmethod
    def from_json(
        cls,
        body: dict[str, Any] | None,
        *,
        name: str | None = None,
        where: str = "register request",
        allow_meta: bool = True,
    ) -> "RegisterPERequest":
        body = body or {}
        if not isinstance(body, dict):
            raise ValidationError(
                f"{where} must be a JSON object, got {type(body).__name__}"
            )
        allowed = cls.FIELDS if allow_meta else tuple(
            f for f in cls.FIELDS if f not in cls.META_FIELDS
        )
        reject_unknown_fields(body, allowed, where=where)
        if name is None:
            name = _parse_required_str(body, "peName", where=where)
        else:
            _check_path_name(body, "peName", name)
        code = _parse_required_str(body, "peCode", where=where)
        imports = parse_pe_imports(body)
        return cls(
            name=name,
            code=code,
            description=_parse_optional_str(body, "description"),
            description_origin=_parse_optional_str(
                body, "descriptionOrigin", "user"
            ),
            source=_parse_optional_str(body, "peSource"),
            imports=imports,
            desc_embedding=parse_embedding_field(body, "descEmbedding"),
            code_embedding=parse_embedding_field(body, "codeEmbedding"),
            if_version=parse_if_version(body) if allow_meta else None,
            idempotency_key=(
                parse_idempotency_key(body) if allow_meta else None
            ),
        )


@dataclass
class RegisterWorkflowRequest:
    """The validated body of ``PUT /v1/registry/{user}/workflows/{name}``.

    The path ``{name}`` is the workflow's *entry point* (the identifier
    users retrieve/run by); an ``entryPoint`` body field is allowed
    only when it agrees.
    """

    entry_point: str
    code: str
    workflow_name: str = ""
    description: str = ""
    source: str = ""
    pe_ids: list[int] = field(default_factory=list)
    desc_embedding: list | None = None
    if_version: int | None = None
    idempotency_key: str | None = None

    FIELDS = (
        "entryPoint",
        "workflowName",
        "description",
        "workflowCode",
        "workflowSource",
        "peIds",
        "descEmbedding",
        "ifVersion",
        "idempotencyKey",
    )
    #: fields rejected inside bulk items (they are request-level knobs)
    META_FIELDS = ("ifVersion", "idempotencyKey")

    @classmethod
    def from_json(
        cls,
        body: dict[str, Any] | None,
        *,
        name: str | None = None,
        where: str = "register request",
        allow_meta: bool = True,
    ) -> "RegisterWorkflowRequest":
        body = body or {}
        if not isinstance(body, dict):
            raise ValidationError(
                f"{where} must be a JSON object, got {type(body).__name__}"
            )
        allowed = cls.FIELDS if allow_meta else tuple(
            f for f in cls.FIELDS if f not in cls.META_FIELDS
        )
        reject_unknown_fields(body, allowed, where=where)
        if name is None:
            name = _parse_required_str(body, "entryPoint", where=where)
        else:
            _check_path_name(body, "entryPoint", name)
        code = _parse_required_str(body, "workflowCode", where=where)
        pe_ids = parse_pe_ids(body)
        return cls(
            entry_point=name,
            code=code,
            workflow_name=_parse_optional_str(body, "workflowName", name),
            description=_parse_optional_str(body, "description"),
            source=_parse_optional_str(body, "workflowSource"),
            pe_ids=pe_ids,
            desc_embedding=parse_embedding_field(body, "descEmbedding"),
            if_version=parse_if_version(body) if allow_meta else None,
            idempotency_key=(
                parse_idempotency_key(body) if allow_meta else None
            ),
        )


@dataclass
class BulkRegisterRequest:
    """The validated body of ``POST /v1/registry/{user}/pes:bulk`` and
    ``POST /v1/registry/{user}/workflows:bulk``.

    ``items`` are complete registrations of one kind, each parsed by
    ``item`` — that kind's PUT envelope, :class:`RegisterPERequest` or
    :class:`RegisterWorkflowRequest` — with its name field (``peName``,
    ``entryPoint``) required per item; ``ifVersion``/``idempotencyKey``
    are request-level only.  ``ifVersion`` here pins the *registry
    mutation counter* — the batch is all-or-nothing against a known
    registry state.
    """

    items: list
    if_version: int | None = None
    idempotency_key: str | None = None

    FIELDS = ("items", "ifVersion", "idempotencyKey")

    @classmethod
    def from_json(
        cls, body: dict[str, Any] | None, *, item: type
    ) -> "BulkRegisterRequest":
        body = body or {}
        if not isinstance(body, dict):
            raise ValidationError(
                f"bulk register request must be a JSON object, got "
                f"{type(body).__name__}"
            )
        reject_unknown_fields(body, cls.FIELDS, where="bulk register request")
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise ValidationError(
                "items is required and must be a non-empty array",
                params={"items": type(items).__name__},
            )
        if len(items) > MAX_BULK_ITEMS:
            raise ValidationError(
                f"items must contain at most {MAX_BULK_ITEMS} entries, "
                f"got {len(items)}",
                params={"items": len(items)},
            )
        parsed = []
        for position, entry in enumerate(items):
            if not isinstance(entry, dict):
                raise ValidationError(
                    f"items[{position}] must be a JSON object, got "
                    f"{type(entry).__name__}",
                    params={"position": position},
                )
            parsed.append(
                item.from_json(
                    entry, where=f"items[{position}]", allow_meta=False
                )
            )
        return cls(
            items=parsed,
            if_version=parse_if_version(body),
            idempotency_key=parse_idempotency_key(body),
        )


# ---------------------------------------------------------------------------
# Ingest + jobs envelopes
# ---------------------------------------------------------------------------
#: bounds for the ingest envelope's tuning knobs
MAX_INGEST_FILE_BYTES = 10_000_000
MIN_CHUNK_LINES, MAX_CHUNK_LINES = 10, 2000


def _parse_bounded_int(
    body: dict[str, Any], key: str, default: int, low: int, high: int
) -> int:
    value = parse_int(body.get(key, default))
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{key} must be an integer, got {value!r}", params={key: value}
        )
    if not low <= value <= high:
        raise ValidationError(
            f"{key} must be between {low} and {high}, got {value}",
            params={key: value},
        )
    return int(value)


@dataclass
class IngestRequest:
    """The validated body of ``POST /v1/registry/{user}/ingest``.

    Exactly one source is required: ``path`` (a directory on the
    *server's* filesystem — single-tenant trusted deployments) or
    ``archive`` (a base64 ``.tar.gz`` uploaded in the request,
    extracted through the validating walker).  The tuning knobs bound
    the work per file/chunk/batch; all have safe defaults.
    """

    path: str | None = None
    archive: bytes | None = None
    batch_size: int = 64
    max_file_bytes: int = 1_000_000
    max_chunk_lines: int = 200

    FIELDS = ("path", "archive", "batchSize", "maxFileBytes", "maxChunkLines")

    @classmethod
    def from_json(cls, body: dict[str, Any] | None) -> "IngestRequest":
        body = body or {}
        if not isinstance(body, dict):
            raise ValidationError(
                f"ingest request must be a JSON object, got "
                f"{type(body).__name__}"
            )
        reject_unknown_fields(body, cls.FIELDS, where="ingest request")
        path = body.get("path")
        if path is not None and (not isinstance(path, str) or not path.strip()):
            raise ValidationError(
                "path must be a non-empty string", params={"path": path}
            )
        raw_archive = body.get("archive")
        archive: bytes | None = None
        if raw_archive is not None:
            if not isinstance(raw_archive, str) or not raw_archive:
                raise ValidationError(
                    "archive must be a base64-encoded tarball string",
                    params={"archive": type(raw_archive).__name__},
                )
            try:
                archive = base64.b64decode(
                    raw_archive.encode("ascii"), validate=True
                )
            except (binascii.Error, ValueError, UnicodeError) as exc:
                raise ValidationError(
                    "archive is not valid base64", details=str(exc)
                ) from None
        if (path is None) == (archive is None):
            raise ValidationError(
                "exactly one of path or archive is required",
                params={"path": path is not None, "archive": archive is not None},
            )
        return cls(
            path=path,
            archive=archive,
            batch_size=_parse_bounded_int(
                body, "batchSize", 64, 1, MAX_BULK_ITEMS
            ),
            max_file_bytes=_parse_bounded_int(
                body, "maxFileBytes", 1_000_000, 1, MAX_INGEST_FILE_BYTES
            ),
            max_chunk_lines=_parse_bounded_int(
                body, "maxChunkLines", 200, MIN_CHUNK_LINES, MAX_CHUNK_LINES
            ),
        )


@dataclass
class DeleteRequest:
    """The (optional) body of the v1 DELETE routes."""

    if_version: int | None = None
    idempotency_key: str | None = None

    FIELDS = ("ifVersion", "idempotencyKey")

    @classmethod
    def from_json(cls, body: dict[str, Any] | None) -> "DeleteRequest":
        body = body or {}
        if not isinstance(body, dict):
            raise ValidationError(
                f"delete request must be a JSON object, got "
                f"{type(body).__name__}"
            )
        reject_unknown_fields(body, cls.FIELDS, where="delete request")
        return cls(
            if_version=parse_if_version(body),
            idempotency_key=parse_idempotency_key(body),
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
