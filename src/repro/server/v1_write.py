"""The v1 write surface: one core behind both API generations.

Mirror of the search redesign (:mod:`repro.server.v1`): every
registration and removal — the typed ``PUT``/``DELETE``/bulk ``/v1/``
routes *and* the legacy Table-3 ``/pe/add`` / ``/workflow/add`` /
``remove`` routes — runs through :func:`execute_write`, a single
serialized write core.  The legacy handlers are thin adapters that keep
their historical validation, response bodies and error envelopes
byte-identical while sharing the exact same decision tree.

What the core adds over the legacy path:

* **Idempotency keys** — a write carrying ``idempotencyKey`` (body
  field, or the HTTP ``Idempotency-Key`` header carried as request
  metadata; the body field wins) records its response in the DAO's
  ``write_receipts`` table keyed by ``(user, key)`` together with a
  request *fingerprint*.  Replaying the same key with the same request
  returns the stored :class:`~repro.server.schema.WriteResponse`
  verbatim without touching the registry (mutation counter unchanged —
  the observable no-op); the same key fronting a *different* request is
  a 409 ``IdempotencyConflict``.
* **Conditional writes** — ``ifVersion`` pins the target's per-record
  ``revision`` (0 = "must not exist yet"); for bulk, the registry
  mutation counter.  A mismatch is a 412 ``PreconditionFailed`` and the
  registry is untouched.
* **Bulk registration** — ``POST /v1/registry/{user}/pes:bulk`` and
  ``POST /v1/registry/{user}/workflows:bulk`` land any number of
  records with one DAO ``executemany`` transaction and one index
  ``add_many`` per shard kind (the service's shared bulk body, entered
  as ``register_{kind}s_bulk``).

Nothing here branches on the record kind: ``PUT``, bulk and
``DELETE`` each have one handler with the kind bound per route
(:mod:`repro.server.app`), the record's name field and metadata come
from :data:`~repro.registry.entities.RECORD_KINDS`, and the service's
per-kind entries (``register_pe``, ``revise_workflow``, ...) are looked
up by kind when called.

Each write is one transaction, the DAO's write scope
(:meth:`~repro.registry.dao.SqliteDAO.write`): the receipt read → the
``ifVersion`` check → the §3.1 dedup → the mutation(s) → the receipt
store commit together or not at all.  The scope takes SQLite's write
lock before its first read, so writers of every process on one file
run one at a time: N concurrent replays of one key resolve to exactly
one registry write, and ``ifVersion`` races to exactly one winner.  A
process killed mid-write leaves neither its mutation nor its receipt.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import (
    IdempotencyError,
    PreconditionFailedError,
    ValidationError,
)
from repro.net.transport import Request, Response
from repro.registry.dao import _embed_bytes
from repro.registry.entities import (
    RECORD_CLASSES,
    RECORD_KINDS,
    PERecord,
    UserRecord,
    WorkflowRecord,
)
from repro.server.controllers import BaseController
from repro.server.schema import (
    DELETE,
    IDEMPOTENCY_KEY,
    PE_BULK,
    WORKFLOW_BULK,
    BulkRegisterRequest,
    RegisterPERequest,
    RegisterWorkflowRequest,
    Table,
    WriteResponse,
    check_embedding_dim,
    parse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.app import LaminarServer


# ---------------------------------------------------------------------------
# Shared record preparation (summarize/embed fallbacks, legacy-identical)
# ---------------------------------------------------------------------------
def build_pe_record(
    app: "LaminarServer",
    *,
    name: str,
    code: str,
    description: str = "",
    description_origin: str = "user",
    source: str = "",
    imports: list[str] | None = None,
    desc_embedding: Any = None,
    code_embedding: Any = None,
) -> PERecord:
    """Assemble a PE record with the server-side fallbacks of §3.1.1.

    Exactly the legacy controller's preparation sequence: an empty
    description is auto-summarized (origin becomes ``auto``), a missing
    description embedding is computed from the final description, and a
    missing code embedding from the source text (falling back to the
    name) so the code shard always has a row for every registered PE.
    A client vector must be as wide as the model that ranks its shard,
    checked before any model work or DAO write.
    """
    check_embedding_dim("descEmbedding", desc_embedding, app.semantic.model.dim)
    check_embedding_dim(
        "codeEmbedding", code_embedding, app.code_search.model.dim
    )
    if not description:
        description = app.models.summarizer.summarize(source or name, name=name)
        description_origin = "auto"
    if desc_embedding is None:
        desc_embedding = app.semantic.embed_description(description)
    else:
        desc_embedding = np.asarray(desc_embedding, dtype=np.float32)
    if code_embedding is None:
        code_embedding = app.code_search.embed_code(source or name)
    else:
        code_embedding = np.asarray(code_embedding, dtype=np.float32)
    return PERecord(
        pe_id=0,
        pe_name=name,
        description=description,
        description_origin=description_origin,
        pe_code=code,
        pe_source=source,
        pe_imports=list(imports or []),
        code_embedding=code_embedding,
        desc_embedding=desc_embedding,
    )


def build_workflow_record(
    app: "LaminarServer",
    *,
    entry_point: str,
    code: str,
    workflow_name: str = "",
    description: str = "",
    source: str = "",
    pe_ids: list[int] | None = None,
    desc_embedding: Any = None,
) -> WorkflowRecord:
    """Assemble a workflow record (legacy-identical embedding fallback;
    a client vector's width checked as in :func:`build_pe_record`)."""
    check_embedding_dim("descEmbedding", desc_embedding, app.semantic.model.dim)
    if desc_embedding is None:
        desc_embedding = app.semantic.embed_description(
            description or entry_point
        )
    else:
        desc_embedding = np.asarray(desc_embedding, dtype=np.float32)
    return WorkflowRecord(
        workflow_id=0,
        workflow_name=workflow_name or entry_point,
        entry_point=entry_point,
        description=description,
        workflow_code=code,
        workflow_source=source,
        pe_ids=[int(pe_id) for pe_id in (pe_ids or [])],
        desc_embedding=desc_embedding,
    )


#: the ``Idempotency-Key`` header, checked as the body field is
_HEADER = Table(IDEMPOTENCY_KEY)

#: the PUT envelope and the bulk table of each wire kind
_REQUESTS = {"pe": RegisterPERequest, "workflow": RegisterWorkflowRequest}
_BULK = {"pe": PE_BULK, "workflow": WORKFLOW_BULK}


def _build_record(
    app: "LaminarServer", kind: str, fields: dict[str, Any]
) -> PERecord | WorkflowRecord:
    """The record a parsed PUT envelope or bulk item describes.

    ``fields`` (a PUT body less its request-level ``ifVersion`` and
    ``idempotencyKey``, or a bulk item) are the keyword arguments of
    ``build_{kind}_record``, which is looked up when called: a wrapper
    installed on this module after import is the one entered.
    """
    return globals()[f"build_{kind}_record"](app, **fields)


def write_fingerprint(
    op: str, kind: str, target: str, body: dict[str, Any] | None
) -> str:
    """Canonical request digest bound to an idempotency key.

    Hashes the operation identity (op, kind, path target) plus the wire
    body *minus* ``idempotencyKey`` itself — so the key arriving as a
    header vs. a body field fingerprints identically, and any other
    difference (code, description, ifVersion, …) is a detectable
    conflict.
    """
    content = {
        key: value
        for key, value in (body or {}).items()
        if key != "idempotencyKey"
    }
    raw = json.dumps(
        [op, kind, target, content], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()


def _fingerprint_if_keyed(
    idempotency_key: str | None,
    op: str,
    kind: str,
    target: str,
    request: Request,
) -> str:
    """Fingerprint the request only when an idempotency key rides along.

    Without a key there is no receipt to bind, and canonicalizing a
    bulk body (potentially thousands of embedded floats) would be pure
    overhead on the write hot path.
    """
    if idempotency_key is None:
        return ""
    return write_fingerprint(op, kind, target, request.body)


# ---------------------------------------------------------------------------
# The write command + outcome
# ---------------------------------------------------------------------------
@dataclass
class WriteCommand:
    """One validated, prepared write for :func:`execute_write`.

    Built by the v1 controller (from the typed envelopes) and by the
    legacy adapters (from their historical parsing) alike.
    """

    action: str  # register | delete | bulk-register
    kind: str  # pe | workflow
    record: PERecord | WorkflowRecord | None = None  # single register
    records: list | None = None  # bulk register
    target_id: int | None = None  # delete by id (legacy adapters)
    target_name: str | None = None  # delete by name
    if_version: int | None = None
    idempotency_key: str | None = None
    fingerprint: str = ""
    #: v1 PUT semantics: when the caller already holds a record under
    #: the target name with *different* content, the PUT supersedes
    #: that binding (upsert) instead of §3.1-forking a second record
    #: under the same name.  The legacy add routes keep the historical
    #: register-only behaviour (False).
    upsert: bool = False


@dataclass
class WriteOutcome:
    """What a write produced: the v1 envelope plus adapter material.

    ``status``/``body`` are the versioned response (stored verbatim in
    the receipt when an idempotency key rides along); ``records`` are
    the stored entity objects the legacy adapters re-shape into their
    historical bodies.
    """

    status: int
    body: dict[str, Any]
    records: list = field(default_factory=list)
    created: bool = False
    replayed: bool = False

    def response(self) -> Response:
        headers = {"Idempotent-Replay": "true"} if self.replayed else {}
        return Response(self.status, self.body, headers)


# ---------------------------------------------------------------------------
# The core
# ---------------------------------------------------------------------------
def _check_revision(
    if_version: int | None, actual: int, *, kind: str, name: str
) -> None:
    """412 unless ``ifVersion`` (when given) equals the live revision.

    ``actual`` is 0 when the record does not exist, so ``ifVersion: 0``
    reads "create-only" and any positive value pins one revision.
    """
    if if_version is None or if_version == actual:
        return
    raise PreconditionFailedError(
        f"ifVersion {if_version} does not match the current revision "
        f"{actual} of {kind} {name!r}",
        params={"ifVersion": if_version, "revision": actual, "name": name},
        details="re-read the record and retry with its current revision",
    )


def _metadata_equal(a, b) -> bool:
    """Whether two same-identity records carry identical metadata.

    Identity (name + code digest) already matched; this decides whether
    a PUT is a pure no-op or an in-place metadata revision.  Vectors
    compare by their float32 bytes, the rule by which the DAO decides
    that a write changed a shard.
    """
    record_kind = RECORD_KINDS[type(a)]
    return all(
        getattr(a, name) == getattr(b, name) for name in record_kind.metadata
    ) and all(
        _embed_bytes(getattr(a, name)) == _embed_bytes(getattr(b, name))
        for name in record_kind.vector_fields
    )


def _register_single(
    app: "LaminarServer", user: UserRecord, cmd: WriteCommand
) -> WriteOutcome:
    registry = app.registry
    record = cmd.record
    name = getattr(record, RECORD_KINDS[type(record)].name_field)
    # one read of the name: the caller's binding and the dedup candidates
    named = registry.named(type(record), name)
    current = next((r for r in named if user.user_id in r.owners), None)
    _check_revision(
        cmd.if_version,
        0 if current is None else current.revision,
        kind=cmd.kind,
        name=name,
    )
    # v1 PUT semantics against an existing binding: changed identity
    # (code) supersedes the record, changed metadata revises it in
    # place, identical content is the §3.1 dedup no-op
    write, args = "register", (user, record, named)
    if cmd.upsert and current is not None:
        if current.identity_key() != record.identity_key():
            write, args = "upsert", (user, current, record, named)
        elif not _metadata_equal(current, record):
            write, args = "revise", (user, current, record)
    stored, created = getattr(registry, f"{write}_{cmd.kind}")(*args)
    item = {**stored.to_json(), "revision": stored.revision}
    item["created"] = created
    status = 201 if created else 200
    body = WriteResponse(
        op="register",
        kind=cmd.kind,
        status=status,
        items=[item],
        registry_version=registry.dao.mutation_counter(),
        idempotency_key=cmd.idempotency_key,
    ).to_json()
    return WriteOutcome(status, body, records=[stored], created=created)


def _check_bulk_version(registry, if_version: int | None) -> None:
    """412 unless ``ifVersion`` (when given) equals the mutation counter."""
    if if_version is None:
        return
    counter = registry.dao.mutation_counter()
    if counter != if_version:
        raise PreconditionFailedError(
            f"ifVersion {if_version} does not match the registry "
            f"mutation counter {counter}",
            params={"ifVersion": if_version, "registryVersion": counter},
            details="bulk ifVersion pins the registry mutation counter",
        )


def _register_bulk(
    app: "LaminarServer", user: UserRecord, cmd: WriteCommand
) -> WriteOutcome:
    registry = app.registry
    _check_bulk_version(registry, cmd.if_version)
    stored, created = getattr(registry, f"register_{cmd.kind}s_bulk")(
        user, list(cmd.records)
    )
    items = [
        {**record.to_json(), "revision": record.revision, "created": was_created}
        for record, was_created in zip(stored, created)
    ]
    status = 201 if any(created) else 200
    body = WriteResponse(
        op="bulk-register",
        kind=cmd.kind,
        status=status,
        items=items,
        registry_version=registry.dao.mutation_counter(),
        idempotency_key=cmd.idempotency_key,
    ).to_json()
    return WriteOutcome(status, body, records=list(stored), created=any(created))


def _delete(
    app: "LaminarServer", user: UserRecord, cmd: WriteCommand
) -> WriteOutcome:
    registry = app.registry
    record_type = RECORD_CLASSES[cmd.kind]
    if cmd.target_name is not None:
        record = registry.get_by_name(user, record_type, cmd.target_name)
    else:
        record = registry.get_by_id(user, record_type, cmd.target_id)
    name = getattr(record, RECORD_KINDS[type(record)].name_field)
    _check_revision(cmd.if_version, record.revision, kind=cmd.kind, name=name)
    getattr(registry, f"remove_{cmd.kind}_record")(user, record)
    body = WriteResponse(
        op="delete",
        kind=cmd.kind,
        status=200,
        items=[],
        removed=True,
        registry_version=registry.dao.mutation_counter(),
        idempotency_key=cmd.idempotency_key,
    ).to_json()
    return WriteOutcome(200, body, records=[record])


def _receipt_outcome(
    receipt: tuple[str, int, dict], fingerprint: str, key: str
) -> WriteOutcome:
    """Resolve a stored receipt: replay on a match, 409 on a mismatch."""
    stored_fingerprint, status, body = receipt
    if stored_fingerprint != fingerprint:
        raise IdempotencyError(
            f"idempotency key {key!r} was already used by a different request",
            params={"idempotencyKey": key},
            details="replaying a key requires the identical request body "
            "and target",
        )
    return WriteOutcome(status, body, replayed=True)


def _try_replay(
    app: "LaminarServer",
    user: UserRecord,
    key: str | None,
    fingerprint: str,
) -> WriteOutcome | None:
    """Receipt fast path, taken *before* any record preparation.

    Replays must not re-pay the summarize/embed model work the original
    write did — a receipt needs only the key and the wire fingerprint.
    Receipts are immutable once stored, so a hit here (outside the
    write scope) is authoritative; a miss falls through to the check
    inside :func:`execute_write`'s scope.
    """
    if key is None:
        return None
    receipt = app.registry.dao.get_write_receipt(user.user_id, key)
    if receipt is None:
        return None
    return _receipt_outcome(receipt, fingerprint, key)


def _effective_idempotency_key(
    request: Request, parsed: str | None
) -> str | None:
    """The body's ``idempotencyKey`` wins; else the transport's
    ``Idempotency-Key`` header (validated with the same rules)."""
    if parsed is not None:
        return parsed
    header = (request.headers or {}).get("Idempotency-Key")
    if header is None:
        return None
    body = {"idempotencyKey": header}
    return parse(_HEADER, body, "headers")["idempotency_key"]


def _dispatch_write(
    app: "LaminarServer", user: UserRecord, cmd: WriteCommand
) -> WriteOutcome:
    if cmd.action == "register":
        return _register_single(app, user, cmd)
    if cmd.action == "bulk-register":
        return _register_bulk(app, user, cmd)
    if cmd.action == "delete":
        return _delete(app, user, cmd)
    # defensive: commands are built by this module's callers
    raise ValidationError(
        f"unknown write action {cmd.action!r}",
        params={"action": cmd.action},
    )


def execute_write(
    app: "LaminarServer", user: UserRecord, cmd: WriteCommand
) -> WriteOutcome:
    """Run one registry write as one transaction: one DAO write scope
    (:meth:`~repro.registry.dao.SqliteDAO.write`), one commit.

    Inside it, in order:

    1. **receipt** — a keyed write reads the receipt of ``(user,
       idempotencyKey)``.  A stored one resolves the write: a matching
       fingerprint returns the recorded response verbatim (replay =
       no-op), a different one is a 409;
    2. **conditional check + write** — ``ifVersion`` is checked against
       the live revision (or the mutation counter for bulk), then the
       service writes;
    3. **receipt store** — a keyed write records its response.

    The scope holds SQLite's write lock from its first read, so a
    writer of this or another process sharing the file waits for the
    commit and then sees the receipt or revision it left: exactly one
    writer wins a key, and one ``ifVersion`` race.  A write that raises
    rolls back whole — no mutation, no receipt, no index change — so its
    key stays retryable (errors are retryable by design: a 412/409/404
    must re-evaluate on the next attempt, not replay).

    Receipts are never pruned: a key replays for the life of the
    registry file (the ``created_at`` stamp is kept but nothing reads
    it).
    """
    dao = app.registry.dao
    key = cmd.idempotency_key
    with dao.write():
        if key is not None:
            receipt = dao.get_write_receipt(user.user_id, key)
            if receipt is not None:
                return _receipt_outcome(receipt, cmd.fingerprint, key)
        outcome = _dispatch_write(app, user, cmd)
        if key is not None:
            dao.save_write_receipt(
                user.user_id,
                key,
                cmd.fingerprint,
                outcome.status,
                outcome.body,
                time.time(),
            )
        return outcome


# ---------------------------------------------------------------------------
# The /v1/ write controller
# ---------------------------------------------------------------------------
class V1WriteController(BaseController):
    """Handlers behind the ``/v1/`` write route table; each route binds
    its ``kind`` (``pe`` or ``workflow``) in :mod:`repro.server.app`."""

    def put(self, kind: str, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        fields = vars(_REQUESTS[kind].from_json(request.body, name=params["name"]))
        if_version = fields.pop("if_version")
        key = _effective_idempotency_key(request, fields.pop("idempotency_key"))
        fingerprint = _fingerprint_if_keyed(
            key, "register", kind, params["name"], request
        )
        replay = _try_replay(self.app, user, key, fingerprint)
        if replay is not None:
            return replay.response()
        cmd = WriteCommand(
            action="register",
            kind=kind,
            record=_build_record(self.app, kind, fields),
            if_version=if_version,
            idempotency_key=key,
            fingerprint=fingerprint,
            upsert=True,
        )
        return execute_write(self.app, user, cmd).response()

    def bulk(self, kind: str, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        req = BulkRegisterRequest.from_json(request.body, table=_BULK[kind])
        key = _effective_idempotency_key(request, req.idempotency_key)
        fingerprint = _fingerprint_if_keyed(
            key, "bulk-register", kind, f"{kind}s:bulk", request
        )
        # the fast paths matter most here: neither a replay nor a
        # stale-CAS batch may pay the per-item summarize/embed model
        # work just to discard it.  Both are advisory (the authoritative
        # receipt and counter checks re-run inside the write scope).
        replay = _try_replay(self.app, user, key, fingerprint)
        if replay is not None:
            return replay.response()
        _check_bulk_version(self.app.registry, req.if_version)
        cmd = WriteCommand(
            action="bulk-register",
            kind=kind,
            records=[_build_record(self.app, kind, item) for item in req.items],
            if_version=req.if_version,
            idempotency_key=key,
            fingerprint=fingerprint,
        )
        return execute_write(self.app, user, cmd).response()

    def delete(
        self, kind: str, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        req = parse(DELETE, request.body, "delete request")
        key = _effective_idempotency_key(request, req["idempotency_key"])
        cmd = WriteCommand(
            action="delete",
            kind=kind,
            target_name=params["name"],
            if_version=req["if_version"],
            idempotency_key=key,
            fingerprint=_fingerprint_if_keyed(
                key, "delete", kind, params["name"], request
            ),
        )
        return execute_write(self.app, user, cmd).response()
