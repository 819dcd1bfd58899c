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
  records with one DAO ``executemany`` transaction, one index
  ``add_many`` per shard kind and one shard persist (see
  ``RegistryService.register_pes_bulk`` /
  ``register_workflows_bulk``).

All writes serialize on ``LaminarServer.write_lock``: the
receipt-check → conditional-check → service-write → receipt-store
sequence is atomic with respect to every other API write, which is what
makes N concurrent replays of one key resolve to exactly one registry
write, and ``ifVersion`` races resolve to exactly one winner.  Reads
(the search hot path) never take this lock.
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
    NotFoundError,
    PreconditionFailedError,
    ValidationError,
)
from repro.net.transport import Request, Response
from repro.registry.dao import RECEIPT_PENDING
from repro.registry.entities import PERecord, UserRecord, WorkflowRecord
from repro.server.controllers import BaseController
from repro.server.schema import (
    BulkRegisterRequest,
    BulkRegisterWorkflowsRequest,
    DeleteRequest,
    RegisterPERequest,
    RegisterWorkflowRequest,
    WriteResponse,
    parse_idempotency_key,
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
    origin: str = "user",
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
    """
    if not description:
        description = app.models.summarizer.summarize(source or name, name=name)
        origin = "auto"
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
        description_origin=origin,
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
    """Assemble a workflow record (legacy-identical embedding fallback)."""
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
def _current_by_name(registry, user: UserRecord, kind: str, name: str):
    """The caller's record under ``name``, or ``None`` (no 404 here)."""
    try:
        if kind == "pe":
            return registry.get_pe_by_name(user, name)
        return registry.get_workflow_by_name(user, name)
    except NotFoundError:
        return None


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


def _embedding_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return a.shape == b.shape and bool(np.array_equal(a, b))


def _metadata_equal(kind: str, a, b) -> bool:
    """Whether two same-identity records carry identical metadata.

    Identity (name + code digest) already matched; this decides whether
    a PUT is a pure no-op or an in-place metadata revision.
    """
    if kind == "pe":
        return (
            a.description == b.description
            and a.description_origin == b.description_origin
            and a.pe_source == b.pe_source
            and list(a.pe_imports) == list(b.pe_imports)
            and _embedding_equal(a.desc_embedding, b.desc_embedding)
            and _embedding_equal(a.code_embedding, b.code_embedding)
        )
    return (
        a.workflow_name == b.workflow_name
        and a.description == b.description
        and a.workflow_source == b.workflow_source
        and list(a.pe_ids) == list(b.pe_ids)
        and _embedding_equal(a.desc_embedding, b.desc_embedding)
    )


def _register_single(
    app: "LaminarServer", user: UserRecord, cmd: WriteCommand
) -> WriteOutcome:
    registry = app.registry
    record = cmd.record
    name = record.pe_name if cmd.kind == "pe" else record.entry_point
    # the by-name lookup is only needed for conditional or upsert
    # semantics — the unconditional legacy path must not pay a second
    # name scan on every registration
    current = None
    if cmd.if_version is not None or cmd.upsert:
        current = _current_by_name(registry, user, cmd.kind, name)
    _check_revision(
        cmd.if_version,
        0 if current is None else current.revision,
        kind=cmd.kind,
        name=name,
    )
    # v1 PUT semantics against an existing binding: changed identity
    # (code) supersedes the record, changed metadata revises it in
    # place, identical content is the §3.1 dedup no-op
    supersede = revise = False
    if cmd.upsert and current is not None:
        if current.identity_key() != record.identity_key():
            supersede = True
        elif not _metadata_equal(cmd.kind, current, record):
            revise = True
    if cmd.kind == "pe":
        if supersede:
            stored, created = registry.upsert_pe(user, current, record)
        elif revise:
            stored, created = registry.revise_pe(user, current, record)
        else:
            stored, created = registry.register_pe(user, record)
    else:
        if supersede:
            stored, created = registry.upsert_workflow(user, current, record)
        elif revise:
            stored, created = registry.revise_workflow(user, current, record)
        else:
            stored, created = registry.register_workflow(user, record)
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
    if cmd.kind == "pe":
        stored, created = registry.register_pes_bulk(user, list(cmd.records))
    else:
        stored, created = registry.register_workflows_bulk(
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
    if cmd.kind == "pe":
        if cmd.target_name is not None:
            record = registry.get_pe_by_name(user, cmd.target_name)
        else:
            record = registry.get_pe_by_id(user, cmd.target_id)
        name = record.pe_name
        _check_revision(cmd.if_version, record.revision, kind="pe", name=name)
        registry.remove_pe_record(user, record)
    else:
        if cmd.target_name is not None:
            record = registry.get_workflow_by_name(user, cmd.target_name)
        else:
            record = registry.get_workflow_by_id(user, cmd.target_id)
        name = record.entry_point
        _check_revision(
            cmd.if_version, record.revision, kind="workflow", name=name
        )
        registry.remove_workflow_record(user, record)
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
    if status == RECEIPT_PENDING:
        # another writer (possibly another process) holds the key right
        # now; the caller should retry once its write lands
        raise IdempotencyError(
            f"a write with idempotency key {key!r} is still in progress",
            params={"idempotencyKey": key},
            details="retry after the in-flight write completes",
        )
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
    write lock) is authoritative; a miss falls through to the locked
    check inside :func:`execute_write`.
    """
    if key is None:
        return None
    receipt = app.registry.dao.get_write_receipt(user.user_id, key)
    if receipt is None:
        return None
    if receipt[1] == RECEIPT_PENDING:
        # another writer holds the key: fall through to execute_write,
        # which waits for the outcome instead of erroring eagerly
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
    return parse_idempotency_key({"idempotencyKey": header})


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


#: how long a claim loser waits for the in-flight winner's outcome, and
#: how often it re-reads the receipt while waiting
_CLAIM_WAIT = 2.0
_CLAIM_POLL = 0.005


def execute_write(
    app: "LaminarServer", user: UserRecord, cmd: WriteCommand
) -> WriteOutcome:
    """Run one registry write under the server's write serialization.

    Order matters and is atomic under ``app.write_lock``:

    1. **key claim** — a keyed write first claims ``(user,
       idempotencyKey)`` via the DAO's ``INSERT OR IGNORE``.  The claim
       is the *cross-process* serialization point: SQLite arbitrates
       the insert across every process sharing the file, so exactly one
       writer in a fleet wins a key.  A lost claim resolves to the
       stored receipt — matching fingerprint returns the recorded
       response verbatim (replay = no-op), a different fingerprint is a
       409; a still-pending claim is polled briefly (the winner is
       mid-write in another process) before giving up with a 409;
    2. **conditional check + write** — ``ifVersion`` verified against
       the live revision (or the mutation counter for bulk) in the same
       critical section as the service write, so concurrent CAS races
       resolve to exactly one winner;
    3. **receipt finalize** — only *successful* responses are recorded;
       a write that raises releases its claim so the key stays
       retryable (errors are retryable by design: a 412/409/404 must
       re-evaluate on the next attempt, not replay).

    Receipts are never pruned: a key replays for the life of the
    registry file (the ``created_at`` stamp is kept but nothing reads
    it).
    """
    registry = app.registry
    with app.write_lock:
        if cmd.idempotency_key is None:
            return _dispatch_write(app, user, cmd)
        dao = registry.dao
        key = cmd.idempotency_key
        deadline = time.monotonic() + _CLAIM_WAIT
        while not dao.claim_write_receipt(
            user.user_id, key, cmd.fingerprint, time.time()
        ):
            receipt = dao.get_write_receipt(user.user_id, key)
            if receipt is None:
                continue  # claim released between our attempt and read
            if receipt[1] != RECEIPT_PENDING:
                return _receipt_outcome(receipt, cmd.fingerprint, key)
            if time.monotonic() >= deadline:
                # the winner (another process) is still mid-write;
                # _receipt_outcome turns a pending receipt into a 409
                return _receipt_outcome(receipt, cmd.fingerprint, key)
            # Deliberate sleep under the write lock: the receipt holder
            # is another *process*, so polling under our in-process
            # write lock cannot deadlock with it, and releasing and
            # reacquiring would let local writers starve the poller.
            # Runtime twin: lockwatch blocking_allow=("v1_write.py",).
            time.sleep(_CLAIM_POLL)  # lint: disable=RPR002 — cross-process claim poll
        try:
            outcome = _dispatch_write(app, user, cmd)
        except BaseException:
            dao.release_write_receipt(user.user_id, key)
            raise
        dao.finalize_write_receipt(
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
    """Handlers behind the ``/v1/`` write route table."""

    def put_pe(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        req = RegisterPERequest.from_json(request.body, name=params["name"])
        key = _effective_idempotency_key(request, req.idempotency_key)
        fingerprint = _fingerprint_if_keyed(
            key, "register", "pe", params["name"], request
        )
        replay = _try_replay(self.app, user, key, fingerprint)
        if replay is not None:
            return replay.response()
        record = build_pe_record(
            self.app,
            name=req.name,
            code=req.code,
            description=req.description,
            origin=req.description_origin,
            source=req.source,
            imports=req.imports,
            desc_embedding=req.desc_embedding,
            code_embedding=req.code_embedding,
        )
        cmd = WriteCommand(
            action="register",
            kind="pe",
            record=record,
            if_version=req.if_version,
            idempotency_key=key,
            fingerprint=fingerprint,
            upsert=True,
        )
        return execute_write(self.app, user, cmd).response()

    def put_workflow(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        req = RegisterWorkflowRequest.from_json(
            request.body, name=params["name"]
        )
        key = _effective_idempotency_key(request, req.idempotency_key)
        fingerprint = _fingerprint_if_keyed(
            key, "register", "workflow", params["name"], request
        )
        replay = _try_replay(self.app, user, key, fingerprint)
        if replay is not None:
            return replay.response()
        record = build_workflow_record(
            self.app,
            entry_point=req.entry_point,
            code=req.code,
            workflow_name=req.workflow_name,
            description=req.description,
            source=req.source,
            pe_ids=req.pe_ids,
            desc_embedding=req.desc_embedding,
        )
        cmd = WriteCommand(
            action="register",
            kind="workflow",
            record=record,
            if_version=req.if_version,
            idempotency_key=key,
            fingerprint=fingerprint,
            upsert=True,
        )
        return execute_write(self.app, user, cmd).response()

    def bulk_pes(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        req = BulkRegisterRequest.from_json(request.body)
        key = _effective_idempotency_key(request, req.idempotency_key)
        fingerprint = _fingerprint_if_keyed(
            key, "bulk-register", "pe", "pes:bulk", request
        )
        # the fast paths matter most here: neither a replay nor a
        # stale-CAS batch may pay the per-item summarize/embed model
        # work just to discard it.  Both are advisory (the authoritative
        # receipt and counter checks re-run inside the write lock).
        replay = _try_replay(self.app, user, key, fingerprint)
        if replay is not None:
            return replay.response()
        _check_bulk_version(self.app.registry, req.if_version)
        records = [
            build_pe_record(
                self.app,
                name=item.name,
                code=item.code,
                description=item.description,
                origin=item.description_origin,
                source=item.source,
                imports=item.imports,
                desc_embedding=item.desc_embedding,
                code_embedding=item.code_embedding,
            )
            for item in req.items
        ]
        cmd = WriteCommand(
            action="bulk-register",
            kind="pe",
            records=records,
            if_version=req.if_version,
            idempotency_key=key,
            fingerprint=fingerprint,
        )
        return execute_write(self.app, user, cmd).response()

    def bulk_workflows(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        req = BulkRegisterWorkflowsRequest.from_json(request.body)
        key = _effective_idempotency_key(request, req.idempotency_key)
        fingerprint = _fingerprint_if_keyed(
            key, "bulk-register", "workflow", "workflows:bulk", request
        )
        # same fast-path ordering as bulk_pes: replay and stale-CAS
        # checks run before any per-item embed work
        replay = _try_replay(self.app, user, key, fingerprint)
        if replay is not None:
            return replay.response()
        _check_bulk_version(self.app.registry, req.if_version)
        records = [
            build_workflow_record(
                self.app,
                entry_point=item.entry_point,
                code=item.code,
                workflow_name=item.workflow_name,
                description=item.description,
                source=item.source,
                pe_ids=item.pe_ids,
                desc_embedding=item.desc_embedding,
            )
            for item in req.items
        ]
        cmd = WriteCommand(
            action="bulk-register",
            kind="workflow",
            records=records,
            if_version=req.if_version,
            idempotency_key=key,
            fingerprint=fingerprint,
        )
        return execute_write(self.app, user, cmd).response()

    def delete_pe(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        req = DeleteRequest.from_json(request.body)
        key = _effective_idempotency_key(request, req.idempotency_key)
        cmd = WriteCommand(
            action="delete",
            kind="pe",
            target_name=params["name"],
            if_version=req.if_version,
            idempotency_key=key,
            fingerprint=_fingerprint_if_keyed(
                key, "delete", "pe", params["name"], request
            ),
        )
        return execute_write(self.app, user, cmd).response()

    def delete_workflow(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        user = self.authenticated_user(request, params)
        req = DeleteRequest.from_json(request.body)
        key = _effective_idempotency_key(request, req.idempotency_key)
        cmd = WriteCommand(
            action="delete",
            kind="workflow",
            target_name=params["name"],
            if_version=req.if_version,
            idempotency_key=key,
            fingerprint=_fingerprint_if_keyed(
                key, "delete", "workflow", params["name"], request
            ),
        )
        return execute_write(self.app, user, cmd).response()
