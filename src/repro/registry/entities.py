"""Registry entities — the Model layer (paper §3.2.4, Table 2, Figure 4).

Object-oriented representations of system data.  Embeddings are float32
NumPy vectors in memory; ``to_json`` converts them to plain lists for
the JSON wire format and the DAO layer converts them to bytes for SQLite
storage.

The two record kinds follow the same §3.1 rules, so every layer that
reads or writes them reads one table of what differs: :data:`SHARD_KINDS`
(the search shards a record's vectors live in) and :data:`RECORD_KINDS`
(per record class; :data:`RECORD_CLASSES` maps a wire kind back to its
class).  This module imports nothing else from ``repro``, so any
layer may read it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np


def hash_password(password: str, salt: str = "laminar") -> str:
    """Salted SHA-256 password digest (never store plaintext)."""
    return hashlib.sha256(f"{salt}:{password}".encode("utf-8")).hexdigest()


@dataclass
class UserRecord:
    """A registered user (Table 2: userId, userName, password)."""

    user_id: int
    user_name: str
    password_hash: str

    def to_json(self, *, include_password: bool = False) -> dict[str, Any]:
        body: dict[str, Any] = {
            "userId": self.user_id,
            "userName": self.user_name,
        }
        if include_password:
            body["password"] = self.password_hash
        return body


@dataclass
class PERecord:
    """A registered Processing Element (Table 2).

    ``pe_code`` is the base64 cloudpickle payload; ``pe_source`` the
    source text used for search/summarization/completion; ``pe_imports``
    the auto-detected requirement list shipped to the Execution Engine.
    """

    pe_id: int
    pe_name: str
    description: str
    pe_code: str
    pe_source: str = ""
    pe_imports: list[str] = field(default_factory=list)
    code_embedding: np.ndarray | None = None
    desc_embedding: np.ndarray | None = None
    #: whether the description was user-provided or auto-summarized
    description_origin: str = "user"
    owners: set[int] = field(default_factory=set)
    #: per-record revision for conditional writes (v1 ``ifVersion``):
    #: 1 on insert, +1 on every update (DAO-managed).  Deliberately NOT
    #: part of :meth:`to_json` — the legacy wire shapes stay
    #: byte-identical; the v1 write envelope surfaces it explicitly.
    revision: int = 1

    def identity_key(self) -> str:
        """Dedup identity (§3.1): same class name + same code payload."""
        digest = hashlib.sha256(self.pe_code.encode("utf-8")).hexdigest()[:16]
        return f"{self.pe_name}:{digest}"

    def to_json(self) -> dict[str, Any]:
        return {
            "peId": self.pe_id,
            "peName": self.pe_name,
            "description": self.description,
            "descriptionOrigin": self.description_origin,
            "peCode": self.pe_code,
            "peSource": self.pe_source,
            "peImports": list(self.pe_imports),
            "owners": sorted(self.owners),
        }

@dataclass
class WorkflowRecord:
    """A registered workflow (Table 2).

    ``entry_point`` is the unique name identifier users retrieve/run by;
    ``pe_ids`` realizes the two-way many-to-many PE association.
    """

    workflow_id: int
    workflow_name: str
    entry_point: str
    description: str
    workflow_code: str
    workflow_source: str = ""
    pe_ids: list[int] = field(default_factory=list)
    #: description embedding for workflow-level semantic search (the §8
    #: "enhance deep learning search for workflows" extension)
    desc_embedding: np.ndarray | None = None
    owners: set[int] = field(default_factory=set)
    #: per-record revision for conditional writes (see PERecord.revision)
    revision: int = 1

    def identity_key(self) -> str:
        digest = hashlib.sha256(self.workflow_code.encode("utf-8")).hexdigest()[:16]
        return f"{self.entry_point}:{digest}"

    def to_json(self) -> dict[str, Any]:
        return {
            "workflowId": self.workflow_id,
            "workflowName": self.workflow_name,
            "entryPoint": self.entry_point,
            "description": self.description,
            "workflowCode": self.workflow_code,
            "workflowSource": self.workflow_source,
            "peIds": list(self.pe_ids),
            "owners": sorted(self.owners),
        }


#: shard kinds: the per-owner search shards a record's vectors live in
KIND_DESC = "desc"
KIND_CODE = "code"
KIND_WORKFLOW = "wf-desc"


class ShardKind(NamedTuple):
    """How a shard kind reads its records."""

    record_type: type
    #: the record attribute holding the id the shard is keyed by
    id_field: str
    #: the record attribute (and DAO column) holding the stored vector
    vector_field: str
    #: the text that embeds a record with no stored vector
    text: Callable[[Any], str]


SHARD_KINDS: dict[str, ShardKind] = {
    KIND_DESC: ShardKind(
        PERecord, "pe_id", "desc_embedding", lambda r: r.description or r.pe_name
    ),
    KIND_CODE: ShardKind(
        PERecord, "pe_id", "code_embedding", lambda r: r.pe_source or r.pe_name
    ),
    KIND_WORKFLOW: ShardKind(
        WorkflowRecord,
        "workflow_id",
        "desc_embedding",
        lambda r: r.description or r.entry_point,
    ),
}


class RecordKind(NamedTuple):
    """What a read or a write needs to know about one record class."""

    #: the wire kind (``WriteResponse.kind``, the v1 routes)
    kind: str
    #: its listings' body key and cursor scope, its v1 path segment
    plural: str
    #: how a message names the kind (``PE id 3 not found ...``)
    label: str
    #: the params keys a 404 by id and by name carries
    id_param: str
    name_param: str
    #: its shard kinds, in the order a write visits them; the first is
    #: the description shard semantic search ranks
    shards: tuple[str, ...]
    #: the name a user binds, retrieves and dedups by
    name_field: str
    #: the names text search matches, one arm each (the best labels a hit)
    text_names: tuple[str, ...]
    #: what a same-identity PUT may change in place besides the vectors:
    #: a revision copies these, and equal ones (and equal vector bytes)
    #: make the PUT a no-op
    metadata: tuple[str, ...]

    @property
    def id_field(self) -> str:
        return SHARD_KINDS[self.shards[0]].id_field

    @property
    def vector_fields(self) -> tuple[str, ...]:
        return tuple(SHARD_KINDS[kind].vector_field for kind in self.shards)


RECORD_KINDS: dict[type, RecordKind] = {
    PERecord: RecordKind(
        "pe",
        "pes",
        "PE",
        "peId",
        "peName",
        (KIND_DESC, KIND_CODE),
        "pe_name",
        ("pe_name",),
        ("description", "description_origin", "pe_source", "pe_imports"),
    ),
    WorkflowRecord: RecordKind(
        "workflow",
        "workflows",
        "workflow",
        "workflowId",
        "entryPoint",
        (KIND_WORKFLOW,),
        "entry_point",
        ("entry_point", "workflow_name"),
        ("workflow_name", "description", "workflow_source", "pe_ids"),
    ),
}

#: the record class of each wire kind
RECORD_CLASSES: dict[str, type] = {spec.kind: cls for cls, spec in RECORD_KINDS.items()}
