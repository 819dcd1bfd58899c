"""Registry entities — the Model layer (paper §3.2.4, Table 2, Figure 4).

Object-oriented representations of system data.  Embeddings are float32
NumPy vectors in memory; ``to_json`` converts them to plain lists for
the JSON wire format and the DAO layer converts them to bytes for SQLite
storage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def hash_password(password: str, salt: str = "laminar") -> str:
    """Salted SHA-256 password digest (never store plaintext)."""
    return hashlib.sha256(f"{salt}:{password}".encode("utf-8")).hexdigest()


def _embedding_to_json(vec: np.ndarray | None) -> list[float] | None:
    if vec is None:
        return None
    return [float(x) for x in np.asarray(vec, dtype=np.float32)]


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

    def to_json(self, *, include_embeddings: bool = False) -> dict[str, Any]:
        body: dict[str, Any] = {
            "peId": self.pe_id,
            "peName": self.pe_name,
            "description": self.description,
            "descriptionOrigin": self.description_origin,
            "peCode": self.pe_code,
            "peSource": self.pe_source,
            "peImports": list(self.pe_imports),
            "owners": sorted(self.owners),
        }
        if include_embeddings:
            body["codeEmbedding"] = _embedding_to_json(self.code_embedding)
            body["descEmbedding"] = _embedding_to_json(self.desc_embedding)
        return body

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

    def to_json(self, *, include_embeddings: bool = False) -> dict[str, Any]:
        body = {
            "workflowId": self.workflow_id,
            "workflowName": self.workflow_name,
            "entryPoint": self.entry_point,
            "description": self.description,
            "workflowCode": self.workflow_code,
            "workflowSource": self.workflow_source,
            "peIds": list(self.pe_ids),
            "owners": sorted(self.owners),
        }
        if include_embeddings:
            body["descEmbedding"] = _embedding_to_json(self.desc_embedding)
        return body
