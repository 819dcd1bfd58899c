"""The Laminar Registry (paper §3.1).

A central repository housing users, Processing Elements and workflows,
with the schema of Figure 4 / Table 2:

* ``User`` — userId, userName, password
* ``PE`` — peId, peName, description, peCode, peImports, codeEmbedding,
  descEmbedding
* ``Workflow`` — workflowId, workflowName, entryPoint, description,
  workflowCode

plus the relationships: user<->PE and user<->workflow are one-way
many-to-many ("owners"); PE<->workflow is two-way many-to-many.

The paper hosts the registry on a remote MySQL web service; offline one
store stands in for it, :class:`~repro.registry.dao.SqliteDAO` — on a
file for a durable registry, on ``":memory:"`` (its default) for tests
and local stacks — behind the service layer that implements the paper's
ownership/dedup rules (§3.1: re-registering an existing PE adds the
user as an additional owner instead of duplicating the entry).

O(k) serving-path primitives
============================

Because the registry fronts a remote store serving many users, the DAO
exposes access paths whose cost scales with the *result*, not the
corpus:

* ``pes_owned_by(user_id)`` / ``workflows_owned_by(user_id)`` —
  owner-scoped listings, O(user's rows).
  ``RegistryService.owned_records`` delegates here instead of filtering
  ``all_pes()`` in Python.
* ``pe_ids_owned_by(user_id)`` / ``workflow_ids_owned_by(user_id)`` —
  id-only projections that never materialize rows or unblob embedding
  BLOBs, for the v1 listings' cursor pages
  (``RegistryService.owned_ids``).  No search reads them: the vector
  index checks its freshness with ``data_version``
  (``RegistryService.on_current_shard``).
* ``get_pes(ids)`` / ``get_workflows(ids)`` — id-batched fetch in
  request order, used by ``RegistryService.resolve`` to hydrate exactly
  the top-k search winners.
* ``insert_pes`` / ``insert_workflows`` — bulk load (one
  ``executemany`` batch per table).

Each service read takes the record class; the v1 listings enter two of
them by per-kind name (``owned_{kind}_ids``, ``resolve_{kind}s``), the
search path the second.
"""

from repro.registry.entities import PERecord, UserRecord, WorkflowRecord
from repro.registry.dao import SqliteDAO
from repro.registry.service import RegistryService

__all__ = [
    "UserRecord",
    "PERecord",
    "WorkflowRecord",
    "SqliteDAO",
    "RegistryService",
]
