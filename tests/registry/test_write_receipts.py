"""DAO-level contracts behind the v1 write surface.

Per-record revisions and idempotency receipts (stored verbatim, never
bumping the mutation counter).
"""

import numpy as np
import pytest

from repro.registry.dao import RECEIPT_PENDING, SqliteDAO
from repro.registry.entities import PERecord, WorkflowRecord


@pytest.fixture(params=["memory", "sqlite"])
def dao(request, tmp_path):
    """``memory``: the ephemeral store in-process stacks run on."""
    if request.param == "memory":
        return SqliteDAO(":memory:")
    return SqliteDAO(tmp_path / "reg.db")


def make_pe(name="p", code="def p(): pass", owners=(1,)) -> PERecord:
    return PERecord(
        pe_id=0,
        pe_name=name,
        description="d",
        pe_code=code,
        desc_embedding=np.ones(4, dtype=np.float32),
        owners=set(owners),
    )


class TestRevisions:
    def test_insert_starts_at_one_and_update_bumps(self, dao):
        record = dao.insert_pe(make_pe())
        assert record.revision == 1
        assert dao.get_pe(record.pe_id).revision == 1
        record.description = "changed"
        dao.update_pe(record)
        assert record.revision == 2
        assert dao.get_pe(record.pe_id).revision == 2
        dao.update_pe(record)
        assert dao.get_pe(record.pe_id).revision == 3

    def test_bulk_insert_sets_revision_one(self, dao):
        records = dao.insert_pes([make_pe(f"b{i}") for i in range(5)])
        assert all(r.revision == 1 for r in records)
        assert all(dao.get_pe(r.pe_id).revision == 1 for r in records)

    def test_bulk_insert_is_one_mutation_event(self, dao):
        before = dao.mutation_counter()
        dao.insert_pes([make_pe(f"m{i}") for i in range(7)])
        assert dao.mutation_counter() == before + 1

    def test_workflow_revisions(self, dao):
        record = dao.insert_workflow(
            WorkflowRecord(
                workflow_id=0,
                workflow_name="w",
                entry_point="w",
                description="",
                workflow_code="def w(): pass",
                owners={1},
            )
        )
        assert record.revision == 1
        record.description = "annotated"
        dao.update_workflow(record)
        assert dao.get_workflow(record.workflow_id).revision == 2


class TestReceipts:
    def test_round_trip_verbatim(self, dao):
        body = {"apiVersion": "v1", "op": "register", "items": [{"peId": 3}]}
        assert dao.get_write_receipt(1, "k") is None
        dao.save_write_receipt(1, "k", "fp-abc", 201, body)
        fingerprint, status, stored = dao.get_write_receipt(1, "k")
        assert (fingerprint, status) == ("fp-abc", 201)
        assert stored == body

    def test_receipts_scoped_per_user(self, dao):
        dao.save_write_receipt(1, "k", "fp1", 201, {"who": "one"})
        dao.save_write_receipt(2, "k", "fp2", 200, {"who": "two"})
        assert dao.get_write_receipt(1, "k")[2] == {"who": "one"}
        assert dao.get_write_receipt(2, "k")[2] == {"who": "two"}
        assert dao.get_write_receipt(3, "k") is None

    def test_saving_a_receipt_never_bumps_the_counter(self, dao):
        dao.insert_pe(make_pe())
        before = dao.mutation_counter()
        dao.save_write_receipt(1, "k", "fp", 200, {"removed": True})
        assert dao.mutation_counter() == before


class TestReceiptClaims:
    """The INSERT OR IGNORE claim protocol serializing multi-process writers."""

    def test_first_claim_wins(self, dao):
        assert dao.claim_write_receipt(1, "k", "fp", 10.0) is True
        assert dao.claim_write_receipt(1, "k", "fp", 11.0) is False

    def test_claim_leaves_a_pending_receipt(self, dao):
        dao.claim_write_receipt(1, "k", "fp", 10.0)
        fingerprint, status, body = dao.get_write_receipt(1, "k")
        assert fingerprint == "fp"
        assert status == RECEIPT_PENDING
        assert body == {}

    def test_release_frees_only_pending_claims(self, dao):
        dao.claim_write_receipt(1, "k", "fp", 10.0)
        dao.release_write_receipt(1, "k")
        assert dao.get_write_receipt(1, "k") is None
        assert dao.claim_write_receipt(1, "k", "fp", 12.0) is True
        # once finalized, release is a no-op — the receipt is durable
        dao.finalize_write_receipt(1, "k", "fp", 201, {"done": True}, 13.0)
        dao.release_write_receipt(1, "k")
        assert dao.get_write_receipt(1, "k")[1] == 201

    def test_finalize_overwrites_the_pending_row(self, dao):
        dao.claim_write_receipt(1, "k", "fp", 10.0)
        dao.finalize_write_receipt(1, "k", "fp", 201, {"peId": 9}, 11.0)
        fingerprint, status, body = dao.get_write_receipt(1, "k")
        assert (fingerprint, status, body) == ("fp", 201, {"peId": 9})

    def test_claims_scoped_per_user(self, dao):
        assert dao.claim_write_receipt(1, "k", "fp", 10.0) is True
        assert dao.claim_write_receipt(2, "k", "fp", 10.0) is True


class TestReceiptLifetime:
    """Receipts are kept for good: nothing ages or evicts them."""

    def test_receipts_are_kept_without_bound(self, dao):
        for n in range(200):
            dao.save_write_receipt(1, f"k{n}", f"fp{n}", 201, {"n": n}, float(n))
        assert all(
            dao.get_write_receipt(1, f"k{n}") == (f"fp{n}", 201, {"n": n})
            for n in range(200)
        )

    def test_finalized_key_cannot_be_claimed_again(self, dao):
        dao.claim_write_receipt(1, "k", "fp", 10.0)
        dao.finalize_write_receipt(1, "k", "fp", 201, {"peId": 4}, 11.0)
        assert dao.claim_write_receipt(1, "k", "fp", 1_000_000.0) is False
        assert dao.get_write_receipt(1, "k") == ("fp", 201, {"peId": 4})

    def test_save_replaces_the_receipt_under_its_key(self, dao):
        dao.save_write_receipt(1, "k", "fp1", 201, {"v": 1}, 1.0)
        dao.save_write_receipt(1, "k", "fp2", 200, {"v": 2}, 2.0)
        assert dao.get_write_receipt(1, "k") == ("fp2", 200, {"v": 2})

    def test_pending_claim_survives_later_receipts(self, dao):
        dao.claim_write_receipt(1, "inflight", "fp", 0.0)
        for n in range(10):
            dao.save_write_receipt(1, f"k{n}", "fp", 201, {}, 1_000_000.0 + n)
        assert dao.get_write_receipt(1, "inflight")[1] == RECEIPT_PENDING
