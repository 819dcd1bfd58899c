"""Tests for registry entities and their JSON projections (Table 2)."""

import numpy as np

from repro.registry.entities import (
    PERecord,
    UserRecord,
    WorkflowRecord,
    hash_password,
)


class TestPasswordHashing:
    def test_deterministic(self):
        assert hash_password("secret") == hash_password("secret")

    def test_salt_changes_digest(self):
        assert hash_password("secret", "s1") != hash_password("secret", "s2")

    def test_not_plaintext(self):
        assert "secret" not in hash_password("secret")


class TestUserRecord:
    def test_json_hides_password_by_default(self):
        user = UserRecord(1, "zz46", "deadbeef")
        body = user.to_json()
        assert body == {"userId": 1, "userName": "zz46"}

    def test_json_can_include_password_hash(self):
        user = UserRecord(1, "zz46", "deadbeef")
        assert user.to_json(include_password=True)["password"] == "deadbeef"


class TestPERecord:
    def _record(self, **kw):
        return PERecord(
            pe_id=3,
            pe_name="IsPrime",
            description="checks primality",
            pe_code="Y29kZQ==",
            pe_source="class IsPrime: ...",
            pe_imports=["numpy"],
            owners={1, 2},
            **kw,
        )

    def test_table2_properties_in_json(self):
        body = self._record().to_json()
        for key in ("peId", "peName", "description", "peCode", "peImports"):
            assert key in body

    def test_embeddings_excluded_by_default(self):
        body = self._record().to_json()
        assert "codeEmbedding" not in body

    def test_stored_vectors_never_rendered(self):
        vec = np.array([0.1, 0.2], dtype=np.float32)
        body = self._record(desc_embedding=vec, code_embedding=vec).to_json()
        assert "descEmbedding" not in body and "codeEmbedding" not in body
        assert body["peName"] == "IsPrime"

    def test_identity_key_depends_on_code(self):
        a = self._record()
        b = self._record()
        assert a.identity_key() == b.identity_key()
        c = PERecord(
            pe_id=9, pe_name="IsPrime", description="", pe_code="ZGlmZg=="
        )
        assert c.identity_key() != a.identity_key()

    def test_identity_key_of_ascii_code_is_pinned(self):
        # identities are never stored, but an ASCII payload's digest is
        # the same as it was when the key hashed ASCII bytes
        record = PERecord(
            pe_id=9, pe_name="IsPrime", description="", pe_code="ZGlmZg=="
        )
        assert record.identity_key() == "IsPrime:81ff6372e7e712dc"

    def test_identity_key_accepts_non_ascii_code(self):
        a, b = self._record(), self._record()
        a.pe_code = "def café():\n    return '—'\n"
        b.pe_code = "def cafe():\n    return '-'\n"
        assert a.identity_key().startswith("IsPrime:")
        assert a.identity_key() != b.identity_key()


class TestWorkflowRecord:
    def _record(self):
        return WorkflowRecord(
            workflow_id=2,
            workflow_name="IsPrimeWorkflow",
            entry_point="isPrime",
            description="prints primes",
            workflow_code="d29ya2Zsb3c=",
            pe_ids=[1, 2, 3],
            owners={1},
        )

    def test_table2_properties_in_json(self):
        body = self._record().to_json()
        assert body["workflowId"] == 2
        assert body["entryPoint"] == "isPrime"
        assert body["peIds"] == [1, 2, 3]
        assert body["owners"] == [1]
        assert "descEmbedding" not in body

    def test_stored_vector_never_rendered(self):
        record = self._record()
        record.desc_embedding = np.array([0.5, 0.25], dtype=np.float32)
        body = record.to_json()
        assert "descEmbedding" not in body
        assert body["entryPoint"] == "isPrime"

    def test_identity_key_uses_entry_point_and_code(self):
        a, b = self._record(), self._record()
        assert a.identity_key() == b.identity_key()
        b.workflow_code = "b3RoZXI="
        assert a.identity_key() != b.identity_key()

    def test_identity_key_accepts_non_ascii_code(self):
        record = self._record()
        record.workflow_code = "def flow():\n    return 'naïve'\n"
        assert record.identity_key().startswith("isPrime:")
