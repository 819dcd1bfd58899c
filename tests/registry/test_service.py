"""Tests for the registry business rules (§3.1 ownership semantics)."""

import pytest

from repro.errors import (
    AuthenticationError,
    DuplicateError,
    NotFoundError,
    ValidationError,
)
from repro.registry import RegistryService, SqliteDAO
from repro.registry.entities import PERecord, WorkflowRecord
from tests.registry.test_dao import make_pe, make_wf


@pytest.fixture()
def service():
    return RegistryService(SqliteDAO())


@pytest.fixture()
def users(service):
    alice = service.register_user("alice", "pw-a")
    bob = service.register_user("bob", "pw-b")
    return alice, bob


class TestAuth:
    def test_register_and_authenticate(self, service):
        service.register_user("zz46", "password")
        user = service.authenticate("zz46", "password")
        assert user.user_name == "zz46"

    def test_password_stored_hashed(self, service):
        user = service.register_user("zz46", "password")
        assert user.password_hash != "password"

    def test_wrong_password_rejected(self, service):
        service.register_user("zz46", "password")
        with pytest.raises(AuthenticationError, match="invalid login"):
            service.authenticate("zz46", "wrong")

    def test_unknown_user_rejected(self, service):
        with pytest.raises(AuthenticationError):
            service.authenticate("ghost", "x")

    def test_duplicate_user_rejected(self, service):
        service.register_user("zz46", "a")
        with pytest.raises(DuplicateError, match="already exists"):
            service.register_user("zz46", "b")

    def test_empty_name_or_password_rejected(self, service):
        with pytest.raises(ValidationError):
            service.register_user("", "pw")
        with pytest.raises(ValidationError):
            service.register_user("x", "")


class TestPEOwnership:
    def test_add_and_get(self, service, users):
        alice, _ = users
        stored = service.register_pe(alice, make_pe("Prod"))[0]
        assert service.get_by_id(alice, PERecord, stored.pe_id).pe_name == "Prod"
        assert service.get_by_name(alice, PERecord, "Prod").pe_id == stored.pe_id

    def test_reregistration_adds_owner_not_duplicate(self, service, users):
        """The §3.1 rule: same identity -> additional owner."""
        alice, bob = users
        first = service.register_pe(alice, make_pe("Shared", code="c2FtZQ=="))[0]
        second = service.register_pe(bob, make_pe("Shared", code="c2FtZQ=="))[0]
        assert first.pe_id == second.pe_id
        assert second.owners == {alice.user_id, bob.user_id}
        assert len(service.dao.all_pes()) == 1

    def test_same_name_different_code_is_new_entry(self, service, users):
        alice, _ = users
        first = service.register_pe(alice, make_pe("X", code="YWFh"))[0]
        second = service.register_pe(alice, make_pe("X", code="YmJi"))[0]
        assert first.pe_id != second.pe_id

    def test_privacy_other_users_pes_invisible(self, service, users):
        alice, bob = users
        stored = service.register_pe(alice, make_pe("Private"))[0]
        with pytest.raises(NotFoundError):
            service.get_by_id(bob, PERecord, stored.pe_id)
        with pytest.raises(NotFoundError):
            service.get_by_name(bob, PERecord, "Private")
        assert service.owned_records(bob, PERecord) == []

    def test_remove_dissociates_until_ownerless(self, service, users):
        alice, bob = users
        service.register_pe(alice, make_pe("Shared", code="c2FtZQ=="))
        stored = service.register_pe(bob, make_pe("Shared", code="c2FtZQ=="))[0]
        service.remove_pe_record(alice, service.get_by_id(alice, PERecord, stored.pe_id))
        assert service.dao.get_pe(stored.pe_id) is not None  # bob still owns
        service.remove_pe_record(bob, service.get_by_id(bob, PERecord, stored.pe_id))
        assert service.dao.get_pe(stored.pe_id) is None  # gone

    def test_remove_by_name(self, service, users):
        alice, _ = users
        service.register_pe(alice, make_pe("Gone"))
        service.remove_pe_record(alice, service.get_by_name(alice, PERecord, "Gone"))
        with pytest.raises(NotFoundError):
            service.get_by_name(alice, PERecord, "Gone")


class TestWorkflowOwnership:
    def test_add_and_get(self, service, users):
        alice, _ = users
        stored = service.register_workflow(alice, make_wf("isPrime"))[0]
        assert service.get_by_name(alice, WorkflowRecord, "isPrime").workflow_id == stored.workflow_id

    def test_dedup_by_identity(self, service, users):
        alice, bob = users
        first = service.register_workflow(alice, make_wf("wf", code="c2FtZQ=="))[0]
        second = service.register_workflow(bob, make_wf("wf", code="c2FtZQ=="))[0]
        assert first.workflow_id == second.workflow_id
        assert second.owners == {alice.user_id, bob.user_id}

    def test_privacy(self, service, users):
        alice, bob = users
        stored = service.register_workflow(alice, make_wf("secret"))[0]
        with pytest.raises(NotFoundError):
            service.get_by_id(bob, WorkflowRecord, stored.workflow_id)

    def test_remove_until_ownerless(self, service, users):
        alice, bob = users
        service.register_workflow(alice, make_wf("wf", code="c2FtZQ=="))
        stored = service.register_workflow(bob, make_wf("wf", code="c2FtZQ=="))[0]
        service.remove_workflow_record(alice, service.get_by_name(alice, WorkflowRecord, "wf"))
        assert service.dao.get_workflow(stored.workflow_id) is not None
        service.remove_workflow_record(
            bob, service.get_by_id(bob, WorkflowRecord, stored.workflow_id)
        )
        assert service.dao.get_workflow(stored.workflow_id) is None


class TestAssociations:
    def test_link_pe_to_workflow(self, service, users):
        alice, _ = users
        pe = service.register_pe(alice, make_pe("P"))[0]
        wf = service.register_workflow(alice, make_wf("W"))[0]
        service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)
        pes = service.workflow_pes(alice, wf.workflow_id)
        assert [p.pe_name for p in pes] == ["P"]

    def test_link_is_idempotent(self, service, users):
        alice, _ = users
        pe = service.register_pe(alice, make_pe("P"))[0]
        wf = service.register_workflow(alice, make_wf("W"))[0]
        service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)
        linked = service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)
        assert linked.pe_ids == [pe.pe_id]

    def test_link_requires_owned_pe(self, service, users):
        alice, bob = users
        pe = service.register_pe(bob, make_pe("BobsPE"))[0]
        wf = service.register_workflow(alice, make_wf("W"))[0]
        with pytest.raises(NotFoundError):
            service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)

    def test_workflow_pes_by_name(self, service, users):
        alice, _ = users
        pe = service.register_pe(alice, make_pe("P"))[0]
        service.register_workflow(alice, make_wf("W", pe_ids=[pe.pe_id]))
        assert [p.pe_id for p in service.workflow_pes_by_name(alice, "W")] == [pe.pe_id]

    def test_many_to_many_pe_in_two_workflows(self, service, users):
        alice, _ = users
        pe = service.register_pe(alice, make_pe("Shared"))[0]
        wf1 = service.register_workflow(alice, make_wf("W1", code="YQ=="))[0]
        wf2 = service.register_workflow(alice, make_wf("W2", code="Yg=="))[0]
        service.link_pe_to_workflow(alice, wf1.workflow_id, pe.pe_id)
        service.link_pe_to_workflow(alice, wf2.workflow_id, pe.pe_id)
        assert service.workflow_pes(alice, wf1.workflow_id)[0].pe_id == pe.pe_id
        assert service.workflow_pes(alice, wf2.workflow_id)[0].pe_id == pe.pe_id
