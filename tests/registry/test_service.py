"""Tests for the registry business rules (§3.1 ownership semantics)."""

import pytest

from repro.errors import (
    AuthenticationError,
    DuplicateError,
    NotFoundError,
    ValidationError,
)
from repro.registry import RegistryService, SqliteDAO
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
        stored = service.add_pe(alice, make_pe("Prod"))
        assert service.get_pe_by_id(alice, stored.pe_id).pe_name == "Prod"
        assert service.get_pe_by_name(alice, "Prod").pe_id == stored.pe_id

    def test_reregistration_adds_owner_not_duplicate(self, service, users):
        """The §3.1 rule: same identity -> additional owner."""
        alice, bob = users
        first = service.add_pe(alice, make_pe("Shared", code="c2FtZQ=="))
        second = service.add_pe(bob, make_pe("Shared", code="c2FtZQ=="))
        assert first.pe_id == second.pe_id
        assert second.owners == {alice.user_id, bob.user_id}
        assert len(service.dao.all_pes()) == 1

    def test_same_name_different_code_is_new_entry(self, service, users):
        alice, _ = users
        first = service.add_pe(alice, make_pe("X", code="YWFh"))
        second = service.add_pe(alice, make_pe("X", code="YmJi"))
        assert first.pe_id != second.pe_id

    def test_privacy_other_users_pes_invisible(self, service, users):
        alice, bob = users
        stored = service.add_pe(alice, make_pe("Private"))
        with pytest.raises(NotFoundError):
            service.get_pe_by_id(bob, stored.pe_id)
        with pytest.raises(NotFoundError):
            service.get_pe_by_name(bob, "Private")
        assert service.user_pes(bob) == []

    def test_remove_dissociates_until_ownerless(self, service, users):
        alice, bob = users
        service.add_pe(alice, make_pe("Shared", code="c2FtZQ=="))
        stored = service.add_pe(bob, make_pe("Shared", code="c2FtZQ=="))
        service.remove_pe(alice, stored.pe_id)
        assert service.dao.get_pe(stored.pe_id) is not None  # bob still owns
        service.remove_pe(bob, stored.pe_id)
        assert service.dao.get_pe(stored.pe_id) is None  # gone

    def test_remove_by_name(self, service, users):
        alice, _ = users
        service.add_pe(alice, make_pe("Gone"))
        service.remove_pe_by_name(alice, "Gone")
        with pytest.raises(NotFoundError):
            service.get_pe_by_name(alice, "Gone")


class TestWorkflowOwnership:
    def test_add_and_get(self, service, users):
        alice, _ = users
        stored = service.add_workflow(alice, make_wf("isPrime"))
        assert service.get_workflow_by_name(alice, "isPrime").workflow_id == stored.workflow_id

    def test_dedup_by_identity(self, service, users):
        alice, bob = users
        first = service.add_workflow(alice, make_wf("wf", code="c2FtZQ=="))
        second = service.add_workflow(bob, make_wf("wf", code="c2FtZQ=="))
        assert first.workflow_id == second.workflow_id
        assert second.owners == {alice.user_id, bob.user_id}

    def test_privacy(self, service, users):
        alice, bob = users
        stored = service.add_workflow(alice, make_wf("secret"))
        with pytest.raises(NotFoundError):
            service.get_workflow_by_id(bob, stored.workflow_id)

    def test_remove_until_ownerless(self, service, users):
        alice, bob = users
        service.add_workflow(alice, make_wf("wf", code="c2FtZQ=="))
        stored = service.add_workflow(bob, make_wf("wf", code="c2FtZQ=="))
        service.remove_workflow_by_name(alice, "wf")
        assert service.dao.get_workflow(stored.workflow_id) is not None
        service.remove_workflow(bob, stored.workflow_id)
        assert service.dao.get_workflow(stored.workflow_id) is None


class TestAssociations:
    def test_link_pe_to_workflow(self, service, users):
        alice, _ = users
        pe = service.add_pe(alice, make_pe("P"))
        wf = service.add_workflow(alice, make_wf("W"))
        service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)
        pes = service.workflow_pes(alice, wf.workflow_id)
        assert [p.pe_name for p in pes] == ["P"]

    def test_link_is_idempotent(self, service, users):
        alice, _ = users
        pe = service.add_pe(alice, make_pe("P"))
        wf = service.add_workflow(alice, make_wf("W"))
        service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)
        linked = service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)
        assert linked.pe_ids == [pe.pe_id]

    def test_link_requires_owned_pe(self, service, users):
        alice, bob = users
        pe = service.add_pe(bob, make_pe("BobsPE"))
        wf = service.add_workflow(alice, make_wf("W"))
        with pytest.raises(NotFoundError):
            service.link_pe_to_workflow(alice, wf.workflow_id, pe.pe_id)

    def test_workflow_pes_by_name(self, service, users):
        alice, _ = users
        pe = service.add_pe(alice, make_pe("P"))
        service.add_workflow(alice, make_wf("W", pe_ids=[pe.pe_id]))
        assert [p.pe_id for p in service.workflow_pes_by_name(alice, "W")] == [pe.pe_id]

    def test_many_to_many_pe_in_two_workflows(self, service, users):
        alice, _ = users
        pe = service.add_pe(alice, make_pe("Shared"))
        wf1 = service.add_workflow(alice, make_wf("W1", code="YQ=="))
        wf2 = service.add_workflow(alice, make_wf("W2", code="Yg=="))
        service.link_pe_to_workflow(alice, wf1.workflow_id, pe.pe_id)
        service.link_pe_to_workflow(alice, wf2.workflow_id, pe.pe_id)
        assert service.workflow_pes(alice, wf1.workflow_id)[0].pe_id == pe.pe_id
        assert service.workflow_pes(alice, wf2.workflow_id)[0].pe_id == pe.pe_id
