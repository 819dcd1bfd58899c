"""What one registry write costs SQLite: commits and WAL frames.

A WAL commit logs whole pages, so *bytes per write = pages touched per
commit x bytes per page*.  Both factors are pinned here, over the real
write surface (``LaminarServer.dispatch``) on a file database: every
single-record ``PUT``/revise/``DELETE`` and a ``pes:bulk`` of 16 is
**one** commit when no fold is due — the journal rows ride in the
mutation's own transaction — and logs at most a pinned number of
frames.  The counts are exact for fixed inputs on one SQLite build;
the bounds leave one frame of slack for another build's b-tree splits.

New files get 1 KB pages; a file that already has pages keeps them
(page size is fixed once a WAL file exists) and passes the same cases.
"""

import struct
from pathlib import Path

import pytest

from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.server import LaminarServer
from tests.registry.test_journal_in_transaction import new_4k_file

#: frames one op may log, per page size — measured 12/8/16/21 of 1 KB
#: and 12/8/11/12 of 4 KB (the parent commit: 15/12/14/15 of 4 KB, in
#: 3/2/3/3 commits)
FRAME_BOUNDS = {
    1024: {"put": 13, "revise": 9, "delete": 17, "bulk": 22},
    4096: {"put": 13, "revise": 9, "delete": 12, "bulk": 13},
}


def wal_frames(path):
    """``(frames logged so far, page size)`` from the ``-wal`` file:
    a 32-byte header (page size big-endian at offset 8), then frames of
    a 24-byte header plus one page each."""
    raw = Path(f"{path}-wal").read_bytes()
    page = struct.unpack(">I", raw[8:12])[0]
    return (len(raw) - 32) // (24 + page), page


@pytest.fixture(params=[1024, 4096])
def registry(request, tmp_path, fast_bundle):
    """A served file registry with a few records in it; the 4 KB one is
    a file that had pages before this code first opened it."""
    path = tmp_path / "registry.db"
    if request.param == 4096:
        new_4k_file(path)
    dao = SqliteDAO(path)
    # the WAL only grows: frames logged = growth of the file
    dao._conn.execute("PRAGMA wal_autocheckpoint=0")
    server = LaminarServer(dao=dao, models=fast_bundle)
    server.dispatch(
        Request("POST", "/auth/register", {"userName": "u", "password": "pw"})
    )
    token = server.dispatch(
        Request("POST", "/auth/login", {"userName": "u", "password": "pw"})
    ).body["token"]

    def send(method, path_, body=None):
        return server.dispatch(Request(method, path_, body or {}, token=token))

    for i in range(8):
        assert put(send, f"seed{i}", f"seed element {i} adds one").status == 201
    yield send, dao, path, request.param
    dao.close()


def put(send, name, description):
    return send(
        "PUT",
        f"/v1/registry/u/pes/{name}",
        {
            "peCode": f"def {name}(x):\n    return x + 1\n",
            "description": description,
        },
    )


def cost(dao, path, op):
    """``(status, commits, frames)`` of one dispatched op."""
    statements = []
    dao._conn.set_trace_callback(statements.append)
    before, _ = wal_frames(path)
    try:
        status = op().status
    finally:
        dao._conn.set_trace_callback(None)
    after, _ = wal_frames(path)
    commits = sum(
        1 for sql in statements if sql.lstrip().upper().startswith("COMMIT")
    )
    return status, commits, after - before


def test_each_write_is_one_small_commit(registry):
    send, dao, path, page_size = registry
    assert dao._conn.execute("PRAGMA page_size").fetchone()[0] == page_size
    assert wal_frames(path)[1] == page_size
    bounds = FRAME_BOUNDS[page_size]
    bulk = {
        "items": [
            {
                "peName": f"bulk{i}",
                "peCode": f"def bulk{i}(x):\n    return x * {i}\n",
                "description": f"bulk element {i} scales its input",
            }
            for i in range(16)
        ]
    }
    ops = [
        ("put", 201, lambda: put(send, "fresh", "a new element that adds")),
        ("revise", 200, lambda: put(send, "fresh", "described once again")),
        ("delete", 200, lambda: send("DELETE", "/v1/registry/u/pes/fresh")),
        ("bulk", 201, lambda: send("POST", "/v1/registry/u/pes:bulk", bulk)),
    ]
    for name, expected, op in ops:
        status, commits, frames = cost(dao, path, op)
        assert status == expected, name
        assert commits == 1, f"{name}: {commits} commits"
        assert 0 < frames <= bounds[name], f"{name}: {frames} frames"
    # no fold was due, so none of that wrote a base slab
    assert dao.index_shards_meta()["shards"] == 0


def test_an_update_writes_only_what_changed(registry):
    """A revision that keeps name and description leaves the FTS
    document alone; one that keeps the owners leaves the join rows
    alone — the statement trace shows neither table touched."""
    send, dao, path, _page_size = registry
    record = dao.find_pe_by_name("seed3")[0]
    statements = []
    dao._conn.set_trace_callback(statements.append)
    record.pe_source = "# annotated\n" + record.pe_source
    dao.update_pe(record)
    dao._conn.set_trace_callback(None)
    touched = " ".join(statements)
    assert "pe_text" not in touched and "pe_owners" not in touched
    assert "pe_name=" not in touched  # idx_pes_name entry left alone
    assert dao.get_pe(record.pe_id).pe_source.startswith("# annotated")

    # an ownership grant re-syncs the join rows, still not the text
    statements.clear()
    dao._conn.set_trace_callback(statements.append)
    record.owners.add(99)
    dao.update_pe(record)
    dao._conn.set_trace_callback(None)
    touched = " ".join(statements)
    assert "pe_owners" in touched and "pe_text" not in touched
    assert dao.pe_ids_owned_by(99) == [record.pe_id]

    # a new description does re-index the text
    statements.clear()
    dao._conn.set_trace_callback(statements.append)
    record.description = "now it subtracts"
    dao.update_pe(record)
    dao._conn.set_trace_callback(None)
    assert "pe_text" in " ".join(statements)
    assert [pe_id for pe_id, _ in dao.text_topk_pes(99, "subtracts")] == [
        record.pe_id
    ]
