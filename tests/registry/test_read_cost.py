"""What one registry search costs the store: statements, rows, bytes, ids.

The read twin of ``test_write_cost.py``.  Over the real search surface
(``POST /v1/registry/{user}/search`` through ``LaminarServer.dispatch``)
on a file database, each ``queryType`` is pinned at four exact counts,
and so is the legacy Table-3 text route
(``GET /registry/{user}/search/{q}/type/both``), which must cost what
v1 text costs:

* **statements** — SQL the DAO runs on its connection
  (``set_trace_callback``; the statements FTS5 runs inside a ``MATCH``
  and the ``PRAGMA data_version`` behind the ``pragma_data_version``
  table a text ranking reads for its freshness check, traced with a
  ``--`` prefix, are SQLite's own plan and not counted);
* **rows** — records hydrated (``PERecord``/``WorkflowRecord`` built
  from a row);
* **embedding bytes** — vector blobs decoded on the way
  (``veccodec.decode_vector``), though no response carries a vector;
* **ids** — owned ids projected (``pe_ids_owned_by`` plus
  ``workflow_ids_owned_by``, summed lengths): none, since an embedding
  flush checks the vector index's freshness with one ``PRAGMA
  data_version`` instead of comparing the shard with the owned ids.

The counts are exact for these fixed inputs; no timing is involved.  A
change to the read path moves them on purpose and re-pins them here.
They are taken on a warm text index — the server wrote every record, so
its index is in step; the first text search after a reopen also fills
the index from the record rows, and is pinned apart
(:data:`FIRST_TEXT_COST`).
"""

import pytest

from repro.net.transport import Request
from repro.registry import dao as dao_module
from repro.registry.dao import SqliteDAO
from repro.server import LaminarServer

#: the searching tenant's records, and another tenant's the search
#: must never touch
PES, WORKFLOWS, OTHER_PES = 24, 6, 10
K = 3
QUERY = "element adds to a stream"

#: queryType -> (statements, rows hydrated, embedding bytes, ids projected).
#: Every search ranks ids only, merges or fuses its rankings, cuts them
#: to k and then hydrates the k survivors, one fetch per record kind
#: among them — here all three are PEs.  Before that, each record
#: kind's ranking hydrated its own k winners ahead of the merge (5, 6,
#: 333 for semantic and text) and hybrid both legs to their depth
#: max(2k, k + 50) (9, 60, 3 852: 60 rows read for 3 hits)
READ_COST = {
    # user lookup, two data_version reads, one hydration
    "semantic": (4, 3, 210, 0),
    # user lookup, two FTS rankings, one hydration
    "text": (4, 3, 210, 0),
    # the Table-3 route: the same ranking core, so the same reads
    "table3-text": (4, 3, 210, 0),
    # user lookup, two FTS rankings, two data_version reads, one
    # hydration of the 3 fused winners
    "hybrid": (6, 3, 210, 0),
    # user lookup, one data_version read, one hydration
    "code": (3, 3, 210, 0),
}


@pytest.fixture()
def server(tmp_path, fast_bundle):
    dao = SqliteDAO(tmp_path / "registry.db")
    app = LaminarServer(dao=dao, models=fast_bundle)
    tokens = {}
    for user, pes, workflows in (("u", PES, WORKFLOWS), ("v", OTHER_PES, 0)):
        app.dispatch(
            Request(
                "POST", "/auth/register", {"userName": user, "password": "pw"}
            )
        )
        token = tokens[user] = app.dispatch(
            Request("POST", "/auth/login", {"userName": user, "password": "pw"})
        ).body["token"]
        for i in range(pes):
            reply = app.dispatch(
                Request(
                    "PUT",
                    f"/v1/registry/{user}/pes/{user}pe{i}",
                    {
                        "peCode": f"def {user}pe{i}(x):\n    return x + {i}\n",
                        "description": f"element {i} adds {i} to a stream",
                    },
                    token=token,
                )
            )
            assert reply.status == 201, reply.body
        for i in range(workflows):
            reply = app.dispatch(
                Request(
                    "PUT",
                    f"/v1/registry/{user}/workflows/{user}flow{i}",
                    {
                        "workflowCode": f"flow-{user}-{i}",
                        "description": f"workflow {i} chains stream elements",
                    },
                    token=token,
                )
            )
            assert reply.status == 201, reply.body
    yield app, tokens["u"]
    dao.close()


def search_request(token, query_type):
    """The dispatched search for one :data:`READ_COST` key."""
    if query_type == "table3-text":
        return Request(
            "GET",
            f"/registry/u/search/{QUERY}/type/both",
            {"queryType": "text", "k": K},
            token=token,
        )
    return Request(
        "POST",
        "/v1/registry/u/search",
        {
            "query": QUERY,
            "kind": "pe" if query_type == "code" else "both",
            "queryType": query_type,
            "k": K,
        },
        token=token,
    )


def read_cost(app, token, monkeypatch, query_type):
    """``(hits, (statements, rows, embedding bytes, ids))`` of one
    dispatched search."""
    dao = app.registry.dao
    statements: list[str] = []
    counts = {"rows": 0, "bytes": 0, "ids": 0}

    def counting(fn, key, measure):
        def wrapper(*args):
            result = fn(*args)
            counts[key] += measure(args, result)
            return result

        return wrapper

    decode = dao_module.decode_vector
    monkeypatch.setattr(
        dao_module,
        "decode_vector",
        counting(decode, "bytes", lambda args, _r: len(args[0])),
    )
    for name in ("_pe_from_row", "_wf_from_row"):
        monkeypatch.setattr(
            SqliteDAO,
            name,
            staticmethod(counting(getattr(SqliteDAO, name), "rows",
                                  lambda _a, _r: 1)),
        )
    for name in ("pe_ids_owned_by", "workflow_ids_owned_by"):
        monkeypatch.setattr(
            dao,
            name,
            counting(getattr(dao, name), "ids", lambda _a, r: len(r)),
        )
    dao._conn.set_trace_callback(statements.append)
    try:
        reply = app.dispatch(search_request(token, query_type))
    finally:
        dao._conn.set_trace_callback(None)
        monkeypatch.undo()
    assert reply.status == 200, reply.body
    return reply.body["hits"], (
        sum(1 for sql in statements if not sql.startswith("--")),
        counts["rows"],
        counts["bytes"],
        counts["ids"],
    )


@pytest.mark.parametrize("query_type", sorted(READ_COST))
def test_search_read_cost_is_pinned(server, monkeypatch, query_type):
    app, token = server
    hits, cost = read_cost(app, token, monkeypatch, query_type)
    assert len(hits) == K
    assert cost == READ_COST[query_type], cost
    # a repeat (query vector now cached) reads exactly the same
    again, repeat = read_cost(app, token, monkeypatch, query_type)
    assert again == hits and repeat == cost


#: the first text search after open — a server on a freshly opened DAO
#: over the same file: ``READ_COST["text"]`` plus the fill of the memory
#: text index.  Under the lock, one read transaction: ``BEGIN``, each
#: record table's ids and document sources, the ``data_version`` read,
#: ``COMMIT`` (five statements).  The documents are derived without the
#: lock; then, under it: ``BEGIN`` and the ``data_version`` read again
#: (two); per record table, empty the document table and the FTS5 index
#: (two each) and index the documents, two traced ``executemany`` steps
#: per record, every tenant's; ``COMMIT`` — and the ranking run again
#: inside the fill's snapshot.  Before schema v15 the open filled the
#: index instead, from the stored documents
FIRST_TEXT_COST = (
    READ_COST["text"][0] + 5 + 2 + 2 * 2
    + 2 * (PES + OTHER_PES + WORKFLOWS) + 1 + 1,
    *READ_COST["text"][1:],
)


def test_the_first_text_search_after_open_fills_the_index(
    server, monkeypatch, tmp_path, fast_bundle
):
    app, token = server
    warm, _cost = read_cost(app, token, monkeypatch, "text")
    reopened = LaminarServer(
        dao=SqliteDAO(tmp_path / "registry.db"), models=fast_bundle
    )
    try:
        token = reopened.dispatch(
            Request("POST", "/auth/login", {"userName": "u", "password": "pw"})
        ).body["token"]
        hits, cost = read_cost(reopened, token, monkeypatch, "text")
        assert hits == warm
        assert cost == FIRST_TEXT_COST, cost
        # the index is warm from then on
        again, repeat = read_cost(reopened, token, monkeypatch, "text")
        assert again == hits and repeat == READ_COST["text"]
    finally:
        reopened.registry.dao.close()
