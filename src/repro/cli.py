"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``serve``   — start a Laminar server over real HTTP (optionally SQLite
  backed), the deployment entry point.
* ``demo``    — run the IsPrime showcase end to end in one process.
* ``eval``    — regenerate a paper table (5, 6 or 7) on the terminal.
* ``search``  — query a registry from the terminal (text/semantic/code),
  served from the per-user vector index.
* ``register`` — register a PE or workflow through the typed v1 write
  endpoint (idempotency keys, conditional writes, ``--bulk`` batches).
* ``delete``  — remove a PE or workflow through the v1 delete endpoint.
* ``ingest``  — ingest a whole source tree as a background job
  (``POST /v1/registry/{user}/ingest``): walk, AST-chunk, embed and
  bulk-register every function/class, streaming progress; with
  ``--server`` the tree is packed into a tarball and uploaded to a
  running deployment.
* ``jobs``    — list, inspect or cancel background jobs over the
  ``/v1/jobs`` routes.
* ``stats``   — per-user registry counts via the DAO's owned-id
  projections (no record materialization, no model loading); add
  ``--shards`` for index shard occupancy.
* ``lint``    — run the repo-specific invariant linter
  (:mod:`repro.analysis`) over files/directories; ``--json`` for
  machine-readable findings, ``--list-rules`` for the rule table.
* ``endpoints`` — print the server's API table (paper Table 3 + extensions).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.errors import RegistryError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Laminar reproduction — serverless stream framework "
        "with semantic code search (WORKS/SC 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve Laminar over HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8075)
    serve.add_argument(
        "--db", default=None, help="SQLite registry path (default: in-memory)"
    )
    serve.add_argument(
        "--no-fit", action="store_true",
        help="skip model IDF fitting (faster startup, weaker search)",
    )

    demo = sub.add_parser("demo", help="run the IsPrime showcase")
    demo.add_argument("--input", type=int, default=10, help="iterations")
    demo.add_argument(
        "--mapping", default="MULTI",
        choices=["SIMPLE", "MULTI", "MPI", "REDIS"],
    )
    demo.add_argument("--num", type=int, default=5, help="process count")

    evaluate = sub.add_parser("eval", help="regenerate a paper table")
    evaluate.add_argument("table", type=int, choices=[5, 6, 7])

    search = sub.add_parser(
        "search",
        help="search a registry from the terminal (index-served)",
    )
    search.add_argument("query", help="the search string (no '/' characters)")
    search.add_argument(
        "--db", default=None, help="SQLite registry path (default: in-memory)"
    )
    search.add_argument("--user", default="cli", help="registry user name")
    search.add_argument("--password", default="cli", help="registry password")
    search.add_argument(
        "--type", dest="search_type", default="both",
        choices=["pe", "workflow", "both"],
    )
    search.add_argument(
        "--query-type", dest="query_type", default="semantic",
        choices=["text", "semantic", "code", "hybrid"],
    )
    search.add_argument(
        "-k", "--k", dest="k", type=int, default=None, help="max results"
    )
    search.add_argument(
        "--limit", type=int, default=None,
        help="page size over the ranked hits (v1 cursor pagination)",
    )
    search.add_argument(
        "--cursor", default=None,
        help="opaque resume token from a previous page's nextCursor",
    )
    search.add_argument(
        "--json", action="store_true",
        help="emit the v1 SearchResponse envelope verbatim (one JSON "
        "object on stdout)",
    )
    search.add_argument(
        "--no-fit", action="store_true",
        help="skip model IDF fitting (faster startup, weaker search)",
    )

    register = sub.add_parser(
        "register",
        help="register a PE or workflow via the v1 write endpoint",
    )
    register.add_argument(
        "name", nargs="?", default=None,
        help="PE name / workflow entry point (omit with --bulk)",
    )
    register.add_argument(
        "--kind", default="pe", choices=["pe", "workflow"],
        help="what to register (--bulk is PE-only)",
    )
    register.add_argument(
        "--db", default=None, help="SQLite registry path (default: in-memory)"
    )
    register.add_argument("--user", default="cli", help="registry user name")
    register.add_argument("--password", default="cli", help="registry password")
    register.add_argument(
        "--code", default=None, help="the code payload (peCode/workflowCode)"
    )
    register.add_argument(
        "--code-file", default=None,
        help="read the code payload from a file (also used as the "
        "source text for search/summarization unless --code is given)",
    )
    register.add_argument("--description", default="", help="description text")
    register.add_argument(
        "--if-version", dest="if_version", type=int, default=None,
        help="conditional write: current record revision (0 = create-only); "
        "with --bulk it pins the registry mutation counter instead; "
        "mismatch is a 412",
    )
    register.add_argument(
        "--idempotency-key", dest="idempotency_key", default=None,
        help="retry-safe write: replaying the same key returns the stored "
        "response verbatim",
    )
    register.add_argument(
        "--bulk", default=None, metavar="FILE.json",
        help="bulk-register PEs: a JSON array of item objects "
        "(peName/peCode/description/...) sent to /v1/registry/{user}/pes:bulk",
    )
    register.add_argument(
        "--json", action="store_true",
        help="emit the v1 WriteResponse envelope verbatim",
    )
    register.add_argument(
        "--no-fit", action="store_true",
        help="skip model IDF fitting (faster startup, weaker search)",
    )

    delete = sub.add_parser(
        "delete", help="remove a PE or workflow via the v1 delete endpoint"
    )
    delete.add_argument("name", help="PE name / workflow entry point")
    delete.add_argument(
        "--kind", default="pe", choices=["pe", "workflow"],
    )
    delete.add_argument(
        "--db", default=None, help="SQLite registry path (default: in-memory)"
    )
    delete.add_argument("--user", default="cli", help="registry user name")
    delete.add_argument("--password", default="cli", help="registry password")
    delete.add_argument(
        "--if-version", dest="if_version", type=int, default=None,
        help="conditional delete: the record's current revision",
    )
    delete.add_argument(
        "--idempotency-key", dest="idempotency_key", default=None,
        help="retry-safe delete (replay returns the stored response)",
    )
    delete.add_argument(
        "--json", action="store_true",
        help="emit the v1 WriteResponse envelope verbatim",
    )
    delete.add_argument(
        "--no-fit", action="store_true",
        help="skip model IDF fitting (faster startup, weaker search)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="ingest a source tree into the registry as a background job",
    )
    ingest.add_argument("path", help="directory to walk, chunk and register")
    ingest.add_argument(
        "--db", default=None, help="SQLite registry path (default: in-memory)"
    )
    ingest.add_argument(
        "--server", default=None, metavar="URL",
        help="ingest into a running deployment instead: the tree is "
        "packed into a .tar.gz and uploaded as the request's archive",
    )
    ingest.add_argument("--user", default="cli", help="registry user name")
    ingest.add_argument("--password", default="cli", help="registry password")
    ingest.add_argument(
        "--batch-size", dest="batch_size", type=int, default=None,
        help="chunks per bulk-registration batch (searches stay live "
        "between batches)",
    )
    ingest.add_argument(
        "--max-file-bytes", dest="max_file_bytes", type=int, default=None,
        help="skip files larger than this many bytes",
    )
    ingest.add_argument(
        "--max-chunk-lines", dest="max_chunk_lines", type=int, default=None,
        help="re-split chunks longer than this many lines into windows",
    )
    ingest.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit instead of streaming progress "
        "(only meaningful with --server: an in-process job dies with "
        "the command)",
    )
    ingest.add_argument(
        "--json", action="store_true",
        help="emit the final job snapshot as one JSON object",
    )
    ingest.add_argument(
        "--no-fit", action="store_true",
        help="skip model IDF fitting (faster startup, weaker search)",
    )

    jobs = sub.add_parser(
        "jobs",
        help="list, inspect or cancel background jobs (/v1/jobs); most "
        "useful with --server against a running deployment",
    )
    jobs.add_argument(
        "job_id", nargs="?", default=None,
        help="show one job (omit to list)",
    )
    jobs.add_argument(
        "--cancel", action="store_true",
        help="request cancellation of the given job id",
    )
    jobs.add_argument(
        "--state", default=None,
        choices=["queued", "running", "succeeded", "failed", "cancelled"],
        help="filter the listing by state",
    )
    jobs.add_argument(
        "--db", default=None, help="SQLite registry path (default: in-memory)"
    )
    jobs.add_argument(
        "--server", default=None, metavar="URL",
        help="talk to a running deployment instead of an in-process server",
    )
    jobs.add_argument("--user", default="cli", help="registry user name")
    jobs.add_argument("--password", default="cli", help="registry password")
    jobs.add_argument(
        "--json", action="store_true",
        help="emit the response envelope verbatim",
    )

    stats = sub.add_parser(
        "stats",
        help="registry ownership counts (cheap) and, with --shards, "
        "index shard occupancy",
    )
    stats.add_argument(
        "--db", default=None, help="SQLite registry path (default: in-memory)"
    )
    stats.add_argument(
        "--shards", action="store_true",
        help="also build the vector index from the record rows, like "
        "server startup, and report each shard's occupancy; writes nothing",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific invariant linter (repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output: {findings: [...], errors: [...]}",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule names to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )

    sub.add_parser("endpoints", help="print the API endpoint table")
    return parser


def _build_server(db: str | None, fit: bool):
    """An in-process server over the registry file ``db`` (in-memory
    without one).  A file at a schema version this code does not open
    raises :class:`~repro.errors.RegistryError`; every command prints
    its message and exits 1."""
    from repro.ml.bundle import ModelBundle
    from repro.registry.dao import SqliteDAO
    from repro.server import LaminarServer

    dao = SqliteDAO(db) if db else None
    return LaminarServer(dao=dao, models=ModelBundle.default(fit=fit))


def _missing_registry(db: str | None) -> bool:
    """Whether a read-only command's ``--db`` names no file — said on
    stdout — which opening it would leave behind as a new, empty
    registry."""
    if db is None or db == ":memory:" or os.path.exists(db):
        return False
    print(f"no registry file at {db}")
    return True


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.http import serve_http

    try:
        server = _build_server(args.db, fit=not args.no_fit)
    except RegistryError as exc:  # a --db file this code does not open
        print(exc.message)
        return 1
    with serve_http(server, host=args.host, port=args.port) as handle:
        print(f"Laminar serving on {handle.url}  (registry: "
              f"{args.db or 'in-memory'}; Ctrl-C to stop)")
        try:
            import time

            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.client import LaminarClient, local_stack
    from repro.workflows.isprime import build_isprime_graph

    client = LaminarClient(local_stack())
    client.register("demo", "demo")
    client.login("demo", "demo")
    client.register_Workflow(
        build_isprime_graph(), "isPrime",
        "Workflow that prints random prime numbers",
    )
    print(f"running isPrime: input={args.input} mapping={args.mapping} "
          f"num={args.num}\n")
    outcome = client.run(
        "isPrime", input=args.input, process=args.mapping,
        args={"num": args.num},
    )
    print("\n" + outcome.summary())
    return 0 if outcome.status == "ok" else 1


def cmd_eval(args: argparse.Namespace) -> int:
    from repro.evalharness.reporting import check

    if args.table == 5:
        from repro.evalharness.experiments import run_table5

        result = run_table5()
    elif args.table == 6:
        from repro.evalharness.experiments import run_table6

        result = run_table6()
    else:
        from repro.evalharness.experiments import run_table7

        result = run_table7()
    print(result["table"])
    print()
    ok = True
    for label, passed in result["checks"].items():
        print(check(label, passed))
        ok = ok and passed
    return 0 if ok else 1


def cmd_search(args: argparse.Namespace) -> int:
    """One-shot registry search over the v1 typed search endpoint.

    Most useful against a SQLite registry (``--db``): the server bulk-
    loads the vector index from the stored embeddings at startup and the
    query is served from the per-user shards, exactly like ``serve``.
    The request travels through ``POST /v1/registry/{user}/search`` —
    top-k (``--k``) and cursor pagination (``--limit``/``--cursor``)
    are v1 envelope fields, and ``--json`` prints the
    :class:`~repro.server.schema.SearchResponse` envelope verbatim for
    scripting.
    """
    import json as _json

    from repro.client.display import render_search_hits
    from repro.errors import NotFoundError
    from repro.net.transport import Request

    if _missing_registry(args.db):
        return 1
    try:
        server = _build_server(args.db, fit=not args.no_fit)
    except RegistryError as exc:
        print(exc.message)
        return 1
    try:
        server.registry.get_user(args.user)
    except NotFoundError:
        if args.db is not None:
            # never mutate a persistent registry from a read-only command
            print(f"unknown user {args.user!r} in registry {args.db}")
            return 1
        # ephemeral in-memory registry: create the throwaway user
        server.registry.register_user(args.user, args.password)
    login = server.dispatch(
        Request(
            "POST",
            "/auth/login",
            {"userName": args.user, "password": args.password},
        )
    )
    if login.status != 200:
        print(f"login failed: {login.body.get('message', login.body)}")
        return 1
    body: dict = {
        "query": args.query,
        "kind": args.search_type,
        "queryType": args.query_type,
    }
    if args.k is not None:
        body["k"] = args.k
    if args.limit is not None:
        body["limit"] = args.limit
    if args.cursor is not None:
        body["cursor"] = args.cursor
    response = server.dispatch(
        Request(
            "POST",
            f"/v1/registry/{args.user}/search",
            body,
            token=login.body["token"],
        )
    )
    if response.status != 200:
        print(f"search failed: {response.body.get('message', response.body)}")
        return 1
    if args.json:
        print(_json.dumps(response.body))
        return 0
    print(
        render_search_hits(
            response.body.get("searchKind", "text"), response.body.get("hits", [])
        )
    )
    next_cursor = response.body.get("nextCursor")
    if next_cursor:
        print(f"next page: --cursor {next_cursor}")
    return 0


def _login_for_write(server, user: str, password: str):
    """Token for a write command, introducing the user when missing.

    Unlike the read-only ``search`` command (which refuses to touch a
    persistent registry), registration *is* a write — a missing user is
    created on the spot, also against ``--db``.
    """
    from repro.errors import NotFoundError
    from repro.net.transport import Request

    try:
        server.registry.get_user(user)
    except NotFoundError:
        server.registry.register_user(user, password)
    login = server.dispatch(
        Request(
            "POST", "/auth/login", {"userName": user, "password": password}
        )
    )
    if login.status != 200:
        return None, f"login failed: {login.body.get('message', login.body)}"
    return login.body["token"], None


def _print_write_response(body: dict, as_json: bool) -> None:
    import json as _json

    if as_json:
        print(_json.dumps(body))
        return
    op, kind = body.get("op"), body.get("kind")
    if op == "delete":
        print(f"removed {kind} (registry version {body.get('registryVersion')})")
        return
    for item in body.get("items", []):
        name = item.get("peName") or item.get("entryPoint")
        rid = item.get("peId") or item.get("workflowId")
        state = "created" if item.get("created") else "existing"
        print(
            f"registered {kind} {name!r} (id {rid}, revision "
            f"{item.get('revision')}, {state})"
        )
    print(f"registry version {body.get('registryVersion')}")


def cmd_register(args: argparse.Namespace) -> int:
    """Register through ``PUT /v1/registry/{user}/pes|workflows/{name}``
    (or ``POST .../pes:bulk`` with ``--bulk``), the typed write surface:
    ``--idempotency-key`` makes retries exact replays, ``--if-version``
    turns the write into a compare-and-set on the record revision."""
    import json as _json

    from repro.net.transport import Request
    from repro.server.api import quote_segment

    # every argument error is knowable up front — fail before paying
    # server construction (model loading) and login
    if args.bulk is None and not args.name:
        print("a name is required unless --bulk is given")
        return 1
    if args.bulk is not None and args.kind != "pe":
        print("--bulk registers PEs only")
        return 1
    code = args.code
    source = ""
    if args.code_file is not None:
        try:
            with open(args.code_file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"cannot read --code-file: {exc}")
            return 1
        if code is None:
            code = source
    items = None
    if args.bulk is not None:
        try:
            with open(args.bulk, "r", encoding="utf-8") as handle:
                items = _json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read --bulk file: {exc}")
            return 1
        if not isinstance(items, list):
            print("--bulk file must hold a JSON array of item objects")
            return 1
    elif not code:
        print("either --code or --code-file is required")
        return 1
    try:
        server = _build_server(args.db, fit=not args.no_fit)
    except RegistryError as exc:
        print(exc.message)
        return 1
    token, error = _login_for_write(server, args.user, args.password)
    if error:
        print(error)
        return 1
    if items is not None:
        body: dict = {"items": items}
        method, path = "POST", f"/v1/registry/{args.user}/pes:bulk"
    else:
        key = "peCode" if args.kind == "pe" else "workflowCode"
        body = {key: code}
        if args.description:
            body["description"] = args.description
        if source:
            body["peSource" if args.kind == "pe" else "workflowSource"] = source
        collection = "pes" if args.kind == "pe" else "workflows"
        method = "PUT"
        path = (
            f"/v1/registry/{args.user}/{collection}/"
            f"{quote_segment(args.name)}"
        )
    if args.if_version is not None:
        body["ifVersion"] = args.if_version
    if args.idempotency_key is not None:
        body["idempotencyKey"] = args.idempotency_key
    response = server.dispatch(Request(method, path, body, token=token))
    if not response.ok:
        print(f"register failed: {response.body.get('message', response.body)}")
        return 1
    _print_write_response(response.body, args.json)
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    """Remove through ``DELETE /v1/registry/{user}/pes|workflows/{name}``."""
    from repro.net.transport import Request
    from repro.server.api import quote_segment

    try:
        server = _build_server(args.db, fit=not args.no_fit)
    except RegistryError as exc:
        print(exc.message)
        return 1
    token, error = _login_for_write(server, args.user, args.password)
    if error:
        print(error)
        return 1
    body: dict = {}
    if args.if_version is not None:
        body["ifVersion"] = args.if_version
    if args.idempotency_key is not None:
        body["idempotencyKey"] = args.idempotency_key
    collection = "pes" if args.kind == "pe" else "workflows"
    response = server.dispatch(
        Request(
            "DELETE",
            f"/v1/registry/{args.user}/{collection}/"
            f"{quote_segment(args.name)}",
            body,
            token=token,
        )
    )
    if not response.ok:
        print(f"delete failed: {response.body.get('message', response.body)}")
        return 1
    _print_write_response(response.body, args.json)
    return 0


def _connect_for_write(args: argparse.Namespace, *, fit: bool = False):
    """``(dispatch, token, error)`` for a write command.

    In-process by default (``--db`` or in-memory), or a real deployment
    when ``--server URL`` is given — the remote path introduces the user
    over the wire first (``/auth/register`` may 4xx when the user
    already exists; only the login outcome matters).
    """
    from repro.net.transport import Request

    if getattr(args, "server", None):
        from repro.server.http import HttpTransport

        dispatch = HttpTransport(args.server).request
        creds = {"userName": args.user, "password": args.password}
        dispatch(Request("POST", "/auth/register", creds))
        login = dispatch(Request("POST", "/auth/login", creds))
        if login.status != 200:
            return None, None, (
                f"login failed: {login.body.get('message', login.body)}"
            )
        return dispatch, login.body["token"], None
    try:
        server = _build_server(args.db, fit=fit)
    except RegistryError as exc:
        return None, None, exc.message
    token, error = _login_for_write(server, args.user, args.password)
    if error:
        return None, None, error
    return server.dispatch, token, None


def _pack_tree(path: str) -> tuple[str, int]:
    """Base64 ``.tar.gz`` of the ingestable files under ``path``.

    Reuses the server-side walker so the client ships exactly the file
    set the server would have selected locally — skip dirs, binary and
    oversized files never leave the machine.
    """
    import base64
    import io
    import tarfile

    from repro.ingest.walker import iter_repo_files

    buffer = io.BytesIO()
    count = 0
    with tarfile.open(fileobj=buffer, mode="w:gz") as tar:
        for rel, text in iter_repo_files(path):
            if text is None:
                continue
            data = text.encode("utf-8")
            info = tarfile.TarInfo(rel)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
            count += 1
    return base64.b64encode(buffer.getvalue()).decode("ascii"), count


def _format_progress(progress: dict) -> str:
    files = progress.get("filesDiscovered", 0)
    skipped = progress.get("filesSkipped", 0)
    return (
        f"files {files} (+{skipped} skipped)  "
        f"chunks {progress.get('chunksDiscovered', 0)} discovered / "
        f"{progress.get('chunksEmbedded', 0)} embedded / "
        f"{progress.get('chunksInserted', 0)} inserted / "
        f"{progress.get('chunksDeduped', 0)} deduped"
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest a source tree through ``POST /v1/registry/{user}/ingest``.

    The endpoint answers 202 with a job id immediately; this command
    then follows the job over ``GET /v1/jobs/{id}``, echoing progress
    counters as they move.  Against ``--server`` the tree is packed
    into a tarball client-side (the path means nothing to a remote
    machine) and uploaded as the request's ``archive``.
    """
    import json as _json
    import os
    import time

    from repro.net.transport import Request
    from repro.server.api import quote_segment

    if not os.path.isdir(args.path):
        print(f"not a directory: {args.path}")
        return 1
    dispatch, token, error = _connect_for_write(args, fit=not args.no_fit)
    if error:
        print(error)
        return 1
    body: dict = {}
    if args.server:
        body["archive"], packed = _pack_tree(args.path)
        print(f"packed {packed} file(s) for upload")
    else:
        body["path"] = os.path.abspath(args.path)
    if args.batch_size is not None:
        body["batchSize"] = args.batch_size
    if args.max_file_bytes is not None:
        body["maxFileBytes"] = args.max_file_bytes
    if args.max_chunk_lines is not None:
        body["maxChunkLines"] = args.max_chunk_lines
    response = dispatch(
        Request(
            "POST",
            f"/v1/registry/{quote_segment(args.user)}/ingest",
            body,
            token=token,
        )
    )
    if response.status != 202:
        print(f"ingest failed: {response.body.get('message', response.body)}")
        return 1
    job_id = response.body["jobId"]
    print(f"job {job_id} queued")
    if args.no_wait:
        return 0
    last_line = None
    while True:
        poll = dispatch(
            Request("GET", f"/v1/jobs/{quote_segment(job_id)}", token=token)
        )
        if not poll.ok:
            print(f"job lookup failed: {poll.body.get('message', poll.body)}")
            return 1
        job = poll.body["job"]
        line = _format_progress(job.get("progress", {}))
        if line != last_line:
            print(f"  {line}")
            last_line = line
        if job["state"] in ("succeeded", "failed", "cancelled"):
            break
        time.sleep(0.15)
    if args.json:
        print(_json.dumps(job))
        return 0 if job["state"] == "succeeded" else 1
    if job["state"] == "succeeded":
        result = job.get("result") or {}
        print(
            f"succeeded: {result.get('inserted', 0)} inserted, "
            f"{result.get('deduped', 0)} deduped "
            f"(registry version {result.get('registryVersion')})"
        )
        return 0
    error_body = job.get("error") or {}
    print(
        f"{job['state']}: "
        f"{error_body.get('message', 'no error detail recorded')}"
    )
    return 1


def cmd_jobs(args: argparse.Namespace) -> int:
    """List, inspect or cancel background jobs over ``/v1/jobs``.

    Jobs are owner-scoped: only the authenticated user's jobs are
    visible.  Without ``--server`` this talks to a fresh in-process
    server, whose job store starts empty — the command is mostly
    useful against a running deployment.
    """
    import json as _json

    from repro.net.transport import Request
    from repro.server.api import quote_segment

    if args.cancel and not args.job_id:
        print("--cancel requires a job id")
        return 1
    dispatch, token, error = _connect_for_write(args)
    if error:
        print(error)
        return 1
    if args.job_id:
        if args.cancel:
            request = Request(
                "POST",
                f"/v1/jobs/{quote_segment(args.job_id)}:cancel",
                token=token,
            )
        else:
            request = Request(
                "GET", f"/v1/jobs/{quote_segment(args.job_id)}", token=token
            )
        response = dispatch(request)
        if not response.ok:
            print(f"jobs failed: {response.body.get('message', response.body)}")
            return 1
        if args.json:
            print(_json.dumps(response.body))
            return 0
        job = response.body["job"]
        print(f"{job['jobId']}  {job['kind']:<10} {job['state']}")
        print(f"  {_format_progress(job.get('progress', {}))}")
        if job.get("result"):
            print(f"  result: {_json.dumps(job['result'])}")
        if job.get("error"):
            print(f"  error: {_json.dumps(job['error'])}")
        return 0
    body = {}
    if args.state:
        body["state"] = args.state
    response = dispatch(Request("GET", "/v1/jobs", body, token=token))
    if not response.ok:
        print(f"jobs failed: {response.body.get('message', response.body)}")
        return 1
    if args.json:
        print(_json.dumps(response.body))
        return 0
    jobs = response.body.get("jobs", [])
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(
            f"{job['jobId']}  {job['kind']:<10} {job['state']:<10} "
            f"{_format_progress(job.get('progress', {}))}"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Registry occupancy without materializing a single record.

    Per-user PE/workflow counts come straight from the DAO's owned-id
    projections (``pe_ids_owned_by`` / ``workflow_ids_owned_by``), which
    read only the ownership index — no row fetches, no embedding
    unblobbing, no model or server construction — so the default mode
    stays cheap even against a huge registry.  ``--shards`` additionally
    builds the vector index the way server startup does — one scan of
    each user's record rows — and reports per-shard occupancy.
    """
    from repro.registry.dao import SqliteDAO

    if _missing_registry(args.db):
        return 1
    try:
        dao = SqliteDAO(args.db or ":memory:")
    except RegistryError as exc:
        print(exc.message)
        return 1
    users = dao.all_users()
    print(f"registry: {args.db or 'in-memory'}  ({len(users)} user(s))")
    for user in users:
        pe_ids = dao.pe_ids_owned_by(user.user_id)
        wf_ids = dao.workflow_ids_owned_by(user.user_id)
        print(
            f"  {user.user_name:<20} {len(pe_ids):>6} PE(s) "
            f"{len(wf_ids):>6} workflow(s)"
        )
    if args.shards:
        from repro.registry.service import RegistryService
        from repro.search.index import VectorIndex

        service = RegistryService(dao, VectorIndex())
        shards = service.index.stats()
        print(
            f"index: {len(shards)} shard(s)  "
            f"(mutation counter {dao.mutation_counter()})"
        )
        for key, info in sorted(shards.items()):
            print(
                f"  {key:<20} {info['live']:>6} live rows  "
                f"(capacity {info['capacity']}, d={info['dim']})"
            )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Exit 0 clean, 1 with findings, 2 on unparseable files."""
    from repro.analysis import (
        all_rules,
        lint_paths,
        render_findings,
        render_json,
    )

    if args.list_rules:
        for name, rule in all_rules().items():
            print(f"{name}  {rule.summary}")
        return 0
    rules = None
    if args.rules:
        rules = [name.strip() for name in args.rules.split(",") if name.strip()]
    findings, errors = lint_paths(args.paths, rules=rules)
    if args.as_json:
        print(render_json(findings, errors))
    elif findings or errors:
        print(render_findings(findings, errors))
    if errors:
        return 2
    return 1 if findings else 0


def cmd_endpoints(args: argparse.Namespace) -> int:
    server = _build_server(None, fit=False)
    for method, pattern in server.endpoints():
        print(f"{method:7s} {pattern}")
    return 0


_COMMANDS = {
    "serve": cmd_serve,
    "demo": cmd_demo,
    "eval": cmd_eval,
    "search": cmd_search,
    "register": cmd_register,
    "delete": cmd_delete,
    "ingest": cmd_ingest,
    "jobs": cmd_jobs,
    "stats": cmd_stats,
    "lint": cmd_lint,
    "endpoints": cmd_endpoints,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
