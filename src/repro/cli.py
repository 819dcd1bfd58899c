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

The five registry commands (``search``, ``register``, ``delete``,
``ingest``, ``jobs``) reach a server one way, :func:`_session`: an
in-process server over ``--db`` (in-memory without one) or, with
``--server URL``, a running deployment over HTTP.  An option that more
than one command takes is declared once, on an argparse parent parser.
A command that fails says why in one line on stdout and exits 1: a
refused ``--db`` file with the :class:`~repro.errors.RegistryError`'s
message, a failed request with ``<what> failed: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Sequence

from repro.errors import RegistryError


class _Failed(Exception):
    """Ends a command: :func:`main` prints the message and returns 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Laminar reproduction — serverless stream framework "
        "with semantic code search (WORKS/SC 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option more than one command takes, declared once: each parent
    # parser below is handed to every command that takes its options
    db = argparse.ArgumentParser(add_help=False)
    db.add_argument("--db", help="SQLite registry path (default: in-memory)")
    no_fit = argparse.ArgumentParser(add_help=False)
    no_fit.add_argument(
        "--no-fit", action="store_true",
        help="skip model IDF fitting (faster startup, weaker search)",
    )
    login = argparse.ArgumentParser(add_help=False)
    login.add_argument("--user", default="cli", help="registry user name")
    login.add_argument("--password", default="cli", help="registry password")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json", action="store_true",
        help="print the reply's v1 envelope verbatim (ingest: the final "
        "job snapshot) as one JSON object",
    )
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument(
        "--kind", default="pe", choices=["pe", "workflow"],
        help="record kind (--bulk is PE-only)",
    )
    conditional = argparse.ArgumentParser(add_help=False)
    conditional.add_argument(
        "--if-version", type=int,
        help="conditional write: the record's current revision (0 = "
        "create-only; with --bulk, the registry mutation counter); a "
        "mismatch is a 412",
    )
    conditional.add_argument(
        "--idempotency-key",
        help="retry-safe write: replaying the key returns the stored "
        "response verbatim",
    )
    remote = argparse.ArgumentParser(add_help=False)
    remote.add_argument(
        "--server", metavar="URL",
        help="talk to a running deployment instead of an in-process "
        "server (ingest uploads the tree packed into a .tar.gz)",
    )

    serve = sub.add_parser(
        "serve", parents=[db, no_fit], help="serve Laminar over HTTP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8075)

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
        "search", parents=[db, login, no_fit, as_json],
        help="search a registry from the terminal (index-served)",
    )
    search.add_argument("query", help="the search string (no '/' characters)")
    search.add_argument(
        "--type", dest="search_type", default="both",
        choices=["pe", "workflow", "both"],
    )
    search.add_argument(
        "--query-type", default="semantic",
        choices=["text", "semantic", "code", "hybrid"],
    )
    search.add_argument("-k", "--k", type=int, help="max results")
    search.add_argument(
        "--limit", type=int,
        help="page size over the ranked hits (v1 cursor pagination)",
    )
    search.add_argument(
        "--cursor", help="opaque resume token from a previous page's nextCursor"
    )

    register = sub.add_parser(
        "register", parents=[kind, db, login, conditional, no_fit, as_json],
        help="register a PE or workflow via the v1 write endpoint",
    )
    register.add_argument(
        "name", nargs="?",
        help="PE name / workflow entry point (omit with --bulk)",
    )
    register.add_argument(
        "--code", help="the code payload (peCode/workflowCode)"
    )
    register.add_argument(
        "--code-file",
        help="read the code payload from a file (also used as the "
        "source text for search/summarization unless --code is given)",
    )
    register.add_argument("--description", default="", help="description text")
    register.add_argument(
        "--bulk", metavar="FILE.json",
        help="bulk-register PEs: a JSON array of item objects "
        "(peName/peCode/description/...) sent to /v1/registry/{user}/pes:bulk",
    )

    delete = sub.add_parser(
        "delete", parents=[kind, db, login, conditional, no_fit, as_json],
        help="remove a PE or workflow via the v1 delete endpoint",
    )
    delete.add_argument("name", help="PE name / workflow entry point")

    ingest = sub.add_parser(
        "ingest", parents=[db, remote, login, no_fit, as_json],
        help="ingest a source tree into the registry as a background job",
    )
    ingest.add_argument("path", help="directory to walk, chunk and register")
    ingest.add_argument(
        "--batch-size", type=int,
        help="chunks per bulk-registration batch (searches stay live "
        "between batches)",
    )
    ingest.add_argument(
        "--max-file-bytes", type=int,
        help="skip files larger than this many bytes",
    )
    ingest.add_argument(
        "--max-chunk-lines", type=int,
        help="re-split chunks longer than this many lines into windows",
    )
    ingest.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit instead of streaming progress "
        "(only meaningful with --server: an in-process job dies with "
        "the command)",
    )

    jobs = sub.add_parser(
        "jobs", parents=[db, remote, login, as_json],
        help="list, inspect or cancel background jobs (/v1/jobs); most "
        "useful with --server against a running deployment",
    )
    jobs.add_argument(
        "job_id", nargs="?", help="show one job (omit to list)"
    )
    jobs.add_argument(
        "--cancel", action="store_true",
        help="request cancellation of the given job id",
    )
    jobs.add_argument(
        "--state",
        choices=["queued", "running", "succeeded", "failed", "cancelled"],
        help="filter the listing by state",
    )

    stats = sub.add_parser(
        "stats", parents=[db],
        help="registry ownership counts (cheap) and, with --shards, "
        "index shard occupancy",
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
        "--rules", help="comma-separated rule names to run (default: all)"
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )

    sub.add_parser("endpoints", help="print the API endpoint table")
    return parser


def _open_registry(db: str):
    """A :class:`~repro.registry.dao.SqliteDAO` over ``db``; a file at a
    schema version this code does not open ends the command with the
    :class:`~repro.errors.RegistryError`'s message."""
    from repro.registry.dao import SqliteDAO

    try:
        return SqliteDAO(db)
    except RegistryError as exc:
        raise _Failed(exc.message) from None


def _build_server(db: str | None, fit: bool):
    """An in-process server over the registry file ``db`` (in-memory
    without one)."""
    from repro.ml.bundle import ModelBundle
    from repro.server import LaminarServer

    dao = _open_registry(db) if db else None
    return LaminarServer(dao=dao, models=ModelBundle.default(fit=fit))


def _require_file(db: str | None) -> None:
    """A read-only command's ``--db`` must name a file: opening a missing
    one would leave a new, empty registry behind."""
    if db is not None and db != ":memory:" and not os.path.exists(db):
        raise _Failed(f"no registry file at {db}")


def _answer(what: str, response, as_json: bool = False) -> dict | None:
    """``response``'s body, or ``None`` once ``as_json`` has printed it
    verbatim; a failed response ends the command with ``<what> failed:
    <message>``."""
    if not response.ok:
        message = response.body.get("message", response.body)
        raise _Failed(f"{what} failed: {message}")
    if as_json:
        print(json.dumps(response.body))
        return None
    return response.body


def _session(
    args: argparse.Namespace, *, read_only: bool = False
) -> Callable[..., dict | None]:
    """The one way a registry command reaches a server: a logged-in
    ``call(what, method, path, body=None, as_json=False)`` that sends one
    request and returns :func:`_answer` of its reply.

    In-process over ``--db`` (in-memory without one), or a running
    deployment over HTTP with ``--server URL``.  The user is introduced
    first (``/auth/register`` refuses one that exists; only the login
    counts), except by a ``read_only`` command over ``--db``: it never
    adds a user to a registry file, nor creates the file.
    """
    from repro.net.transport import Request

    if getattr(args, "server", None):
        from repro.server.http import HttpTransport

        request = HttpTransport(args.server).request
    else:
        if read_only:
            _require_file(args.db)
        server = _build_server(args.db, fit=not getattr(args, "no_fit", True))
        request = server.dispatch
    credentials = {"userName": args.user, "password": args.password}
    if not (read_only and args.db is not None):
        request(Request("POST", "/auth/register", credentials))
    elif server.registry.dao.get_user_by_name(args.user) is None:
        raise _Failed(f"unknown user {args.user!r} in registry {args.db}")
    login = request(Request("POST", "/auth/login", credentials))
    token = _answer("login", login)["token"]

    def call(what, method, path, body=None, as_json=False) -> dict | None:
        reply = request(Request(method, path, body or {}, token=token))
        return _answer(what, reply, as_json)

    return call


def _given(**fields: Any) -> dict:
    """The request fields whose options were given (not ``None``)."""
    return {name: value for name, value in fields.items() if value is not None}


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.http import serve_http

    server = _build_server(args.db, fit=not args.no_fit)
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
    from repro.evalharness.experiments import run_table5, run_table6, run_table7
    from repro.evalharness.reporting import check

    result = {5: run_table5, 6: run_table6, 7: run_table7}[args.table]()
    print(result["table"])
    print()
    for label, passed in result["checks"].items():
        print(check(label, passed))
    return 0 if all(result["checks"].values()) else 1


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
    from repro.client.display import render_search_hits
    from repro.server.api import quote_segment

    call = _session(args, read_only=True)
    body = {
        "query": args.query,
        "kind": args.search_type,
        "queryType": args.query_type,
        **_given(k=args.k, limit=args.limit, cursor=args.cursor),
    }
    path = f"/v1/registry/{quote_segment(args.user)}/search"
    reply = call("search", "POST", path, body, as_json=args.json)
    if reply is not None:
        kind = reply.get("searchKind", "text")
        print(render_search_hits(kind, reply.get("hits", [])))
        if reply.get("nextCursor"):
            print(f"next page: --cursor {reply['nextCursor']}")
    return 0


def _write(args: argparse.Namespace, method: str, tail: str, body: dict) -> int:
    """Send one v1 write under ``/v1/registry/{user}/`` and print its
    :class:`~repro.server.schema.WriteResponse` (``--json``: verbatim)."""
    from repro.server.api import quote_segment

    body.update(
        _given(ifVersion=args.if_version, idempotencyKey=args.idempotency_key)
    )
    call = _session(args)
    path = f"/v1/registry/{quote_segment(args.user)}/{tail}"
    reply = call(args.command, method, path, body, as_json=args.json)
    if reply is None:
        return 0
    kind = reply.get("kind")
    if reply.get("op") == "delete":
        print(f"removed {kind} (registry version {reply.get('registryVersion')})")
        return 0
    for item in reply.get("items", []):
        name = item.get("peName") or item.get("entryPoint")
        rid = item.get("peId") or item.get("workflowId")
        state = "created" if item.get("created") else "existing"
        print(
            f"registered {kind} {name!r} (id {rid}, revision "
            f"{item.get('revision')}, {state})"
        )
    print(f"registry version {reply.get('registryVersion')}")
    return 0


def cmd_register(args: argparse.Namespace) -> int:
    """Register through ``PUT /v1/registry/{user}/pes|workflows/{name}``
    (or ``POST .../pes:bulk`` with ``--bulk``), the typed write surface:
    ``--idempotency-key`` makes retries exact replays, ``--if-version``
    turns the write into a compare-and-set on the record revision."""
    from repro.server.api import quote_segment

    # every argument error is knowable up front — fail before paying
    # server construction (model loading) and login
    if args.bulk is None and not args.name:
        raise _Failed("a name is required unless --bulk is given")
    if args.bulk is not None and args.kind != "pe":
        raise _Failed("--bulk registers PEs only")
    source = ""
    if args.code_file is not None:
        try:
            with open(args.code_file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise _Failed(f"cannot read --code-file: {exc}") from None
    code = source if args.code is None else args.code
    if args.bulk is not None:
        try:
            with open(args.bulk, "r", encoding="utf-8") as handle:
                items = json.load(handle)
        except (OSError, ValueError) as exc:
            raise _Failed(f"cannot read --bulk file: {exc}") from None
        if not isinstance(items, list):
            raise _Failed("--bulk file must hold a JSON array of item objects")
        return _write(args, "POST", "pes:bulk", {"items": items})
    if not code:
        raise _Failed("either --code or --code-file is required")
    body = {f"{args.kind}Code": code}
    if args.description:
        body["description"] = args.description
    if source:
        body[f"{args.kind}Source"] = source
    return _write(args, "PUT", f"{args.kind}s/{quote_segment(args.name)}", body)


def cmd_delete(args: argparse.Namespace) -> int:
    """Remove through ``DELETE /v1/registry/{user}/pes|workflows/{name}``."""
    from repro.server.api import quote_segment

    return _write(args, "DELETE", f"{args.kind}s/{quote_segment(args.name)}", {})


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


def _format_progress(job: dict) -> str:
    progress = job.get("progress", {})
    return (
        f"files {progress.get('filesDiscovered', 0)} "
        f"(+{progress.get('filesSkipped', 0)} skipped)  "
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
    import time

    from repro.server.api import quote_segment

    if not os.path.isdir(args.path):
        raise _Failed(f"not a directory: {args.path}")
    call = _session(args)
    body = _given(
        batchSize=args.batch_size,
        maxFileBytes=args.max_file_bytes,
        maxChunkLines=args.max_chunk_lines,
    )
    if args.server:
        body["archive"], packed = _pack_tree(args.path)
        print(f"packed {packed} file(s) for upload")
    else:
        body["path"] = os.path.abspath(args.path)
    path = f"/v1/registry/{quote_segment(args.user)}/ingest"
    job_id = call("ingest", "POST", path, body)["jobId"]
    print(f"job {job_id} queued")
    if args.no_wait:
        return 0
    last_line = None
    while True:
        job = call("job lookup", "GET", f"/v1/jobs/{quote_segment(job_id)}")["job"]
        line = _format_progress(job)
        if line != last_line:
            print(f"  {line}")
            last_line = line
        if job["state"] in ("succeeded", "failed", "cancelled"):
            break
        time.sleep(0.15)
    if args.json:
        print(json.dumps(job))
    elif job["state"] == "succeeded":
        result = job.get("result") or {}
        print(
            f"succeeded: {result.get('inserted', 0)} inserted, "
            f"{result.get('deduped', 0)} deduped "
            f"(registry version {result.get('registryVersion')})"
        )
    else:
        error = job.get("error") or {}
        print(f"{job['state']}: "
              f"{error.get('message', 'no error detail recorded')}")
    return 0 if job["state"] == "succeeded" else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    """List, inspect or cancel background jobs over ``/v1/jobs``.

    Jobs are owner-scoped: only the authenticated user's jobs are
    visible.  Without ``--server`` this talks to a fresh in-process
    server, whose job store starts empty — the command is mostly
    useful against a running deployment.
    """
    from repro.server.api import quote_segment

    if args.cancel and not args.job_id:
        raise _Failed("--cancel requires a job id")
    call = _session(args)
    if not args.job_id:
        body = _given(state=args.state)
        reply = call("jobs", "GET", "/v1/jobs", body, as_json=args.json)
        if reply is not None:
            for job in reply.get("jobs", []):
                print(f"{job['jobId']}  {job['kind']:<10} {job['state']:<10} "
                      f"{_format_progress(job)}")
            if not reply.get("jobs"):
                print("no jobs")
        return 0
    method, path = "GET", f"/v1/jobs/{quote_segment(args.job_id)}"
    if args.cancel:
        method, path = "POST", f"{path}:cancel"
    reply = call("jobs", method, path, as_json=args.json)
    if reply is not None:
        job = reply["job"]
        print(f"{job['jobId']}  {job['kind']:<10} {job['state']}")
        print(f"  {_format_progress(job)}")
        for key in ("result", "error"):
            if job.get(key):
                print(f"  {key}: {json.dumps(job[key])}")
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
    _require_file(args.db)
    dao = _open_registry(args.db or ":memory:")
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
    try:
        return _COMMANDS[args.command](args)
    except _Failed as exc:
        print(exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
