"""Reachability audit: which ``src/repro`` functions does nothing enter?

Run from any directory (stdlib only, no flags)::

    python3 benchmarks/reach.py

It runs every entry point a user or a benchmark has — the e2e smoke run,
the paper tables, the demo mappings, the ablations, the examples, every
CLI command and every HTTP route of a live ``repro serve`` — with a
profile hook armed in each process, then writes
``benchmarks/out/reach.txt``: every function under ``src/repro`` that no
scenario entered, as ``path:line qualname (n lines)``, grouped by the
reason it stays.  A function in the last group is reached by nothing but
its own unit tests, so it is a deletion candidate.  The exit status is 1
when any scenario exits non-zero (the list is written either way).

**The hook.**  A generated ``sitecustomize.py`` goes first on
``PYTHONPATH``, so every Python process a scenario starts imports it.  It
arms ``sys.setprofile`` and ``threading.setprofile`` (re-armed in forked
children through ``os.register_at_fork``) and appends each code object
under the audited root, the first time it is entered, to a per-PID file.
The file is line-buffered, so a process killed with SIGKILL has already
reported everything it entered.  A process that rebuilds its own
``PYTHONPATH`` (the e2e benchmark's server subprocess) runs unhooked; the
same benchmark's traced in-process replay covers that code.

**Matching.**  A code object names its function by ``co_firstlineno``,
which for a decorated function is the line of its first decorator; the
static side (:func:`functions`) uses the same line, so decorated, nested
and same-named functions are told apart.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUT = ROOT / "benchmarks" / "out" / "reach.txt"

#: environment of the hook: the directory whose code objects count, and
#: where each process writes its ``<pid>.txt``
ROOT_ENV = "REACH_ROOT"
OUT_ENV = "REACH_OUT"

HOOK = '''\
"""Reachability hook written by benchmarks/reach.py (imported by site)."""
import os
import sys
import threading

_ROOT = os.environ.get("REACH_ROOT")
_OUT = os.environ.get("REACH_OUT")

if _ROOT and _OUT:
    _seen = set()
    _sink = []

    def _open():
        path = os.path.join(_OUT, "%d.txt" % os.getpid())
        _sink[:] = [open(path, "a", buffering=1, encoding="utf-8")]

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                if code.co_filename.startswith(_ROOT):
                    _sink[0].write("%s\\t%d\\t%s\\n" % (
                        code.co_filename, code.co_firstlineno,
                        code.co_qualname))

    def _arm():
        sys.setprofile(_profile)
        threading.setprofile(_profile)

    def _rearm_in_child():
        _open()
        _arm()

    _open()
    _arm()
    os.register_at_fork(after_in_child=_rearm_in_child)
'''


# ----------------------------------------------------------------------
# The collector: install the hook, read what it recorded
# ----------------------------------------------------------------------
def install_hook(hook_dir: Path) -> None:
    """Write the ``sitecustomize.py`` that arms the profile hook."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")


def hooked_env(
    hook_dir: Path, audited: Path, trace_dir: Path, path: list[Path]
) -> dict[str, str]:
    """The environment of a hooked process: hook first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in [hook_dir, *path])
    env[ROOT_ENV] = str(audited.resolve())
    env[OUT_ENV] = str(trace_dir)
    return env


def entered(trace_dir: Path) -> set[tuple[str, int]]:
    """``(absolute file, first line)`` of every code object entered."""
    seen: set[tuple[str, int]] = set()
    for record in sorted(trace_dir.glob("*.txt")):
        for line in record.read_text(encoding="utf-8").splitlines():
            parts = line.split("\t")
            if len(parts) == 3 and parts[1].isdigit():
                seen.add((parts[0], int(parts[1])))
    return seen


@dataclass(frozen=True)
class Function:
    path: str  # absolute
    line: int  # co_firstlineno: the first decorator's line if decorated
    qualname: str
    lines: int  # decorators and docstring included
    stub: bool  # body is only a docstring, ``...``, ``pass`` or a raise


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(
            stmt
        ):
            continue
        return False
    return True


def functions(root: Path) -> list[Function]:
    """Every ``def`` under ``root``, keyed as the interpreter keys it."""
    found: list[Function] = []

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                qualname = prefix + child.name
                found.append(
                    Function(
                        path, first, qualname, child.end_lineno - first + 1,
                        _is_stub(child),
                    )
                )
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for source in sorted(root.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        visit(tree, str(source.resolve()), "")
    return found


def never_entered(
    defined: list[Function], seen: set[tuple[str, int]]
) -> list[Function]:
    return [f for f in defined if (f.path, f.line) not in seen]


# ----------------------------------------------------------------------
# Why a never-entered function stays (first matching group wins)
# ----------------------------------------------------------------------
#: ``(reason, patterns)``; a pattern is matched with fnmatch against
#: ``"<path relative to src/repro>:<qualname>"``
REASONS: list[tuple[str, tuple[str, ...]]] = [
    (
        "Test tooling: the lock-order watcher tier-1 installs, the lint "
        "renderers of findings",
        (
            "analysis/lockwatch.py:*",
            "analysis/lint.py:Finding.to_json",
            "analysis/lint.py:render_findings",
            "analysis/rules/common.py:call_position",
        ),
    ),
    (
        "References the tests compare the served path against",
        (
            "search/text_search.py:text_search_*",
            "search/serving.py:exact_scan",
            "ml/vectorize.py:HashingVectorizer.transform_one",
        ),
    ),
    (
        "Fault and fallback paths no green run takes",
        (
            # no scenario opens a v15 file or one the DAO refuses
            "registry/dao.py:SqliteDAO._step_from_v15",
            "registry/dao.py:_refusal",
            "server/schema.py:decode_cursor.<locals>.bad",
            "server/api.py:Router.allowed_methods",
            "errors.py:MethodNotAllowedError.__init__",
            "errors.py:error_from_json",
            "errors.py:error_envelope",
            "brokersim/broker.py:_broker_main.<locals>.reply_error",
        ),
    ),
    (
        "Pinned by the span table of benchmarks/e2e/trace.py",
        (
            "search/index.py:VectorIndex.search_among",
            # no src/ caller since searches stopped being batched
            "search/index.py:VectorIndex.search_among_many",
            "registry/service.py:RegistryService.upsert_pe",
            # no-op stubs of the index journal schema v16 dropped
            "registry/dao.py:SqliteDAO.append_index_delta",
            "registry/dao.py:SqliteDAO.upsert_index_shards",
            "registry/service.py:RegistryService.persist_shards",
        ),
    ),
    (
        "Paper surface and parked features: groupings, lifted PEs, the "
        "workflow library's PE bodies",
        (
            "dataflow/grouping.py:*",
            "dataflow/core.py:make_iterative_pe*",
            "workflows/library.py:*",
        ),
    ),
    (
        "API a user or PE author calls and no scenario does: dispel4py's "
        "GenericPE process and log, mpi4py's comm.size, the client's "
        "describe (one of the thirteen user functions of paper §3.4.1)",
        (
            "dataflow/core.py:ProcessingElement.process",
            "dataflow/core.py:ProcessingElement.log",
            "mpisim/communicator.py:Communicator.size",
            "client/client.py:LaminarClient.describe",
        ),
    ),
    (
        "Called from src/ on inputs no scenario sends: a non-Python file "
        "in an ingest, a package not preinstalled, a result port under "
        "MPI, text through a model every table uses on code alone",
        (
            "ingest/chunker.py:chunk_text",
            "engine/environment.py:SimulatedCondaEnvironment.install_cost",
            "dataflow/mappings/mpi.py:_MPITransport.emit_result",
            "ml/models.py:*.text_runs",
        ),
    ),
]

STUB_REASON = (
    "Declarations: Protocol, abstract or overload bodies no call runs"
)
UNTRIAGED = (
    "Not triaged: reached by nothing but their own unit tests "
    "(candidates for the next deletion cluster)"
)


def reason_of(function: Function) -> str:
    key = f"{os.path.relpath(function.path, PACKAGE)}:{function.qualname}"
    for reason, patterns in REASONS:
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in patterns):
            return reason
    return STUB_REASON if function.stub else UNTRIAGED


def render(
    defined: list[Function],
    missed: list[Function],
    outcomes: list[tuple[str, int]],
) -> str:
    groups: dict[str, list[Function]] = {}
    for function in missed:
        groups.setdefault(reason_of(function), []).append(function)
    order = [reason for reason, _ in REASONS] + [STUB_REASON, UNTRIAGED]
    lines = [
        "# Functions under src/repro that no scenario enters.",
        "# Written by `python3 benchmarks/reach.py`; a decorated function",
        "# is named by its first decorator's line (co_firstlineno).",
        "#",
        f"# functions defined: {len(defined)}; entered: "
        f"{len(defined) - len(missed)}; never entered: {len(missed)} "
        f"({sum(f.lines for f in missed)} lines)",
        "# scenarios (exit status):",
    ]
    lines += [f"#   {status:>3}  {name}" for name, status in outcomes]
    for reason in order:
        members = groups.get(reason)
        if not members:
            continue
        lines += [
            "",
            f"## {reason} — {len(members)} functions, "
            f"{sum(f.lines for f in members)} lines",
        ]
        lines += [
            f"{os.path.relpath(f.path, ROOT)}:{f.line} {f.qualname} "
            f"({f.lines} lines)"
            for f in sorted(members, key=lambda f: (f.path, f.line))
        ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
class Runner:
    """Runs hooked commands and keeps each one's exit status."""

    def __init__(self, work: Path, env: dict[str, str]) -> None:
        self.work = work
        self.env = env
        self.outcomes: list[tuple[str, int]] = []

    def run(
        self, name: str, argv: list[str], *, cwd: Path | None = None,
        env: dict[str, str] | None = None, timeout: float = 900.0,
    ) -> int:
        started = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=cwd or self.work, env=env or self.env,
                timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            status, output = done.returncode, done.stdout
        except subprocess.TimeoutExpired as exc:
            status, output = -1, f"timed out after {timeout}s\n{exc.stdout}"
        print(
            f"  [{status:>3}] {name} ({time.monotonic() - started:.1f} s)",
            flush=True,
        )
        if status != 0:
            print("\n".join("        " + line for line in output.splitlines()[-30:]))
        self.outcomes.append((name, status))
        return status

    def repro(self, name: str, *args: str, **kwargs) -> int:
        return self.run(name, [sys.executable, "-m", "repro", *args], **kwargs)

    def call(self, name: str, function: str, *args: str, **kwargs) -> int:
        """Run ``function(*args)`` of this file in a hooked child."""
        here = str(Path(__file__).resolve())
        code = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('reach', {here!r})\n"
            "module = sys.modules['reach'] = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            f"module.{function}(*sys.argv[1:])\n"
        )
        return self.run(name, [sys.executable, "-c", code, *args], **kwargs)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(port: int, process: subprocess.Popen, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if process.poll() is not None:
            return False
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return True
        except OSError:
            time.sleep(0.2)
    return False


def cli_scenarios(runner: Runner) -> None:
    work = runner.work
    db = str(work / "cli.db")
    items = work / "bulk.json"
    items.write_text(
        json.dumps(
            [
                {
                    "peName": f"Bulk{i}",
                    "peCode": f"def bulk_{i}(x):\n    return x * {i}\n",
                    "description": f"multiply a number by {i}",
                }
                for i in range(3)
            ]
        ),
        encoding="utf-8",
    )
    runner.repro(
        "cli register pe", "register", "IsPrime", "--db", db, "--code",
        "def is_prime(n):\n    return n > 1 and all(n % i for i in range(2, n))\n",
        "--description", "check whether a number is prime",
    )
    runner.repro(
        "cli register workflow (keyed, conditional)", "register",
        "primes", "--kind", "workflow", "--db", db, "--code",
        "def primes(limit):\n    return [n for n in range(limit)]\n",
        "--description", "list prime numbers", "--if-version", "0",
        "--idempotency-key", "k1", "--json", "--no-fit",
    )
    runner.repro(
        "cli register --bulk", "register", "--bulk", str(items), "--db", db,
        "--no-fit",
    )
    for kind in ("pe", "workflow", "both"):
        for query in ("text", "semantic", "code", "hybrid"):
            runner.repro(
                f"cli search --type {kind} --query-type {query}", "search",
                "prime number", "--db", db, "--type", kind, "--query-type",
                query, "--no-fit",
            )
    runner.repro(
        "cli search --json --limit --k", "search", "number", "--db", db,
        "--json", "--limit", "1", "-k", "3",
    )
    runner.repro("cli search (no --db)", "search", "number", "--no-fit")
    runner.repro("cli stats", "stats", "--db", db)
    runner.repro("cli stats --shards", "stats", "--db", db, "--shards")
    runner.repro(
        "cli ingest src/repro/ml (in-process)", "ingest",
        str(PACKAGE / "ml"), "--db", str(work / "ingest.db"), "--no-fit",
        "--batch-size", "16", "--max-chunk-lines", "60",
    )
    runner.repro("cli jobs (in-process)", "jobs", "--db", db)
    runner.repro("cli delete pe", "delete", "IsPrime", "--db", db, "--no-fit")
    runner.repro(
        "cli delete workflow", "delete", "primes", "--kind", "workflow",
        "--db", db, "--json", "--idempotency-key", "k2", "--no-fit",
    )
    runner.repro("cli lint", "lint", str(PACKAGE))
    runner.repro("cli lint --json", "lint", str(PACKAGE), "--json")
    runner.repro("cli lint --list-rules", "lint", "--list-rules")
    runner.repro("cli endpoints", "endpoints")


def serve_scenarios(runner: Runner) -> None:
    """A hooked ``repro serve`` driven through every route, plus the CLI's
    ``--server`` commands against it."""
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    log = open(runner.work / "serve.log", "w", encoding="utf-8")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--db", str(runner.work / "serve.db"), "--no-fit",
        ],
        cwd=runner.work, env=runner.env, stdout=log, stderr=subprocess.STDOUT,
    )
    try:
        if not _wait_for_port(port, server, 120.0):
            print("  [ -1] repro serve did not start")
            runner.outcomes.append(("repro serve", -1))
            return
        runner.call("serve: every route over HttpTransport", "drive_routes", url)
        runner.repro(
            "cli ingest --server", "ingest", str(PACKAGE / "ml"), "--server",
            url, "--user", "ingester", "--password", "pw", "--json",
        )
        runner.repro(
            "cli jobs --server", "jobs", "--server", url, "--user",
            "ingester", "--password", "pw", "--state", "succeeded",
        )
        server.send_signal(signal.SIGINT)  # Ctrl-C: a graceful shutdown
        try:
            status = server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            status = -1
        print(f"  [{status:>3}] repro serve (stopped with Ctrl-C)")
        runner.outcomes.append(("repro serve (stopped with Ctrl-C)", status))
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        log.close()


def drive_routes(url: str) -> None:
    """Send one successful request to each route of
    ``LaminarServer.endpoints()`` over real HTTP (runs in a child)."""
    import base64
    import io
    import tarfile

    from repro.client.client import LaminarClient
    from repro.dataflow import WorkflowGraph
    from repro.ml.bundle import ModelBundle
    from repro.net.transport import Request
    from repro.server import LaminarServer
    from repro.server.http import HttpTransport
    from repro.workflows.library import CounterProducer, PrintSink, SquareNumber

    transport = HttpTransport(url, timeout=120.0)
    hit: set[tuple[str, str]] = set()
    failures: list[str] = []
    token: list[str] = []

    def call(method: str, pattern: str, body=None, headers=None, **params):
        path = pattern.replace("{user}", "u")
        for name, value in params.items():
            path = path.replace("{" + name + "}", str(value))
        reply = transport.request(
            Request(method, path, body or {}, token[0] if token else None,
                    headers or {})
        )
        hit.add((method, pattern))
        if reply.status >= 400:
            failures.append(f"{method} {path}: {reply.status} {reply.body}")
        return reply.body

    call("POST", "/auth/register", {"userName": "u", "password": "pw"})
    token.append(
        call("POST", "/auth/login", {"userName": "u", "password": "pw"})[
            "token"
        ]
    )
    call("GET", "/auth/all")

    # the paper's client drives the Table-3 registry and execution routes
    client = LaminarClient(HttpTransport(url, timeout=120.0), echo=False)
    client.login("u", "pw")
    graph = WorkflowGraph("squares")
    producer, square, sink = CounterProducer(), SquareNumber(), PrintSink()
    graph.connect(producer, "output", square, "input")
    graph.connect(square, "output", sink, "input")
    workflow = client.register_Workflow(graph, "squares", "square numbers")
    pe = client.register_PE(PrintSink, "print each item")
    wid, pid = workflow["workflowId"], pe["peId"]

    doubler = call("POST", "/registry/{user}/pe/add", {
        "peName": "Doubler", "peCode": base64.b64encode(b"x").decode(),
        "description": "double a number",
        "peSource": "class Doubler:\n    def run(self, x):\n        return 2 * x\n",
    })
    call("GET", "/registry/{user}/pe/all")
    call("GET", "/registry/{user}/pe/id/{id}", id=pid)
    call("GET", "/registry/{user}/pe/name/{name}", name="PrintSink")
    call("POST", "/registry/{user}/workflow/add", {
        "entryPoint": "pipeline", "workflowName": "pipeline",
        "workflowCode": base64.b64encode(b"y").decode(),
        "description": "a pipeline of numbers",
    })
    call("GET", "/registry/{user}/workflow/all")
    call("GET", "/registry/{user}/workflow/id/{id}", id=wid)
    call("GET", "/registry/{user}/workflow/name/{name}", name="squares")
    call("GET", "/registry/{user}/workflow/pes/id/{id}", id=wid)
    call("GET", "/registry/{user}/workflow/pes/name/{name}", name="squares")
    call("PUT", "/registry/{user}/workflow/{workflowId}/pe/{peId}",
         workflowId=wid, peId=doubler["peId"])
    call("POST", "/execution/{user}/run", {
        "workflowRef": {"id": wid}, "input": 3, "mapping": "simple",
        "captureStdout": True,
    })
    call("GET", "/registry/{user}/all")
    for query_type in ("text", "semantic", "code"):
        for kind in ("pe", "workflow", "both"):
            call("GET", "/registry/{user}/search/{search}/type/{type}",
                 {"queryType": query_type, "k": 3}, search="number", type=kind)

    # the rest of the paper's client API (its routes are driven below)
    client.get_PE("PrintSink", describe=True)
    client.get_PEs_By_Workflow("squares")
    client.register_Engine("wan", latency="azure-wan")
    client.get_Engines()
    client.remove_Engine("wan")
    spare = client.register_Workflow(graph, "spare", "a second copy")
    client.remove_Workflow(int(spare["workflowId"]))
    client.remove_PE(client.register_PE(CounterProducer, "count up")["peName"])

    call("GET", "/engines/{user}/all")
    call("POST", "/engines/{user}/register",
         {"engineName": "lan", "latencyPreset": "lan", "description": "x"})
    call("DELETE", "/engines/{user}/remove/{name}", name="lan")

    call("GET", "/v1/users")
    call("GET", "/v1/backends")
    listing = call("GET", "/v1/registry/{user}/pes", {"limit": 1})
    call("GET", "/v1/registry/{user}/pes",
         {"limit": 1, "cursor": listing.get("nextCursor")})
    call("GET", "/v1/registry/{user}/workflows", {"limit": 5})
    call("GET", "/v1/registry/{user}/workflows/{id}/pes", id=wid)
    for query_type in ("text", "semantic", "code", "hybrid"):
        call("POST", "/v1/registry/{user}/search",
             {"query": "square a number", "queryType": query_type,
              "kind": "both", "k": 3, "limit": 2})
    call("GET", "/v1/registry/{user}/pes/{name}", name="PrintSink")
    call("GET", "/v1/registry/{user}/workflows/{name}", name="squares")

    put = {"peCode": "def triple(x):\n    return 3 * x\n",
           "description": "triple a number"}
    call("PUT", "/v1/registry/{user}/pes/{name}", put,
         {"Idempotency-Key": "t1"}, name="Triple")
    call("PUT", "/v1/registry/{user}/pes/{name}", put,
         {"Idempotency-Key": "t1"}, name="Triple")
    # create, revise (new description), supersede (new code)
    for code, description in ((1, "a flow"), (1, "a revised flow"),
                              (2, "a revised flow")):
        call("PUT", "/v1/registry/{user}/workflows/{name}",
             {"workflowCode": f"def flow():\n    return {code}\n",
              "description": description}, name="flow")
    call("POST", "/v1/registry/{user}/pes:bulk", {"items": [
        {"peName": f"Bulk{i}", "peCode": f"def b{i}():\n    return {i}\n",
         "description": f"constant {i}"} for i in range(3)]})
    call("POST", "/v1/registry/{user}/workflows:bulk", {"items": [
        {"entryPoint": f"wf{i}", "workflowCode": f"def wf{i}():\n    pass\n",
         "description": f"workflow {i}"} for i in range(2)]})
    call("DELETE", "/v1/registry/{user}/pes/{name}", name="Triple")
    call("DELETE", "/v1/registry/{user}/workflows/{name}", name="flow")

    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w:gz") as tar:
        source = b"def area(r):\n    return 3.14 * r * r\n"
        info = tarfile.TarInfo("geometry/area.py")
        info.size = len(source)
        tar.addfile(info, io.BytesIO(source))
    job = call("POST", "/v1/registry/{user}/ingest",
               {"archive": base64.b64encode(archive.getvalue()).decode()})
    job_id = job["jobId"]
    deadline = time.monotonic() + 120
    while call("GET", "/v1/jobs/{id}", id=job_id)["job"]["state"] in (
        "queued", "running"
    ) and time.monotonic() < deadline:
        time.sleep(0.1)
    call("GET", "/v1/jobs")
    call("POST", "/v1/jobs/{id}:cancel", id=job_id)

    call("DELETE", "/registry/{user}/pe/remove/id/{id}", id=pid)
    call("DELETE", "/registry/{user}/pe/remove/name/{name}", name="Doubler")
    call("DELETE", "/registry/{user}/workflow/remove/id/{id}", id=wid)
    call("DELETE", "/registry/{user}/workflow/remove/name/{name}",
         name="pipeline")

    table = set(LaminarServer(models=ModelBundle.default(fit=False)).endpoints())
    missing = sorted(table - hit)
    if missing or failures:
        for line in failures + [f"route not driven: {m} {p}" for m, p in missing]:
            print(line)
        raise SystemExit(1)
    print(f"{len(hit)} routes answered")


def run_scenarios(runner: Runner) -> None:
    python = sys.executable
    runner.run(
        "e2e smoke (benchmarks/e2e/run.py --smoke)",
        [python, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke"],
        cwd=ROOT,
    )
    for table in ("5", "6", "7"):
        runner.repro(f"repro eval {table}", "eval", table)
    for mapping in ("SIMPLE", "MULTI", "MPI", "REDIS"):
        runner.repro(
            f"repro demo --mapping {mapping}", "demo", "--input", "6",
            "--mapping", mapping, "--num", "4",
        )
    # the ablations write their tables into benchmarks/out/: run a copy
    copy = runner.work / "benchmarks"
    shutil.copytree(
        ROOT / "benchmarks", copy,
        ignore=shutil.ignore_patterns("out", "e2e", "__pycache__"),
    )
    shutil.copy(ROOT / "pytest.ini", runner.work / "pytest.ini")
    env = dict(runner.env)
    env["PYTHONPATH"] += os.pathsep + str(ROOT)  # for tests.helpers
    runner.run(
        "ablations (pytest -m slow, copied benchmarks/)",
        [
            python, "-m", "pytest", "-q", "-m", "slow", "-p",
            "no:cacheprovider", *sorted(
                str(p) for p in copy.glob("test_ablation_*.py")
            ),
        ],
        env=env,
    )
    for example in sorted((ROOT / "examples").glob("*.py")):
        runner.run(f"examples/{example.name}", [python, str(example)])
    cli_scenarios(runner)
    serve_scenarios(runner)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp).resolve()
        hook_dir, trace_dir = work / "hook", work / "trace"
        trace_dir.mkdir()
        install_hook(hook_dir)
        env = hooked_env(hook_dir, PACKAGE, trace_dir, [SRC])
        # BLAS stays single-threaded in every process, as in the e2e runs
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setdefault(name, "1")
        runner = Runner(work, env)
        run_scenarios(runner)
        defined = functions(PACKAGE)
        missed = never_entered(defined, entered(trace_dir))
    OUT.write_text(render(defined, missed, runner.outcomes), encoding="utf-8")
    print(
        f"{len(missed)} of {len(defined)} functions never entered "
        f"({sum(f.lines for f in missed)} lines) -> {os.path.relpath(OUT, ROOT)}"
    )
    return 0 if all(status == 0 for _, status in runner.outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
