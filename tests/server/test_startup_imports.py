"""``repro serve`` starts without the dataflow stack and loads it with
the first workflow execution.

Runs in a fresh interpreter: this process imported everything long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serialization import serialize_object
from tests.helpers import build_pipeline_graph

REPO = Path(__file__).resolve().parents[2]

#: what ``cmd_serve`` does before it listens, then one workflow run
SCRIPT = """
import json, sys
from repro.cli import _build_server
from repro.net.transport import Request

server = _build_server(None, fit=False)
import repro.server.http

HEAVY = ("cloudpickle", "multiprocessing", "repro.dataflow", "repro.engine")
def loaded():
    return [name for name in HEAVY if name in sys.modules]

at_start = loaded()
credentials = {"userName": "u", "password": "pw"}
server.dispatch(Request("POST", "/auth/register", credentials))
token = server.dispatch(Request("POST", "/auth/login", credentials)).body["token"]
# a registry write and a search need none of it either
put = server.dispatch(Request(
    "PUT", "/v1/registry/u/pes/P",
    {"peCode": "eA==", "peSource": "def p(x):\\n    return x\\n"}, token,
))
search = server.dispatch(Request(
    "POST", "/v1/registry/u/search",
    {"query": "return x", "queryType": "code", "kind": "pe"}, token,
))
after_registry_traffic = loaded()
reply = server.dispatch(Request(
    "POST", "/execution/u/run",
    {"workflowCode": sys.stdin.read(), "input": 3}, token,
))
print(json.dumps({
    "at_start": at_start,
    "after_registry_traffic": after_registry_traffic,
    "put_status": put.status, "search_count": search.body.get("count"),
    "run_status": reply.status,
    "after_run": loaded(),
}))
"""


def test_dataflow_stack_loads_with_the_first_execution_not_at_start():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        input=serialize_object(build_pipeline_graph()),
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["at_start"] == []
    assert (seen["put_status"], seen["search_count"]) == (201, 1)
    assert seen["after_registry_traffic"] == []
    assert seen["run_status"] == 200
    assert seen["after_run"] == [
        "cloudpickle", "multiprocessing", "repro.dataflow", "repro.engine"
    ]
