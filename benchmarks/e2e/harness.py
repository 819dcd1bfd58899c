"""One workload against the server subprocess: set-up, the measured
window, and the kill-and-restart cycle — where every end-to-end metric
comes from.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .client import Connection, Results, check_reply, run_closed
from .corpus import FOREIGN_USER, MAIN_USER, PASSWORD, Plan
from .env import calibrate
from .server import ServerProcess

JOB_POLL_S = 0.01
JOB_TIMEOUT_S = 120.0
RTT_PROBES = 200


@dataclass
class Session:
    """A set-up server: process, connections and both tenants' tokens."""

    server: ServerProcess
    conns: list[Connection]
    tokens: dict[str, str] = field(default_factory=dict)
    seed_job: dict = field(default_factory=dict)  # main tenant's seeding

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.server.kill()


@dataclass
class SubprocessRun:
    """Raw measurements of one run; :mod:`.metrics` names them."""

    setup_seconds: list[float]
    seed_rates: list[float]  # records/s of each set-up's seeding ingest
    seed_queue_wait_ms: float
    rtt_floor_ms: float
    window: Results
    warmup_failed: int
    ingest_job: dict | None  # ingest_live's measured ingest
    #: share of that ingest's chunks already inserted when the foreground
    #: schedule ended; under 1 means the whole window ran beside the job
    ingest_share_at_window_end: float
    io_delta: dict[str, int]
    rss_mb: float
    db_mb: float
    restart_seconds: list[float]
    #: checks that are not ops of the schedule: one per restart, and on
    #: ``ingest_live`` that the ingest outlasted the window
    checks: int
    check_failures: list[str]
    calib_ms: float


# ``conn`` below is anything with :meth:`Connection.request`'s signature;
# the traced run passes ``trace.InProcess``, so both servers are set up by
# the same code.
def login(conn: Connection, user: str, register: bool = False) -> str:
    creds = {"userName": user, "password": PASSWORD}
    if register:
        status, body, _ = conn.request("POST", "/auth/register", creds)
        if status != 201:
            raise RuntimeError(f"register {user}: {status} {body}")
    status, body, _ = conn.request("POST", "/auth/login", creds)
    if status != 200:
        raise RuntimeError(f"login {user}: {status} {body}")
    return body["token"]


def submit_ingest(conn: Connection, user: str, token: str, path: Path) -> str:
    status, body, _ = conn.request(
        "POST", f"/v1/registry/{user}/ingest", {"path": str(path)}, token)
    if status != 202:
        raise RuntimeError(f"ingest {path}: {status} {body}")
    return body["jobId"]


def await_job(conn: Connection, token: str, job_id: str, expected: int) -> dict:
    """Poll until the job ends; it must have inserted ``expected`` records."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        _, body, _ = conn.request("GET", f"/v1/jobs/{job_id}", None, token)
        job = body["job"]
        if job["state"] in ("succeeded", "failed", "cancelled"):
            inserted = job["progress"].get("chunksInserted", 0)
            if job["state"] != "succeeded" or inserted != expected:
                raise RuntimeError(
                    f"ingest {job['state']}, inserted {inserted} of {expected}")
            return job
        time.sleep(JOB_POLL_S)
    raise RuntimeError(f"job {job_id} still running after {JOB_TIMEOUT_S}s")


def job_rate(job: dict) -> float:
    return job["progress"]["chunksInserted"] / (
        job["finishedAt"] - job["startedAt"])


def seed(conn: Connection, plan: Plan,
         trees: dict[str, Path]) -> tuple[dict[str, str], dict]:
    """Register both tenants and seed each through the ingest route;
    their tokens and the main tenant's finished job."""
    tokens = {user: login(conn, user, register=True)
              for user in (MAIN_USER, FOREIGN_USER)}
    jobs = {}
    for user, tree in ((MAIN_USER, plan.main_tree),
                       (FOREIGN_USER, plan.foreign_tree)):
        jobs[user] = await_job(
            conn, tokens[user],
            submit_ingest(conn, user, tokens[user], trees[tree.root]),
            len(tree.funcs))
    return tokens, jobs[MAIN_USER]


def set_up(plan: Plan, repo_root: Path, trees: dict[str, Path],
           db_path: Path) -> tuple[Session, float, int]:
    """spawn -> listening -> tenants registered -> corpus seeded through
    the ingest route -> warm-up done.  Returns the session, the seconds
    all of that took and the number of warm-up ops that failed."""
    start = time.perf_counter()
    server = ServerProcess(repo_root, db_path)
    server.start()
    session = Session(server, [])
    try:
        session.conns = [Connection(server.host, server.port)
                         for _ in range(plan.spec.connections)]
        session.tokens, session.seed_job = seed(session.conns[0], plan, trees)
        warmup = run_closed(session.conns, plan.warmup, session.tokens)
    except BaseException:
        session.close()
        raise
    return session, time.perf_counter() - start, warmup.failed


def count_records(conn: Connection, user: str, token: str) -> int:
    """Walk the paginated listing; the number of records ``user`` owns."""
    total, cursor = 0, None
    while True:
        path = f"/v1/registry/{user}/pes?limit=1000"
        if cursor:
            path += f"&cursor={cursor}"
        status, body, _ = conn.request("GET", path, None, token)
        if status != 200:
            raise RuntimeError(f"listing {user}: {status} {body}")
        total += len(body["items"])
        cursor = body.get("nextCursor")
        if not cursor:
            return total


def restart(session: Session, plan: Plan, baseline: bytes,
            expected_counts: dict[str, int]) -> tuple[float, list[str]]:
    """``SIGKILL``, respawn on the same file, log in, search: seconds until
    the probe search answers byte-equal to its pre-kill reply, and what
    was wrong afterwards (nothing, if every acknowledged write survived)."""
    for conn in session.conns:
        conn.close()
    session.server.kill()
    start = time.perf_counter()
    session.server.start()
    conn = Connection(session.server.host, session.server.port)
    session.conns = [conn]
    session.tokens = {MAIN_USER: login(conn, MAIN_USER)}
    probe = plan.probe
    status, body, raw = conn.request(
        probe.method, probe.path, probe.body, session.tokens[MAIN_USER])
    seconds = time.perf_counter() - start
    problems = []
    problem = check_reply(probe, status, body)
    if problem is not None:
        problems.append(f"probe after restart: {problem}")
    elif raw != baseline:
        problems.append("probe reply differs from its pre-kill bytes")
    session.tokens[FOREIGN_USER] = login(conn, FOREIGN_USER)
    for user, expected in expected_counts.items():
        found = count_records(conn, user, session.tokens[user])
        if found != expected:
            problems.append(
                f"{user} owns {found} records after restart, expected "
                f"{expected}: an acknowledged write was lost")
    return seconds, problems


def _measure_window(
    session: Session, plan: Plan, trees: dict[str, Path],
) -> tuple[Results, dict | None, dict | None]:
    """The measured schedule; where the workload has one, beside a
    background ingest submitted just before it and awaited after it.
    Returns the results, the finished job and the job's snapshot taken
    the moment the schedule ended."""
    tokens, solo = session.tokens, plan.spec.solo
    if plan.ingest_tree is None:
        return run_closed(session.conns, plan.window, tokens, solo), None, None
    conn, token = session.conns[0], tokens[MAIN_USER]
    job_id = submit_ingest(conn, MAIN_USER, token,
                           trees[plan.ingest_tree.root])
    results = run_closed(session.conns, plan.window, tokens, solo)
    _, body, _ = conn.request("GET", f"/v1/jobs/{job_id}", None, token)
    return (results,
            await_job(conn, token, job_id, len(plan.ingest_tree.funcs)),
            body["job"])


def run(plan: Plan, repo_root: Path, workdir: Path, trees: dict[str, Path],
        *, setups: int, restarts: int, calib_seconds: float) -> SubprocessRun:
    """The whole subprocess side of one workload run."""
    setup_seconds, seed_rates = [], []
    warmup_failed = 0
    session = None
    try:
        for attempt in range(setups):
            if session is not None:  # only the last set-up is measured on
                session.close()
                shutil.rmtree(workdir / f"db{attempt - 1}")
            db_dir = workdir / f"db{attempt}"
            db_dir.mkdir(parents=True)
            session, seconds, failed = set_up(
                plan, repo_root, trees, db_dir / "registry.db")
            setup_seconds.append(seconds)
            seed_rates.append(job_rate(session.seed_job))
            warmup_failed += failed
        conn = session.conns[0]
        calib = [calibrate(calib_seconds)]
        rtts = []
        for _ in range(RTT_PROBES):
            sent = time.perf_counter()
            conn.request("GET", "/v1/backends")
            rtts.append(time.perf_counter() - sent)
        io_before = session.server.io_bytes()
        window, ingest_job, job_at_end = _measure_window(session, plan, trees)
        io_after = session.server.io_bytes()
        rss_mb = session.server.rss_peak_mb()
        db_mb = session.server.db_mb()
        calib.append(calibrate(calib_seconds))

        probe = plan.probe
        _, _, baseline = conn.request(
            probe.method, probe.path, probe.body, session.tokens[MAIN_USER])
        expected_counts = plan.expected_counts()
        restart_seconds, check_failures = [], []
        ingest_share = 0.0
        if job_at_end is not None:
            ingest_share = (job_at_end["progress"].get("chunksInserted", 0)
                            / len(plan.ingest_tree.funcs))
            if job_at_end["state"] != "running":
                check_failures.append(
                    f"the ingest was {job_at_end['state']} when the "
                    f"foreground schedule ended: part of the window ran "
                    f"against an idle server")
        for _ in range(restarts):
            seconds, problems = restart(session, plan, baseline,
                                        expected_counts)
            restart_seconds.append(seconds)
            check_failures += problems
    finally:
        if session is not None:
            session.close()
    job = session.seed_job
    return SubprocessRun(
        setup_seconds=setup_seconds,
        seed_rates=seed_rates,
        seed_queue_wait_ms=(job["startedAt"] - job["createdAt"]) * 1000.0,
        rtt_floor_ms=statistics.median(rtts) * 1000.0,
        window=window,
        warmup_failed=warmup_failed,
        ingest_job=ingest_job,
        ingest_share_at_window_end=ingest_share,
        io_delta={key: io_after[key] - io_before[key] for key in io_after},
        rss_mb=rss_mb,
        db_mb=db_mb,
        restart_seconds=restart_seconds,
        checks=restarts + (job_at_end is not None),
        check_failures=check_failures,
        calib_ms=statistics.median(calib),
    )
