"""End-to-end repository ingestion: POST /v1/registry/{user}/ingest.

Covers the 202-with-job-id contract, progress-counter accuracy against
the chunker's own output, re-ingest dedup, tarball upload, request
validation, cooperative cancellation mid-ingest, and the headline
property of the batched pipeline: searches stay live (and consistent)
while an ingest is mutating the index.
"""

import base64
import io
import tarfile
import textwrap
import threading

import pytest

from repro.ingest.chunker import chunk_file
from repro.ingest.walker import iter_repo_files
from repro.net.transport import Request
from repro.registry.dao import SqliteDAO
from repro.server import LaminarServer


@pytest.fixture()
def server(fast_bundle):
    return LaminarServer(models=fast_bundle)


@pytest.fixture()
def token(server):
    server.dispatch(
        Request("POST", "/auth/register", {"userName": "zz46", "password": "pw"})
    )
    response = server.dispatch(
        Request("POST", "/auth/login", {"userName": "zz46", "password": "pw"})
    )
    return response.body["token"]


MODULE_TEMPLATE = textwrap.dedent(
    '''\
    """Module {index}."""

    import os

    def alpha_{index}(x):
        """Add {index}."""
        return x + {index}

    class Tool{index}:
        """Tool {index}."""

        def run(self):
            return alpha_{index}(1)
    '''
)


@pytest.fixture()
def repo_tree(tmp_path):
    root = tmp_path / "corpus"
    for index in range(6):
        target = root / f"pkg{index % 2}" / f"mod{index}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(MODULE_TEMPLATE.format(index=index))
    (root / "README.md").write_text("# corpus\nsample text\n")
    (root / "broken.py").write_text("def broken(:\n")
    (root / "blob.py").write_bytes(b"\x00\x01\x02")
    return root


def expected_chunks(root):
    """What the chunker itself says the tree contains (golden source)."""
    count = 0
    skipped = 0
    files = 0
    for relative, text in iter_repo_files(str(root)):
        files += 1
        chunks = None if text is None else chunk_file(relative, text)
        if chunks is None:
            skipped += 1
            continue
        count += len(chunks)
    return files, skipped, count


def start_ingest(server, token, body):
    return server.dispatch(
        Request("POST", "/v1/registry/zz46/ingest", body, token=token)
    )


def finished_job(server, token, job_id):
    assert server.jobs.join(timeout=30.0)
    response = server.dispatch(
        Request("GET", f"/v1/jobs/{job_id}", token=token)
    )
    assert response.status == 200
    return response.body["job"]


class TestIngestHappyPath:
    def test_returns_job_immediately_and_counts_accurately(
        self, server, token, repo_tree
    ):
        files, skipped, chunks = expected_chunks(repo_tree)
        response = start_ingest(server, token, {"path": str(repo_tree)})
        assert response.status == 202
        assert response.body["jobId"].startswith("job-")
        assert response.body["job"]["state"] in ("queued", "running")
        assert response.body["job"]["params"]["user"] == "zz46"
        job = finished_job(server, token, response.body["jobId"])
        assert job["state"] == "succeeded", job
        progress = job["progress"]
        assert progress["filesDiscovered"] == files
        assert progress["filesSkipped"] == skipped
        assert progress["chunksDiscovered"] == chunks
        assert progress["chunksEmbedded"] == chunks
        assert progress["chunksInserted"] == chunks
        assert progress["chunksDeduped"] == 0
        assert job["result"]["inserted"] == chunks
        assert job["result"]["deduped"] == 0

    def test_ingested_chunks_are_searchable(self, server, token, repo_tree):
        response = start_ingest(server, token, {"path": str(repo_tree)})
        job = finished_job(server, token, response.body["jobId"])
        assert job["state"] == "succeeded"
        search = server.dispatch(
            Request(
                "POST",
                "/v1/registry/zz46/search",
                {"query": "add numbers tool", "queryType": "semantic", "k": 5},
                token=token,
            )
        )
        assert search.status == 200
        assert search.body["count"] > 0
        assert all(
            "::" in hit["peName"] for hit in search.body["hits"]
        ), "ingested names are path-scoped"

    def test_reingesting_unchanged_tree_dedupes_everything(
        self, server, token, repo_tree
    ):
        _, _, chunks = expected_chunks(repo_tree)
        first = start_ingest(server, token, {"path": str(repo_tree)})
        assert finished_job(server, token, first.body["jobId"])["state"] == (
            "succeeded"
        )
        second = start_ingest(server, token, {"path": str(repo_tree)})
        job = finished_job(server, token, second.body["jobId"])
        assert job["state"] == "succeeded"
        assert job["progress"]["chunksInserted"] == 0
        assert job["progress"]["chunksDeduped"] == chunks
        assert job["result"] == {
            "inserted": 0,
            "deduped": chunks,
            "registryVersion": job["result"]["registryVersion"],
        }

    def test_job_checkpoints_the_store_it_loaded(
        self, fast_bundle, repo_tree, tmp_path
    ):
        """The job's pages reach the main file on the job thread, not
        inside whichever later commit trips the WAL's threshold."""
        path = tmp_path / "registry.db"
        dao = SqliteDAO(path)
        server = LaminarServer(dao=dao, models=fast_bundle)
        server.dispatch(
            Request(
                "POST", "/auth/register", {"userName": "zz46", "password": "pw"}
            )
        )
        token = server.dispatch(
            Request("POST", "/auth/login", {"userName": "zz46", "password": "pw"})
        ).body["token"]
        response = start_ingest(server, token, {"path": str(repo_tree)})
        job = finished_job(server, token, response.body["jobId"])
        assert job["state"] == "succeeded", job
        pages = dao._conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = dao._conn.execute("PRAGMA page_size").fetchone()[0]
        assert pages > 8
        # nothing the job committed is left in the log alone
        assert path.stat().st_size == pages * page_size
        dao.close()

    def test_small_batches_land_the_same_corpus(self, server, token, repo_tree):
        _, _, chunks = expected_chunks(repo_tree)
        response = start_ingest(
            server, token, {"path": str(repo_tree), "batchSize": 1}
        )
        job = finished_job(server, token, response.body["jobId"])
        assert job["state"] == "succeeded"
        assert job["progress"]["chunksInserted"] == chunks


class TestArchiveIngest:
    def pack(self, root):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w:gz") as tar:
            for relative, text in iter_repo_files(str(root)):
                if text is None:
                    continue
                data = text.encode("utf-8")
                info = tarfile.TarInfo(relative)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        return base64.b64encode(buffer.getvalue()).decode("ascii")

    def test_uploaded_tarball_ingests(self, server, token, repo_tree):
        response = start_ingest(
            server, token, {"archive": self.pack(repo_tree)}
        )
        assert response.status == 202
        assert response.body["job"]["params"]["source"] == "archive"
        job = finished_job(server, token, response.body["jobId"])
        assert job["state"] == "succeeded"
        assert job["progress"]["chunksInserted"] > 0

    def test_garbage_archive_fails_structurally(self, server, token):
        payload = base64.b64encode(b"definitely not a tarball").decode("ascii")
        response = start_ingest(server, token, {"archive": payload})
        assert response.status == 202  # decode is fine; extraction is not
        job = finished_job(server, token, response.body["jobId"])
        assert job["state"] == "failed"
        assert job["error"]["error"] == "ValidationError"


class TestValidation:
    def test_requires_auth(self, server, repo_tree):
        response = server.dispatch(
            Request(
                "POST", "/v1/registry/zz46/ingest", {"path": str(repo_tree)}
            )
        )
        assert response.status == 401

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"path": "/a", "archive": "aGk="},
            {"path": ""},
            {"path": 7},
            {"archive": "not-base64!!"},
            {"archive": 7},
            {"path": "/a", "batchSize": 0},
            {"path": "/a", "batchSize": "many"},
            {"path": "/a", "maxChunkLines": 1},
            {"path": "/a", "pth": "typo"},
        ],
    )
    def test_malformed_requests_are_400(self, server, token, body):
        response = start_ingest(server, token, body)
        assert response.status == 400, (body, response.body)

    def test_missing_directory_fails_as_job_error(self, server, token, tmp_path):
        response = start_ingest(
            server, token, {"path": str(tmp_path / "nowhere")}
        )
        assert response.status == 202
        job = finished_job(server, token, response.body["jobId"])
        assert job["state"] == "failed"
        assert job["error"]["error"] == "ValidationError"
        assert "code" not in job["error"]


class TestCancellation:
    def test_cancel_mid_ingest_keeps_landed_batches(
        self, server, token, repo_tree, monkeypatch
    ):
        import repro.server.v1_write as v1_write

        real = v1_write.build_pe_record
        first_batch_done = threading.Event()
        release = threading.Event()
        calls = [0]

        def gated(app, **kwargs):
            calls[0] += 1
            if calls[0] == 2:
                first_batch_done.set()
                release.wait(10)
            return real(app, **kwargs)

        monkeypatch.setattr(v1_write, "build_pe_record", gated)
        response = start_ingest(
            server, token, {"path": str(repo_tree), "batchSize": 1}
        )
        job_id = response.body["jobId"]
        assert first_batch_done.wait(10)
        cancel = server.dispatch(
            Request("POST", f"/v1/jobs/{job_id}:cancel", token=token)
        )
        assert cancel.status == 200
        release.set()
        job = finished_job(server, token, job_id)
        assert job["state"] == "cancelled"
        progress = job["progress"]
        # the first batch landed before the cancel; later ones never ran
        assert progress["chunksInserted"] >= 1
        _, _, chunks = expected_chunks(repo_tree)
        assert progress["chunksInserted"] < chunks
        # what landed is durable and searchable
        user = server.registry.get_user("zz46")
        assert len(server.registry.dao.pe_ids_owned_by(user.user_id)) == (
            progress["chunksInserted"]
        )


class TestSearchStaysLiveDuringIngest:
    def test_concurrent_searches_are_consistent(self, server, token, repo_tree):
        """Searches issued while ingest mutates the index return only
        records that exist, and any search observing a quiescent
        mutation counter matches the quiesced result bitwise."""
        query = {
            "query": "add numbers tool",
            "queryType": "semantic",
            "k": 10,
        }

        def run_search():
            return server.dispatch(
                Request(
                    "POST", "/v1/registry/zz46/search", dict(query), token=token
                )
            )

        response = start_ingest(
            server, token, {"path": str(repo_tree), "batchSize": 1}
        )
        job_id = response.body["jobId"]
        observations = []
        while True:
            state = server.jobs.get(job_id)["state"]
            before = server.registry.dao.mutation_counter()
            search = run_search()
            after = server.registry.dao.mutation_counter()
            assert search.status == 200
            observations.append((before, after, search.body))
            if state in ("succeeded", "failed", "cancelled"):
                break
        job = finished_job(server, token, job_id)
        assert job["state"] == "succeeded"

        user = server.registry.get_user("zz46")
        owned = set(server.registry.dao.pe_ids_owned_by(user.user_id))
        for _, _, body in observations:
            for hit in body["hits"]:
                # never a dangling id, even mid-mutation
                assert hit["peId"] in owned

        final_counter = server.registry.dao.mutation_counter()
        quiesced = run_search()
        assert quiesced.status == 200
        matched = 0
        for before, after, body in observations:
            if before == after == final_counter:
                assert body == quiesced.body
                matched += 1
        # the terminal-state observation necessarily ran quiesced
        assert matched >= 1
