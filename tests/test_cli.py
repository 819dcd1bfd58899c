"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.mapping == "MULTI" and args.num == 5

    def test_eval_table_choices(self):
        assert build_parser().parse_args(["eval", "6"]).table == 6
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval", "9"])

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--db", "reg.db", "--no-fit"]
        )
        assert args.port == 9000 and args.db == "reg.db" and args.no_fit

    def test_serve_has_no_shards_flag(self):
        # serving is one process over one exact index: no shard fan-out
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--shards", "2"])
        assert exc.value.code == 2

    def test_stats_keeps_shards_flag(self):
        # ``stats --shards`` reports index shard occupancy
        args = build_parser().parse_args(["stats", "--shards"])
        assert args.shards is True

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "prime numbers"])
        assert args.query == "prime numbers"
        assert args.search_type == "both" and args.query_type == "semantic"
        assert args.k is None and args.db is None

    def test_search_options(self):
        args = build_parser().parse_args(
            ["search", "randint", "--query-type", "code", "--type", "pe",
             "-k", "3", "--no-fit"]
        )
        assert args.query_type == "code" and args.search_type == "pe"
        assert args.k == 3 and args.no_fit

    def test_search_has_no_backend_flag(self):
        # the exact index is the only ranking engine: nothing to select
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["search", "prime", "--backend", "exact"]
            )
        assert exc.value.code == 2

    def test_register_options(self):
        args = build_parser().parse_args(
            ["register", "adder", "--code", "def adder(): pass",
             "--if-version", "0", "--idempotency-key", "k1", "--json"]
        )
        assert args.name == "adder" and args.kind == "pe"
        assert args.if_version == 0 and args.idempotency_key == "k1"
        assert args.json and args.bulk is None

    def test_register_bulk_allows_missing_name(self):
        args = build_parser().parse_args(["register", "--bulk", "items.json"])
        assert args.name is None and args.bulk == "items.json"

    def test_delete_options(self):
        args = build_parser().parse_args(
            ["delete", "adder", "--kind", "workflow", "--if-version", "2"]
        )
        assert args.name == "adder" and args.kind == "workflow"
        assert args.if_version == 2


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--input", "4", "--mapping", "SIMPLE"])
        assert code == 0
        out = capsys.readouterr().out
        assert "isPrime" in out
        assert "before checking" in out

    def test_eval_table6(self, capsys):
        assert main(["eval", "6"]) == 0
        out = capsys.readouterr().out
        assert "unixcoder-code-search" in out
        assert "MISS" not in out

    def test_search_empty_registry(self, capsys):
        code = main(["search", "anything", "--no-fit"])
        assert code == 0
        assert "(no results)" in capsys.readouterr().out

    def test_search_unknown_user_on_persistent_db(self, capsys, tmp_path):
        """A read-only command must not create users in a persistent
        registry — unknown user is an error, not a registration."""
        from repro.registry.dao import SqliteDAO

        db = tmp_path / "reg.db"
        SqliteDAO(db).close()  # initialize an empty registry
        code = main(
            ["search", "x", "--db", str(db), "--user", "ghost", "--no-fit"]
        )
        assert code == 1
        assert "unknown user" in capsys.readouterr().out
        dao = SqliteDAO(db)
        assert dao.get_user_by_name("ghost") is None
        dao.close()

    def test_search_sqlite_roundtrip(self, capsys, tmp_path):
        """Register via one server process, search it from the CLI: the
        index is bulk-loaded from the stored embeddings at startup."""
        from repro.ml.bundle import ModelBundle
        from repro.net.transport import Request
        from repro.registry.dao import SqliteDAO
        from repro.server import LaminarServer

        db = tmp_path / "reg.db"
        server = LaminarServer(
            dao=SqliteDAO(db), models=ModelBundle.default(fit=False)
        )
        server.dispatch(
            Request("POST", "/auth/register", {"userName": "cli", "password": "cli"})
        )
        token = server.dispatch(
            Request("POST", "/auth/login", {"userName": "cli", "password": "cli"})
        ).body["token"]
        server.dispatch(
            Request(
                "POST",
                "/registry/cli/pe/add",
                {
                    "peName": "PrimeChecker",
                    "peCode": "eA==",
                    "description": "checks whether a number is prime",
                },
                token=token,
            )
        )
        server.registry.dao.close()

        code = main(["search", "prime", "--db", str(db), "--no-fit", "-k", "1"])
        assert code == 0
        assert "PrimeChecker" in capsys.readouterr().out

    def test_register_requires_name_or_bulk(self, capsys):
        assert main(["register", "--no-fit"]) == 1
        assert "name is required" in capsys.readouterr().out

    def test_register_search_delete_roundtrip(self, capsys, tmp_path):
        """The write commands drive the v1 endpoints against a real
        SQLite registry; search then serves what register stored."""
        import json

        db = str(tmp_path / "reg.db")
        code = main(
            ["register", "PrimeChecker", "--code", "def is_prime(n): pass",
             "--description", "checks whether a number is prime",
             "--db", db, "--no-fit", "--json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["op"] == "register" and envelope["count"] == 1
        assert envelope["items"][0]["created"] is True

        assert main(["search", "prime", "--db", db, "--no-fit", "-k", "1"]) == 0
        assert "PrimeChecker" in capsys.readouterr().out

        # conditional delete with the wrong revision refuses
        assert main(
            ["delete", "PrimeChecker", "--db", db, "--no-fit",
             "--if-version", "9"]
        ) == 1
        assert "delete failed" in capsys.readouterr().out
        assert main(["delete", "PrimeChecker", "--db", db, "--no-fit"]) == 0
        assert "removed pe" in capsys.readouterr().out

    def test_register_idempotent_replay(self, capsys, tmp_path):
        import json

        db = str(tmp_path / "reg.db")
        argv = ["register", "stable", "--code", "def stable(): pass",
                "--db", db, "--no-fit", "--idempotency-key", "cli-key",
                "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay == first  # stored envelope verbatim

    def test_register_bulk_file(self, capsys, tmp_path):
        import json

        db = str(tmp_path / "reg.db")
        bulk = tmp_path / "items.json"
        bulk.write_text(json.dumps([
            {"peName": f"batch{i}", "peCode": f"def batch{i}(): pass"}
            for i in range(4)
        ]))
        code = main(
            ["register", "--bulk", str(bulk), "--db", db, "--no-fit",
             "--json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["op"] == "bulk-register" and envelope["count"] == 4

    def test_endpoints_prints_table3(self, capsys):
        assert main(["endpoints"]) == 0
        out = capsys.readouterr().out
        assert "POST    /registry/{user}/pe/add" in out
        assert "POST    /execution/{user}/run" in out

    def test_serve_builds_and_binds(self):
        # exercise the serve path without blocking: build + bind manually
        from repro.cli import _build_server
        from repro.server.http import serve_http

        server = _build_server(None, fit=False)
        with serve_http(server, port=0) as handle:
            assert handle.url.startswith("http://127.0.0.1:")


class TestIngestAndJobs:
    def test_ingest_parser_options(self):
        args = build_parser().parse_args(
            ["ingest", "/some/tree", "--batch-size", "8", "--no-wait",
             "--no-fit", "--json"]
        )
        assert args.path == "/some/tree" and args.batch_size == 8
        assert args.no_wait and args.no_fit and args.json
        assert args.server is None and args.db is None

    def test_jobs_parser_options(self):
        args = build_parser().parse_args(
            ["jobs", "job-000001", "--cancel", "--state", "running"]
        )
        assert args.job_id == "job-000001" and args.cancel
        assert args.state == "running"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs", "--state", "sideways"])

    def test_ingest_streams_progress_and_succeeds(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(
            'def alpha(x):\n    """Doc."""\n    return x\n'
        )
        assert main(["ingest", str(tmp_path), "--no-fit"]) == 0
        out = capsys.readouterr().out
        assert "queued" in out
        assert "succeeded: 1 inserted, 0 deduped" in out

    def test_ingest_missing_directory_fails_fast(self, capsys, tmp_path):
        assert main(["ingest", str(tmp_path / "nowhere"), "--no-fit"]) == 1
        assert "not a directory" in capsys.readouterr().out

    def test_jobs_listing_starts_empty(self, capsys):
        assert main(["jobs"]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_jobs_cancel_requires_an_id(self, capsys):
        assert main(["jobs", "--cancel"]) == 1
        assert "requires a job id" in capsys.readouterr().out


class TestStats:
    """``repro stats``: ownership counts from the id projections, and
    with ``--shards`` the index a server start would attach."""

    @staticmethod
    def write_registry(path, models):
        """Two tenants written through a server over the file:
        alice 2 PEs + 1 workflow, bob 1 PE."""
        from repro.net.transport import Request
        from repro.registry.dao import SqliteDAO
        from repro.server import LaminarServer

        server = LaminarServer(dao=SqliteDAO(path), models=models)
        writes = {
            "alice": [("pes", "alpha"), ("pes", "beta"), ("workflows", "flow")],
            "bob": [("pes", "gamma")],
        }
        for user, records in writes.items():
            creds = {"userName": user, "password": "pw"}
            server.dispatch(Request("POST", "/auth/register", creds))
            token = server.dispatch(
                Request("POST", "/auth/login", creds)
            ).body["token"]
            for kind, name in records:
                code = "peCode" if kind == "pes" else "workflowCode"
                response = server.dispatch(
                    Request(
                        "PUT",
                        f"/v1/registry/{user}/{kind}/{name}",
                        {code: f"def {name}(): pass"},
                        token=token,
                    )
                )
                assert response.status == 201, response.body
        server.registry.dao.close()

    @staticmethod
    def persisted_state(path):
        import sqlite3

        conn = sqlite3.connect(path)
        try:
            return conn.execute(
                "SELECT * FROM shard_stamps ORDER BY user_id, kind"
            ).fetchall()
        finally:
            conn.close()

    def test_without_db_reports_an_empty_in_memory_registry(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["registry: in-memory  (0 user(s))"]

    def test_counts_per_user(self, capsys, tmp_path, fast_bundle):
        db = tmp_path / "reg.db"
        self.write_registry(db, fast_bundle)
        assert main(["stats", "--db", str(db)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"registry: {db}  (2 user(s))"
        counts = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        assert counts == {
            "alice": ["2", "PE(s)", "1", "workflow(s)"],
            "bob": ["1", "PE(s)", "0", "workflow(s)"],
        }

    def test_shards_report_occupancy(self, capsys, tmp_path, fast_bundle):
        """The index is filled from the record rows, as at server start:
        every user's shard of every kind, an empty one included, and
        nothing is written."""
        db = tmp_path / "reg.db"
        self.write_registry(db, fast_bundle)
        before = self.persisted_state(db)
        assert main(["stats", "--db", str(db), "--shards"]) == 0
        out = capsys.readouterr().out
        assert "index: 6 shard(s)  (mutation counter 4)" in out
        live = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines()
            if "live rows" in line
        }
        assert live == {
            "1/code": "2", "1/desc": "2", "1/wf-desc": "1",
            "2/code": "1", "2/desc": "1", "2/wf-desc": "0",
        }
        assert "stamp" not in out
        assert self.persisted_state(db) == before


class TestRefusedRegistryFile:
    """A ``--db`` file at a schema version this code does not open ends
    the command with the refusal message and exit status 1 — no
    traceback, nothing served, the file untouched."""

    @pytest.fixture()
    def newer_file(self, tmp_path):
        import sqlite3

        from repro.registry.dao import _SCHEMA_VERSION, SqliteDAO

        db = tmp_path / "reg.db"
        SqliteDAO(db).close()
        conn = sqlite3.connect(db)
        conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        return db, _SCHEMA_VERSION + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "0", "--no-fit"],
            ["stats"],
            ["stats", "--shards"],
            ["search", "q", "--no-fit"],
            ["register", "adder", "--code", "def adder(): pass", "--no-fit"],
            ["delete", "adder", "--no-fit"],
            ["jobs"],
        ],
        ids=["serve", "stats", "stats-shards", "search", "register", "delete",
             "jobs"],
    )
    def test_prints_the_refusal_and_exits_1(
        self, capsys, monkeypatch, newer_file, argv
    ):
        import repro.server.http as http

        def serve_http(*_args, **_kwargs):
            pytest.fail("served a refused registry file")

        monkeypatch.setattr(http, "serve_http", serve_http)
        db, version = newer_file
        before = db.read_bytes()
        assert main([*argv, "--db", str(db)]) == 1
        out = capsys.readouterr().out
        assert f"is at schema v{version};" in out
        assert "Traceback" not in out
        assert db.read_bytes() == before


class TestMissingRegistryFile:
    """The read-only commands, ``stats`` and ``search``, given a ``--db``
    path that names no file, say so and exit 1 — they never leave a new
    registry behind.  The commands that write (``register``, ``ingest``)
    and ``serve`` create the file, as before."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats"],
            ["stats", "--shards"],
            ["search", "q", "--no-fit"],
            ["search", "q", "--no-fit", "--user", "ghost", "--json"],
        ],
        ids=["stats", "stats-shards", "search", "search-json"],
    )
    def test_read_only_command_creates_nothing(self, capsys, tmp_path, argv):
        db = tmp_path / "no" / "such.db"
        db.parent.mkdir()
        assert main([*argv, "--db", str(db)]) == 1
        out = capsys.readouterr().out
        assert out.strip() == f"no registry file at {db}"
        assert list(db.parent.iterdir()) == []

    def test_an_existing_empty_registry_is_still_read(self, capsys, tmp_path):
        from repro.registry.dao import SqliteDAO

        db = tmp_path / "reg.db"
        SqliteDAO(db).close()
        assert main(["stats", "--db", str(db)]) == 0
        assert "(0 user(s))" in capsys.readouterr().out

    def test_register_creates_the_file(self, capsys, tmp_path):
        db = tmp_path / "new.db"
        argv = ["register", "adder", "--code", "def adder(): pass",
                "--db", str(db), "--no-fit"]
        assert main(argv) == 0
        capsys.readouterr()
        assert db.exists()
        assert main(["stats", "--db", str(db)]) == 0
        assert "(1 user(s))" in capsys.readouterr().out

    def test_serve_creates_the_file(self, capsys, monkeypatch, tmp_path):
        import time

        import repro.server.http as http

        class Handle:
            url = "http://127.0.0.1:0"

            def shutdown(self):
                pass

        def interrupt(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(http, "serve_http", lambda *_a, **_k: Handle())
        monkeypatch.setattr(time, "sleep", interrupt)
        db = tmp_path / "new.db"
        assert main(["serve", "--port", "0", "--no-fit", "--db", str(db)]) == 0
        assert "shutting down" in capsys.readouterr().out
        assert db.exists()

    def test_ingest_creates_the_file(self, capsys, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "mod.py").write_text("def one():\n    return 1\n")
        db = tmp_path / "new.db"
        assert main(["ingest", str(tree), "--db", str(db), "--no-fit"]) == 0
        capsys.readouterr()
        assert db.exists()
