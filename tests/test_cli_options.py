"""Every ``repro`` subcommand's option set, pinned as a literal table.

A change to how the parser is declared (shared parent parsers, say) must
leave what each command accepts exactly as it was: the same flags, the
same ``dest`` each value lands in, the same defaults, choices, ``nargs``,
types and required positionals, and no option gained or lost.  Help
text is not pinned.
"""

import argparse

from repro.cli import build_parser

#: per subcommand, one row per action (``-h`` left out):
#: flags -> (dest, default, choices, nargs, type, required)
OPTIONS = {
    "serve": {
        ("--host",): ("host", "127.0.0.1", None, None, None, False),
        ("--port",): ("port", 8075, None, None, int, False),
        ("--db",): ("db", None, None, None, None, False),
        ("--no-fit",): ("no_fit", False, None, 0, None, False),
    },
    "demo": {
        ("--input",): ("input", 10, None, None, int, False),
        ("--mapping",): (
            "mapping", "MULTI", ("SIMPLE", "MULTI", "MPI", "REDIS"), None,
            None, False,
        ),
        ("--num",): ("num", 5, None, None, int, False),
    },
    "eval": {
        (): ("table", None, (5, 6, 7), None, int, True),
    },
    "search": {
        (): ("query", None, None, None, None, True),
        ("--db",): ("db", None, None, None, None, False),
        ("--user",): ("user", "cli", None, None, None, False),
        ("--password",): ("password", "cli", None, None, None, False),
        ("--type",): (
            "search_type", "both", ("pe", "workflow", "both"), None, None,
            False,
        ),
        ("--query-type",): (
            "query_type", "semantic", ("text", "semantic", "code", "hybrid"),
            None, None, False,
        ),
        ("-k", "--k"): ("k", None, None, None, int, False),
        ("--limit",): ("limit", None, None, None, int, False),
        ("--cursor",): ("cursor", None, None, None, None, False),
        ("--json",): ("json", False, None, 0, None, False),
        ("--no-fit",): ("no_fit", False, None, 0, None, False),
    },
    "register": {
        (): ("name", None, None, "?", None, False),
        ("--kind",): ("kind", "pe", ("pe", "workflow"), None, None, False),
        ("--db",): ("db", None, None, None, None, False),
        ("--user",): ("user", "cli", None, None, None, False),
        ("--password",): ("password", "cli", None, None, None, False),
        ("--code",): ("code", None, None, None, None, False),
        ("--code-file",): ("code_file", None, None, None, None, False),
        ("--description",): ("description", "", None, None, None, False),
        ("--if-version",): ("if_version", None, None, None, int, False),
        ("--idempotency-key",): (
            "idempotency_key", None, None, None, None, False,
        ),
        ("--bulk",): ("bulk", None, None, None, None, False),
        ("--json",): ("json", False, None, 0, None, False),
        ("--no-fit",): ("no_fit", False, None, 0, None, False),
    },
    "delete": {
        (): ("name", None, None, None, None, True),
        ("--kind",): ("kind", "pe", ("pe", "workflow"), None, None, False),
        ("--db",): ("db", None, None, None, None, False),
        ("--user",): ("user", "cli", None, None, None, False),
        ("--password",): ("password", "cli", None, None, None, False),
        ("--if-version",): ("if_version", None, None, None, int, False),
        ("--idempotency-key",): (
            "idempotency_key", None, None, None, None, False,
        ),
        ("--json",): ("json", False, None, 0, None, False),
        ("--no-fit",): ("no_fit", False, None, 0, None, False),
    },
    "ingest": {
        (): ("path", None, None, None, None, True),
        ("--db",): ("db", None, None, None, None, False),
        ("--server",): ("server", None, None, None, None, False),
        ("--user",): ("user", "cli", None, None, None, False),
        ("--password",): ("password", "cli", None, None, None, False),
        ("--batch-size",): ("batch_size", None, None, None, int, False),
        ("--max-file-bytes",): (
            "max_file_bytes", None, None, None, int, False,
        ),
        ("--max-chunk-lines",): (
            "max_chunk_lines", None, None, None, int, False,
        ),
        ("--no-wait",): ("no_wait", False, None, 0, None, False),
        ("--json",): ("json", False, None, 0, None, False),
        ("--no-fit",): ("no_fit", False, None, 0, None, False),
    },
    "jobs": {
        (): ("job_id", None, None, "?", None, False),
        ("--cancel",): ("cancel", False, None, 0, None, False),
        ("--state",): (
            "state", None,
            ("queued", "running", "succeeded", "failed", "cancelled"),
            None, None, False,
        ),
        ("--db",): ("db", None, None, None, None, False),
        ("--server",): ("server", None, None, None, None, False),
        ("--user",): ("user", "cli", None, None, None, False),
        ("--password",): ("password", "cli", None, None, None, False),
        ("--json",): ("json", False, None, 0, None, False),
    },
    "stats": {
        ("--db",): ("db", None, None, None, None, False),
        ("--shards",): ("shards", False, None, 0, None, False),
    },
    "lint": {
        (): ("paths", ["src"], None, "*", None, False),
        ("--json",): ("as_json", False, None, 0, None, False),
        ("--rules",): ("rules", None, None, None, None, False),
        ("--list-rules",): ("list_rules", False, None, 0, None, False),
    },
    "endpoints": {},
}


def option_table(parser: argparse.ArgumentParser) -> dict:
    table = {}
    for action in parser._actions:
        if action.dest == "help":
            continue
        choices = None if action.choices is None else tuple(action.choices)
        flags = tuple(action.option_strings)
        assert flags not in table, f"{flags} declared twice"
        table[flags] = (
            action.dest, action.default, choices, action.nargs, action.type,
            action.required,
        )
    return table


def subcommands() -> dict:
    (sub,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices


def test_every_subcommand_is_pinned():
    assert list(subcommands()) == list(OPTIONS)


def test_each_subcommand_keeps_its_option_set():
    for name, parser in subcommands().items():
        assert option_table(parser) == OPTIONS[name], name
