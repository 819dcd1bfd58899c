"""Seeded inputs: the Python source trees, the planted needles and the
operation schedule of each workload.

Everything the server receives is generated here from ``--seed``; the
program under test never sees the seed.  A :class:`Plan` is plain data
(file texts and op tuples), so its SHA-256 proves two runs did identical
work.

The corpus is synthetic on purpose: functions are a few lines over a
fixed pseudo-word vocabulary, so record size, chunk count and posting
list lengths are the same for every seed to within a per cent, and only
*which* words meet *which* record changes.
"""

from __future__ import annotations

import hashlib
import json
import random
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

FUNCS_PER_FILE = 16
FILES_PER_PACKAGE = 32
#: every NEEDLE_EVERY-th seeded function of the main tenant is a needle
NEEDLE_EVERY = 40
#: share of functions without a docstring (the server must summarize)
UNDOCUMENTED_SHARE = 0.25
#: share of searches that are needle queries
NEEDLE_SHARE = 0.10
WARMUP_OPS = 200
BULK_ITEMS = 16
TOP_K = 10

MAIN_USER = "alice"
FOREIGN_USER = "bob"
PASSWORD = "benchmark-pw"


def _vocabulary() -> list[str]:
    """600 pronounceable pseudo-words no stemmer suffix rule touches."""
    onsets = ("b", "br", "d", "dr", "f", "g", "gl", "k", "kr", "l", "m", "n",
              "p", "pl", "r", "t", "tr", "v", "z", "sk")
    nuclei = ("a", "e", "i", "o", "u", "ai")
    codas = ("bo", "dak", "fin", "gor", "lum")
    return [o + n + c for o in onsets for n in nuclei for c in codas]


VOCAB = _vocabulary()
#: mildly skewed word frequencies (rank + 20), as cumulative weights
_CUM_WEIGHTS = []
_total = 0.0
for _rank in range(len(VOCAB)):
    _total += 1.0 / (_rank + 20)
    _CUM_WEIGHTS.append(_total)


def _words(rng: random.Random, n: int) -> list[str]:
    return rng.choices(VOCAB, cum_weights=_CUM_WEIGHTS, k=n)


def _needle_token(number: int) -> str:
    """A token unique to one needle: never in VOCAB, stemmer-proof."""
    letters = "bdfgklmnprtvz"
    a, rest = divmod(number, len(letters) ** 2)
    b, c = divmod(rest, len(letters))
    return f"qz{letters[a % len(letters)]}{letters[b]}{letters[c]}o"


@dataclass(frozen=True)
class Func:
    """One generated function = one registry record."""

    name: str  # registry name: "{path}::{function}"
    code: str
    doc: str  # first docstring line, "" when undocumented


def make_function(rng: random.Random, index: int, path: str,
                  doc: str | None = None) -> Func:
    """Function number ``index`` (globally unique, so no two records
    share an identity); ``doc`` overrides the generated docstring."""
    w = _words(rng, 4)
    fname = f"{w[0]}_{w[1]}_{index:06d}"
    if doc is None:
        doc = "" if rng.random() < UNDOCUMENTED_SHARE else (
            " ".join(_words(rng, rng.randint(6, 10))).capitalize() + "."
        )
    lines = [f"def {fname}(items, limit={rng.randint(1, 999)}):"]
    if doc:
        lines.append(f'    """{doc}"""')
    lines.append(f"    {w[2]} = {index}")
    for extra in _words(rng, rng.randint(0, 5)):
        lines.append(f"    {extra} = {w[2]} + {rng.randint(1, 99)}")
    lines += [
        f"    for {w[3]} in items:",
        f"        if {w[3]} > limit:",
        f"            {w[2]} += {w[3]} * {rng.randint(2, 9)}",
        f"    return {w[2]}",
    ]
    return Func(f"{path}::{fname}", "\n".join(lines), doc)


@dataclass
class Tree:
    """A generated source tree and the records it chunks into."""

    root: str = ""  # directory name this tree is written under
    files: dict[str, str] = field(default_factory=dict)  # path -> text
    funcs: list[Func] = field(default_factory=list)
    #: (three-word query, name of the record that must be hit 1)
    needles: list[tuple[str, str]] = field(default_factory=list)

    def write(self, parent: Path) -> Path:
        """Write the files under ``parent/root``; returns that directory
        (the ``path`` an ingest request names — record names are relative
        to it)."""
        for path, text in self.files.items():
            target = parent / self.root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        return parent / self.root


def make_tree(rng: random.Random, prefix: str, count: int, first_index: int,
              needles: bool = False) -> Tree:
    """``count`` functions in files of FUNCS_PER_FILE, in packages named
    after ``prefix``.

    Files carry imports only besides their functions (no module
    docstring, no module-level code), so the chunker yields exactly one
    chunk per function and ``chunksInserted`` must equal ``count``.
    """
    tree = Tree(root=prefix)
    for start in range(0, count, FUNCS_PER_FILE):
        number = start // FUNCS_PER_FILE
        path = (f"{prefix}{number // FILES_PER_PACKAGE:02d}"
                f"/mod_{number:04d}.py")
        body = ["import json", "import os", ""]
        for offset in range(min(FUNCS_PER_FILE, count - start)):
            index = first_index + start + offset
            doc = None
            if needles and (start + offset) % NEEDLE_EVERY == 0:
                needle_no = (start + offset) // NEEDLE_EVERY
                query = " ".join([_needle_token(2 * needle_no),
                                  _needle_token(2 * needle_no + 1),
                                  _words(rng, 1)[0]])
                doc = query.capitalize() + "."
            func = make_function(rng, index, path, doc)
            if needles and (start + offset) % NEEDLE_EVERY == 0:
                tree.needles.append((query, func.name))
            tree.funcs.append(func)
            body += [func.code, "", ""]
        tree.files[path] = "\n".join(body)
    return tree


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------
#: op classes every workload holds at least 150 of, so each has a median
#: worth citing (``client.{class}_p50_ms``)
CORE_CLASSES = ("semantic", "text", "fetch", "write")


@dataclass(frozen=True)
class Op:
    """One HTTP request and what a correct reply looks like.

    ``expect`` keys: ``status``; ``count`` or ``min_count``/``max_count``
    (hits in a search reply); ``hit1`` (name of the first hit);
    ``name``/``revision`` (single-record replies); ``removed``; ``items``
    (bulk reply size).
    """

    cls: str  # semantic | text | hybrid | code | fetch | write | bulk
    method: str
    path: str
    body: dict[str, Any] | None
    expect: dict[str, Any]
    user: str = MAIN_USER  # whose tenant and token


def record_path(name: str, user: str = MAIN_USER) -> str:
    quoted = urllib.parse.quote(name, safe="")
    return f"/v1/registry/{user}/pes/{quoted}"


def search_op(cls: str, query: str, hit1: str | None = None) -> Op:
    body = {
        "query": query,
        "queryType": cls,
        # kind=pe under queryType=text is the semantic quirk; text and
        # only text therefore searches kind=both
        "kind": "both" if cls == "text" else "pe",
        "backend": "exact",
        "k": TOP_K,
    }
    expect: dict[str, Any] = {"status": 200, "count": TOP_K}
    if cls == "text":
        # BM25 returns matching records only, and three words may match
        # fewer than k of a small tenant's records
        expect = {"status": 200, "min_count": 1, "max_count": TOP_K}
    if hit1 is not None:
        expect["hit1"] = hit1
    return Op(cls, "POST", f"/v1/registry/{MAIN_USER}/search", body, expect)


def fetch_op(name: str, revision: int | None = None,
             gone: bool = False) -> Op:
    expect: dict[str, Any] = (
        {"status": 404} if gone else {"status": 200, "name": name}
    )
    if revision is not None:
        expect["revision"] = revision
    return Op("fetch", "GET", record_path(name), None, expect)


def _pe_body(func: Func, description: str | None = None) -> dict[str, Any]:
    return {
        "peCode": func.code,
        "description": func.doc if description is None else description,
        "peSource": func.code,
    }


def put_new_op(func: Func, user: str = MAIN_USER) -> Op:
    return Op("write", "PUT", record_path(func.name, user), _pe_body(func),
              {"status": 201, "name": func.name, "revision": 1}, user)


def put_revise_op(func: Func, description: str, revision: int) -> Op:
    return Op("write", "PUT", record_path(func.name),
              _pe_body(func, description),
              {"status": 200, "name": func.name, "revision": revision})


def delete_op(name: str) -> Op:
    return Op("write", "DELETE", record_path(name), None,
              {"status": 200, "removed": True})


def bulk_op(funcs: list[Func]) -> Op:
    items = [{"peName": f.name, **_pe_body(f)} for f in funcs]
    return Op("bulk", "POST", f"/v1/registry/{MAIN_USER}/pes:bulk",
              {"items": items}, {"status": 201, "items": len(funcs)})


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Spec:
    """The frozen shape of one workload.

    The schedule is a count, never a duration: ``ops_per_second`` (and
    ``ingest_chunks_per_second``) were measured once on the reference
    machine so that ``--seconds`` times them lasts about ``--seconds``
    there, and are frozen here.
    """

    name: str
    records: int  # main tenant's seeded records
    connections: int  # closed loop: this many requests in flight
    mix: dict[str, float]  # op kind -> share of the schedule
    query_pool: int  # distinct queries; the server's query LRU holds 256
    ops_per_second: float  # schedule length per second of window
    #: op classes sent only while nothing else is in flight.  With two
    #: requests in the server at once, a sub-millisecond op either gets the
    #: interpreter lock at once or waits a 5 ms switch interval; about half
    #: do each, so its median sat on the edge between the two (fetch p50
    #: read 1.55-2.39 ms, a 25 % spread).  Searches stay concurrent.
    solo: frozenset[str] = frozenset()
    #: size of the measured ingest into the main tenant, beside the window
    ingest_chunks_per_second: float = 0.0
    #: tenant that new records are PUT into
    write_user: str = MAIN_USER


SPECS = {
    "read_static": Spec(
        name="read_static", records=1200, connections=2,
        mix={"semantic": 0.35, "text": 0.25, "hybrid": 0.10, "code": 0.05,
             "fetch": 0.20, "put_new": 0.05},
        query_pool=4096, ops_per_second=230.0,
        solo=frozenset({"fetch", "write"}),
    ),
    "mixed_rw": Spec(
        name="mixed_rw", records=640, connections=1,
        mix={"put_new": 0.20, "put_revise": 0.12, "delete": 0.08,
             "bulk": 0.05, "semantic": 0.20, "text": 0.10, "fetch": 0.25},
        query_pool=64, ops_per_second=150.0,
    ),
    # Reads go to the tenant being ingested into, new records to the other
    # one, so where the foreground's compactions fall does not depend on
    # how far the job has got.  A fixed schedule in a closed loop like the
    # other two, so the work and the bytes written repeat; the ingest is
    # sized to outlast it (checked: harness._measure_window).  An open loop
    # at a fixed rate was tried and dropped: a foreground that sleeps
    # between requests re-acquires the interpreter lock from the job on
    # every wake-up, and p50 read 15 ms in one run and 1 s in the next.
    "ingest_live": Spec(
        name="ingest_live", records=320, connections=1,
        mix={"semantic": 0.30, "text": 0.25, "fetch": 0.25, "put_new": 0.20},
        query_pool=4096, ops_per_second=155.0,
        ingest_chunks_per_second=440.0, write_user=FOREIGN_USER,
    ),
}

#: the foreign tenant owns this share of the main tenant's record count
FOREIGN_SHARE = 0.20


@dataclass
class Plan:
    """Everything one run sends to the server, in order."""

    spec: Spec
    main_tree: Tree
    foreign_tree: Tree
    #: ingest_live's measured ingest; it lands in MAIN_USER's tenant
    ingest_tree: Tree | None
    warmup: list[Op]
    window: list[Op]
    #: a needle search repeated after every restart (byte-equal replies)
    probe: Op

    def write_trees(self, parent: Path) -> dict[str, Path]:
        """Write every tree under ``parent``; ``{tree root: directory}``."""
        return {tree.root: tree.write(parent)
                for tree in (self.main_tree, self.foreign_tree,
                             self.ingest_tree) if tree is not None}

    def expected_counts(self) -> dict[str, int]:
        """Records each tenant owns once every op has been acknowledged."""
        counts = {
            MAIN_USER: len(self.main_tree.funcs) + (
                len(self.ingest_tree.funcs) if self.ingest_tree else 0),
            FOREIGN_USER: len(self.foreign_tree.funcs),
        }
        for op in self.warmup + self.window:
            if op.method == "DELETE":
                counts[op.user] -= 1
            elif op.expect["status"] == 201:  # PUT new, or a bulk of new
                counts[op.user] += op.expect.get("items", 1)
        return counts

    def digest(self) -> str:
        """SHA-256 over every generated input, in sending order."""
        h = hashlib.sha256()
        for tree in (self.main_tree, self.foreign_tree, self.ingest_tree):
            if tree is not None:
                for path in sorted(tree.files):
                    h.update(path.encode())
                    h.update(tree.files[path].encode())
        for op in self.warmup + self.window + [self.probe]:
            h.update(json.dumps(
                [op.cls, op.user, op.method, op.path, op.body, op.expect],
                sort_keys=True, separators=(",", ":"),
            ).encode())
        return h.hexdigest()


def _exact_counts(mix: dict[str, float], total: int) -> dict[str, int]:
    """Largest-remainder split of ``total`` by ``mix`` — the same count
    per op kind for every seed, so work is comparable across seeds."""
    raw = {kind: share * total for kind, share in mix.items()}
    counts = {kind: int(value) for kind, value in raw.items()}
    by_remainder = sorted(mix, key=lambda kind: (counts[kind] - raw[kind], kind))
    for kind in by_remainder[: total - sum(counts.values())]:
        counts[kind] += 1
    return counts


class _Builder:
    """Generates ops in schedule order, simulating the registry state a
    single in-order executor would produce (who is alive, at which
    revision), so every reply has one correct answer."""

    def __init__(self, rng: random.Random, plan_spec: Spec, main: Tree,
                 next_index: int) -> None:
        self.rng = rng
        self.spec = plan_spec
        self.main = main
        self.next_index = next_index
        # three words of one seeded record's docstring, so that every
        # query matches at least that record in the text index too
        documented = [f.doc.rstrip(".").lower().split()
                      for f in main.funcs if len(f.doc.split()) >= 3]
        self.pool = [" ".join(rng.sample(rng.choice(documented), 3))
                     for _ in range(plan_spec.query_pool)]
        self.alive: dict[str, tuple[Func, int]] = {}  # written, not deleted
        self.deleted: list[str] = []

    def _new_func(self) -> Func:
        index = self.next_index
        self.next_index += 1
        return make_function(self.rng, index,
                             f"live/mod_{index // FUNCS_PER_FILE:05d}.py")

    def _search(self, cls: str) -> Op:
        if cls in ("semantic", "text") and self.rng.random() < NEEDLE_SHARE:
            query, name = self.rng.choice(self.main.needles)
            return search_op(cls, query, hit1=name)
        return search_op(cls, self.rng.choice(self.pool))

    def op(self, kind: str) -> Op:
        rng = self.rng
        if kind in ("semantic", "text", "hybrid", "code"):
            return self._search(kind)
        if kind == "fetch":
            written = len(self.alive) + len(self.deleted)
            if self.spec.name == "mixed_rw" and written and rng.random() < 0.5:
                # read-your-writes: a name this schedule wrote earlier
                pick = rng.randrange(written)
                if pick < len(self.alive):
                    name = list(self.alive)[pick]
                    func, revision = self.alive[name]
                    return fetch_op(name, revision)
                return fetch_op(self.deleted[pick - len(self.alive)],
                                gone=True)
            return fetch_op(rng.choice(self.main.funcs).name)
        if kind == "put_new":
            func = self._new_func()
            self.alive[func.name] = (func, 1)
            return put_new_op(func, self.spec.write_user)
        if kind == "put_revise" and self.alive:
            name = rng.choice(list(self.alive))
            func, revision = self.alive[name]
            self.alive[name] = (func, revision + 1)
            description = " ".join(_words(rng, 8)).capitalize() + "."
            return put_revise_op(func, description, revision + 1)
        if kind == "delete" and self.alive:
            name = rng.choice(list(self.alive))
            del self.alive[name]
            self.deleted.append(name)
            return delete_op(name)
        if kind == "bulk":
            funcs = [self._new_func() for _ in range(BULK_ITEMS)]
            for func in funcs:
                self.alive[func.name] = (func, 1)
            return bulk_op(funcs)
        # revise/delete before anything was written: write something
        return self.op("put_new")

    def schedule(self, total: int) -> list[Op]:
        """``total`` ops.  The *order of op kinds* depends on the workload
        and the length only, not on the seed: compactions then fall on
        the same op numbers and fold slabs of the same row counts under
        every seed, so bytes written and peak memory are comparable across
        seeds; queries, targets and record contents are the seed's."""
        kinds = [kind
                 for kind, count in _exact_counts(self.spec.mix, total).items()
                 for _ in range(count)]
        random.Random(f"{self.spec.name}/{total}").shuffle(kinds)
        return [self.op(kind) for kind in kinds]


def build_plan(workload: str, seed: int, seconds: float,
               scale: float = 1.0) -> Plan:
    """The plan of ``workload`` for ``seed``; ``scale`` < 1 shrinks the
    seeded tenants and the schedule alike (``--smoke``)."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}/{seed}")
    records = max(NEEDLE_EVERY * 2, int(spec.records * scale))
    foreign = max(FUNCS_PER_FILE, int(records * FOREIGN_SHARE))
    main_tree = make_tree(rng, "main", records, 0, needles=True)
    foreign_tree = make_tree(rng, "foreign", foreign, 1_000_000)
    ingest_tree = None
    if spec.ingest_chunks_per_second:
        chunks = int(spec.ingest_chunks_per_second * seconds * scale)
        ingest_tree = make_tree(rng, "incoming", chunks, 2_000_000)
    window_ops = int(spec.ops_per_second * seconds * scale)
    builder = _Builder(rng, spec, main_tree, 3_000_000)
    warmup = builder.schedule(max(10, int(WARMUP_OPS * scale)))
    window = builder.schedule(max(20, window_ops))
    query, name = main_tree.needles[0]
    return Plan(spec, main_tree, foreign_tree, ingest_tree, warmup, window,
                probe=search_op("semantic", query, hit1=name))
