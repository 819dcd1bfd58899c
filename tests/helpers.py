"""Shared test PEs, workflow builders and a seeded source corpus.

Defined in a real file (not interactively) so ``inspect.getsource`` works
and registration-time source extraction / import analysis is exercised
for real.
"""

from __future__ import annotations

import random

from repro.dataflow.core import ConsumerPE, GenericPE, IterativePE, ProducerPE
from repro.dataflow.graph import WorkflowGraph


class OneToTenProducer(ProducerPE):
    """Produce the integers 1, 2, 3, ... in order (deterministic)."""

    def __init__(self) -> None:
        ProducerPE.__init__(self)
        self.counter = 0

    def _process(self):
        self.counter += 1
        return self.counter


class AddTen(IterativePE):
    """Add ten to each incoming number."""

    def __init__(self) -> None:
        IterativePE.__init__(self)

    def _process(self, num):
        return num + 10


class EvenFilter(IterativePE):
    """Forward only even numbers."""

    def __init__(self) -> None:
        IterativePE.__init__(self)

    def _process(self, num):
        if num % 2 == 0:
            return num


class Collector(GenericPE):
    """Collect everything; emit the sorted list in postprocess."""

    def __init__(self) -> None:
        GenericPE.__init__(self)
        self._add_input("input", grouping="global")
        self._add_output("output")
        self.items = []

    def _process(self, inputs):
        self.items.append(inputs["input"])

    def _postprocess(self):
        self.write("output", sorted(self.items))


class Printer(ConsumerPE):
    """Print each value (stdout-capture tests)."""

    def __init__(self) -> None:
        ConsumerPE.__init__(self)

    def _process(self, data):
        print("value:", data)


class PairProducer(ProducerPE):
    """Produce deterministic (key, 1) pairs cycling over three keys."""

    KEYS = ("alpha", "beta", "gamma")

    def __init__(self) -> None:
        ProducerPE.__init__(self)
        self.cursor = 0

    def _process(self):
        key = self.KEYS[self.cursor % 3]
        self.cursor += 1
        return (key, 1)


class KeyCounter(GenericPE):
    """Count pairs per key with group-by routing (stateful)."""

    def __init__(self) -> None:
        from collections import defaultdict

        GenericPE.__init__(self)
        self._add_input("input", grouping=[0])
        self._add_output("output")
        self.counts = defaultdict(int)

    def _process(self, inputs):
        key, n = inputs["input"]
        self.counts[key] += n

    def _postprocess(self):
        for key, count in sorted(self.counts.items()):
            self.write("output", (key, count))


class FileLineReader(IterativePE):
    """Read a file path from the stream, emit one line at a time."""

    def __init__(self) -> None:
        IterativePE.__init__(self)

    def _process(self, path):
        with open(path) as handle:
            for line in handle:
                self.write("output", line.strip())


class FailingPE(IterativePE):
    """Raise on a specific input value (failure-injection tests)."""

    def __init__(self, poison=13) -> None:
        IterativePE.__init__(self)
        self.poison = poison

    def _process(self, num):
        if num == self.poison:
            raise RuntimeError(f"poisoned input {num}")
        return num


def build_pipeline_graph(name: str = "pipeline") -> WorkflowGraph:
    """Producer -> AddTen -> Collector."""
    graph = WorkflowGraph(name)
    graph.connect(OneToTenProducer(), "output", AddTen(), "input")
    add_ten = graph.get_pes()[1]
    graph.connect(add_ten, "output", Collector(), "input")
    return graph


def build_wordcount_graph(name: str = "wordcount") -> WorkflowGraph:
    """PairProducer -> KeyCounter (group-by)."""
    graph = WorkflowGraph(name)
    graph.connect(PairProducer(), "output", KeyCounter(), "input")
    return graph


def build_diamond_graph(name: str = "diamond") -> WorkflowGraph:
    """Producer fans out to two branches that merge into one collector."""
    graph = WorkflowGraph(name)
    producer = OneToTenProducer()
    add = AddTen()
    even = EvenFilter()
    collect = Collector()
    graph.connect(producer, "output", add, "input")
    graph.connect(producer, "output", even, "input")
    graph.connect(add, "output", collect, "input")
    graph.connect(even, "output", collect, "input")
    return graph


def e2e_style_functions(count: int, seed: int = 1) -> list[tuple[str, str]]:
    """``count`` seeded ``(source, docstring)`` pairs shaped like the
    records the end-to-end benchmark ingests: a few lines over a fixed
    pseudo-word vocabulary, every fourth without a docstring (the
    server must summarize it).  Pinned digests depend on every
    character here."""
    rng = random.Random(seed)
    vocab = [
        onset + nucleus + coda
        for onset in ("b", "dr", "gl", "k", "m", "pl", "t", "sk")
        for nucleus in ("a", "e", "i", "o", "ai")
        for coda in ("bo", "dak", "fin", "gor", "lum")
    ]
    functions = []
    for index in range(count):
        name, other, total, item = rng.choices(vocab, k=4)
        doc = "" if index % 4 == 3 else (
            " ".join(rng.choices(vocab, k=rng.randint(6, 10))).capitalize() + "."
        )
        lines = [f"def {name}_{other}_{index:06d}(items, limit={rng.randint(1, 999)}):"]
        if doc:
            lines.append(f'    """{doc}"""')
        lines.append(f"    {total} = {index}")
        for extra in rng.choices(vocab, k=rng.randint(0, 5)):
            lines.append(f"    {extra} = {total} + {rng.randint(1, 99)}")
        lines += [
            f"    for {item} in items:",
            f"        if {item} > limit:",
            f"            {total} += {item} * {rng.randint(2, 9)}",
            f"    return {total}",
        ]
        functions.append(("\n".join(lines), doc))
    return functions


def resident_index(*keys):
    """A ``VectorIndex`` whose ``(user, kind)`` shards in ``keys`` are
    resident and empty, as a newly registered user's are: only a
    resident shard takes ``add``/``add_many``/``remove``."""
    from repro.search import VectorIndex

    index = VectorIndex()
    index.fill(None, {key: ((), ()) for key in keys})
    return index


def index_shards(index) -> dict:
    """Every non-empty shard of a ``VectorIndex`` as ``{(user, kind):
    (ids, matrix)}`` — its ascending int64 ids and their float32 rows,
    copied from the live layout under the index's lock, for tests that
    compare shards byte for byte."""
    with index._lock:
        return {
            key: (shard.ids[: shard.size].copy(), shard.matrix[: shard.size].copy())
            for key, shard in index._shards.items()
            if shard.size > 0
        }


def shard_bytes(index) -> dict:
    """:func:`index_shards` as ``{(user, kind): (id bytes, row bytes)}``."""
    return {
        key: (ids.tobytes(), matrix.tobytes())
        for key, (ids, matrix) in index_shards(index).items()
    }


def brute_force_index(dao):
    """The index one pass over every hydrated record builds — each
    owner's shard of every kind the record carries a vector of — the
    reference an attached or a live index must equal."""
    from repro.registry.entities import RECORD_KINDS, SHARD_KINDS
    from repro.search import VectorIndex

    shards: dict = {}
    for records in (dao.all_pes(), dao.all_workflows()):
        for record in records:
            for user_id in record.owners:
                for kind in RECORD_KINDS[type(record)].shards:
                    spec = SHARD_KINDS[kind]
                    vector = getattr(record, spec.vector_field)
                    if vector is not None:
                        ids, vectors = shards.setdefault((user_id, kind), ([], []))
                        ids.append(getattr(record, spec.id_field))
                        vectors.append(vector)
    index = VectorIndex()
    index.fill(None, shards)
    return index
