"""Golden tests for the AST chunker: spans, qualnames, ids, fallbacks."""

import textwrap

from repro.ingest.chunker import Chunk, chunk_file, chunk_python, chunk_text

MODULE = textwrap.dedent(
    '''\
    """Module doc."""

    import os
    import json as j
    from collections import OrderedDict

    TOP_CONSTANT = 1


    @property
    def decorated():
        """Decorated doc."""
        return 1


    def outer(x):
        def inner(y):
            return y + 1

        return inner(x)


    async def fetch(url):
        """Fetch doc."""
        return url


    class Box:
        """Box doc."""

        side = 2

        def area(self):
            return self.side ** 2

        class Inner:
            def f(self):
                return 0
    '''
)


def by_qualname(chunks):
    return {chunk.qualname: chunk for chunk in chunks}


class TestPythonChunking:
    def test_qualnames_cover_defs_classes_and_module_remainder(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        assert set(chunks) == {
            "decorated",
            "outer",
            "fetch",
            "Box",
            "Box.area",
            "Box.Inner",
            "Box.Inner.f",
            "__module__",
        }

    def test_nested_defs_stay_inside_their_parent(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        assert "outer.inner" not in chunks
        assert "def inner(y):" in chunks["outer"].code

    def test_decorators_are_part_of_the_span(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        assert chunks["decorated"].code.startswith("@property")

    def test_async_defs_are_chunked(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        assert chunks["fetch"].code.startswith("async def fetch")
        assert chunks["fetch"].docstring == "Fetch doc."

    def test_class_header_does_not_overlap_method_chunks(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        box = chunks["Box"]
        assert "class Box:" in box.code
        assert "side = 2" in box.code
        assert "def area" not in box.code
        assert box.end_line < chunks["Box.area"].start_line

    def test_module_chunk_holds_loose_statements_only(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        module = chunks["__module__"]
        assert "TOP_CONSTANT = 1" in module.code
        assert "import os" not in module.code
        assert "def " not in module.code

    def test_context_carries_module_path_and_imports(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        context = chunks["outer"].context
        assert context.startswith("# module: pkg/mod.py")
        assert "import os" in context
        assert "from collections import OrderedDict" in context

    def test_imports_are_deduped_names(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        imports = set(chunks["outer"].imports)
        assert {"os", "json", "collections"} <= imports

    def test_docstrings_feed_description(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        assert chunks["Box"].docstring == "Box doc."
        assert chunks["decorated"].docstring == "Decorated doc."

    def test_syntax_error_returns_none(self):
        assert chunk_python("bad.py", "def broken(:\n  pass\n") is None

    def test_chunks_are_stable_and_content_sensitive(self):
        first = by_qualname(chunk_python("pkg/mod.py", MODULE))
        second = by_qualname(chunk_python("pkg/mod.py", MODULE))
        assert first["outer"] == second["outer"]
        mutated = by_qualname(
            chunk_python("pkg/mod.py", MODULE.replace("y + 1", "y + 2"))
        )
        assert mutated["outer"].code != first["outer"].code
        assert mutated["outer"].name == first["outer"].name
        # moving the file moves the name too (path is part of identity)
        moved = by_qualname(chunk_python("other/mod.py", MODULE))
        assert moved["outer"].name != first["outer"].name

    def test_names_are_path_scoped(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        assert chunks["Box.area"].name == "pkg/mod.py::Box.area"

    def test_oversized_defs_split_into_windows(self):
        body = "\n".join(f"    x{i} = {i}" for i in range(40))
        source = f"def big():\n{body}\n    return x0\n"
        chunks = chunk_python("pkg/big.py", source, max_chunk_lines=10)
        windows = [c for c in chunks if c.qualname.startswith("big[")]
        assert len(windows) > 1
        assert all(
            c.end_line - c.start_line + 1 <= 10 for c in windows
        )
        # windows tile the def without gaps
        spans = sorted((c.start_line, c.end_line) for c in windows)
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start == prev_end + 1

    def test_source_text_prepends_context(self):
        chunks = by_qualname(chunk_python("pkg/mod.py", MODULE))
        text = chunks["outer"].source_text()
        assert text.startswith("# module: pkg/mod.py")
        assert text.endswith(chunks["outer"].code)


class TestTextChunking:
    def test_non_python_text_becomes_line_windows(self):
        text = "\n".join(f"line {i}" for i in range(25))
        chunks = chunk_text("docs/notes.md", text, window_lines=10)
        assert [c.kind for c in chunks] == ["window"] * len(chunks)
        assert chunks[0].qualname == "L1-L10"
        assert chunks[0].context == "# file: docs/notes.md"
        assert len(chunks) == 3

    def test_last_window_holds_the_remainder(self):
        text = "\n".join(f"line {i}" for i in range(25))
        last = chunk_text("docs/notes.md", text, window_lines=10)[-1]
        assert last.qualname == "L21-L25"
        assert (last.start_line, last.end_line) == (21, 25)
        assert last.code == "\n".join(f"line {i}" for i in range(20, 25))

    def test_empty_text_has_no_windows(self):
        assert chunk_text("docs/empty.md", "") == []

    def test_binary_like_text_is_skipped(self):
        assert chunk_text("blob.txt", "abc\x00def") is None

    def test_dispatch_by_suffix(self):
        python = chunk_file("a.py", "def f():\n    return 1\n")
        assert any(isinstance(c, Chunk) and c.kind == "function" for c in python)
        prose = chunk_file("a.md", "hello\n")
        assert prose[0].kind == "window"
