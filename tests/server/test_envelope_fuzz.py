"""Every request envelope fuzzed from its field table.

Each table of :mod:`repro.server.schema` yields two Hypothesis
strategies, derived from its rows' kinds and bounds alone: valid bodies,
and bodies with exactly one field wrong — of the wrong type, out of
bounds, ``2**63``, a lone surrogate, a vector entry that is not finite
in float32, or a key outside the table.  For every route that parses
the table, a wrong field is a 400 whose ``params`` name it, and a valid
body is never a 5xx.  Examples are derandomized and their number fixed,
so every run tries the same bodies.
"""

import base64
import io
import math
import tarfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.transport import Request
from repro.server import LaminarServer, schema
from repro.server.schema import INT64_MAX, KINDS, MAX_BULK_ITEMS, REQUIRED

#: a lone surrogate, as ``json.loads`` hands it over
LONE = "x\ud800"
#: the width of the unfitted models that rank every shard
VECTOR = [0.25] * 2048
#: text without surrogates
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


def _archive() -> str:
    """A base64 ``.tar.gz`` holding one small Python file."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w:gz") as tar:
        data = b"def fuzzed(x):\n    return x\n"
        info = tarfile.TarInfo("fuzzed.py")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return base64.b64encode(buffer.getvalue()).decode("ascii")


ARCHIVE = _archive()


def valid_value(row, legacy):
    """A strategy of values ``row`` accepts."""
    kind, bounds = row.kind, row.bounds
    if kind == "text":
        return TEXT
    if kind == "name":
        return TEXT.filter(str.strip).filter(
            lambda text: bounds is None or len(text) <= bounds
        )
    if kind == "int":
        low, high = bounds or (None, None)
        low = -INT64_MAX - 1 if low is None else low
        high = INT64_MAX if high is None else high
        # the bounds themselves, often: the widest value is a case
        return st.sampled_from((low, high)) | st.integers(low, high)
    if kind == "int_list":
        return st.lists(st.integers(-INT64_MAX - 1, INT64_MAX), max_size=3)
    if kind == "str_list":
        return st.lists(TEXT, max_size=3)
    if kind == "vector":
        return st.just(VECTOR)
    if kind == "enum":
        choices = st.sampled_from(bounds)
        return choices.map(str.upper) | choices if row.loose else choices
    if kind == "cursor":
        # null is no cursor; any other string fails its listing's scope
        return st.none()
    if kind == "items":
        return st.lists(valid_body(bounds, legacy), min_size=1, max_size=3)
    if kind == "base64":
        return st.just(ARCHIVE)
    if kind == "number":
        return st.floats(0, 1) | st.integers(0, 1)
    if kind == "ref":
        return st.fixed_dictionaries(
            {"id": st.integers(1, INT64_MAX)}
        ) | st.fixed_dictionaries({"name": TEXT})
    raise AssertionError(f"no strategy for kind {kind!r}")


def wrong_values(row, legacy):
    """Values ``row`` refuses with a 400 that names it."""
    kind, bounds = row.kind, row.bounds
    if row.params is not None:
        # the row words its refusals with its own historical params;
        # only the text check names the field there
        return [LONE]
    wrong = {
        "text": [LONE] if legacy else [LONE, 5, None],
        "name": [LONE] if legacy else [LONE, 5, "", " ", None],
        "int": [LONE, "x", 1.5, True, 2**63, -(2**63) - 1],
        "int_list": [LONE, 5, [1.5], [True], [2**63]],
        "str_list": [LONE, 5, [5], [LONE]],
        "vector": [LONE, "abc", [], [True], [[1.0]]]
        + [
            VECTOR[:7] + [entry] + VECTOR[8:]
            for entry in (math.nan, -math.inf, 1e300, 10**400)
        ],
        "enum": [LONE, "bogus", 5],
        # any string is a cursor to the parse: the listing decodes it
        "cursor": [5, ["v1."]],
        "items": [LONE, 5, [], [{}] * (MAX_BULK_ITEMS + 1)],
        "base64": [5, ""],
        "number": [LONE, "abc", [1]],
        "ref": [LONE, 5, {}, {"id": "x"}, {"id": 2**63}, {"name": LONE}],
    }[kind]
    if kind == "int" and bounds is not None:
        low, high = bounds
        wrong += [low - 1] + ([] if high is None else [high + 1])
    if kind == "name" and bounds is not None:
        wrong.append("k" * (bounds + 1))
    if row.default is None or (legacy and kind == "name"):
        wrong = [value for value in wrong if value is not None]
    return wrong


def valid_body(table, legacy, skip=(), fixed=None):
    """A strategy of bodies ``table`` accepts: every required row, and
    any of the others."""
    required, optional = {}, {}
    fixed = fixed or {}
    for row in table:
        if row.key in skip:
            continue
        target = required if row.default is REQUIRED else optional
        target[row.key] = (
            fixed[row.key] if row.key in fixed else valid_value(row, legacy)
        )
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def wrong_body(draw, table, legacy, skip=(), fixed=None):
    """``(body, key)``: a valid body with exactly one field wrong, and
    the key the 400 must name."""
    body = draw(valid_body(table, legacy, skip, fixed))
    rows = [row for row in table if row.key not in skip]
    # a legacy body takes unknown keys: only a strict one gets one
    choice = draw(st.integers(0, len(rows) - (1 if legacy else 0)))
    if choice == len(rows):
        body["bogusField"] = 1
        return body, "bogusField"
    row = rows[choice]
    if row.kind == "items" and draw(st.booleans()):
        item, key = draw(wrong_body(row.bounds, legacy))
        body[row.key] = [item]
        return body, key
    body[row.key] = draw(st.sampled_from(wrong_values(row, legacy)))
    return body, row.key


def names(params, key):
    """Whether a rendered ``params`` names ``key``."""
    return key in params or any(repr(key) in value for value in params.values())


#: (id, method, path, table, legacy, keys the path supplies)
ROUTES = [
    ("search", "POST", "/v1/registry/u/search", schema.SEARCH, False, ()),
    ("put-pe", "PUT", "/v1/registry/u/pes/p", schema.PE, False, ("peName",)),
    (
        "put-workflow", "PUT", "/v1/registry/u/workflows/w", schema.WORKFLOW,
        False, ("entryPoint",),
    ),
    ("bulk-pe", "POST", "/v1/registry/u/pes:bulk", schema.PE_BULK, False, ()),
    (
        "bulk-workflow", "POST", "/v1/registry/u/workflows:bulk",
        schema.WORKFLOW_BULK, False, (),
    ),
    ("delete-pe", "DELETE", "/v1/registry/u/pes/p", schema.DELETE, False, ()),
    (
        "delete-workflow", "DELETE", "/v1/registry/u/workflows/w",
        schema.DELETE, False, (),
    ),
    ("ingest", "POST", "/v1/registry/u/ingest", schema.INGEST, False, ()),
    ("users", "GET", "/v1/users", schema.PAGE, False, ()),
    ("pes", "GET", "/v1/registry/u/pes", schema.PAGE, False, ()),
    ("workflows", "GET", "/v1/registry/u/workflows", schema.PAGE, False, ()),
    (
        "workflow-pes", "GET", "/v1/registry/u/workflows/1/pes", schema.PAGE,
        False, (),
    ),
    ("jobs", "GET", "/v1/jobs", schema.JOBS, False, ()),
    ("register", "POST", "/auth/register", schema.AUTH, True, ()),
    ("login", "POST", "/auth/login", schema.AUTH, True, ()),
    ("pe-add", "POST", "/registry/u/pe/add", schema.PE_ADD, True, ()),
    (
        "workflow-add", "POST", "/registry/u/workflow/add",
        schema.WORKFLOW_ADD, True, (),
    ),
    (
        "t3-search", "GET", "/registry/u/search/q/type/both",
        schema.T3_SEARCH, True, (),
    ),
    ("run", "POST", "/execution/u/run", schema.RUN, True, ()),
    ("engine", "POST", "/engines/u/register", schema.ENGINE, True, ()),
]

FUZZ = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
    ],
)


@pytest.fixture()
def served(fast_bundle, tmp_path):
    server = LaminarServer(models=fast_bundle)
    credentials = {"userName": "u", "password": "pw"}
    server.dispatch(Request("POST", "/auth/register", credentials))
    token = server.dispatch(Request("POST", "/auth/login", credentials)).body[
        "token"
    ]
    # ingest walks a path on the server's filesystem: keep it empty
    yield server, token, {"path": st.just(str(tmp_path))}
    assert server.jobs.join(timeout=30.0)


def test_every_kind_has_strategies():
    kinds = {row.kind for *_, table, _, _ in ROUTES for row in table}
    kinds |= {row.kind for row in schema.PE_BULK[0].bounds}
    assert kinds == set(KINDS)


@pytest.mark.parametrize(
    "method, path, table, legacy, skip",
    [route[1:] for route in ROUTES],
    ids=[route[0] for route in ROUTES],
)
def test_a_valid_body_is_never_a_5xx(served, method, path, table, legacy, skip):
    server, token, fixed = served

    @FUZZ
    @given(valid_body(table, legacy, skip, fixed))
    def check(body):
        response = server.dispatch(Request(method, path, body, token=token))
        assert response.status < 500, (body, response.body)

    check()


@pytest.mark.parametrize(
    "method, path, table, legacy, skip",
    [route[1:] for route in ROUTES],
    ids=[route[0] for route in ROUTES],
)
def test_a_wrong_field_is_a_400_naming_it(
    served, method, path, table, legacy, skip
):
    server, token, fixed = served

    @FUZZ
    @given(wrong_body(table, legacy, skip, fixed))
    def check(case):
        body, key = case
        response = server.dispatch(Request(method, path, body, token=token))
        assert response.status == 400, (body, response.body)
        assert names(response.body.get("params", {}), key), (key, response.body)

    check()
