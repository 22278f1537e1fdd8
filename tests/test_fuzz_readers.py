"""Fuzzing of the grid readers: arbitrary text and JSON is either read
or rejected with MatrixParseError, and through the CLI it exits 0 or 1,
never 2."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from congru import Matrix, MatrixParseError, parse_float_matrix
from congru.cli import CliConfig, run

from conftest import ALL_FIELDS, NEAR_GRAMMAR_TOKENS

_TOKENS = st.sampled_from(NEAR_GRAMMAR_TOKENS)
_SEP = st.sampled_from([" ", "  ", "\t", "\r", "\x0b", " "])

# Header integers stay small, so that drawn rows often match the
# header.  A zero-width header with rows (rows x 0) is rejected at
# line 1, so no declared row count is allocated; the CLI rejects it
# as non-square first, see the CLI tests below.
_DIM = st.integers(-2, 4)


@st.composite
def grid_text(draw):
    """A header, then lines of tokens of roughly the declared width."""
    rows, cols = draw(_DIM), draw(_DIM)
    header = draw(st.sampled_from([f"{rows} {cols}", f"{rows}", f"{rows} x",
                                   f" {rows}\t{cols} ", f"{rows} {cols} 1"]))
    lines = [header]
    near = lambda n: st.one_of(st.just(max(n, 0)), st.integers(0, max(n, 0) + 1))
    for _ in range(draw(near(rows))):
        width = draw(near(cols))
        lines.append(draw(_SEP).join(draw(_TOKENS) for _ in range(width)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n", "\n\n", "\njunk"]))


TEXT = st.one_of(st.text(max_size=60), grid_text())

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True), _TOKENS)
JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner,
                                            max_size=4)),
    max_leaves=12)


@st.composite
def grid_json(draw):
    """An object that is close to a grid: each of rows, cols and
    entries is present or not, well typed or not."""
    rows, cols = draw(_DIM), draw(_DIM)
    obj = {}
    for key, good in (("rows", rows), ("cols", cols)):
        choice = draw(st.sampled_from(["good", "str", "other", "absent"]))
        if choice == "good":
            obj[key] = good
        elif choice == "str":
            obj[key] = str(good)
        elif choice == "other":
            obj[key] = draw(_JSON_SCALARS.filter(
                lambda v: not isinstance(v, int) and not (
                    isinstance(v, float) and 5 <= abs(v) < float("inf"))))
    if draw(st.booleans()):
        n = max(rows, 0) * max(cols, 0) + draw(st.integers(-1, 1))
        obj["entries"] = draw(st.lists(
            st.one_of(_TOKENS, _JSON_SCALARS, JSON_VALUES),
            min_size=max(n, 0), max_size=max(n, 0)))
    elif draw(st.booleans()):
        obj["entries"] = draw(JSON_VALUES)
    return obj


JSON_DOCS = st.one_of(JSON_VALUES, grid_json())

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@given(text=TEXT)
@example(text="1 1\n1e5000\n")
@FUZZ
def test_from_text_raises_only_parse_errors(field, text):
    try:
        a = Matrix.from_text(field, text)
    except MatrixParseError:
        return
    assert Matrix.from_text(field, a.to_text()) == a


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@given(obj=JSON_DOCS)
@example(obj={"rows": float("inf"), "cols": 1, "entries": []})
@FUZZ
def test_from_json_dict_raises_only_parse_errors(field, obj):
    try:
        a = Matrix.from_json_dict(field, obj)
    except MatrixParseError:
        return
    assert Matrix.from_json_dict(field, a.to_json_dict()) == a


@pytest.mark.parametrize("complex_entries", [False, True],
                         ids=["real", "complex"])
@given(text=TEXT)
@FUZZ
def test_parse_float_matrix_raises_only_parse_errors(complex_entries, text):
    try:
        a = parse_float_matrix(text, complex_entries=complex_entries)
    except MatrixParseError:
        return
    assert a.ndim == 2


# through the CLI the header is unbounded: a non-square one is rejected
# before any row is read
_ANY_DIM = st.one_of(_DIM, st.integers(0, 10**40))


@st.composite
def cli_text(draw):
    n = draw(_ANY_DIM)
    return draw(st.one_of(TEXT, st.just(f"{n} {n}\n1 2\n"),
                          st.just(f"{n} {draw(_ANY_DIM)}\n")))


@st.composite
def cli_json(draw):
    doc = draw(st.one_of(JSON_DOCS, st.builds(
        lambda r, c: {"rows": r, "cols": c, "entries": []},
        _ANY_DIM, _ANY_DIM)))
    return json.dumps(doc)


def _run(tmp_path_factory, command, text, json_io, **flags):
    p = tmp_path_factory.mktemp("fuzz") / "in"
    p.write_text(text, encoding="utf-8")
    return run(CliConfig(command=command, input_path=str(p),
                         json_io=json_io, **flags))


@pytest.mark.parametrize("json_io", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command,flags", [
    ("invariants", {"field": "gaussian-rational",
                    "involution": "conjugate"}),
    ("float-regularize", {"field": "complex"}),
], ids=["invariants", "float-regularize"])
@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_cli_exits_zero_or_one(tmp_path_factory, command, flags, json_io,
                               data):
    text = data.draw(cli_json() if json_io else cli_text())
    res = _run(tmp_path_factory, command, text, json_io, **flags)
    assert res.status in (0, 1), res.err
    if res.status:
        assert res.err.startswith("error: ")
