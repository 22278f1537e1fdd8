"""The exact readers and renderers work on integer rows.  Against the
scalar route they must agree token for token: a token read into a
matrix, in text or JSON, gives the rows that from_rows builds from
field.coerce(token), or fails with coerce's message, and every
rendered entry is str(entry).  Q and GF(p) values are also checked
against Fraction and int() directly, and a CLI run builds no Fraction
and no GaussianRational between reading and writing."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import congru.matrix
import congru.scalar
from congru import FieldKind, FieldSpec, GaussianRational, Matrix
from congru import MatrixParseError
from congru.cli import CliConfig, run

from conftest import ALL_FIELDS, GF7, NEAR_GRAMMAR_TOKENS, RATIONALS

GF_BIG = FieldSpec.prime_field(2 ** 31 - 1)
FIELDS = (*ALL_FIELDS, GF_BIG)

# spellings that only a string entry can carry, and entries that are
# not strings at all: JSON ints, bools, floats and null, and what a
# library caller may put in a dict
STRING_TOKENS = [*NEAR_GRAMMAR_TOKENS, " 7", "-0", "06/04", "+3", "7 ",
                 "\t-1/2\n", "", "  ", "0/7", "+0/5", "-00", "2/0", "00",
                 "+i", "-1/2*i", "1/2+i", "4/2-6/4*i", "+1-i", "3*i",
                 "1 /2", "1/ 2", "--1", "+-1", "1//2", "2147483654",
                 "-2147483648", "9" * 60, "\u20037"]
OTHER_ENTRIES = [0, -5, 12, 2 ** 100, -(2 ** 70), True, False, 1.5, 2.0,
                 float("inf"), float("nan"), None, [], {}, Fraction(-3, 4),
                 GaussianRational(Fraction(1, 2), -3)]
# the grammars as the README writes them, for the direct references
_Q_GRAMMAR = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_INT_GRAMMAR = re.compile(r"[+-]?[0-9]+")
_WS = " \t\n\r\f\v"


def _scalar_route(field, entries: list):
    """from_rows over coerce: (matrix, None), or (None, message)."""
    try:
        return Matrix.from_rows(field, [[field.coerce(x) for x in entries]]
                                ), None
    except ValueError as exc:
        return None, str(exc)


def _read(read, *args):
    try:
        return read(*args), None
    except MatrixParseError as exc:
        return None, str(exc)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("entry", STRING_TOKENS + OTHER_ENTRIES, ids=repr)
def test_json_entry_parity(field, entry):
    want, error = _scalar_route(field, [entry])
    got, got_error = _read(Matrix.from_json_dict, field,
                           {"rows": 1, "cols": 1, "entries": [entry]})
    if error is None:
        assert got_error is None and got._r == want._r
    else:
        assert got is None and got_error == f"entry 0: {error}"


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize(
    "token", [t for t in STRING_TOKENS if t and not re.search(r"\s", t)],
    ids=repr)
def test_text_token_parity(field, token):
    want, error = _scalar_route(field, [token])
    got, got_error = _read(Matrix.from_text, field, f"1 1\n{token}\n")
    if error is None:
        assert got_error is None and got._r == want._r
    else:
        assert got is None and got_error == error


def _direct(field, token: str):
    """The value a Q or GF(p) token reads as, by Fraction or int()
    alone, or None off the grammar."""
    s = token.strip(_WS) if isinstance(token, str) else None
    if field.kind is FieldKind.RATIONAL and s and _Q_GRAMMAR.fullmatch(s):
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den or 1)) if int(den or 1) else None
    if field.p and s and _INT_GRAMMAR.fullmatch(s):
        return int(s) % field.p
    return None


@pytest.mark.parametrize("field", [RATIONALS, GF7, GF_BIG], ids=str)
def test_values_match_fraction_and_int(field):
    for token in STRING_TOKENS:
        value = _direct(field, token)
        got, _ = _read(Matrix.from_json_dict, field,
                       {"rows": 1, "cols": 1, "entries": [token]})
        assert (got is None) == (value is None), token
        if value is not None:
            assert got[0, 0] == value, token


def test_error_texts():
    # the messages of the scalar readers, as the CLI prints them
    q, gf = RATIONALS, GF7
    cases = [(q, "1/0", "entry 0: invalid scalar '1/0'"),
             (q, "  ", "entry 0: empty scalar"),
             (q, True, "entry 0: cannot coerce True into Q"),
             (q, None, "entry 0: cannot coerce None into Q"),
             (gf, 1.5, "entry 0: cannot coerce 1.5 into GF(7)"),
             (gf, "1/2", "entry 0: invalid scalar '1/2'")]
    for field, entry, text in cases:
        with pytest.raises(MatrixParseError) as info:
            Matrix.from_json_dict(field, {"rows": 1, "cols": 1,
                                          "entries": [entry]})
        assert str(info.value) == text


_valid = {f: [t for t in STRING_TOKENS + OTHER_ENTRIES
              if _scalar_route(f, [t])[1] is None] for f in FIELDS}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rows_of_many_entries(field, data):
    # rows whose entries have different denominators meet in one row,
    # over their lcm, with the content divided out
    entries = data.draw(st.lists(st.sampled_from(_valid[field]),
                                 min_size=1, max_size=6))
    want, _ = _scalar_route(field, entries)
    obj = {"rows": 1, "cols": len(entries), "entries": entries}
    assert Matrix.from_json_dict(field, obj)._r == want._r
    tokens = [t for t in entries
              if isinstance(t, str) and not re.search(r"\s", t)]
    if tokens:
        text = f"1 {len(tokens)}\n{' '.join(tokens)}\n"
        assert Matrix.from_text(field, text)._r \
            == _scalar_route(field, tokens)[0]._r


# -- renderers -------------------------------------------------------------------

_huge = st.integers(-(2 ** 3000), 2 ** 3000)
_fraction = st.one_of(
    st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, _huge, st.integers(1, 2 ** 3000)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))
_GAUSSIAN_FORMS = ["i", "-i", "1/2-3/4*i", "-2*i", "3", "0", "1+i", "1-i",
                   "-1/3+i", "5/2*i"]


def _entry_strategy(field):
    if field.p:
        return st.integers(-(2 ** 40), 2 ** 40)
    if field.kind is FieldKind.RATIONAL:
        return _fraction
    return st.one_of(st.sampled_from(_GAUSSIAN_FORMS).map(field.parse_scalar),
                     st.builds(GaussianRational, _fraction, _fraction))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_renderers_write_str_of_each_entry(field, data):
    rows = data.draw(st.integers(0, 3))
    cols = data.draw(st.integers(0, 3)) if rows else 0
    entries = [[data.draw(_entry_strategy(field)) for _ in range(cols)]
               for _ in range(rows)]
    m = Matrix.from_rows(field, entries, cols=cols)
    want = [[str(field.coerce(x)) for x in row] for row in entries]
    assert m.to_json_dict() == {"rows": rows, "cols": cols,
                                "entries": sum(want, [])}
    assert m.to_text() == "\n".join(
        [f"{rows} {cols}", *(" ".join(row) for row in want)]) + "\n"


@pytest.mark.parametrize("form", _GAUSSIAN_FORMS)
def test_gaussian_forms_render_as_written(form):
    field = FieldSpec.gaussian()
    m = Matrix.from_json_dict(field, {"rows": 1, "cols": 1,
                                      "entries": [form]})
    assert m.to_json_dict()["entries"] == [form]
    assert m.to_text() == f"1 1\n{form}\n"


# -- no entry on a CLI path ------------------------------------------------------

_CLI_INPUTS = {
    "rational": ["1/2", "-1", "06/04", "0", "+3", "-2/3", "0/7", "1", "5"],
    "gaussian-rational": ["1/2+i", "-i", "3", "0", "2/4-6/4*i", "1",
                          "+i", "7", "-1/3*i"],
    "prime-field": ["3", "-0", "6", "+2", "0", "10", "1", "5", "04"],
}


@pytest.mark.parametrize("field", sorted(_CLI_INPUTS))
@pytest.mark.parametrize("json_io", [False, True], ids=["text", "json"])
def test_cli_builds_no_entry(field, json_io, tmp_path, monkeypatch):
    entries = _CLI_INPUTS[field]
    if json_io:
        doc = json.dumps({"rows": 3, "cols": 3, "entries": entries})
    else:
        doc = "3 3\n" + "\n".join(" ".join(entries[3 * i:3 * i + 3])
                                  for i in range(3)) + "\n"
    path = tmp_path / "a.txt"
    path.write_text(doc, encoding="utf-8")
    config = CliConfig(command="decompose", input_path=str(path),
                       field=field, json_io=json_io, emit_transform=True,
                       prime=7 if field == "prime-field" else None)
    want = run(config)
    assert want.status == 0

    def no_entry(*args, **kwargs):
        raise AssertionError("an entry was built")

    monkeypatch.setattr(Fraction, "__new__", no_entry)
    monkeypatch.setattr(GaussianRational, "__init__", no_entry)
    monkeypatch.setattr(congru.scalar, "_triple", no_entry)
    for name in ("_q_decode", "_qi_decode", "_gf_decode", "_gaussian"):
        monkeypatch.setattr(congru.matrix, name, no_entry)
    assert run(config) == want
