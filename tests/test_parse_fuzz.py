"""Malformed law files are input errors: exit 3 with one message line.

Hypothesis draws JSON values for whole law files and for their fields,
including valid laws with one field or one entry replaced. Every rejection
by ``MappingLaw.from_dict`` must be an ``InputError``, and
``finevo analyze --law`` must exit 0, or exit 3 with nothing on stdout and
exactly one line ``finevo: error: ...`` on stderr, never a traceback.
Lists hold at most four entries, so an accepted law has n <= 4.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from finevo.cli import main
from finevo.errors import InputError
from finevo.measure import MappingLaw

VALID = {"n": 3, "generators": [[2, 3, 1], [1, 1, 3]], "weights": ["1/3", "2/3"]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(["1", "1/2", "2/3", "-1/3", "0", "1/0", "x"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=10,
)


@st.composite
def law_documents(draw):
    """A JSON value, a law object with arbitrary fields, or a valid law with
    one field, generator or weight replaced, or one key dropped."""
    kind = draw(st.sampled_from(["value", "fields", "field", "entry", "missing"]))
    if kind == "value":
        return draw(json_values)
    if kind == "fields":
        return {key: draw(json_values) for key in VALID}
    doc = json.loads(json.dumps(VALID))
    key = draw(st.sampled_from(sorted(VALID)))
    if kind == "field":
        doc[key] = draw(json_values)
    elif kind == "missing":
        del doc[key]
    elif key != "n":
        doc[key][draw(st.integers(0, 1))] = draw(json_values)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=law_documents())
def test_law_parser_raises_only_input_errors(doc):
    try:
        MappingLaw.from_dict(doc)
    except InputError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=law_documents())
def test_analyze_exits_3_with_one_message_line(doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "law.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--law", str(path), "--no-timestamp"])
    if code == 0:
        assert json.loads(out.getvalue())["input"]["n"] <= 4
    else:
        assert code == 3
        assert out.getvalue() == ""
        assert err.getvalue().startswith("finevo: error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
