"""Malformed law and config files are input errors: exit 3 with one
message line.

Hypothesis draws JSON values for whole law files and for their fields,
including valid laws with one field or one entry replaced. Every rejection
by ``MappingLaw.from_dict`` must be an ``InputError``, and
``finevo analyze --law`` must exit 0, or exit 3 with nothing on stdout and
exactly one line ``finevo: error: ...`` on stderr, never a traceback.
Lists hold at most four entries, so an accepted law has n <= 4.

Simulation configs for ``finevo simulate --config`` on the example law
are valid configs of either mode with up to two fields or entries replaced
by drawn values, and must pass the same exit-3 check. Integers are drawn
small, 1,000 (the fewest replications the statistical checks take) or
beyond ``MAX_BATCH_DRAWS``, so an accepted config runs 1,000 short
replications and an oversized one is refused before anything is drawn.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from finevo import example_law
from finevo.cli import main
from finevo.errors import InputError
from finevo.measure import MappingLaw
from finevo.simulate import MAX_BATCH_DRAWS

VALID = {"n": 3, "generators": [[2, 3, 1], [1, 1, 3]], "weights": ["1/3", "2/3"]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(["1", "1/2", "2/3", "-1/3", "0", "1/0", "x",
                       "5e-1", "1E0", "1e-100000000"]),
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


def run_on_file(doc, *argv) -> tuple:
    """(exit code, report or None) of ``finevo argv FILE``, FILE holding
    ``doc`` as JSON; a rejection must be exit 3 with one message line."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path), "--no-timestamp"])
    if code == 3:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("finevo: error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return code, None
    return code, json.loads(out.getvalue())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=law_documents())
def test_analyze_exits_3_with_one_message_line(doc):
    code, report = run_on_file(doc, "analyze", "--law")
    assert code == 3 or (code == 0 and report["input"]["n"] <= 4)


# the family and Lambda_W of the example law (p = 1, W = {(2,4,5)})
VALID_CONFIG = {"mode": "nonstationary", "k_min": -4, "k_max": 0, "replications": 1000,
                "seed": 7, "alpha": 0.001, "window": 2,
                "family": {"c": ["1"], "Lambda_W": [{"(2,4,5)": "1"}]}}

config_ints = (st.integers(-3, 5) | st.just(1000) | st.integers(MAX_BATCH_DRAWS + 1, 2**70)
               | st.integers(-(2**70), -(MAX_BATCH_DRAWS + 1)))
config_leaves = (
    st.none() | st.booleans() | config_ints | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(["stationary", "nonstationary", "1", "1/2", "0", "x",
                       "(2,4,5)", "(4,2,5)", "()", "1e-100000000"]))
config_values = config_leaves | st.recursive(
    config_leaves,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.sampled_from(["c", "Lambda_W", "(2,4,5)",
                                                         "(1,2)", "x"]),
                                        children, max_size=3)),
    max_leaves=8,
)


# where a drawn value may replace part of a valid config: a field, an
# unknown field, a family entry or a Lambda_W weight
CONFIG_PLACES = [(key,) for key in sorted(VALID_CONFIG) + ["Lambda_W", "law_file", "x"]] + [
    ("family", "c", 0), ("family", "Lambda_W", 0), ("family", "Lambda_W", 0, "(2,4,5)"),
    ("Lambda_W", "(2,4,5)"), ("Lambda_W", "(4,2,5)")]


@st.composite
def config_documents(draw):
    """A JSON value, or a valid config of either mode with up to two places
    replaced."""
    if draw(st.integers(0, 9)) == 0:
        return draw(config_values)
    doc = json.loads(json.dumps(VALID_CONFIG))
    if draw(st.booleans()):
        doc["mode"] = "stationary"
        doc["Lambda_W"] = doc.pop("family")["Lambda_W"][0]
    for _ in range(draw(st.integers(0, 2))):
        *parents, last = draw(st.sampled_from(CONFIG_PLACES))
        value, target = draw(config_values), doc
        try:
            for key in parents:
                target = target[key]
            target[last] = value
        except (KeyError, IndexError, TypeError):
            pass  # the place is not in this mode, or was replaced already
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=config_documents())
def test_simulate_config_exits_3_with_one_message_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        law = Path(tmp) / "law.json"
        law.write_text(json.dumps(example_law().to_dict()))
        if isinstance(doc, dict):  # no default batch of 10^4 replications
            doc = {"law_file": str(law), "replications": 1000, **doc}
        code, report = run_on_file(doc, "simulate", "--config")
    assert code == 3 or (code in (0, 1) and report["verification"]["replications"] == 1000)
