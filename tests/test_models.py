import json
import math

import numpy as np
import pytest

from gibbslab import models
from gibbslab.errors import ValidationError
from gibbslab.jsonio import _cell, dump_csv, dump_json, dumps

from oracles import every_entry_array


def test_builtin_registry():
    assert set(models.BUILTINS) == {"bernoulli", "ising", "golden-mean"}
    with pytest.raises(ValidationError):
        models.builtin("sofic")


def test_bernoulli_parameter_validation():
    with pytest.raises(ValidationError):
        models.bernoulli(1.0)
    with pytest.raises(ValidationError):
        models.bernoulli(0.0)


def test_ising_field_enters_table():
    m = models.ising(0.5, 0.2)
    assert m.potential.values[(1, 1)] == pytest.approx(0.5 + 0.2, abs=1e-15)
    assert m.potential.values[(1, -1)] == pytest.approx(-0.5, abs=1e-15)
    assert m.potential.values[(-1, -1)] == pytest.approx(0.5 - 0.2, abs=1e-15)


def test_from_json_minimal():
    doc = {
        "alphabet": 2,
        "transitions": [[1, 1], [1, 1]],
        "potential": {"memory": 1, "values": {"1": math.log(0.6), "2": math.log(0.4)}},
    }
    m = models.from_json(json.dumps(doc))
    assert m.space.symbols == (1, 2)
    assert m.alpha == 0.5
    assert m.observable is None


def test_from_json_errors():
    with pytest.raises(ValidationError):
        models.from_json("not json")
    with pytest.raises(ValidationError):
        models.from_json(json.dumps({"alphabet": 2, "transitions": [[1, 1], [1, 1]]}))
    base = {
        "alphabet": 2,
        "transitions": [[1, 1], [1, 1]],
        "potential": {"memory": 1, "values": {"1": 0.0, "2": 0.0}},
    }
    bad_alpha = dict(base, alpha=1.5)
    with pytest.raises(ValidationError):
        models.from_json(json.dumps(bad_alpha))
    missing_word = dict(base, potential={"memory": 1, "values": {"1": 0.0}})
    with pytest.raises(ValidationError):
        models.from_json(json.dumps(missing_word))
    extra_word = dict(
        base,
        transitions=[[1, 1], [1, 0]],
        symbols=[0, 1],
        potential={"memory": 2, "values": {"0,0": 0.0, "0,1": 0.0, "1,0": 0.0, "1,1": 0.0}},
    )
    with pytest.raises(ValidationError):
        models.from_json(json.dumps(extra_word))
    bad_key = dict(base, potential={"memory": 1, "values": {"x": 0.0, "2": 0.0}})
    with pytest.raises(ValidationError):
        models.from_json(json.dumps(bad_key))


BASE = {
    "alphabet": 2,
    "transitions": [[1, 1], [1, 1]],
    "potential": {"memory": 1, "values": {"1": 0.0, "2": 0.0}},
}


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(json.dumps(BASE)),
        json.dumps(dict(BASE, alphabet="x")),
        json.dumps(dict(BASE, alpha="half")),
        json.dumps(dict(BASE, alpha=None)),
        json.dumps(dict(BASE, potential={"memory": "a", "values": {"1": 0.0, "2": 0.0}})),
        json.dumps(dict(BASE, potential={"memory": 1, "values": {"1": "x", "2": 0.0}})),
        json.dumps(dict(BASE, potential={"memory": 1, "values": {"1": [0.0], "2": 0.0}})),
        json.dumps(dict(BASE, potential={"memory": 1, "values": [0.0, 0.0]})),
        json.dumps(dict(BASE, symbols=5)),
        json.dumps(dict(BASE, alphabet=2.5)),
        json.dumps(dict(BASE, potential={"memory": 1.9, "values": {"1": 0.0, "2": 0.0}})),
        json.dumps(dict(BASE, potential={"memory": True, "values": {"1": 0.0, "2": 0.0}})),
        json.dumps(dict(BASE, potential={"memory": 1, "values": {"1": True, "2": 0.0}})),
        json.dumps(dict(BASE, transitions=[[1, 1], [1]])),
        json.dumps(dict(BASE, transitions=[[True, True], [True, False]])),
    ],
    ids=["double-encoded", "alphabet", "alpha", "alpha-null", "memory",
         "value", "value-list", "values-list", "symbols-number",
         "alphabet-fraction", "memory-fraction", "memory-bool", "value-bool",
         "transitions-ragged", "transitions-bool"],
)
def test_malformed_model_raises_validation_error(text):
    with pytest.raises(ValidationError):
        models.from_json(text)


def test_document_round_trip_all_builtins():
    for name in models.BUILTINS:
        m = models.builtin(name)
        text = dump_json(models.to_document(m))
        again = models.from_json(text, name=m.name)
        assert dump_json(models.to_document(again)) == text
        assert again.space.symbols == m.space.symbols
        assert again.potential.values == m.potential.values
        assert again.observable.values == m.observable.values


def test_dump_json_strings_round_trip():
    """Keys and values with a quote, a backslash, a non-ASCII letter, a
    line separator and a control character load back unchanged."""
    s = 'a"b\\c\xe9\u2028\x01'
    doc = {s: s, "list": [s]}
    text = dump_json(doc)
    assert json.loads(text) == doc
    assert "\xe9\u2028" in text and "\\u0001" in text


def test_float_arrays_dump_as_their_lists():
    """An array is written with the same bytes as its nested lists,
    which take the per-element path, and as `every_entry_array`, which
    formats every entry: finite matrices with 0.0, -0.0 and subnormals,
    a sparse 256 x 256 Q with 4 nonzeros per row, a 2 x 2, 1-D and 3-D
    arrays, empty arrays, and a matrix with NaN and infinities."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((256, 256))
    A[0, :4] = 0.0, -0.0, 5e-324, -2.5e-310
    Q = np.zeros((256, 256))
    for i in range(256):
        Q[i, rng.choice(256, 4, replace=False)] = rng.dirichlet(np.ones(4))
    Q[1, :3] = -0.0, 5e-324, -5e-324
    odd = np.array([[1.5, np.nan], [np.inf, -np.inf]])
    finite = [A, A[0], A[:, 0], Q, Q.T, Q[1], np.array([[0.0, -0.0], [5e-324, 0.1]]),
              rng.standard_normal((2, 3, 4)), np.zeros(5), np.array([-0.0])]
    for a in finite + [np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)), odd, np.arange(4)]:
        for indent in (0, 2):
            assert dumps(a, indent) == dumps(a.tolist(), indent)
    for a in finite:
        for indent in (0, 2):
            assert dumps(a, indent) == every_entry_array(a, indent)
    assert dump_json({"m": odd}) == (
        '{\n  "m": [\n    [\n      1.5,\n      NaN\n    ],\n'
        '    [\n      Infinity,\n      -Infinity\n    ]\n  ]\n}\n')
    assert dumps(np.array([[0.0, -0.0], [5e-324, 0.1]])) == (
        "[\n  [\n    0,\n    -0\n  ],\n  [\n    4.9406564584124654e-324,\n"
        "    0.10000000000000001\n  ]\n]")


def test_csv_cells_keep_the_per_cell_bytes():
    """dump_csv writes every cell as the per-cell path `_cell` does,
    finite floats and float64s included, and these are its bytes."""
    cells = [None, "", True, False, np.bool_(True), np.bool_(False), 7, -3, np.int64(-5),
             "a,b", 'say "hi"', "two\nlines", "plain", 0.1, np.float64(0.1), -0.0,
             np.float64(-0.0), 5e-324, np.float64(2.5e-310), 1e300, np.nan, np.float64(np.nan),
             np.inf, -np.inf, np.float64(-np.inf), np.float32(0.1)]
    want = ["", "", "true", "false", "true", "false", "7", "-3", "-5", '"a,b"',
            '"say ""hi"""', '"two\nlines"', "plain", "0.10000000000000001",
            "0.10000000000000001", "-0", "-0", "4.9406564584124654e-324",
            "2.5000000000000171e-310", "1.0000000000000001e+300", "NaN", "NaN", "Infinity",
            "-Infinity", "-Infinity", "0.10000000149011612"]
    assert [_cell(v) for v in cells] == want
    rows = [cells, cells[::-1], [1.5, -0.0], []]
    text = "h1,h2\n" + "".join(",".join(map(_cell, r)) + "\n" for r in rows)
    assert dump_csv(("h1", "h2"), rows) == text


def test_zero_d_arrays_dump_as_their_scalars():
    for a, text in ((np.array(0.1), "0.10000000000000001"), (np.array(-3), "-3"),
                    (np.array(True), "true"), (np.array(np.nan), "NaN")):
        assert dumps(a) == dumps(a.item()) == text
    assert dump_json({"x": np.array(2.5)}) == '{\n  "x": 2.5\n}\n'
