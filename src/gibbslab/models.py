"""Model files and the built-in example registry.

A model bundles a shift space, a potential, the metric parameter, and
an optional observable.  The JSON schema is:

    {"alphabet": N,
     "symbols": [..],                    # optional, defaults to 1..N
     "transitions": [[0/1, ..], ..],     # rows are source symbols
     "alpha": 0.5,
     "potential": {"memory": m, "values": {"i,j": float, ..}},
     "observable": {"memory": m, "values": {...}}}   # optional

Word keys are comma-separated symbol labels.  Every admissible word of
the stated memory must be covered; silent defaults are refused.
"""

import json
import math
from dataclasses import dataclass

from .errors import ValidationError
from .potential import DEFAULT_ALPHA, FiniteMemoryFunction
from .shift_space import validate


@dataclass(frozen=True, eq=False)
class ModelFile:
    name: str
    space: object
    potential: object
    alpha: float
    observable: object = None


def _convert(kind, value, what):
    """kind(value) for kind int or float; a ValidationError naming
    `what` when the value does not convert, is a boolean, or for kind
    int is not already an integer (2.5, "2")."""
    try:
        out = kind(value)
        if isinstance(value, bool) or (kind is int and out != value):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{what} must be {noun}, got {value!r}")


def _table(space, doc, alpha, what):
    if not isinstance(doc, dict) or "memory" not in doc or "values" not in doc:
        raise ValidationError(f"{what} needs 'memory' and 'values'")
    if not isinstance(doc["values"], dict):
        raise ValidationError(f"{what} values must be an object keyed by words")
    memory = _convert(int, doc["memory"], f"{what} memory")
    values = {}
    for key, v in doc["values"].items():
        try:
            word = tuple(int(s) for s in key.split(","))
        except ValueError:
            raise ValidationError(f"bad word key {key!r} in {what}")
        values[word] = _convert(float, v, f"{what} value at {key!r}")
    return FiniteMemoryFunction(space, memory, values, alpha)


def from_json(text, name="model"):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError(f"model must be a JSON object, got {type(doc).__name__}")
    for field in ("alphabet", "transitions", "potential"):
        if field not in doc:
            raise ValidationError(f"model is missing {field!r}")
    alpha = _convert(float, doc.get("alpha", DEFAULT_ALPHA), "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    symbols = doc.get("symbols")
    if symbols is not None and not isinstance(symbols, list):
        raise ValidationError(f"symbols must be a list, got {symbols!r}")
    rows = doc["transitions"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"transitions must be a list of rows, got {rows!r}")
    transitions = [[_convert(int, a, "transition entry") for a in r] for r in rows]
    space = validate(_convert(int, doc["alphabet"], "alphabet"), transitions,
                     symbols=None if symbols is None
                     else [_convert(int, s, "symbol") for s in symbols])
    potential = _table(space, doc["potential"], alpha, "potential")
    observable = None
    if doc.get("observable") is not None:
        observable = _table(space, doc["observable"], alpha, "observable")
    return ModelFile(name=name, space=space, potential=potential,
                     alpha=alpha, observable=observable)


def to_document(model):
    """Canonical dict form (fixed field order) for serialization."""
    def table(f):
        return {
            "memory": f.memory,
            "values": {",".join(str(s) for s in w): v for w, v in sorted(f.values.items())},
        }

    doc = {
        "alphabet": model.space.alphabet_size,
        "symbols": list(model.space.symbols),
        "transitions": model.space.transitions.astype(int).tolist(),
        "alpha": model.alpha,
        "potential": table(model.potential),
    }
    if model.observable is not None:
        doc["observable"] = table(model.observable)
    return doc


def bernoulli(p=0.7, alpha=DEFAULT_ALPHA):
    """Full 2-shift with the memory-1 potential log p / log(1-p); the
    observable is the centered indicator of the first symbol."""
    if not 0.0 < p < 1.0:
        raise ValidationError("p must lie in (0, 1)")
    space = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
    phi = FiniteMemoryFunction(space, 1, {(1,): math.log(p), (2,): math.log(1.0 - p)}, alpha)
    psi = FiniteMemoryFunction(space, 1, {(1,): 1.0 - p, (2,): -p}, alpha)
    return ModelFile(name=f"bernoulli(p={p:g})", space=space, potential=phi,
                     alpha=alpha, observable=psi)


def ising(beta=1.0, field=0.0, alpha=DEFAULT_ALPHA):
    """Nearest-neighbour spin chain on the full 2-shift over {-1, +1}:
    phi(x) = beta x0 x1 + (field/2)(x0 + x1); the observable is the
    spin at the origin."""
    space = validate(2, [[1, 1], [1, 1]], symbols=(-1, 1))
    vals = {}
    for a in (-1, 1):
        for b in (-1, 1):
            vals[(a, b)] = beta * a * b + 0.5 * field * (a + b)
    phi = FiniteMemoryFunction(space, 2, vals, alpha)
    psi = FiniteMemoryFunction(space, 1, {(-1,): -1.0, (1,): 1.0}, alpha)
    return ModelFile(name=f"ising(beta={beta:g},h={field:g})", space=space,
                     potential=phi, alpha=alpha, observable=psi)


def golden_mean(a=0.0, alpha=DEFAULT_ALPHA):
    """Golden mean shift (word 11 forbidden) with phi = a * indicator
    of the transition 0 -> 0 (reward for staying at 0); the observable
    is that indicator, so the tilted-pressure curve is the family
    P(a) = log((e^a + sqrt(e^2a + 4)) / 2), with P(a) -> a as
    a -> +inf and P(a) -> 0 as a -> -inf."""
    space = validate(2, [[1, 1], [1, 0]], symbols=(0, 1))
    vals = {(0, 0): float(a), (0, 1): 0.0, (1, 0): 0.0}
    phi = FiniteMemoryFunction(space, 2, vals, alpha)
    psi = FiniteMemoryFunction(space, 2, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0}, alpha)
    return ModelFile(name=f"golden-mean(a={a:g})", space=space, potential=phi,
                     alpha=alpha, observable=psi)


BUILTINS = {
    "bernoulli": bernoulli,
    "ising": ising,
    "golden-mean": golden_mean,
}

BUILTIN_PARAMS = {
    "bernoulli": ("p",),
    "ising": ("beta", "field"),
    "golden-mean": ("a",),
}


def builtin(name, **params):
    if name not in BUILTINS:
        raise ValidationError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}"
        )
    return BUILTINS[name](**params)
