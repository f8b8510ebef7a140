"""Seeded model generator for the benchmark.

Everything here is plain data: model documents in the gibbslab JSON
schema (see ``gibbslab.models``).  The program only ever sees these
documents, parsed and validated by ``gibbslab.models.from_json``.  The
built-ins are written out here, not taken from ``gibbslab.models``, so
that the reference checks do not inherit the program's definitions.

The fixed part of the ladder is the three built-ins at their CLI
defaults, the stiff cases golden-mean a = -8 and Ising beta = 4,
h = 0.01, and the 3-symbol constrained model of
``tests/test_three_symbol_model.py`` (rng 11).  The seeded part is
random potentials on the full 4-shift of memory 3, 4 and 5 (transfer
matrices with k = 16, 64 and 256 states).

The solve cost of a random model depends on the kind of its
subdominant eigenvalue: a complex pair runs the deflated power
iteration to its cap, a real one settles at once.  Each rung therefore
draws, from the seed's own stream, one model of each kind (decided by
a dense eigenvalue solve written here, not by the program), so that
every seed exercises both paths and the cost of a pass does not hinge
on a coin flip.  The complex kind stays complex on the tilts that
tilted-family solves (TILTS).
"""

import itertools
import json
import math

import numpy as np

FULL4 = [[1, 1, 1, 1]] * 4
RANDOM_MEMORIES = (3, 4, 5)
KINDS = ("complex", "real")
# tilted-family's grid on rand-m3-complex.  A tilt that turns the
# subdominant eigenvalue real makes that solve ~100x cheaper, so the
# complex kind is required to stay complex at every one of these.
TILTS = (-0.5, 0.0, 0.5)
BUILTINS = ("bernoulli", "ising", "golden-mean")
STIFF = ("golden-mean-a-8", "ising-b4-h0.01")

WORKLOAD_MODELS = {
    "spectral-ladder": BUILTINS + ("three-symbol",) + STIFF + tuple(
        f"rand-m{m}-{kind}" for m in RANDOM_MEMORIES for kind in KINDS),
    "tilted-family": BUILTINS + ("three-symbol", "rand-m3-complex"),
    # real kind: cheap set-up solves, so set-up can be sampled several
    # times per run; the complex-kind solve is measured by the other two
    "exact-law": BUILTINS + ("three-symbol", "rand-m3-real", "rand-m4-real"),
    "word-scan": BUILTINS + ("three-symbol",),
}


def _table(memory, values):
    return {"memory": memory,
            "values": {",".join(str(s) for s in w): v for w, v in values.items()}}


def _doc(symbols, transitions, phi_memory, phi, psi=None, alpha=0.5):
    doc = {"alphabet": len(symbols), "symbols": list(symbols),
           "transitions": transitions, "alpha": alpha,
           "potential": _table(phi_memory, phi)}
    if psi is not None:
        doc["observable"] = _table(*psi)
    return doc


def admissible_words(symbols, transitions, n):
    idx = {s: i for i, s in enumerate(symbols)}
    return [w for w in itertools.product(symbols, repeat=n)
            if all(transitions[idx[a]][idx[b]] for a, b in zip(w, w[1:]))]


def bernoulli(p=0.7):
    return _doc((1, 2), [[1, 1], [1, 1]], 1,
                {(1,): math.log(p), (2,): math.log(1.0 - p)},
                (1, {(1,): 1.0 - p, (2,): -p}))


def ising(beta=1.0, field=0.0):
    phi = {(a, b): beta * a * b + 0.5 * field * (a + b)
           for a in (-1, 1) for b in (-1, 1)}
    return _doc((-1, 1), [[1, 1], [1, 1]], 2, phi, (1, {(-1,): -1.0, (1,): 1.0}))


def golden_mean(a=0.0):
    ind = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0}
    return _doc((0, 1), [[1, 1], [1, 0]], 2,
                {(0, 0): float(a), (0, 1): 0.0, (1, 0): 0.0}, (2, ind))


def three_symbol():
    symbols, trans = (1, 2, 3), [[1, 1, 1], [1, 0, 1], [0, 1, 1]]
    rng = np.random.default_rng(11)
    phi = {w: round(float(rng.uniform(-0.8, 0.8)), 6)
           for w in admissible_words(symbols, trans, 3)}
    return _doc(symbols, trans, 3, phi, (1, {(1,): 1.0, (2,): 0.0, (3,): -1.0}))


def random_full_shift(rng, memory):
    """Uniform(-1, 1) potential (6 decimals) on the full 4-shift; no
    observable, so the program's default observable applies."""
    symbols = (1, 2, 3, 4)
    phi = {w: round(float(rng.uniform(-1.0, 1.0)), 6)
           for w in itertools.product(symbols, repeat=memory)}
    return _doc(symbols, FULL4, memory, phi)


def reference_matrix(doc, extra=None, s=0.0):
    """Transfer matrix of phi + s*extra built straight from a document:
    states are the admissible l-words (l = max(m - 1, 1)), entry u -> w
    is exp of the potential on u followed by the last symbol of w."""
    symbols, trans = tuple(doc["symbols"]), doc["transitions"]
    phi = table_values(doc["potential"])
    m = doc["potential"]["memory"]
    ell = max(m - 1, 1)
    if extra is not None:
        ell = max(ell, extra["memory"] - 1)
        psi = table_values(extra)
    states = admissible_words(symbols, trans, ell)
    pos = {w: i for i, w in enumerate(states)}
    idx = {x: i for i, x in enumerate(symbols)}
    M = np.zeros((len(states), len(states)))
    for i, u in enumerate(states):
        for b in symbols:
            if not trans[idx[u[-1]]][idx[b]]:
                continue
            word = u + (b,)
            v = phi[word[:m]]
            if extra is not None:
                v += s * psi[word[: extra["memory"]]]
            M[i, pos[word[1:]]] = math.exp(v)
    return states, M


def table_values(table):
    return {tuple(int(x) for x in k.split(",")): float(v)
            for k, v in table["values"].items()}


def observable_table(doc):
    """The observable the program uses: the document's, or the
    indicator of the first symbol (gibbslab's default observable)."""
    if doc.get("observable") is not None:
        return doc["observable"]
    first = doc["symbols"][0]
    return {"memory": 1,
            "values": {str(s): float(s == first) for s in doc["symbols"]}}


def subdominant_kind(doc):
    """"complex" when the subdominant eigenvalue of phi + s psi is a
    complex pair at every s in TILTS, "real" when it is real at s = 0,
    None for a candidate that is neither."""
    complex_at = []
    for s in TILTS:
        _, M = reference_matrix(doc, observable_table(doc), s)
        ev = np.linalg.eigvals(M)
        ev = ev[np.argsort(-np.abs(ev))]
        complex_at.append(abs(ev[1].imag) > 1e-9 * abs(ev[0]))
    if all(complex_at):
        return "complex"
    return None if complex_at[TILTS.index(0.0)] else "real"


def random_ladder(seed, memories=RANDOM_MEMORIES):
    """{name: doc} with one model of each subdominant kind per memory,
    drawn in order from the stream keyed by (seed, memory)."""
    out = {}
    for m in memories:
        rng = np.random.default_rng([seed, m])
        found = {}
        while len(found) < len(KINDS):
            doc = random_full_shift(rng, m)
            kind = subdominant_kind(doc)
            if kind:
                found.setdefault(kind, doc)
        for kind in KINDS:
            out[f"rand-m{m}-{kind}"] = found[kind]
    return out


def fixed_models():
    return {
        "bernoulli": bernoulli(),
        "ising": ising(),
        "golden-mean": golden_mean(),
        "three-symbol": three_symbol(),
        "golden-mean-a-8": golden_mean(-8.0),
        "ising-b4-h0.01": ising(4.0, 0.01),
    }


def workload_models(workload, seed):
    """{name: model file text} for the workload's models."""
    names = WORKLOAD_MODELS[workload]
    memories = sorted({int(n[6]) for n in names if n.startswith("rand-")})
    docs = dict(fixed_models())
    docs.update(random_ladder(seed, memories))
    return {name: json.dumps(docs[name], sort_keys=True) for name in names}
