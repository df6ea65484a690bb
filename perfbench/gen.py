"""Seeded inputs for the benchmark: a table (schema JSON + CSV) and a
query mix over it.

Tables are correlated Gaussian columns, A_j = rho * z + sqrt(1 - rho^2) * e_j,
with one shared latent z.  The Gaussian draws come from a randomly shifted
Halton sequence (randomised quasi-Monte Carlo) instead of plain pseudo-random
numbers: every seed still gives different rows, but the rare label
combinations that decide the concept count vary less between seeds (over
ten seeds of 400 tuples, the concept count's interquartile range fell from
6.1% to 3.6% of its median), so times measured on different seeds compare
better.
"""

from __future__ import annotations

import json
from statistics import NormalDist

import numpy as np

ORDERED_LABELS = ("Low", "Mid", "High")
CATEGORIES = ("Red", "Green", "Blue")
RELATION = "Bench"
QUERY_STREAM = 999  # table indices stay below it
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

# THOLD values are drawn from the degree scale the paper's examples use
# (0.25 ... 0.5) and beyond, up to 0.9; None means the default alpha
# 1 / cluster count.  High cuts can empty every found summary, which is the
# known repair crash; it is counted, not avoided.
THOLDS = (None, None, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
MODES = ("strict", "tolerant", "exhaustive")
EMPTY_EVERY = 4  # every 4th query is built to come back empty
ANTI_LABELS = ("Low", "High", "Low")  # its labels, on three different columns


def _halton(n: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    """n points of the first `dims` Halton dimensions, shifted modulo 1 by
    one random offset per dimension (Cranley-Patterson rotation)."""
    idx = np.arange(1, n + 1)
    out = np.empty((n, dims))
    for d in range(dims):
        base = PRIMES[d]
        col = np.zeros(n)
        f = 1.0
        rest = idx.copy()
        while rest.any():
            f /= base
            col += f * (rest % base)
            rest //= base
        out[:, d] = col
    return (out + rng.random(dims)) % 1.0


def make_table(seed: int, index: int, n: int, k: int, rho: float, category: bool = False):
    """Schema dict and CSV text of table `index` of the seed: n tuples, k
    numeric columns A0..A{k-1} with labels Low/Mid/High (clustered by FCM),
    plus an unordered label column Cat when `category` is set."""
    rng = np.random.default_rng([seed, index])
    dims = k + 1 + int(category)
    u = np.clip(_halton(n, dims, rng), 1e-12, 1 - 1e-12)
    rng.shuffle(u)
    inv = NormalDist().inv_cdf
    g = np.array([[inv(x) for x in row[: k + 1]] for row in u])
    z = g[:, 0]
    cols = [rho * z + np.sqrt(1.0 - rho * rho) * g[:, j + 1] for j in range(k)]

    attrs = [
        {"name": f"A{j}", "ftype": 1, "labels": [{"name": lab} for lab in ORDERED_LABELS]}
        for j in range(k)
    ]
    header = ["id"] + [f"A{j}" for j in range(k)]
    if category:
        attrs.append({"name": "Cat", "ftype": 4, "labels": [{"name": c} for c in CATEGORIES]})
        header.append("Cat")
        cats = (u[:, k + 1] * len(CATEGORIES)).astype(int)
    lines = [",".join(header)]
    for i in range(n):
        cells = [f"t{i + 1}"] + [f"{c[i]:.4f}" for c in cols]
        if category:
            cells.append("$" + CATEGORIES[cats[i]])
        lines.append(",".join(cells))
    return {"attributes": attrs}, "\n".join(lines) + "\n"


def _condition(attr: str, comparator: str, labels, thold) -> str:
    labelset = ", ".join(f"${lab}" for lab in labels)
    if len(labels) > 1:
        labelset = f"({labelset})"
    text = f"{attr} {comparator} {labelset}"
    return text if thold is None else f"{text} THOLD {thold:g}"


def _ordered_condition(rng: np.random.Generator, attr: str) -> tuple[str, tuple[str, ...]]:
    """One comparator/label pair the parser and rewriter accept.  FGT and
    FLT are left out (on the end labels they select nothing), and MGT is
    used only on the lowest label, the one two positions below the top."""
    comparator = ("FEQ", "FEQ", "FGEQ", "FLEQ", "MGT")[int(rng.integers(5))]
    if comparator == "MGT":
        return comparator, (ORDERED_LABELS[0],)
    if comparator == "FEQ" and rng.random() < 0.3:
        i = int(rng.integers(len(ORDERED_LABELS) - 1))
        return comparator, ORDERED_LABELS[i : i + 2]
    return comparator, (ORDERED_LABELS[int(rng.integers(len(ORDERED_LABELS)))],)


def make_queries(seed: int, schema: dict, count: int):
    """`count` (query text, mode) pairs.

    The structure is fixed and only the choices inside it are seeded.  Every
    EMPTY_EVERY-th query asks, in strict mode, for anti-correlated labels
    (A_i low, A_j high, A_l low, while all columns correlate positively), so
    that its search comes back empty and repair runs.  The other queries cycle
    through the three modes and 1-3 conditions, every combination once per
    nine queries.
    """
    rng = np.random.default_rng([seed, QUERY_STREAM])
    attrs = [a["name"] for a in schema["attributes"] if a["ftype"] == 1]
    out = []
    for q in range(count):
        picked = [attrs[i] for i in rng.permutation(len(attrs))]
        conds = []
        if q % EMPTY_EVERY == EMPTY_EVERY - 1:
            mode = "strict"
            for attr, label in zip(picked, ANTI_LABELS):
                conds.append(_condition(attr, "FEQ", (label,), _thold(rng)))
        else:
            r = q - q // EMPTY_EVERY
            mode = MODES[r % len(MODES)]
            for attr in picked[: 1 + (r // len(MODES)) % 3]:
                comparator, labels = _ordered_condition(rng, attr)
                conds.append(_condition(attr, comparator, labels, _thold(rng)))
        k = (None, 3, 5, 10)[int(rng.integers(4))]
        head = "Select *" if k is None else f"Select {k} *"
        out.append((f"{head} From {RELATION} Where {' And '.join(conds)};", mode))
    return out


def _thold(rng: np.random.Generator):
    return THOLDS[int(rng.integers(len(THOLDS)))]


def write_inputs(workdir, schema: dict, csv_text: str):
    """Write schema.json and data.csv into workdir; return their paths."""
    schema_path = workdir / "schema.json"
    data_path = workdir / "data.csv"
    schema_path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    data_path.write_text(csv_text, encoding="utf-8")
    return schema_path, data_path
