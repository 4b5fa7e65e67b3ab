"""Seeded input generators for the four benchmark workloads.

Standard library only: documents are built as plain dicts in valkit's JSON
input format, never through valkit's serializers, and each instance carries
the verdict its oracle (bench/oracle.py) predicts. The same seed always gives
the same instances. Sizes are fixed per workload, and so is whatever decides
how much work an input makes (the magnitude of a noisy cycle's correlators,
where an inference query sits, which edge of a noisy cycle is anti-correlated).
The seed varies names, labels, which edge of a liar cycle is negated, and
probabilities, so that every seed costs about the same to analyse.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

WORKLOADS = ("relations-kb", "lp-cycle", "infer-potentials", "cli-small")
BUILTIN_NAMES = ("bell", "hardy", "ghz", "pr-box", "malawi", "screening")
MODEL_BUILTINS = ("bell", "hardy", "ghz", "pr-box")


@dataclass
class Instance:
    """One input of a workload: a document (or builtin) plus its oracle."""

    name: str
    op: str  # "analyze" (then verify) or "infer"
    doc: dict | None  # None for builtins
    expect: dict  # verdict summary the oracle predicts (analyze ops)
    size: float  # relative cost estimate; the cheapest input is the warm-up
    builtin: str | None = None
    query: tuple[str, ...] = ()
    check: dict = field(default_factory=dict)  # infer oracle data

    @property
    def is_model(self) -> bool:
        if self.builtin is not None:
            return self.builtin in MODEL_BUILTINS
        return self.doc["kind"] == "empirical-model"


def _fmt(value: Fraction) -> int | str:
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def _labels(rng: random.Random, count: int) -> list[str]:
    pool = list(string.ascii_uppercase)
    rng.shuffle(pool)
    return [pool[i] + rng.choice(string.ascii_lowercase) for i in range(count)]


def _universe(names, frames) -> list[dict]:
    return [{"name": n, "frame": list(f)} for n, f in zip(names, frames)]


# ---------------------------------------------------------------- relations-kb


def liar_doc(rng: random.Random, n: int, consistent: bool) -> tuple[dict, dict]:
    """A cycle of biconditionals; the inconsistent one negates one seeded edge."""
    pre = _prefix(rng)
    names = [f"{pre}{i:03d}" for i in range(n)]
    lo, hi = sorted(_labels(rng, 2))
    negated = None if consistent else rng.randrange(n)
    valuations = []
    for i in range(n):
        a, b = names[i], names[(i + 1) % n]
        rows = [[lo, hi], [hi, lo]] if i == negated else [[lo, lo], [hi, hi]]
        valuations.append({"domain": [a, b], "tuples": rows})
    start = rng.randrange(n)  # rotate: members stay in cycle order
    valuations = valuations[start:] + valuations[:start]
    doc = {
        "kind": "knowledgebase",
        "universe": _universe(names, [(lo, hi)] * n),
        "valuations": valuations,
    }
    return doc, oracle.liar_expect(n, consistent)


def grid_doc(rng: random.Random, rows: int, cols: int) -> tuple[dict, dict]:
    """Proper 3-colouring of a rows x cols grid as a CSP, one member per edge."""
    pre = _prefix(rng)
    colours = _labels(rng, 3)
    cell = [[f"{pre}r{i}c{j}" for j in range(cols)] for i in range(rows)]
    names = [v for row in cell for v in row]
    differ = [[a, b] for a in colours for b in colours if a != b]
    constraints = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                constraints.append({"scheme": [cell[i][j], cell[i][j + 1]], "allowed": differ})
            if i + 1 < rows:
                constraints.append({"scheme": [cell[i][j], cell[i + 1][j]], "allowed": differ})
    doc = {
        "kind": "csp",
        "universe": _universe(names, [colours] * len(names)),
        "constraints": constraints,
    }
    return doc, oracle.grid_expect(rows, cols)


RELATIONS_MIX = (
    # (family, sizes): "liar" negates one edge, "liar-c" is consistent
    ("liar", (40, 160)),
    ("liar-c", (30, 70)),
    ("grid", ((2, 4), (4, 4))),
)


def relations_kb(rng: random.Random) -> list[Instance]:
    out = []
    for family, sizes in RELATIONS_MIX:
        for size in sizes:
            if family == "grid":
                r, c = size
                doc, expect = grid_doc(rng, r, c)
                name, cost = f"grid-{r}x{c}", 3.0 ** (r * c / 4)
            else:
                consistent = family == "liar-c"
                doc, expect = liar_doc(rng, size, consistent)
                name = f"{family}-{size:03d}"
                cost = (size / 40) ** (2.6 if consistent else 2.0)
            out.append(Instance(name, "analyze", doc, expect, cost))
    return out


# -------------------------------------------------------------------- lp-cycle


def _rational_near(rng: random.Random, target: Fraction, spread: Fraction) -> Fraction:
    """A rational with denominator at most 12 within `spread` of target, inside (0, 1)."""
    while True:
        d = rng.randint(3, 12)
        k = rng.randint(1, d - 1)
        value = Fraction(k, d)
        if abs(value - target) <= spread:
            return value


def cycle_correlators(rng: random.Random, n: int, contextual: bool) -> list[Fraction]:
    """Correlators E_i in (-1, 1) on the chosen side of the n-cycle NC boundary.

    Magnitudes sit near (n-2)/n, the value where the odd-sign sum meets n-2,
    so instances lie close to the boundary on both sides.
    """
    boundary = Fraction(n - 2, n)
    while True:
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if contextual and signs.count(-1) % 2 == 0:
            signs[rng.randrange(n)] *= -1
        mags = [_rational_near(rng, boundary, Fraction(1, 4)) for _ in range(n)]
        corr = [s * m for s, m in zip(signs, mags)]
        if oracle.cycle_is_contextual(corr) == contextual:
            return corr


def cycle_model_doc(rng: random.Random, n: int, corr: list[Fraction]) -> dict:
    """Unbiased binary n-cycle: p(a, b) = (1 + (-1)^(a xor b) E_i) / 4 per context."""
    pre = _prefix(rng)
    names = [f"{pre}{i:02d}" for i in range(n)]
    lo, hi = sorted(_labels(rng, 2))
    contexts, sections = [], {}
    for i in range(n):
        ctx = [names[i], names[(i + 1) % n]]
        if i == n - 1:
            ctx = [names[0], names[n - 1]]
        contexts.append(ctx)
        table = {}
        for a, la in enumerate((lo, hi)):
            for b, lb in enumerate((lo, hi)):
                sign = 1 if a == b else -1
                table[f"{la},{lb}"] = _fmt((1 + sign * corr[i]) / 4)
        sections[",".join(ctx)] = table
    return {
        "kind": "empirical-model",
        "universe": _universe(names, [(lo, hi)] * n),
        "model-kind": "probabilistic",
        "contexts": contexts,
        "sections": sections,
    }


def noisy_cycle_correlators(n: int, contextual: bool, negative: int) -> list[Fraction]:
    """The noisy n-cycle: E_i = t on every edge but edge `negative`, which has -t.

    Its odd-sign maximum is n*t, so t = (n-2)/n +- 1/(2n) puts it just
    outside (PC) or just inside (NC) the boundary. The magnitude is fixed
    per side because LP work varies several-fold with it, which would make
    a seed's cost depend on its draws.
    """
    t = Fraction(n - 2, n) + Fraction(1 if contextual else -1, 2 * n)
    corr = [t] * n
    corr[negative] = -t
    return corr


LP_MIX = (
    # (n, count per pass); alternately contextual and not
    (4, 2), (6, 2), (8, 2),
)


def lp_cycle(rng: random.Random) -> list[Instance]:
    """Noisy cycles; the seed draws names and labels.

    Where the negative edge sits relative to the variable order changes the
    LP's work (a noncontextual 8-cycle whose negative edge touches the last
    variable costs about 40% less), so it is fixed per slot and spread around
    the cycle: slot k of `count` negates edge k*n // count. Every seed then
    solves the same LPs up to renaming.
    """
    out = []
    for n, count in LP_MIX:
        for k in range(count):
            contextual = k % 2 == 0
            corr = noisy_cycle_correlators(n, contextual, k * n // count)
            doc = cycle_model_doc(rng, n, corr)
            expect = oracle.cycle_expect(corr)
            out.append(Instance(f"cycle-{n}-{k}", "analyze", doc, expect, 2.0 ** n))
    return out


# ------------------------------------------------------------ infer-potentials


def _distribution(rng: random.Random, count: int) -> list[Fraction]:
    weights = [rng.randint(1, 4) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def bn_grid(rng: random.Random, k: int, values: int) -> tuple[dict, dict]:
    """A k x k Bayesian-network grid: cell (i, j) has parents (i-1, j) and (i, j-1)."""
    pre = _prefix(rng)
    labels = _labels(rng, values)
    cell = [[f"{pre}r{i}c{j}" for j in range(k)] for i in range(k)]
    names = [v for row in cell for v in row]
    cpts = {}  # child -> (parents, {parent labels: [P(child = label)]})
    valuations = []
    for i in range(k):
        for j in range(k):
            child = cell[i][j]
            parents = ([cell[i - 1][j]] if i else []) + ([cell[i][j - 1]] if j else [])
            table, values_doc = {}, {}
            for combo in _product([labels] * len(parents)):
                dist = _distribution(rng, values)
                table[combo] = dist
                for label, p in zip(labels, dist):
                    values_doc[",".join((label,) + combo)] = _fmt(p)
            cpts[child] = (parents, table)
            valuations.append({"domain": [child] + parents, "values": values_doc})
    doc = {
        "kind": "knowledgebase",
        "universe": _universe(names, [labels] * len(names)),
        "valuations": valuations,
    }
    return doc, {"cell": cell, "labels": labels, "cpts": cpts}


def _product(lists):
    out = [()]
    for options in lists:
        out = [prefix + (x,) for prefix in out for x in options]
    return out


INFER_MIX = (
    # (k, values per variable, query slot): one grid per size, 1- and 2-variable queries alternating
    (4, 3, 0), (5, 3, 1), (6, 3, 0), (6, 2, 1), (7, 2, 0), (8, 2, 1),
)


def _query(cell: list[list[str]], slot: int) -> tuple[str, ...]:
    """The query of a grid's slot. Positions are fixed per slot: where the query
    cells sit decides the size of the intermediate tables, so drawing them from
    the seed would make a seed's cost depend on its draws. Every query holds a
    cell of row 0 or column 0, which the chain oracle checks."""
    k = len(cell)
    mid = k // 2
    return (
        (cell[0][k - 1],),
        (cell[k - 1][0], cell[mid][mid]),
        (cell[0][mid],),
        (cell[mid][0], cell[k - 1][k - 1]),
        (cell[0][0], cell[mid][mid]),
    )[slot % 5]


def infer_potentials(rng: random.Random) -> list[Instance]:
    out = []
    for k, values, slot in INFER_MIX:
        doc, net = bn_grid(rng, k, values)
        query = _query(net["cell"], slot)
        check = oracle.bn_query_check(net, query)
        cost = values ** (k + 1)
        out.append(Instance(f"bn-{k}x{k}v{values}-{slot}", "infer", doc, {}, cost, query=query, check=check))
    return out


# ------------------------------------------------------------------- cli-small


def small_relation_kb(rng: random.Random) -> tuple[dict, dict]:
    nvars = rng.randint(3, 6)
    pre = _prefix(rng)
    names = [f"{pre}{i}" for i in range(nvars)]
    frames = [_labels(rng, rng.randint(2, 3)) for _ in names]
    valuations = []
    for _ in range(rng.randint(2, 4)):
        dom = sorted(rng.sample(names, rng.randint(1, min(3, nvars))))
        combos = _product([frames[names.index(v)] for v in dom])
        rows = [list(c) for c in combos if rng.random() < 0.7] or [list(combos[0])]
        valuations.append({"domain": dom, "tuples": rows})
    doc = {"kind": "knowledgebase", "universe": _universe(names, frames), "valuations": valuations}
    return doc, oracle.relation_kb_expect(doc)


def small_csp(rng: random.Random) -> tuple[dict, dict]:
    nvars = rng.randint(3, 6)
    pre = _prefix(rng)
    names = [f"{pre}{i}" for i in range(nvars)]
    frames = [_labels(rng, rng.randint(2, 3)) for _ in names]
    constraints = []
    for _ in range(rng.randint(2, 5)):
        scheme = rng.sample(names, 2)
        combos = _product([frames[names.index(v)] for v in scheme])
        allowed = [list(c) for c in combos if rng.random() < 0.6] or [list(combos[-1])]
        constraints.append({"scheme": scheme, "allowed": allowed})
    doc = {"kind": "csp", "universe": _universe(names, frames), "constraints": constraints}
    return doc, oracle.csp_expect(doc)


def small_potential_kb(rng: random.Random) -> tuple[dict, dict]:
    """Marginals of one global distribution (agree), or of a noisy 3-cycle."""
    if rng.random() < 0.5:
        nvars = rng.randint(2, 4)
        pre = _prefix(rng)
        names = [f"{pre}{i}" for i in range(nvars)]
        frames = [_labels(rng, 2) for _ in names]
        joint = dict(zip(_product(frames), _distribution(rng, 2 ** nvars)))
        valuations = []
        for _ in range(rng.randint(2, 3)):
            idx = sorted(rng.sample(range(nvars), rng.randint(1, nvars - 1) if nvars > 1 else 1))
            marginal = {}
            for combo, p in joint.items():
                key = ",".join(combo[i] for i in idx)
                marginal[key] = marginal.get(key, Fraction(0)) + p
            valuations.append({"domain": [names[i] for i in idx], "values": {k: _fmt(v) for k, v in marginal.items()}})
        doc = {"kind": "knowledgebase", "universe": _universe(names, frames), "valuations": valuations}
        return doc, oracle.potential_kb_expect(doc, feasible=True)
    contextual = rng.random() < 0.5
    corr = cycle_correlators(rng, 3, contextual)
    model = cycle_model_doc(rng, 3, corr)
    valuations = [
        {"domain": ctx, "values": model["sections"][",".join(ctx)]} for ctx in model["contexts"]
    ]
    doc = {"kind": "knowledgebase", "universe": model["universe"], "valuations": valuations}
    return doc, oracle.potential_kb_expect(doc, feasible=not oracle.cycle_is_contextual(corr))


def small_possibilistic(rng: random.Random, style: int) -> tuple[dict, dict]:
    """Supports on a 3- or 4-cycle scenario.

    Style 0 draws each support at random (usually signalling), style 1
    projects one random set of global assignments (noncontextual), style 2
    uses parity supports (strongly contextual when the parities are odd).
    """
    n = rng.randint(3, 4)
    pre = _prefix(rng)
    names = [f"{pre}{i}" for i in range(n)]
    lo, hi = sorted(_labels(rng, 2))
    contexts = [[names[i], names[i + 1]] for i in range(n - 1)] + [[names[0], names[n - 1]]]
    outcomes = [(a, b) for a in (lo, hi) for b in (lo, hi)]
    globals_ = [g for g in _product([(lo, hi)] * n) if rng.random() < 0.4] or [(lo,) * n]
    parities = [rng.randint(0, 1) for _ in contexts]
    sections = {}
    for ctx, parity in zip(contexts, parities):
        i, j = names.index(ctx[0]), names.index(ctx[1])
        if style == 0:
            kept = [o for o in outcomes if rng.random() < 0.6] or [outcomes[0]]
        elif style == 1:
            kept = sorted({(g[i], g[j]) for g in globals_})
        else:
            kept = [(a, b) for a, b in outcomes if (a != b) == bool(parity)]
        sections[",".join(ctx)] = {f"{a},{b}": 1 for a, b in kept}
    doc = {
        "kind": "empirical-model",
        "universe": _universe(names, [(lo, hi)] * n),
        "model-kind": "possibilistic",
        "contexts": contexts,
        "sections": sections,
    }
    return doc, oracle.possibilistic_expect(doc)


def small_probabilistic(rng: random.Random) -> tuple[dict, dict]:
    n = rng.randint(3, 5)
    contextual = rng.random() < 0.5
    corr = cycle_correlators(rng, n, contextual)
    return cycle_model_doc(rng, n, corr), oracle.cycle_expect(corr)


SMALL_MIX = (
    (small_relation_kb, 3), (small_csp, 3), (small_potential_kb, 3),
    (small_possibilistic, 3), (small_probabilistic, 3),
)


def cli_small(rng: random.Random) -> list[Instance]:
    out = []
    liar_n = rng.randint(3, 12)
    for name in BUILTIN_NAMES + (f"liar({liar_n})",):
        expect = oracle.BUILTIN_EXPECT.get(name) or oracle.liar_expect(liar_n, False)
        out.append(Instance(f"builtin-{name}", "analyze", None, expect, 1.0, builtin=name))
    for make, count in SMALL_MIX:
        for k in range(count):
            doc, expect = make(rng, k % 3) if make is small_possibilistic else make(rng)
            out.append(Instance(f"{make.__name__.replace('_', '-')}-{k}", "analyze", doc, expect, 1.0))
    return out


GENERATORS = {
    "relations-kb": relations_kb,
    "lp-cycle": lp_cycle,
    "infer-potentials": infer_potentials,
    "cli-small": cli_small,
}


def generate(workload: str, seed: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)
