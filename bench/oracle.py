"""Oracles for the benchmark's inputs. Standard library only; never imports valkit.

Each oracle predicts a verdict summary, the same shape `summarize` extracts
from a `vk analyze --json` report:

- knowledgebases and CSPs: local verdict, global verdict, the first
  disagreeing member (witness), complete disagreement and |Gamma|;
- empirical models: the no-signalling verdict, the class and |Gamma|.

Closed forms serve the scaling families (liar cycles, grid colourings, the
n-cycle inequalities of Araujo et al. 2013, Bayesian-network chains); brute
force over every global assignment serves the small documents of cli-small.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

# Published verdicts of the builtins (bench/README.md, "Oracles").
BUILTIN_EXPECT = {
    "bell": {"no_signalling": "pass", "class": "PC"},
    "hardy": {"no_signalling": "pass", "class": "LC"},
    "ghz": {"no_signalling": "pass", "class": "SC", "gamma_size": 0},
    "pr-box": {"no_signalling": "pass", "class": "SC", "gamma_size": 0},
    "malawi": {"local": "pass", "global": "disagree", "complete": True},
    "screening": {"local": "pass", "global": "disagree", "witness": 1, "complete": False},
}


def summarize(report: dict) -> dict:
    """The verdict summary of an analyze report (no valkit involved)."""
    analysis = report["analysis"]
    if "no-signalling" in analysis:
        gamma = analysis.get("gamma")
        return {
            "no_signalling": analysis["no-signalling"]["verdict"],
            "class": analysis.get("class"),
            "gamma_size": gamma["size"] if gamma else None,
        }
    g = analysis["global"]
    truth = g.get("truth")
    return {
        "local": analysis["local"]["verdict"],
        "pair": analysis["local"].get("pair"),
        "global": g["verdict"],
        "witness": g.get("witness-index"),
        "complete": analysis["complete-disagreement"],
        "gamma_size": truth["size"] if truth and truth["type"] == "relation" else None,
    }


def matches(expect: dict, summary: dict) -> bool:
    return all(summary.get(key) == value for key, value in expect.items())


def check(inst, out: bytes) -> list[str]:
    """Problems with one `analyze --json` report or `infer --json` result of an instance."""
    try:
        result = json.loads(out)
    except json.JSONDecodeError:
        return ["printed invalid JSON"]
    if inst.op == "infer":
        return [] if infer_ok(result, inst.query, inst.check) else ["result disagrees with the oracle"]
    summary = summarize(result)
    return [] if matches(inst.expect, summary) else [f"verdict {summary} != oracle {inst.expect}"]


# ------------------------------------------------------------- closed forms


def liar_expect(n: int, consistent: bool) -> dict:
    """Consistent cycle: agree with the two constant assignments.

    Inconsistent cycle, n >= 3: every pair of members agrees on its overlap,
    but the join is empty, so member 1 already witnesses disagreement and
    the disagreement is complete.
    """
    if consistent:
        return {"local": "pass", "global": "agree", "complete": False, "gamma_size": 2}
    return {"local": "pass", "global": "disagree", "witness": 1, "complete": True}


def grid_colourings(rows: int, cols: int, colours: int = 3) -> int:
    """Proper colourings of a rows x cols grid by a row-to-row transfer matrix."""
    states = [s for s in product(range(colours), repeat=cols) if all(a != b for a, b in zip(s, s[1:]))]
    counts = {s: 1 for s in states}
    for _ in range(rows - 1):
        counts = {
            t: sum(c for s, c in counts.items() if all(a != b for a, b in zip(s, t)))
            for t in states
        }
    return sum(counts.values())


def grid_expect(rows: int, cols: int) -> dict:
    """Each edge colouring extends (the grid is bipartite), so the members agree."""
    return {"local": "pass", "global": "agree", "complete": False, "gamma_size": grid_colourings(rows, cols)}


def cycle_is_contextual(corr) -> bool:
    """Araujo et al. 2013: with unbiased marginals the n-cycle is noncontextual
    iff sum(s_i E_i) <= n - 2 for every sign vector with an odd number of -1."""
    n = len(corr)
    best = max(
        sum(s * e for s, e in zip(signs, corr))
        for signs in product((1, -1), repeat=n)
        if signs.count(-1) % 2 == 1
    )
    return best > n - 2


def cycle_expect(corr) -> dict:
    """Unbiased marginals make the model no-signalling; |E_i| < 1 gives every
    outcome positive weight, so Gamma is all 2^n assignments and the class is NC or PC."""
    cls = "PC" if cycle_is_contextual(corr) else "NC"
    return {"no_signalling": "pass", "class": cls, "gamma_size": 2 ** len(corr)}


def _chain_marginal(net: dict, path: list[str]) -> dict[str, Fraction]:
    """Marginal of the last cell of a boundary path: each cell has one parent on it."""
    labels = net["labels"]
    parents, table = net["cpts"][path[0]]
    dist = dict(zip(labels, table[()]))
    for child in path[1:]:
        parents, table = net["cpts"][child]
        nxt = {label: Fraction(0) for label in labels}
        for parent_label, p in dist.items():
            for label, q in zip(labels, table[(parent_label,)]):
                nxt[label] += p * q
        dist = nxt
    return dist


def bn_query_check(net: dict, query: tuple[str, ...]) -> dict:
    """Marginals the infer result must reproduce for query cells on row 0 or column 0."""
    cell = net["cell"]
    k = len(cell)
    marginals = {}
    for var in query:
        for i in range(k):
            for j in range(k):
                if cell[i][j] == var and (i == 0 or j == 0):
                    path = [cell[0][c] for c in range(j + 1)] if i == 0 else [cell[r][0] for r in range(i + 1)]
                    marginals[var] = _chain_marginal(net, path)
    return {"marginals": marginals}


def infer_ok(output: dict, query: tuple[str, ...], check: dict) -> bool:
    """Total mass 1, and each boundary query cell's marginal matches its chain."""
    names = sorted(query)
    if output.get("type") != "potential" or output.get("query") != names:
        return False
    values = {tuple(k.split(",")): Fraction(v) for k, v in output["values"].items()}
    if sum(values.values()) != 1:
        return False
    for var, expected in check["marginals"].items():
        pos = names.index(var)
        got: dict[str, Fraction] = {}
        for key, v in values.items():
            got[key[pos]] = got.get(key[pos], Fraction(0)) + v
        if got != expected:
            return False
    return True


# ------------------------------------------------------------- brute force


def _frames(doc: dict) -> dict[str, list[str]]:
    return {entry["name"]: entry["frame"] for entry in doc["universe"]}


def _assignments(names, frames):
    names = sorted(names)
    for combo in product(*(frames[n] for n in names)):
        yield dict(zip(names, combo))


def _restrict(a: dict, names) -> tuple:
    return tuple(a[n] for n in sorted(names))


def _relation_verdicts(frames: dict, members: list[tuple[frozenset, set]]) -> dict:
    """Brute-force local, global and complete verdicts of a relation knowledgebase.

    Each member is (domain, set of value tuples in sorted-name order).
    """
    pair = None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            overlap = members[i][0] & members[j][0]
            left = {_project(t, members[i][0], overlap) for t in members[i][1]}
            right = {_project(t, members[j][0], overlap) for t in members[j][1]}
            if left != right:
                pair = [i + 1, j + 1]
                break
        if pair:
            break
    joint = frozenset().union(*(dom for dom, _ in members))
    gamma = [
        g for g in _assignments(joint, frames)
        if all(_restrict(g, dom) in rows for dom, rows in members)
    ]
    witness = None
    for index, (dom, rows) in enumerate(members, start=1):
        if {_restrict(g, dom) for g in gamma} != rows:
            witness = index
            break
    return {
        "local": "fail" if pair else "pass",
        "pair": pair,
        "global": "disagree" if witness else "agree",
        "witness": witness,
        "complete": not gamma,
        "gamma_size": None if witness else len(gamma),
    }


def _project(row: tuple, domain: frozenset, target: frozenset) -> tuple:
    names = sorted(domain)
    return tuple(v for n, v in zip(names, row) if n in target)


def relation_kb_expect(doc: dict) -> dict:
    frames = _frames(doc)
    members = []
    for v in doc["valuations"]:
        dom = frozenset(v["domain"])
        rows = {_restrict(dict(zip(v["domain"], row)), dom) for row in v["tuples"]}
        members.append((dom, rows))
    return _relation_verdicts(frames, members)


def csp_expect(doc: dict) -> dict:
    """One member per distinct constraint scheme: the evaluations on it that
    every overlapping constraint allows, tested on the shared variables."""
    frames = _frames(doc)
    constraints = []
    covers: list[frozenset] = []
    for c in doc["constraints"]:
        scheme = frozenset(c["scheme"])
        allowed = {_restrict(dict(zip(c["scheme"], row)), scheme) for row in c["allowed"]}
        constraints.append((scheme, allowed))
        if scheme not in covers:
            covers.append(scheme)
    members = []
    for cover in covers:
        rows = set()
        for a in _assignments(cover, frames):
            ok = True
            for scheme, allowed in constraints:
                overlap = cover & scheme
                if overlap and _restrict(a, overlap) not in {_project(t, scheme, overlap) for t in allowed}:
                    ok = False
                    break
            if ok:
                rows.add(_restrict(a, cover))
        members.append((cover, rows))
    return _relation_verdicts(frames, members)


def potential_kb_expect(doc: dict, feasible: bool) -> dict:
    """Local agreement and null combination by brute force; global agreement
    (a linear feasibility question) is known from how the document was built."""
    frames = _frames(doc)
    members = []
    for v in doc["valuations"]:
        dom = frozenset(v["domain"])
        table = {}
        for a in _assignments(dom, frames):
            key = ",".join(a[n] for n in v["domain"])
            table[_restrict(a, dom)] = Fraction(v["values"].get(key, 0))
        members.append((dom, table))
    local = "pass"
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            overlap = members[i][0] & members[j][0]
            if _marginal(members[i], overlap) != _marginal(members[j], overlap):
                local = "fail"
    joint = frozenset().union(*(dom for dom, _ in members))
    complete = True
    for g in _assignments(joint, frames):
        value = Fraction(1)
        for dom, table in members:
            value *= table[_restrict(g, dom)]
        if value != 0:
            complete = False
            break
    return {
        "local": local,
        "global": "agree" if feasible and local == "pass" else "disagree",
        "complete": complete,
    }


def _marginal(member, target) -> dict:
    dom, table = member
    out: dict[tuple, Fraction] = {}
    for row, value in table.items():
        key = _project(row, dom, target)
        out[key] = out.get(key, Fraction(0)) + value
    return out


def possibilistic_expect(doc: dict) -> dict:
    """No-signalling, strong and logical contextuality of a support model by brute force."""
    frames = _frames(doc)
    contexts = [tuple(c) for c in doc["contexts"]]
    supports = []
    for ctx in contexts:
        rows = doc["sections"][",".join(ctx)]
        supports.append({tuple(k.split(",")) for k, v in rows.items() if v == 1})
    for i in range(len(contexts)):
        for j in range(i + 1, len(contexts)):
            overlap = [n for n in contexts[i] if n in contexts[j]]
            left = {tuple(dict(zip(contexts[i], r))[n] for n in overlap) for r in supports[i]}
            right = {tuple(dict(zip(contexts[j], r))[n] for n in overlap) for r in supports[j]}
            if left != right:
                return {"no_signalling": "fail", "class": None, "gamma_size": None}
    names = sorted(frames)
    gamma = [
        g for g in _assignments(names, frames)
        if all(tuple(g[n] for n in ctx) in sup for ctx, sup in zip(contexts, supports))
    ]
    logical = any(
        sup - {tuple(g[n] for n in ctx) for g in gamma} for ctx, sup in zip(contexts, supports)
    )
    cls = "SC" if not gamma else "LC" if logical else "NC"
    return {"no_signalling": "pass", "class": cls, "gamma_size": len(gamma)}
