import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import valkit
from valkit.cli import main
from valkit.documents import canonical_json, model_document
from valkit.builtins import bell_model
from valkit.contextuality import possibilistic_model
from valkit.core import VariableUniverse

from conftest import (
    cycle_model,
    empty_domain_potential_kb,
    grid_colouring_document,
    noisy_cycle_correlators,
    split_components_document,
)


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def child_env(**overrides):
    """Environment for a `python -m valkit` child that imports this very valkit.

    The directory this process imported valkit from goes first on PYTHONPATH,
    so the child runs the same code whether valkit comes from `src/` or from
    an install.
    """
    env = dict(os.environ, **overrides)
    source = str(Path(valkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    return env


def test_list_builtins_names():
    code, out, _ = run_cli("list-builtins")
    assert code == 0
    names = out.split()
    for expected in ("bell", "hardy", "ghz", "pr-box", "liar(n)", "malawi", "screening"):
        assert expected in names


def test_list_builtins_describe():
    code, out, _ = run_cli("list-builtins", "--describe")
    assert code == 0
    assert "bell" in out and "empirical-model" in out


def test_analyze_bell_human_readable():
    code, out, _ = run_cli("analyze", "builtin:bell")
    assert code == 0
    assert "class: PC" in out
    assert "no-signalling: pass" in out
    assert "time:" in out


def test_analyze_screening_json_fields():
    code, out, _ = run_cli("analyze", "builtin:screening", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "knowledgebase"
    assert report["analysis"]["local"]["verdict"] == "pass"
    assert report["analysis"]["global"]["verdict"] == "disagree"
    assert report["analysis"]["global"]["witness-index"] == 1
    assert report["analysis"]["complete-disagreement"] is False
    assert "time" not in json.dumps(report)


def test_analyze_liar_json():
    code, out, _ = run_cli("analyze", "builtin:liar(3)", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["analysis"]["local"]["verdict"] == "pass"
    assert report["analysis"]["complete-disagreement"] is True


def test_analyze_json_deterministic_per_builtin():
    for name in ("bell", "hardy", "ghz", "pr-box", "liar(3)", "malawi", "screening"):
        first = run_cli("analyze", f"builtin:{name}", "--json")
        second = run_cli("analyze", f"builtin:{name}", "--json")
        assert first == second
        assert first[0] == 0


def test_json_determinism_across_hash_seeds(tmp_path):
    # Different PYTHONHASHSEED values must not leak set-iteration order.
    # Seeds 1 and 42 alone iterate some small string sets in the same order;
    # seed 0 breaks that tie.
    outputs = []
    for seed in ("0", "1", "42"):
        proc = subprocess.run(
            [sys.executable, "-m", "valkit", "analyze", "builtin:malawi", "--json"],
            capture_output=True,
            text=True,
            env=child_env(PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_accepts_generated_reports(tmp_path):
    for name in ("bell", "hardy", "screening", "liar(4)", "malawi"):
        code, out, _ = run_cli("analyze", f"builtin:{name}", "--json")
        assert code == 0
        path = tmp_path / f"{name.replace('(', '_').replace(')', '')}.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run_cli("verify", str(path), f"builtin:{name}")
        assert code == 0, err
        assert "ok" in out


# sha256 of `vk analyze builtin:NAME --json` with VK_CELL_LIMIT unset. The
# digests pin the report writers and the document writers behind
# "input-sha256" from one commit to the next; change them only with a change
# to the report or document format.
GOLDEN_ANALYZE_SHA256 = {
    "bell": "444fa6db4d724a55f0327d4169bb46ee407548692a2e78996c3d267edf758b4e",
    "hardy": "536e211e192f1cf62b1bd803c2b56162021add70a738cc7f859894166bee78bb",
    "ghz": "c460a9fd26f53012ac7b0d21f9f74833945b6be2825eff3429ebac39d95c0254",
    "pr-box": "5a1ff1997edb97cfc7059d517ffcdd0c70b016e09f4833bc383415500cf4c26d",
    "malawi": "e428a0e45ff1dfd661e1ae4e6214194ffb7fb1686f5689b33c7dfd2e1bb0e4c4",
    "screening": "7924b0de80d21af554b66c54a3464c24375678dca2ec93b61caa3b31682232c5",
    "liar(2)": "3d8e3854b9b1eda5a367f82b428463eb5cc0b7c9b74e8048651987b352d6bc37",
    "liar(5)": "18b7044deeff378dce7b43554c4be6e021cf3c0727a549bc25599da355536dcd",
}


def test_analyze_json_matches_golden_digests(monkeypatch):
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    for name, expected in GOLDEN_ANALYZE_SHA256.items():
        code, out, err = run_cli("analyze", f"builtin:{name}", "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, name


# sha256 of `vk analyze cycle6-nc.json --json` and `... cycle6-pc.json --json`
# for the noisy 6-cycle just inside and just outside the noncontextual
# boundary. The first report carries a global distribution found after 28
# simplex pivots, the second a Farkas certificate, so the digests pin the
# exact LP's answers as well as the writers.
GOLDEN_CYCLE6_SHA256 = {
    False: "48273e4bb986b42b55c3522c741e6f956e76747051c4e56818cd0d2b88497e12",
    True: "bd5d4d8151a4734258a40fdcd04069eec360a77696ce8e66d3d3e4a4cfadcb7f",
}


def test_analyze_json_matches_golden_noisy_cycle_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)  # the report names its source path
    for contextual, expected in GOLDEN_CYCLE6_SHA256.items():
        name = f"cycle6-{'pc' if contextual else 'nc'}.json"
        doc = model_document(cycle_model(noisy_cycle_correlators(6, contextual)))
        Path(name).write_text(canonical_json(doc), encoding="utf-8")
        code, out, err = run_cli("analyze", name, "--json")
        assert code == 0, err
        assert json.loads(out)["analysis"]["class"] == ("PC" if contextual else "NC")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, name
        Path(f"{name}.report").write_text(out, encoding="utf-8")
        code, _, err = run_cli("verify", f"{name}.report", name)
        assert code == 0, err


def chain_with_loose_chord_document():
    """a = b = c along a chain, plus a chord over (a, c) that also allows 01.

    Every pair agrees on its shared variable, the combination {000, 111} is
    nonempty, and only member 4 (the chord) differs from its projection.
    """
    frame = ["0", "1"]
    return {
        "kind": "knowledgebase",
        "universe": [{"name": n, "frame": frame} for n in ("a", "b", "c")],
        "valuations": [
            {"domain": ["a"], "tuples": [["0"], ["1"]]},
            {"domain": ["a", "b"], "tuples": [["0", "0"], ["1", "1"]]},
            {"domain": ["b", "c"], "tuples": [["0", "0"], ["1", "1"]]},
            {"domain": ["a", "c"], "tuples": [["0", "0"], ["0", "1"], ["1", "1"]]},
        ],
    }


# sha256 of `vk analyze FILE --json` on two relation knowledgebases: the
# consistent liar(4), which agrees (the report carries the truth valuation),
# and the chain above, which disagrees at member 4 with a nonempty
# combination (the report carries that member's projection).
GOLDEN_RELATION_KB_SHA256 = {
    "liar4-consistent.json": "0d29dd156549478808fd80b57e7068fe112c8757cf8a887374002e285ec8af15",
    "chain-chord.json": "310977a4a1111a4a0facb28b42d5cbcf9eb6c333695bdac4c273c81250fc9769",
}


def test_analyze_json_matches_golden_relation_kb_digests(tmp_path, monkeypatch):
    from valkit.builtins import liar_knowledgebase
    from valkit.documents import knowledgebase_document

    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)  # the report names its source path
    documents = {
        "liar4-consistent.json": knowledgebase_document(liar_knowledgebase(4, consistent=True)),
        "chain-chord.json": chain_with_loose_chord_document(),
    }
    verdicts = {}
    for name, expected in GOLDEN_RELATION_KB_SHA256.items():
        Path(name).write_text(canonical_json(documents[name]), encoding="utf-8")
        code, out, err = run_cli("analyze", name, "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, name
        analysis = json.loads(out)["analysis"]
        verdicts[name] = (analysis["global"]["verdict"], analysis["global"].get("witness-index"),
                          analysis["complete-disagreement"])
        Path(f"{name}.report").write_text(out, encoding="utf-8")
        code, _, err = run_cli("verify", f"{name}.report", name)
        assert code == 0, err
    assert verdicts == {
        "liar4-consistent.json": ("agree", None, False),
        "chain-chord.json": ("disagree", 4, False),
    }


# sha256 of `vk analyze FILE --json` on inputs where the join tree does the
# work: the consistent liar(70) (Gamma has 2 tuples), the 4x4 grid
# 3-colouring CSP (Gamma has 7812 tuples, more than the report lists), and two
# components of which one is inconsistent, so the empty combination reaches
# the other component's cliques through the root. Recorded before the
# per-member fusion problems gave way to one calibrated tree.
GOLDEN_JOIN_TREE_SHA256 = {
    "liar70-consistent.json": "4ff683cab3c401ab1432f823f163f3bcd0be865a28130c55868cbbe7361c9add",
    "grid-4x4.json": "dbc83aeb9086d24fbd115168ae8c76097f96b97a084d4a94b77e75ecf5a21853",
    "split-components.json": "fab833b9ea3fdbed423859f0eae94e285f7684d523bc05b5f7357e6785acb82a",
}


def test_analyze_json_matches_golden_join_tree_digests(tmp_path, monkeypatch):
    from valkit.builtins import liar_knowledgebase
    from valkit.documents import knowledgebase_document

    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)  # the report names its source path
    documents = {
        "liar70-consistent.json": knowledgebase_document(liar_knowledgebase(70, consistent=True)),
        "grid-4x4.json": grid_colouring_document(4, 4),
        "split-components.json": split_components_document(),
    }
    verdicts = {}
    for name, expected in GOLDEN_JOIN_TREE_SHA256.items():
        Path(name).write_text(canonical_json(documents[name]), encoding="utf-8")
        code, out, err = run_cli("analyze", name, "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, name
        analysis = json.loads(out)["analysis"]
        verdicts[name] = (analysis["global"]["verdict"], analysis["global"].get("witness-index"),
                          analysis["complete-disagreement"])
        Path(f"{name}.report").write_text(out, encoding="utf-8")
        code, _, err = run_cli("verify", f"{name}.report", name)
        assert code == 0, err
    assert verdicts == {
        "liar70-consistent.json": ("agree", None, False),
        "grid-4x4.json": ("agree", None, False),
        "split-components.json": ("disagree", 1, True),
    }


def reversed_frame_possibilistic_model():
    """A signalling possibilistic model whose frames are not in string order.

    The contexts (b, a, c) and (a, b, d) differ on the overlap {a, b}, so the
    report carries two relation marginals over frames ("1", "0") and ("y", "x").
    """
    universe = VariableUniverse.of([("a", ("1", "0")), ("b", ("y", "x")), ("c", ("0", "1")), ("d", ("0", "1"))])
    contexts = [("b", "a", "c"), ("a", "b", "d")]
    supports = {
        ("b", "a", "c"): [("x", "0", "1"), ("y", "1", "0"), ("x", "1", "1")],
        ("a", "b", "d"): [("0", "y", "1"), ("1", "x", "0")],
    }
    return possibilistic_model(universe, contexts, supports)


# sha256 of three outputs that render possibilistic data over frames written
# out of string order: the model's document (its sections keyed in frame
# order), `vk analyze --json` on that document (a signalling report whose
# marginals are relations) and `vk infer builtin:hardy --query a1,b2 --json`
# (a relation). Relations are written with their rows sorted as strings.
GOLDEN_POSSIBILISTIC_SHA256 = {
    "document": "ed5dd2c30eeb95aff7808a010552747968a5f4946faa3319a35d8da6c93448e4",
    "analyze": "a0d10b7f1bfe9f1bf067c6a805489375fa920d8045aa5faa5988570682ea0e58",
    "infer-hardy": "8d01884a19404aab6a538b226ca031092244de077a849d0f827b1b0fc403bb6e",
}


@pytest.mark.parametrize("name", ["hardy", "reversed-frames"])
def test_a_possibilistic_query_is_written_as_its_knowledgebase_query(name, tmp_path, monkeypatch):
    # A possibilistic model's knowledgebase is its sections as relations, so
    # vk infer answers a query on the model exactly as on that knowledgebase.
    from valkit.builtins import hardy_model
    from valkit.documents import knowledgebase_document

    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    if name == "hardy":
        model, source = hardy_model(), "builtin:hardy"
    else:
        model, source = reversed_frame_possibilistic_model(), str(tmp_path / "model.json")
        Path(source).write_text(canonical_json(model_document(model)), encoding="utf-8")
    kb = tmp_path / "kb.json"
    kb.write_text(canonical_json(knowledgebase_document(model.knowledgebase())), encoding="utf-8")
    names = sorted(model.knowledgebase().joint_domain)
    queries = [
        ("--query", names[0]),
        ("--query", f"{names[0]},{names[-1]}"),
        ("--query", ",".join(names)),
        ("--query", ",".join(names[:2]), "--order", ",".join(reversed(names[2:]))),
    ]
    for query in queries:
        code, expected, err = run_cli("infer", str(kb), *query, "--json")
        assert code == 0, err
        code, out, err = run_cli("infer", source, *query, "--json")
        assert code == 0, err
        assert out == expected, query
        assert json.loads(out)["type"] == "relation"


def test_possibilistic_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)  # the report names its source path
    document = canonical_json(model_document(reversed_frame_possibilistic_model()))
    Path("reversed-frames.json").write_text(document, encoding="utf-8")
    code, analyzed, err = run_cli("analyze", "reversed-frames.json", "--json")
    assert code == 0, err
    assert json.loads(analyzed)["analysis"]["no-signalling"]["verdict"] == "fail"
    Path("reversed-frames.report").write_text(analyzed, encoding="utf-8")
    code, _, err = run_cli("verify", "reversed-frames.report", "reversed-frames.json")
    assert code == 0, err
    code, inferred, err = run_cli("infer", "builtin:hardy", "--query", "a1,b2", "--json")
    assert code == 0, err
    outputs = {"document": document, "analyze": analyzed, "infer-hardy": inferred}
    for name, expected in GOLDEN_POSSIBILISTIC_SHA256.items():
        assert hashlib.sha256(outputs[name].encode("utf-8")).hexdigest() == expected, name


def coprime_bayes_net_document(seed: int, k: int = 3):
    """A k x k binary Bayesian-network grid whose CPT rows have pairwise coprime denominators.

    Cell (i, j) has parents (i-1, j) and (i, j-1). Each CPT row is (a/p, (p-a)/p)
    for its own odd prime p and a drawn from the seed, so a marginal's
    denominator is a product of many distinct primes.
    """
    rng = random.Random(seed)
    primes = (p for p in range(3, 10_000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2)))
    cell = [[f"r{i}c{j}" for j in range(k)] for i in range(k)]
    valuations = []
    for i in range(k):
        for j in range(k):
            parents = ([cell[i - 1][j]] if i else []) + ([cell[i][j - 1]] if j else [])
            values = {}
            for combo in itertools.product("01", repeat=len(parents)):
                p = next(primes)
                a = rng.randint(1, p - 1)
                values[",".join(("0",) + combo)] = f"{a}/{p}"
                values[",".join(("1",) + combo)] = f"{p - a}/{p}"
            valuations.append({"domain": [cell[i][j]] + parents, "values": values})
    return {
        "kind": "knowledgebase",
        "universe": [{"name": name, "frame": ["0", "1"]} for row in cell for name in row],
        "valuations": valuations,
    }


# sha256 of `vk infer ... --json` on rational potentials: Bell's model at one
# context's pair (a1, b2), and the seed-7 coprime 3x3 Bayesian-network grid
# at the far corner and the centre. The digests pin the exact values fusion
# writes, so a change to how potentials store or reduce their values must
# leave them as they are.
GOLDEN_INFER_RATIONAL_SHA256 = {
    "bell": "497a922db0f5842bcdc5ccab8d7b673a37d3112d41a9ac7e6fce5cea5982ec21",
    "coprime-bn": "1111c2e23de03b48517d33d16100bcda329deeb2cf6da62c889b498a947d1464",
}


def test_rational_infer_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)
    Path("coprime-bn.json").write_text(canonical_json(coprime_bayes_net_document(7)), encoding="utf-8")
    runs = {
        "bell": ("builtin:bell", "a1,b2"),
        "coprime-bn": ("coprime-bn.json", "r2c2,r1c1"),
    }
    for name, expected in GOLDEN_INFER_RATIONAL_SHA256.items():
        source, query = runs[name]
        code, out, err = run_cli("infer", source, "--query", query, "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, name


def test_verify_compiles_a_csp_once(monkeypatch):
    # verify re-checks the witnesses against the knowledgebase its
    # re-derivation compiled, so it compiles a CSP document only once.
    from valkit import documents, reports

    text = canonical_json(grid_colouring_document(2, 2))
    parsed = documents.parse_document_text(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    report = reports.build_report("grid-2x2.json", digest, parsed)
    calls = []
    original = documents.csp_to_knowledgebase

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(documents, "csp_to_knowledgebase", counted)
    assert reports.verify_report(report, parsed, digest) == []
    assert len(calls) == 1


def test_verify_rejects_tampered_report(tmp_path):
    code, out, _ = run_cli("analyze", "builtin:screening", "--json")
    report = json.loads(out)
    report["analysis"]["global"]["witness-index"] = 2
    path = tmp_path / "tampered.json"
    path.write_text(canonical_json(report), encoding="utf-8")
    code, out, err = run_cli("verify", str(path), "builtin:screening")
    assert code == 1
    assert "FAIL" in err


def test_duplicate_json_keys_exit_2(tmp_path):
    # json.loads keeps the last of two equal keys; the parser must refuse them instead.
    doc = tmp_path / "dup.json"
    doc.write_text(
        '{"kind": "knowledgebase", "universe": [{"name": "x", "frame": ["0", "1"]}],'
        ' "valuations": [{"domain": ["x"], "values": {"0": "1/2", "1": "1/2", "0": 0}}]}',
        encoding="utf-8",
    )
    code, _, err = run_cli("analyze", str(doc), "--json")
    assert code == 2
    assert "duplicate key '0'" in err
    code, out, _ = run_cli("analyze", "builtin:screening", "--json")
    assert code == 0
    report = tmp_path / "report.json"
    duplicated = out.replace('"kind": "knowledgebase",', '"kind": "knowledgebase",\n  "kind": "csp",', 1)
    report.write_text(duplicated, encoding="utf-8")
    code, _, err = run_cli("verify", str(report), "builtin:screening")
    assert code == 2
    assert "duplicate key 'kind'" in err


@pytest.mark.parametrize("name", ["screening", "malawi", "hardy"])
def test_verify_solves_each_fusion_problem_once(name, monkeypatch):
    # verify re-derives the analysis and reads the witness checks off it, so it
    # makes no solve_fusion or calibrate call beyond those of the analysis
    # itself. A relation knowledgebase calibrates one join tree, and so does a
    # model, over its supports.
    from valkit import disagreement, inference, reports
    from valkit.cli import _digest, _load_input

    calls = []
    solve_fusion, calibrate = inference.solve_fusion, inference.calibrate

    def counted_fusion(*args, **kwargs):
        calls.append(("solve_fusion", args[0].query))
        return solve_fusion(*args, **kwargs)

    def counted_calibrate(*args, **kwargs):
        calls.append(("calibrate", args[0].joint_domain))
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(inference, "solve_fusion", counted_fusion)
    monkeypatch.setattr(disagreement, "solve_fusion", counted_fusion)
    monkeypatch.setattr(inference, "calibrate", counted_calibrate)
    monkeypatch.setattr(disagreement, "calibrate", counted_calibrate)
    parsed, raw = _load_input(f"builtin:{name}")
    digest = _digest(raw)
    report = reports.build_report(f"builtin:{name}", digest, parsed)
    calls.clear()
    reports.analysis_document(parsed, inference.DEFAULT_CELL_LIMIT)
    analysed = list(calls)
    calls.clear()
    assert reports.verify_report(report, parsed, digest) == []
    assert calls == analysed
    assert analysed


@pytest.mark.parametrize(
    "name, mutations",
    [
        (
            "bell",
            [
                (("analysis", "probabilistic", "certificate", 0, "context"), "zz,yy"),
                (("analysis", "probabilistic", "certificate", 0, "coefficient"), "nonsense"),
                (("analysis", "gamma"), {"size": "huh"}),
                (("analysis",), None),
                (("report",), "other/9"),
            ],
        ),
        (
            "liar(2)",
            [
                (("analysis", "local", "pair"), [1, 2, 3]),
                (("analysis", "local", "pair"), [1]),
                (("analysis", "global", "witness-index"), 0),
            ],
        ),
    ],
    ids=["bell", "liar(2)"],
)
def test_verify_never_crashes_on_mutated_reports(name, mutations, tmp_path):
    # A report whose analysis does not reproduce fails with that one problem,
    # before any of its (possibly malformed) witnesses is read.
    code, out, _ = run_cli("analyze", f"builtin:{name}", "--json")
    for index, (path, value) in enumerate(mutations):
        mutant = json.loads(out)
        target = mutant
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        report = tmp_path / f"mutant{index}.json"
        report.write_text(json.dumps(mutant), encoding="utf-8")
        code, _, err = run_cli("verify", str(report), f"builtin:{name}")
        assert code == 1, (index, err)
        if path != ("report",):
            assert err.splitlines() == ["FAIL: analysis does not reproduce the report"], (index, err)


def test_verify_runs_no_signalling_as_often_as_the_analysis(tmp_path, monkeypatch):
    # A signalling model's verdict is re-derived with the analysis; verify
    # does not check no-signalling a second time.
    from valkit import contextuality, reports
    from valkit.cli import _digest, _load_input

    doc = model_document(bell_model())
    doc["sections"]["a1,b1"] = {"0,0": 1}
    path = tmp_path / "signalling.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    parsed, raw = _load_input(str(path))
    digest = _digest(raw)
    report = reports.build_report(str(path), digest, parsed)
    assert report["analysis"]["class"] is None
    calls = []
    check_no_signalling = contextuality.check_no_signalling

    def counted(model):
        calls.append(model)
        return check_no_signalling(model)

    monkeypatch.setattr(contextuality, "check_no_signalling", counted)
    monkeypatch.setattr(reports, "check_no_signalling", counted, raising=False)
    reports.analysis_document(parsed, None)
    analysed = len(calls)
    calls.clear()
    assert reports.verify_report(report, parsed, digest) == []
    assert len(calls) == analysed == 1


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "{doc}"),
        ("infer", "{doc}", "--query", "a"),
        ("verify", "{doc}", "builtin:bell"),
        ("verify", "{report}", "{doc}"),
    ],
)
@pytest.mark.parametrize(
    "content",
    [b"[" * 100000 + b"]" * 100000, b'{"kind": "csp", "universe": "\xff\xfe"}'],
    ids=["deep", "not-utf8"],
)
def test_hostile_documents_exit_2(args, content, tmp_path):
    # A document nested past the recursion limit, or one that is not UTF-8,
    # is unusable input whether it is analysed, queried or verified.
    doc = tmp_path / "hostile.json"
    doc.write_bytes(content)
    code, out, _ = run_cli("analyze", "builtin:bell", "--json")
    report = tmp_path / "report.json"
    report.write_text(out, encoding="utf-8")
    code, _, err = run_cli(*(arg.format(doc=doc, report=report) for arg in args))
    assert code == 2, err
    assert err.startswith("error:"), err


def test_verify_rejects_wrong_input(tmp_path):
    code, out, _ = run_cli("analyze", "builtin:screening", "--json")
    path = tmp_path / "screening.json"
    path.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(path), "builtin:malawi")
    assert code == 1
    assert "hash" in err


def test_verify_rejects_a_report_of_another_kind(tmp_path):
    code, out, _ = run_cli("analyze", "builtin:screening", "--json")
    report = json.loads(out)
    assert report["kind"] == "knowledgebase"
    report["kind"] = "empirical-model"
    path = tmp_path / "rekinded.json"
    path.write_text(canonical_json(report), encoding="utf-8")
    code, _, err = run_cli("verify", str(path), "builtin:screening")
    assert code == 1
    assert "kind" in err


@pytest.mark.parametrize("source", ["builtin:bell", "cycle6-pc", "cycle6-nc"])
def test_verify_builds_the_marginal_system_once(source, monkeypatch):
    # The re-derived analysis hands its marginal system to the witness checks
    # with its verdict, so verify builds it once, as analyze does.
    from valkit import disagreement, reports
    from valkit.cli import _digest, _load_input
    from valkit.documents import ParsedInput

    if source.startswith("builtin:"):
        parsed, raw = _load_input(source)
        digest = _digest(raw)
    else:
        parsed, digest = ParsedInput("empirical-model", cycle_model(noisy_cycle_correlators(6, source.endswith("pc")))), "0"
    report = reports.build_report(source, digest, parsed)
    calls = []
    marginal_system = disagreement.marginal_system

    def counted(*args, **kwargs):
        calls.append(args[0])
        return marginal_system(*args, **kwargs)

    monkeypatch.setattr(disagreement, "marginal_system", counted)
    monkeypatch.setattr(reports, "marginal_system", counted, raising=False)
    assert reports.verify_report(report, parsed, digest) == []
    assert len(calls) == 1


def wide_documents(n):
    """Three documents, each with one table over n binary variables, written with a single row or none."""
    names = [f"x{i}" for i in range(n)]
    universe = [{"name": name, "frame": ["0", "1"]} for name in names]
    return {
        "csp": {
            "kind": "csp",
            "universe": universe,
            "constraints": [{"scheme": names[:2], "allowed": [["0", "0"]]}],
            "covers": [names],
        },
        "knowledgebase": {"kind": "knowledgebase", "universe": universe, "valuations": [{"domain": names, "values": {}}]},
        "possibilistic": {
            "kind": "empirical-model",
            "universe": universe,
            "model-kind": "possibilistic",
            "contexts": [names],
            "sections": {",".join(names): {",".join("0" * n): 1}},
        },
    }


@pytest.mark.parametrize("name", ["csp", "knowledgebase", "possibilistic"])
@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "{doc}", "--limit", "1000"),
        ("infer", "{doc}", "--query", "x0", "--limit", "1000"),
        ("verify", "{report}", "{doc}"),
    ],
    ids=["analyze", "infer", "verify"],
)
def test_tables_from_a_document_obey_the_cell_limit(name, args, tmp_path, monkeypatch):
    # Every table a document spells out row by row (a CSP cover, a potential
    # member, a model section) is refused before its rows are enumerated. The
    # report under verification gets as far as the analysis, which the CSP
    # compile needs.
    document = wide_documents(14)[name]
    doc = tmp_path / f"{name}.json"
    doc.write_text(canonical_json(document), encoding="utf-8")
    digest = hashlib.sha256(doc.read_bytes()).hexdigest()
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"report": "vk-report/1", "kind": document["kind"], "input-sha256": digest}))
    monkeypatch.setenv("VK_CELL_LIMIT", "1000")
    code, _, err = run_cli(*(arg.format(doc=doc, report=report) for arg in args))
    assert code == 3, err
    assert "would have 16384 cells (limit 1000)" in err


def test_a_possibilistic_query_obeys_the_cell_limit(tmp_path):
    # Two disjoint contexts of 128 cells each pass the limit. A possibilistic
    # query is written as the relation it is, so the query over all 14
    # variables is its one tuple; no table over its 16384-row frame product
    # is built.
    names = [f"x{i}" for i in range(14)]
    contexts = [names[:7], names[7:]]
    document = {
        "kind": "empirical-model",
        "universe": [{"name": name, "frame": ["0", "1"]} for name in names],
        "model-kind": "possibilistic",
        "contexts": contexts,
        "sections": {",".join(ctx): {",".join("0" * 7): 1} for ctx in contexts},
    }
    doc = tmp_path / "disjoint.json"
    doc.write_text(canonical_json(document), encoding="utf-8")
    code, out, err = run_cli("infer", str(doc), "--query", ",".join(names), "--limit", "1000", "--json")
    assert code == 0, err
    assert json.loads(out) == {"query": sorted(names), "type": "relation", "tuples": [["0"] * 14]}


def refuse_wide_rows(monkeypatch):
    """Make enumerating the rows of any domain wider than 12 variables fail."""
    rows = VariableUniverse.rows

    def narrow_rows(universe, domain):
        assert len(domain) <= 12, f"enumerated the rows over {len(domain)} variables"
        return rows(universe, domain)

    monkeypatch.setattr(VariableUniverse, "rows", narrow_rows)


def test_a_wide_possibilistic_section_is_read_as_its_listed_outcomes(tmp_path, monkeypatch):
    # One context over 20 binary measurements lists one outcome. Its section
    # is that one tuple, so neither analyze nor verify enumerates the rows of
    # any domain wider than 12 variables.
    refuse_wide_rows(monkeypatch)
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    doc = tmp_path / "wide.json"
    doc.write_text(canonical_json(wide_documents(20)["possibilistic"]), encoding="utf-8")
    code, out, err = run_cli("analyze", str(doc), "--json")
    assert code == 0, err
    analysis = json.loads(out)["analysis"]
    assert (analysis["class"], analysis["gamma"]["size"]) == ("NC", 1)
    report = tmp_path / "wide.report"
    report.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report), str(doc))
    assert code == 0, err


def test_wide_signalling_marginals_are_written_as_relations(tmp_path, monkeypatch):
    # Two contexts share 19 binary measurements and list one outcome each,
    # which differ on the shared ones. The report's two marginals are those
    # outcomes as one-tuple relations, so neither analyze nor verify
    # enumerates the rows over the overlap.
    refuse_wide_rows(monkeypatch)
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    shared = [f"x{i:02}" for i in range(19)]
    contexts = [shared + ["p"], shared + ["q"]]
    document = {
        "kind": "empirical-model",
        "universe": [{"name": name, "frame": ["0", "1"]} for name in shared + ["p", "q"]],
        "model-kind": "possibilistic",
        "contexts": contexts,
        "sections": {",".join(ctx): {",".join(bit * 20): 1} for ctx, bit in zip(contexts, "01")},
    }
    doc = tmp_path / "signalling.json"
    doc.write_text(canonical_json(document), encoding="utf-8")
    code, out, err = run_cli("analyze", str(doc), "--json")
    assert code == 0, err
    signalling = json.loads(out)["analysis"]["no-signalling"]
    assert signalling["verdict"] == "fail"
    assert [(m["type"], m["domain"], m["tuples"]) for m in signalling["marginals"]] == [
        ("relation", shared, [["0"] * 19]),
        ("relation", shared, [["1"] * 19]),
    ]
    report = tmp_path / "signalling.report"
    report.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report), str(doc))
    assert code == 0, err


def test_analyze_file_input(tmp_path):
    doc = model_document(bell_model())
    path = tmp_path / "bell.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["analysis"]["class"] == "PC"
    assert report["source"] == str(path)


def test_analyze_signalling_model_reports_fail(tmp_path):
    doc = model_document(bell_model())
    doc["sections"]["a1,b1"] = {"0,0": 1}
    path = tmp_path / "signalling.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0  # an analysis with a negative verdict is still a success
    report = json.loads(out)
    assert report["analysis"]["no-signalling"]["verdict"] == "fail"
    assert report["analysis"]["class"] is None


def test_parse_error_exit_code_and_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "csp",\n  nope}', encoding="utf-8")
    code, _, err = run_cli("analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code():
    code, _, err = run_cli("analyze", "no-such-file.json")
    assert code == 2


def test_unknown_builtin_exit_code():
    code, _, err = run_cli("analyze", "builtin:nessie")
    assert code == 2
    assert "unknown builtin" in err


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        run_cli("dance")
    assert exc.value.code == 2


def test_infer_screening_query():
    code, out, _ = run_cli("infer", "builtin:screening", "--query", "e,f")
    assert code == 0
    assert "CBE,2Y" in out and "M,Y" in out
    assert "tuples: 2" in out


def test_infer_takes_no_input_digest(tmp_path, monkeypatch):
    # Only a report records its input's digest, so `vk infer` never takes one.
    from valkit import cli
    from valkit.builtins import builtin
    from valkit.documents import document_for

    def refuse(raw):
        raise AssertionError("vk infer hashed its input")

    path = tmp_path / "screening.json"
    path.write_text(canonical_json(document_for(builtin("screening"))), encoding="utf-8")
    monkeypatch.setattr(cli, "_digest", refuse)
    for source in ("builtin:screening", str(path)):
        code, out, _ = run_cli("infer", source, "--query", "e,f")
        assert code == 0 and "tuples: 2" in out, source


def test_infer_malawi_empty_table():
    code, out, _ = run_cli("infer", "builtin:malawi", "--query", "MOZ,MWI")
    assert code == 0
    assert "tuples: 0" in out


def test_method_flag_is_an_unknown_option():
    # Every verdict and every query has one route, so there is no method to choose.
    for argv in (
        ("analyze", "builtin:screening", "--method", "naive"),
        ("infer", "builtin:screening", "--query", "a,e", "--method", "naive"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv


def test_infer_respects_explicit_order():
    code, out, _ = run_cli("infer", "builtin:malawi", "--query", "MOZ,MWI", "--order", "TZA,ZMB,ZWE")
    assert code == 0
    assert "tuples: 0" in out
    code, _, err = run_cli("infer", "builtin:malawi", "--query", "MOZ,MWI", "--order", "TZA")
    assert code == 2


def test_infer_on_empirical_model_gives_potential():
    code, out, _ = run_cli("infer", "builtin:bell", "--query", "a1,b1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "potential"


def test_cell_limit_flag_and_env(tmp_path, monkeypatch):
    code, _, err = run_cli("analyze", "builtin:malawi", "--limit", "2")
    assert code == 3
    # The flag passes the same positive-integer check as VK_CELL_LIMIT.
    for command in (("analyze", "builtin:screening"), ("infer", "builtin:screening", "--query", "a")):
        for limit in ("0", "-5"):
            code, _, err = run_cli(*command, "--limit", limit)
            assert code == 2, (command, limit, err)
            assert "--limit must be positive" in err
    monkeypatch.setenv("VK_CELL_LIMIT", "2")
    code, _, err = run_cli("analyze", "builtin:malawi")
    assert code == 3
    monkeypatch.setenv("VK_CELL_LIMIT", "not-a-number")
    code, _, err = run_cli("analyze", "builtin:malawi")
    assert code == 2
    monkeypatch.delenv("VK_CELL_LIMIT")
    code, _, _ = run_cli("analyze", "builtin:malawi")
    assert code == 0


def test_analyze_csp_file(tmp_path):
    from valkit.builtins import malawi_csp
    from valkit.documents import CSPDocumentPayload, csp_document

    csp = malawi_csp()
    payload = CSPDocumentPayload(csp, tuple(c.scheme_set for c in csp.constraints))
    path = tmp_path / "malawi.json"
    path.write_text(canonical_json(csp_document(payload)), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "csp"
    assert report["analysis"]["local"]["verdict"] == "pass"
    assert report["analysis"]["complete-disagreement"] is True
    report_path = tmp_path / "malawi-report.json"
    report_path.write_text(out, encoding="utf-8")
    code, out, err = run_cli("verify", str(report_path), str(path))
    assert code == 0, err


def test_verify_report_made_with_naive_method(tmp_path):
    # Older versions of vk wrote "naive" here on request; verify does not read the field.
    code, out, _ = run_cli("analyze", "builtin:screening", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "fusion"
    report["method"] = "naive"
    path = tmp_path / "naive.json"
    path.write_text(canonical_json(report), encoding="utf-8")
    code, _, err = run_cli("verify", str(path), "builtin:screening")
    assert code == 0, err


def test_verify_ignores_the_cell_limit_in_the_report(tmp_path, monkeypatch):
    # A report cannot switch off the resource guard that bounds its own
    # checking: verify runs under the caller's VK_CELL_LIMIT.
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    code, out, _ = run_cli("analyze", "builtin:malawi", "--json")
    assert code == 0
    report = json.loads(out)
    report["cell-limit"] = None
    path = tmp_path / "malawi-no-limit.json"
    path.write_text(canonical_json(report), encoding="utf-8")
    monkeypatch.setenv("VK_CELL_LIMIT", "2")
    code, out, err = run_cli("verify", str(path), "builtin:malawi")
    assert code == 3, (out, err)
    assert "ok" not in out


def test_empty_domain_potential_file_analysis(tmp_path):
    from valkit.documents import knowledgebase_document

    path = tmp_path / "empty-domain.json"
    path.write_text(canonical_json(knowledgebase_document(empty_domain_potential_kb())), encoding="utf-8")
    code, out, err = run_cli("analyze", str(path), "--json")
    assert code == 0, err
    assert json.loads(out)["analysis"]["global"]["verdict"] == "agree"
    report_path = tmp_path / "empty-domain-report.json"
    report_path.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report_path), str(path))
    assert code == 0, err


def test_potential_knowledgebase_file_analysis(tmp_path):
    from valkit.documents import knowledgebase_document

    kb = bell_model().knowledgebase()
    path = tmp_path / "bell-kb.json"
    path.write_text(canonical_json(knowledgebase_document(kb)), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["analysis"]["local"]["verdict"] == "pass"  # no-signalling as local agreement
    assert report["analysis"]["global"]["verdict"] == "disagree"
    assert "certificate" in report["analysis"]["global"]
    report_path = tmp_path / "bell-kb-report.json"
    report_path.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report_path), str(path))
    assert code == 0, err


def test_agreeing_knowledgebase_report_and_verify(tmp_path):
    from valkit.builtins import liar_knowledgebase
    from valkit.documents import knowledgebase_document

    kb = liar_knowledgebase(4, consistent=True)
    path = tmp_path / "agree.json"
    path.write_text(canonical_json(knowledgebase_document(kb)), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["analysis"]["global"]["verdict"] == "agree"
    truth = report["analysis"]["global"]["truth"]
    assert truth["type"] == "relation" and truth["size"] == 2
    report_path = tmp_path / "agree-report.json"
    report_path.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report_path), str(path))
    assert code == 0, err


def test_agreeing_potential_knowledgebase_report_and_verify(tmp_path):
    from fractions import Fraction

    from valkit.algebra import Knowledgebase
    from valkit.core import NONNEG_RATIONAL
    from valkit.documents import knowledgebase_document
    from valkit.potentials import constant_potential

    model = bell_model()
    universe = model.scenario.universe
    sections = tuple(
        constant_potential(universe, frozenset(ctx), NONNEG_RATIONAL, Fraction(1, 4))
        for ctx in model.scenario.contexts
    )
    kb = Knowledgebase(universe, sections)
    path = tmp_path / "uniform.json"
    path.write_text(canonical_json(knowledgebase_document(kb)), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["analysis"]["global"]["verdict"] == "agree"
    assert report["analysis"]["global"]["truth"]["type"] == "potential"
    report_path = tmp_path / "uniform-report.json"
    report_path.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report_path), str(path))
    assert code == 0, err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "valkit", "list-builtins"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "bell" in proc.stdout


# Modules that only `dataclasses` brought onto valkit's import path: `dataclasses`
# itself and the `inspect` chain it imports. `hashlib` and OpenSSL's `_hashlib`
# load only when a report's input digest is taken.
STARTUP_FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize", "hashlib", "_hashlib")


def loaded_modules(code: str) -> set[str]:
    """The names in `sys.modules` of a child that ran `code`, started as a valkit child is."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_adds_no_dataclasses_or_inspect():
    # Compared with a bare child, not with a fixed list: `site` hooks may
    # preload modules (`re`, `enum`, `typing`, `random`) before any import.
    added = loaded_modules("import valkit.cli") - loaded_modules("pass")
    assert "valkit.cli" in added and "valkit.core" in added
    assert sorted(added.intersection(STARTUP_FORBIDDEN)) == []
