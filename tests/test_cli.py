import argparse
import builtins
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import valkit
from valkit.cli import COMMANDS, cmd_analyze, cmd_infer, cmd_list_builtins, cmd_verify, main, parse_argv
from valkit.documents import canonical_json, model_document
from valkit.builtins import bell_model
from valkit.contextuality import possibilistic_model
from valkit.core import VariableUniverse

from conftest import (
    coprime_bayes_net_document,
    csp_document,
    cycle_model,
    empty_domain_potential_kb,
    full_cycle_model,
    grid_colouring_document,
    noisy_cycle_correlators,
    split_components_document,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


def test_the_4x4_grid_is_reported_without_joining_gamma(tmp_path, monkeypatch):
    # Its 7812 colourings are past TUPLE_CAP: the report gives their count
    # off the calibrated tree, byte for byte as when they were joined.
    from valkit.inference import JoinTree

    def refuse(tree):
        raise AssertionError("Gamma was joined")

    monkeypatch.setattr(JoinTree, "combination", refuse)
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)
    Path("grid-4x4.json").write_text(canonical_json(grid_colouring_document(4, 4)), encoding="utf-8")
    code, out, err = run_cli("analyze", "grid-4x4.json", "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_JOIN_TREE_SHA256["grid-4x4.json"]
    Path("grid-4x4.json.report").write_text(out, encoding="utf-8")
    assert run_cli("verify", "grid-4x4.json.report", "grid-4x4.json")[0] == 0


@pytest.mark.parametrize(
    "name, document, limit, size",
    [
        ("grid-5x5.json", lambda: grid_colouring_document(5, 5), "100000", 580986),
        ("cycle-24.json", lambda: model_document(full_cycle_model(24)), "4096", 16777216),
    ],
)
def test_a_small_limit_answers_a_gamma_it_counts(name, document, limit, size, tmp_path):
    # The 5x5 grid's root-first join and the possibilistic 24-cycle's used to
    # exceed these limits; counting Gamma joins nothing, so both are answered.
    path = tmp_path / name
    path.write_text(canonical_json(document()), encoding="utf-8")
    code, out, err = run_cli("analyze", str(path), "--json", "--limit", limit)
    assert code == 0, err
    analysis = json.loads(out)["analysis"]
    gamma = analysis["gamma"] if "class" in analysis else analysis["global"]["truth"]
    assert gamma["size"] == size and gamma["omitted"] is True
    assert analysis.get("class", "NC") == "NC"
    report = tmp_path / f"{name}.report"
    report.write_text(out, encoding="utf-8")
    assert run_cli("verify", str(report), str(path))[0] == 0


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


# (exit status, sha256 of stdout, sha256 of stderr) of `vk infer FILE --query
# v0 --json` and `vk analyze FILE --json` on a "values" member over 20 binary
# variables that lists one row, recorded while every potential was stored with
# all its zeros. The analysis is refused by the LP's column limit.
GOLDEN_ONE_ROW_SHA256 = {
    ("infer", "--query", "v0", "--json"): (
        0,
        "9b2c7d75d5c27e9914c778c0cc1f59999d5cdbcf7ffebcf02fc1947fa62961c8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("analyze", "--json"): (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "79d2ee2f5a140733a2c8dfb0386b77f254f05cef14163db44f3f626e83b6bb15",
    ),
}


def test_a_one_row_member_over_twenty_variables_stores_one_numerator(tmp_path, monkeypatch):
    from valkit.documents import parse_document_text

    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)
    names = [f"v{i}" for i in range(20)]
    document = canonical_json(
        {
            "kind": "knowledgebase",
            "universe": [{"name": name, "frame": ["0", "1"]} for name in names],
            "valuations": [{"domain": names, "values": {",".join("0" * 20): 1}}],
        }
    )
    (member,) = parse_document_text(document).knowledgebase()
    assert member.table.nums == {("0",) * 20: 1} and len(member.table) == 2**20
    Path("one-row.json").write_text(document, encoding="utf-8")
    for (command, *options), expected in GOLDEN_ONE_ROW_SHA256.items():
        code, out, err = run_cli(command, "one-row.json", *options)
        digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, err))
        assert (code, *digests) == expected, command


# stderr of `vk infer --limit` on the seed-7 coprime 3x3 grid under one fixed
# order: the first refusal is a two-member bucket's step (the fused message's
# guard), the second a later bucket's. The guard's bound and text are pinned.
GOLDEN_INFER_REFUSALS = {
    "16": "error: intermediate combination over ['r1c1', 'r1c2', 'r2c0', 'r2c1', 'r2c2'] "
    "could reach 32 cells (limit 16)\n",
    "32": "error: intermediate combination over ['r0c0', 'r0c1', 'r0c2', 'r1c0', 'r1c1', 'r2c2'] "
    "could reach 64 cells (limit 32)\n",
}


def test_an_infer_refusal_under_a_fixed_order_is_pinned(tmp_path):
    doc = tmp_path / "coprime-bn.json"
    doc.write_text(canonical_json(coprime_bayes_net_document(7)), encoding="utf-8")
    order = "r2c1,r2c0,r1c2,r1c0,r0c2,r0c1,r0c0"
    for limit, expected in GOLDEN_INFER_REFUSALS.items():
        code, out, err = run_cli("infer", str(doc), "--query", "r2c2,r1c1", "--order", order, "--limit", limit)
        assert (code, out, err) == (3, "", expected), limit
    code, _, err = run_cli("infer", str(doc), "--query", "r2c2,r1c1", "--order", order, "--limit", "64")
    assert code == 0, err


def test_infer_reads_a_given_order_before_barren_members_are_dropped(tmp_path, monkeypatch):
    # Each query below leaves some CPTs of the 4 x 4 grid barren. A given
    # --order is still checked against every non-query variable, with the
    # same text; once valid, it is answered with the bytes of fusion over the
    # whole knowledgebase.
    from valkit import inference

    doc = tmp_path / "coprime-bn.json"
    doc.write_text(canonical_json(coprime_bayes_net_document(7, 4, 3)), encoding="utf-8")
    names = [f"r{i}c{j}" for i in range(4) for j in range(4)]
    for query in ("r0c3", "r3c0,r2c2", "r0c1,r1c0"):
        others = sorted(set(names) - set(query.split(",")))
        for order in (others[1:], others + ["r3c3"], ["r3c3"]):
            code, out, err = run_cli("infer", str(doc), "--query", query, "--order", ",".join(order))
            expected = f"error: elimination order must be a permutation of {others}, got {order}\n"
            assert (code, out, err) == (2, "", expected), (query, order)
        for order in (others, others[::-1]):
            argv = ("infer", str(doc), "--query", query, "--order", ",".join(order), "--json")
            pruned = run_cli(*argv)
            with monkeypatch.context() as patch:
                patch.setattr(inference, "drop_barren", lambda kb, query: kb)
                assert run_cli(*argv) == pruned and pruned[0] == 0, (query, order)


def test_verify_compiles_a_csp_once(tmp_path, monkeypatch):
    # A CSP document is compiled when it is parsed, and verify re-derives the
    # analysis and checks the witnesses against that one knowledgebase.
    from valkit import documents

    doc = tmp_path / "grid-2x2.json"
    doc.write_text(canonical_json(grid_colouring_document(2, 2)), encoding="utf-8")
    code, out, err = run_cli("analyze", str(doc), "--json")
    assert code == 0, err
    report = tmp_path / "report.json"
    report.write_text(out, encoding="utf-8")
    calls = []
    original = documents.csp_to_knowledgebase

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(documents, "csp_to_knowledgebase", counted)
    code, _, err = run_cli("verify", str(report), str(doc))
    assert code == 0, err
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


def test_a_section_that_is_not_normalised_exits_2(tmp_path):
    doc = model_document(bell_model())
    doc["sections"]["a1,b2"] = {"0,0": "1/4", "1,1": "1/4"}
    path = tmp_path / "half.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, err = run_cli("analyze", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: section over ('a1', 'b2') projects onto ∅ as Potential[∅|nonneg-rational]{(*)->1/2}, "
        "not the neutral element\n"
    )


def test_an_integer_past_the_digit_limit_exits_2(tmp_path):
    # int() refuses a literal of more than 4300 digits; that is a malformed
    # document or report, not a crash.
    huge = "7" * 5000
    doc = tmp_path / "huge.json"
    doc.write_text(
        '{"kind": "knowledgebase", "universe": [{"name": "x", "frame": ["0", "1"]}],'
        f' "valuations": [{{"domain": ["x"], "values": {{"0": {huge}, "1": 1}}}}]}}',
        encoding="utf-8",
    )
    code, _, err = run_cli("analyze", str(doc), "--json")
    assert (code, err) == (2, "error: invalid JSON: an integer literal has too many digits\n")
    code, out, _ = run_cli("analyze", "builtin:screening", "--json")
    assert code == 0
    report = tmp_path / "report.json"
    report.write_text(out.replace('"report":', f'"huge": {huge},\n  "report":', 1), encoding="utf-8")
    code, _, err = run_cli("verify", str(report), "builtin:screening")
    assert (code, err) == (2, "error: invalid report JSON: an integer literal has too many digits\n")


# str() of an int past the interpreter's limit on digits (4300 by default)
# raises ValueError. Such a result cannot be written, and a report holding it
# could not be read back, so vk refuses it with exit 3 and writes nothing.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not 0 < DIGIT_LIMIT <= 4300, reason="no limit of at most 4300 digits on str() of an int")
TOO_LONG = (3, "", "error: a result holds a number too long to write\n")


@needs_digit_limit
@pytest.mark.parametrize("flags", [("--json",), ()], ids=["json", "human"])
def test_infer_refuses_a_result_too_long_to_write(tmp_path, flags):
    # Each member has one 3001-digit value, which analyze writes back; their
    # product holds its square, of 6001 digits.
    big = "7" * 3001
    doc = tmp_path / "big.json"
    doc.write_text(
        '{"kind": "knowledgebase", "universe": [{"name": "x", "frame": ["0", "1"]}, {"name": "y", "frame": ["0", "1"]}],'
        f' "valuations": [{{"domain": ["x"], "values": {{"0": {big}, "1": 1}}}},'
        f' {{"domain": ["y"], "values": {{"0": {big}, "1": 1}}}}]}}',
        encoding="utf-8",
    )
    assert run_cli("infer", str(doc), "--query", "x,y", *flags) == TOO_LONG
    assert run_cli("analyze", str(doc), *flags)[0] == 0


@needs_digit_limit
def test_analyze_refuses_a_gamma_size_too_long_to_write(tmp_path):
    # 9100 members, each the full frame of its own 3-valued variable: Gamma
    # has 3^9100 tuples, a count of 4342 digits. The human report of a
    # knowledgebase prints no size, so it still answers.
    names = [f"v{i}" for i in range(9100)]
    document = {
        "kind": "knowledgebase",
        "universe": [{"name": name, "frame": ["a", "b", "c"]} for name in names],
        "valuations": [{"domain": [name], "tuples": [["a"], ["b"], ["c"]]} for name in names],
    }
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps(document), encoding="utf-8")
    assert run_cli("analyze", str(doc), "--json") == TOO_LONG
    code, out, err = run_cli("analyze", str(doc))
    assert (code, err) == (0, "")
    assert "global agreement: agree" in out


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
    digest = _digest(parsed, raw)
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
    digest = _digest(parsed, raw)
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
        digest = _digest(parsed, raw)
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
    # Every table a document fills out row by row (a CSP cover, a potential
    # member) is refused before its rows are enumerated, as the document is
    # parsed, so a stub report under verification suffices. A possibilistic
    # section is only its listed outcome, so it is answered and verified
    # without enumerating its 16384-row frame product.
    document = wide_documents(14)[name]
    doc = tmp_path / f"{name}.json"
    doc.write_text(canonical_json(document), encoding="utf-8")
    digest = hashlib.sha256(doc.read_bytes()).hexdigest()
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"report": "vk-report/1", "kind": document["kind"], "input-sha256": digest}))
    monkeypatch.setenv("VK_CELL_LIMIT", "1000")
    if name == "possibilistic":
        refuse_wide_rows(monkeypatch)
        code, out, err = run_cli("analyze", str(doc), "--json")
        assert code == 0, err
        report.write_text(out, encoding="utf-8")
    code, out, err = run_cli(*(arg.format(doc=doc, report=report) for arg in args))
    if name != "possibilistic":
        assert code == 3, err
        assert "would have 16384 cells (limit 1000)" in err
        return
    assert code == 0, err
    expected = {"analyze": "class: NC\n", "infer": "query: x0\ntuples: 1\n  0\n", "verify": "ok: report verifies"}[args[0]]
    assert expected in out


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
    # One context over 24 binary measurements lists one outcome. Its section
    # is that one tuple, so neither analyze nor verify enumerates the rows of
    # any domain wider than 12 variables, and the frame product of 2^24
    # cells, past the default limit, is never built or refused.
    refuse_wide_rows(monkeypatch)
    monkeypatch.delenv("VK_CELL_LIMIT", raising=False)
    doc = tmp_path / "wide.json"
    doc.write_text(canonical_json(wide_documents(24)["possibilistic"]), encoding="utf-8")
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


BIT_UNIVERSE = [{"name": "x", "frame": ["0", "1"]}, {"name": "y", "frame": ["0", "1"]}]


def human_analysis_documents():
    """One document for each branch of the human analysis output, with the lines `vk analyze` prints for it."""
    from valkit.documents import knowledgebase_document

    signalling = model_document(bell_model())
    signalling["sections"]["a1,b1"] = {"0,0": 1}
    local_failure = {
        "kind": "knowledgebase",
        "universe": BIT_UNIVERSE,
        "valuations": [{"domain": ["x"], "tuples": [["0"]]}, {"domain": ["x", "y"], "tuples": [["1", "0"]]}],
    }
    agreeing = {
        "kind": "knowledgebase",
        "universe": BIT_UNIVERSE,
        "valuations": [
            {"domain": ["x"], "tuples": [["0"], ["1"]]},
            {"domain": ["x", "y"], "tuples": [["0", "0"], ["1", "1"]]},
        ],
    }
    contextual_cycle = knowledgebase_document(cycle_model(noisy_cycle_correlators(4, True)).knowledgebase())
    return {
        "signalling": (
            signalling,
            ["kind: empirical-model", "no-signalling: fail", "class: not classified (signalling model)"],
        ),
        "local-failure": (
            local_failure,
            [
                "kind: knowledgebase",
                "local agreement: fail",
                "  disagreeing pair: [1, 2]",
                "global agreement: disagree (witness member 1)",
                "complete disagreement: yes",
            ],
        ),
        "agreeing": (
            agreeing,
            ["kind: knowledgebase", "local agreement: pass", "global agreement: agree", "complete disagreement: no"],
        ),
        "certificate": (
            contextual_cycle,
            [
                "kind: knowledgebase",
                "local agreement: pass",
                "global agreement: disagree (infeasibility certificate)",
                "complete disagreement: no",
            ],
        ),
    }


@pytest.mark.parametrize("name", ["signalling", "local-failure", "agreeing", "certificate"])
def test_analyze_human_output_lines(tmp_path, name):
    doc, lines = human_analysis_documents()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path))
    assert code == 0
    printed = out.splitlines()
    assert printed[-1].startswith("time: ") and printed[-1].endswith(" ms")
    assert printed[:-1] == [f"source: {path}"] + lines


# A constraint that allows nothing leaves no evaluation on any cover, even
# one it shares no variable with: a nullary one under its own default cover
# (the empty scheme), and one over y under the explicit cover {x}.
UNSATISFIABLE_CSPS = {
    "nullary": {
        "kind": "csp",
        "universe": BIT_UNIVERSE[:1],
        "constraints": [{"scheme": ["x"], "allowed": [["0"], ["1"]]}, {"scheme": [], "allowed": []}],
    },
    "disjoint": {
        "kind": "csp",
        "universe": BIT_UNIVERSE,
        "constraints": [{"scheme": ["x"], "allowed": [["0"], ["1"]]}, {"scheme": ["y"], "allowed": []}],
        "covers": [["x"]],
    },
}


@pytest.mark.parametrize("name", sorted(UNSATISFIABLE_CSPS))
def test_an_unsatisfiable_constraint_disagrees_completely(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(UNSATISFIABLE_CSPS[name]), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path))
    assert code == 0
    assert "complete disagreement: yes" in out.splitlines()
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["analysis"]["complete-disagreement"] is True
    report = tmp_path / f"{name}.report"
    report.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report), str(path))
    assert code == 0, err


def test_a_relation_past_the_tuple_cap_is_written_by_its_size(tmp_path):
    # The full relation over 13 bits (8192 rows) beside {v00 = 0}: the global
    # witness is the full member, past the cap, and its projection of the
    # combination, 4096 rows, within it.
    from itertools import product

    names = [f"v{i:02d}" for i in range(13)]
    doc = {
        "kind": "knowledgebase",
        "universe": [{"name": name, "frame": ["0", "1"]} for name in names],
        "valuations": [
            {"domain": names, "tuples": [list(row) for row in product("01", repeat=13)]},
            {"domain": ["v00"], "tuples": [["0"]]},
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, out, _ = run_cli("analyze", str(path), "--json")
    assert code == 0
    verdict = json.loads(out)["analysis"]["global"]
    assert verdict["witness-index"] == 1
    assert verdict["member"] == {"type": "relation", "domain": names, "size": 8192, "omitted": True}
    projected = verdict["projected"]
    assert projected["size"] == 4096
    assert projected["tuples"] == [["0"] + list(row) for row in product("01", repeat=12)]
    report = tmp_path / "wide.report"
    report.write_text(out, encoding="utf-8")
    code, _, err = run_cli("verify", str(report), str(path))
    assert code == 0, err


def test_parse_error_exit_code_and_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "csp",\n  nope}', encoding="utf-8")
    code, _, err = run_cli("analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_verify_of_a_report_that_is_not_an_object_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    code, out, err = run_cli("verify", str(path), "builtin:bell")
    assert (code, out, err) == (2, "", "error: report must be a JSON object\n")


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

    def refuse(parsed, raw):
        raise AssertionError("vk infer hashed its input")

    path = tmp_path / "screening.json"
    path.write_text(canonical_json(document_for(builtin("screening"))), encoding="utf-8")
    monkeypatch.setattr(cli, "_digest", refuse)
    for source in ("builtin:screening", str(path)):
        code, out, _ = run_cli("infer", source, "--query", "e,f")
        assert code == 0 and "tuples: 2" in out, source


def test_infer_renders_no_builtin_document(monkeypatch):
    # Only a report's digest covers a builtin's canonical document, so `vk
    # infer` never renders one; its query output here is human-readable.
    from valkit import cli, documents

    calls = []

    def counted(original):
        def wrapper(document):
            calls.append(document)
            return original(document)

        return wrapper

    for module in (cli, documents):
        monkeypatch.setattr(module, "canonical_json", counted(module.canonical_json))
    code, out, err = run_cli("infer", "builtin:bell", "--query", "a1")
    assert code == 0, err
    assert out.startswith("query: a1\n")
    assert calls == []


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


def test_order_and_query_are_read_as_one_kind_of_comma_list():
    # Both flags strip their names and drop empty entries, so a trailing or
    # doubled comma means the same in either.
    expected = run_cli("infer", "builtin:malawi", "--query", "MOZ,MWI", "--order", "TZA,ZMB,ZWE")
    assert expected[0] == 0
    for query, order in (("MOZ,MWI,", "TZA,ZMB,ZWE,"), (" MOZ ,, MWI", " TZA,,ZMB , ZWE ")):
        assert run_cli("infer", "builtin:malawi", "--query", query, "--order", order) == expected, (query, order)
    code, _, err = run_cli("infer", "builtin:malawi", "--query", "MOZ,MWI", "--order", "TZA,ZMB,")
    assert code == 2 and err.endswith("got ['TZA', 'ZMB']\n"), err
    # A given --order is read as given, even when it names no variable: it is
    # refused like any other order that leaves variables out.
    for order in ("", ","):
        code, _, err = run_cli("infer", "builtin:malawi", "--query", "MOZ,MWI", "--order", order)
        assert code == 2 and err.endswith("got []\n"), (order, err)


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
    from valkit.builtins import malawi_constraints

    edges = malawi_constraints()
    path = tmp_path / "malawi.json"
    path.write_text(canonical_json(csp_document(edges[0].universe, edges, [e.domain for e in edges])), encoding="utf-8")
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
    from valkit.documents import knowledgebase_document
    from valkit.potentials import constant_potential

    model = bell_model()
    universe = model.scenario.universe
    sections = tuple(
        constant_potential(universe, frozenset(ctx), Fraction(1, 4))
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


# Neither the argv parse nor the report digest loads these: argparse brings
# gettext, and hashlib brings OpenSSL's _hashlib.
ARGV_AND_DIGEST_FORBIDDEN = ("argparse", "gettext", "hashlib", "_hashlib")
# Modules that only `dataclasses` brought onto valkit's import path: `dataclasses`
# itself and the `inspect` chain it imports.
STARTUP_FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize", *ARGV_AND_DIGEST_FORBIDDEN)


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


def at_exit(*args: str, report: str, plant: str = "") -> tuple[int, list[str]]:
    """A `python -m valkit ARGS` child's exit status and the words `report` gives when it exits.

    The child runs valkit as `-m` does, through `runpy`, after `plant` (code
    that may import more). An `atexit` hook prints `report`, an expression
    that may name `gc` and `sys`, as the last line of stdout.
    """
    code = (
        "import atexit, gc, runpy, sys\n"
        f"{plant}\n"
        f"atexit.register(lambda: print('\\nat exit:', {report}))\n"
        "runpy.run_module('valkit', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=child_env())
    last = proc.stdout.splitlines()[-1].split()
    assert last[:2] == ["at", "exit:"], proc.stdout + proc.stderr
    return proc.returncode, last[2:]


def modules_at_exit(*args: str, plant: str = "") -> set[str]:
    """The names in `sys.modules` when a `python -m valkit ARGS` child exits with status 0."""
    code, modules = at_exit(*args, report="*sys.modules", plant=plant)
    assert code == 0, modules
    return set(modules)


def test_no_command_loads_argparse_or_hashlib(tmp_path):
    report = tmp_path / "bell-report.json"
    code, out, err = run_cli("analyze", "builtin:bell", "--json")
    assert code == 0, err
    report.write_text(out, encoding="utf-8")
    for command in (
        ("analyze", "builtin:bell", "--json"),
        ("verify", str(report), "builtin:bell"),
        ("infer", "builtin:screening", "--query", "e,f"),
    ):
        loaded = modules_at_exit(*command)
        assert "valkit.cli" in loaded, command
        assert sorted(loaded.intersection(ARGV_AND_DIGEST_FORBIDDEN)) == [], command


def test_the_module_check_sees_a_planted_import():
    loaded = modules_at_exit("list-builtins", plant="import argparse, hashlib")
    assert sorted(loaded.intersection(ARGV_AND_DIGEST_FORBIDDEN)) == sorted(ARGV_AND_DIGEST_FORBIDDEN)


@pytest.mark.parametrize(
    "args, status", [(("analyze", "builtin:bell", "--json"), 0), (("analyze",), 2), (("--help",), 0)]
)
def test_a_vk_process_exits_with_its_heap_frozen(args, status):
    code, words = at_exit(*args, report="gc.get_freeze_count()")
    assert code == status
    assert int(words[0]) > 0


def test_main_in_process_freezes_nothing():
    before = gc.get_freeze_count()
    code, out, err = run_cli("analyze", "builtin:bell", "--json")
    assert code == 0, err
    with pytest.raises(SystemExit), redirect_stderr(io.StringIO()):
        main(["analyze"])
    assert gc.get_freeze_count() == before


def test_the_vk_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(PYPROJECT, "rb") as handle:
        assert tomllib.load(handle)["project"]["scripts"]["vk"] == "valkit.cli:run"


def test_running_out_of_memory_exits_3(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("valkit.cli.build_report", exhausted)
    assert run_cli("analyze", "builtin:bell", "--json") == (3, "", "error: out of memory\n")


def test_the_digest_tries_one_hash_module(monkeypatch):
    from valkit.cli import _sha256

    tried = []
    real_import = builtins.__import__

    def recording(name, *args, **kwargs):
        tried.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", recording)
    _sha256()
    monkeypatch.undo()
    expected = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert [name for name in tried if name in ("_sha2", "_sha256")] == [expected]


def test_the_digest_falls_back_on_hashlib(monkeypatch):
    # A None entry in sys.modules makes the import raise ImportError, as on a
    # build without the built-in module.
    from valkit.cli import _sha256

    monkeypatch.setitem(sys.modules, "_sha2" if sys.version_info >= (3, 12) else "_sha256", None)
    assert _sha256() is hashlib.sha256


def test_digest_is_hashlib_sha256(tmp_path):
    # The built-in SHA-256 module gives hashlib's digest, of a file's raw bytes
    # and of every builtin's canonical document alike.
    from valkit.builtins import BUILTINS
    from valkit.cli import _digest, _load_input
    from valkit.documents import document_for

    path = tmp_path / "bell.json"
    # Not the canonical document: the digest is of the bytes as they are.
    path.write_bytes(b"\t" + canonical_json(model_document(bell_model())).encode("utf-8").replace(b"\n", b"\r\n"))
    parsed, raw = _load_input(str(path))
    assert raw == path.read_bytes()
    assert _digest(parsed, raw) == hashlib.sha256(raw).hexdigest()
    names = [spec.name.replace("(n)", "(5)") for spec in BUILTINS]
    assert "liar(5)" in names
    for name in names:
        parsed, raw = _load_input(f"builtin:{name}")
        assert raw is None, name
        document = canonical_json(document_for(parsed.payload)).encode("utf-8")
        assert _digest(parsed, raw) == hashlib.sha256(document).hexdigest(), name


# The argv grammar. `make_parser` is the argparse parser that `vk` used
# before its table-driven parse; it is kept here, unchanged, as the oracle
# that `cli.parse_argv` must agree with.


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vk",
        description="Agreement and contextuality analysis for valuation-algebra knowledgebases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a model or knowledgebase and emit a report")
    analyze.add_argument("source", help="input file or builtin:NAME (see list-builtins)")
    analyze.add_argument("--json", action="store_true", help="emit the machine-readable report")
    analyze.add_argument("--limit", default=None, help="intermediate-table cell limit")
    analyze.set_defaults(func=cmd_analyze)

    infer = sub.add_parser("infer", help="project the combined knowledgebase onto a query")
    infer.add_argument("source", help="input file or builtin:NAME")
    infer.add_argument("--query", required=True, help="comma-separated query variables")
    infer.add_argument("--order", default=None, help="comma-separated elimination order")
    infer.add_argument("--limit", default=None, help="intermediate-table cell limit")
    infer.add_argument("--json", action="store_true")
    infer.set_defaults(func=cmd_infer)

    listing = sub.add_parser("list-builtins", help="list the built-in models and knowledgebases")
    listing.add_argument("--describe", action="store_true")
    listing.set_defaults(func=cmd_list_builtins)

    verify = sub.add_parser("verify", help="re-check a report against its input")
    verify.add_argument("report", help="report JSON produced by analyze --json")
    verify.add_argument("source", help="the input file or builtin:NAME the report was produced from")
    verify.set_defaults(func=cmd_verify)

    return parser


ORACLE = make_parser()


def oracle_parse(argv: list[str]):
    """argparse's reading of `argv`: (exit status, command, fields), with the command's handler checked.

    A refused argv, or `-h`, gives (exit status, stderr) instead.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            namespace = ORACLE.parse_args(argv)
    except SystemExit as exc:
        return exc.code, err.getvalue()
    fields = vars(namespace)
    command = fields.pop("command")
    assert fields.pop("func") is COMMANDS[command].handler, command
    return 0, command, fields


def table_parse(argv: list[str]):
    """`parse_argv`'s reading of `argv`, in `oracle_parse`'s terms."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return (0, *parse_argv(argv))
    except SystemExit as exc:
        return exc.code, err.getvalue()


WORDS = ("builtin:bell", "e,f", "MOZ,MWI", "report.json", "5", "x", "a b", "-a b", "-.5", "-5.0", "--x")


def argv_corpus(seed: int, count: int) -> list[list[str]]:
    """Seeded argvs over every command, its options and the tokens argparse treats specially.

    Half are random strings of tokens: commands, every option whole,
    abbreviated and as `--opt=value`, `-h`, `--help`, `--`, `-5`, `-x`, `""`
    and plain words. The other half start as a well-formed command line, in
    shuffled order and with options written in any of those forms, and then
    may lose a token or gain one from the first pool.
    """
    rng = random.Random(seed)
    values = WORDS + ("", "-5", "-x", "--")
    tokens = list(COMMANDS) + ["-h", "--help", "--", "-5", "-x", "", "--bogus", "--he", *WORDS]
    options = sorted({option for spec in COMMANDS.values() for option, _, _ in spec.options} | {"--help"})
    for option in options:
        tokens.extend(option[:cut] for cut in range(3, len(option) + 1))
        tokens.extend(f"{option[:cut]}={rng.choice(values)}" for cut in (3, len(option)))

    def written(option: str, takes_value: bool) -> list[str]:
        name = option[: rng.randrange(3, len(option) + 1)]
        if not takes_value:
            return [name]
        value = rng.choice(values)
        return [f"{name}={value}"] if rng.random() < 0.5 else [name, value]

    argvs = []
    for _ in range(count):
        if rng.random() < 0.5:
            argvs.append([rng.choice(tokens) for _ in range(rng.randrange(6))])
            continue
        command = rng.choice(list(COMMANDS))
        spec = COMMANDS[command]
        parts = [[rng.choice(WORDS)] for _ in spec.positionals]
        parts += [written(option, takes) for option, takes, _ in spec.options if option in spec.required or rng.random() < 0.5]
        rng.shuffle(parts)
        argv = [command, *(token for part in parts for token in part)]
        if rng.random() < 0.4:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(tokens))
        elif rng.random() < 0.3:
            del argv[rng.randrange(len(argv))]
        argvs.append(argv)
    return argvs


def test_table_parse_agrees_with_argparse():
    # Same exit status on every argv; on an accepted one, the same command and
    # fields. The error messages may differ.
    outcomes = {"accepted": 0, "help": 0, "refused": 0}
    for argv in argv_corpus(seed=2024, count=6000):
        expected, got = oracle_parse(argv), table_parse(argv)
        assert got[0] == expected[0], (argv, expected, got)
        if len(expected) == 3:
            # argparse reads `--opt=--` as an empty list, on which every handler
            # failed with a traceback; the table reads it as the value "--".
            fields = {name: "--" if value == [] else value for name, value in expected[2].items()}
            assert got == (0, expected[1], fields), argv
        outcomes["refused" if expected[0] else "accepted" if len(expected) == 3 else "help"] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_deliberate_differences_from_argparse():
    # argparse reads `-hh` and `-h=h` as `-h -h`; the table gives -h no value at all.
    for argv in (["-hh"], ["analyze", "-hh"], ["analyze", "builtin:bell", "-h=h"]):
        assert oracle_parse(argv)[0] == 0 and table_parse(argv)[0] == 2, argv
    # argparse reads `--limit=--` as an empty list, so the handler failed with a
    # traceback; the table passes "--", which the handler refuses as any bad limit.
    assert oracle_parse(["analyze", "builtin:bell", "--limit=--"])[2]["limit"] == []
    code, _, err = run_cli("analyze", "builtin:bell", "--limit=--")
    assert (code, err) == (2, "error: --limit must be an integer, got '--'\n")


@pytest.mark.parametrize(
    "argv, status, message",
    [
        ([], 2, "vk: error: the following arguments are required: command\n"),
        (["--help"], 0, ""),
        (["analyze", "--help"], 0, ""),
        (["infer", "builtin:bell"], 2, "vk infer: error: the following arguments are required: --query\n"),
        (["analyze", "builtin:bell", "--json=x"], 2, "vk analyze: error: argument --json: ignored explicit argument 'x'\n"),
        (["infer", "builtin:bell", "--query"], 2, "vk infer: error: argument --query: expected one argument\n"),
        (["dance"], 2, "vk: error: argument command: invalid choice: 'dance' "),
    ],
)
def test_usage_errors_exit_2_and_help_exits_0(argv, status, message):
    for parse in (oracle_parse, table_parse):
        assert parse(argv)[0] == status, (parse.__name__, argv)
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
        main(argv)
    assert exc.value.code == status
    if status:
        usage, error = err.getvalue().split("\n", 1)
        assert usage.startswith("usage: vk") and error.startswith(message), err.getvalue()
        assert out.getvalue() == ""
    else:
        assert out.getvalue().startswith("usage: vk") and err.getvalue() == ""


def test_a_prefix_of_two_long_options_is_ambiguous():
    # No command's table has two options with a common long prefix, so the
    # refusal is reached through the option reader itself.
    from valkit.cli import _option

    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        _option("--l", ("--limit", "--list"), "infer")
    assert exc.value.code == 2
    assert err.getvalue().endswith("vk infer: error: ambiguous option: --l could match --limit, --list\n")
