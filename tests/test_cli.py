"""Command-line interface: exit codes, document parsing, output formats."""

import argparse
import ast
import contextlib
import functools
import io
import json
import operator
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import promov
from promov import cli
from promov.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_PARSE,
    EXIT_POSITIVE,
    DocumentError,
    _write_json,
    build_parser,
    main,
    object_from_dict,
    verdict_from_dict,
    verdict_to_dict,
)
from promov.categories import Z
from promov.checkers import PROPERTIES, Horizon, check, movable_morphism
from promov.families import (
    constant_poset_system,
    example_2_27,
    finite_instance_corpus,
)
from promov.indexsets import FiniteDirectedPoset
from promov.oracle import oracle_check
from promov.systems import identity_morphism


def run(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


def abelian(*factors):
    return {"kind": "abelian", "factors": [str(d) for d in factors]}


def abelian_map(src, tgt, rows):
    return {"kind": "abelian_map", "source": src, "target": tgt,
            "matrix": [[str(x) for x in row] for row in rows]}


def chain_doc():
    z4 = abelian(4)
    return {
        "index": {"kind": "finite", "elements": ["a", "b"],
                  "pairs": [["a", "b"]]},
        "objects": {"a": z4, "b": z4},
        "bonds": [["a", "b", abelian_map(z4, z4, [["1"]])]],
    }


def family_doc(select="morphism"):
    return {"index": {"kind": "nat"}, "family": "example_2_27",
            "select": select}


def write(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_validate_and_check_finite(tmp_path):
    path = write(tmp_path, chain_doc())
    code, text = run(["validate", path])
    assert code == EXIT_POSITIVE and "valid" in text
    code, text = run(["check", "movable", path])
    assert code == EXIT_POSITIVE
    assert "Holds" in text


def test_check_exit_codes_on_family(tmp_path):
    # the worked example: movable morphism, non-movable source system,
    # strong variant undecidable at the default horizon
    mpath = write(tmp_path, family_doc("morphism"), "m.json")
    spath = write(tmp_path, family_doc("source_system"), "s.json")
    code, text = run(["check", "movable", mpath])
    assert code == EXIT_POSITIVE and "HoldsStabilized" in text
    code, text = run(["check", "movable", spath])
    assert code == EXIT_NEGATIVE and "FailsAtHorizon" in text
    # the tower (Z/2^n) is not movable, but it is Mittag-Leffler
    tpath = write(tmp_path, family_doc("target_system"), "t.json")
    code, text = run(["check", "movable", tpath])
    assert code == EXIT_NEGATIVE and "FailsAtHorizon" in text
    code, text = run(["check", "mittag_leffler", tpath])
    assert code == EXIT_POSITIVE and "HoldsStabilized" in text
    code, text = run(["check", "strongly_movable", mpath])
    assert code == EXIT_INCONCLUSIVE and "Unknown" in text
    # widening the probe box upgrades the strong check to holding in the box
    code, text = run(["check", "strongly_movable", mpath,
                      "--horizon-lambda", "30"])
    assert code == EXIT_INCONCLUSIVE and "HoldsAtHorizon" in text


def test_structured_verdict_round_trips(tmp_path):
    path = write(tmp_path, family_doc("morphism"))
    code, text = run(["check", "movable", path, "--format", "structured"])
    assert code == EXIT_POSITIVE
    doc = json.loads(text)
    v = verdict_from_dict(doc)
    assert v.status == "HoldsStabilized"
    assert verdict_to_dict(v) == doc
    # and it matches a direct library run
    _, _, f = example_2_27()
    direct = movable_morphism(f, Horizon())
    assert verdict_to_dict(direct) == doc


def test_verdicts_round_trip_on_corpus_instances():
    # the oracle's admissible indices decode as the tuple it stores, and a
    # label that int() reads, whether or not it is a decimal string, stays
    # a string
    odd = [constant_poset_system(FiniteDirectedPoset.chain(labels), Z(4))
           for labels in (("1_0", " 7"), ("7", "8"))]
    for f in finite_instance_corpus(5, 4) + [identity_morphism(x) for x in odd]:
        for prop in PROPERTIES:
            for v in (check(prop, f), oracle_check(prop, f)):
                assert verdict_from_dict(verdict_to_dict(v)) == v


@pytest.mark.parametrize("prop", ["strongly_movable", "strongly_co_movable"])
def test_diagonal_bond_that_is_not_the_identity_exits_2(tmp_path, capsys, prop):
    doc = chain_doc()
    doc["bonds"].append(["b", "b", abelian_map(abelian(4), abelian(4), [["3"]])])
    code, text = run(["check", prop, write(tmp_path, doc)])
    assert code == EXIT_PARSE and text == ""
    assert "bond p['b','b'] is not the identity" in capsys.readouterr().err


def test_invalid_finite_input_is_refused_at_the_door(tmp_path, capsys):
    # the non-functorial Z/4 3-chain p_ab = p_bc = 1, p_ac = x2: check
    # refuses it with the violation validate prints; the oracle decides the
    # literal definition, which fails
    z4 = abelian(4)
    doc = {"index": {"kind": "finite", "elements": ["a", "b", "c"],
                     "pairs": [["a", "b"], ["b", "c"]]},
           "objects": {"a": z4, "b": z4, "c": z4},
           "bonds": [[lo, hi, abelian_map(z4, z4, [[c]])]
                     for lo, hi, c in (("a", "b", "1"), ("b", "c", "1"),
                                       ("a", "c", "2"))]}
    path = write(tmp_path, doc)
    violation = "functoriality violation at ('a','b','c')"
    assert run(["validate", path]) == (EXIT_NEGATIVE, f"violation: {violation}\n")
    for prop in ("movable", "uniformly_movable"):
        assert run(["check", prop, path]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"error: {violation}\n"
    code, text = run(["check", "uniformly_movable", path, "--oracle"])
    assert code == EXIT_NEGATIVE and "Fails" in text


def test_oracle_flag(tmp_path):
    fpath = write(tmp_path, chain_doc(), "f.json")
    code, text = run(["check", "movable", fpath, "--oracle"])
    assert code == EXIT_POSITIVE and "Holds" in text
    # the oracle refuses infinite index sets with a parse-level error
    npath = write(tmp_path, family_doc("morphism"), "n.json")
    code, _ = run(["check", "movable", npath, "--oracle"])
    assert code == EXIT_PARSE


def test_malformed_documents(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    code, _ = run(["validate", str(p)])
    assert code == EXIT_PARSE
    code, _ = run(["validate", str(tmp_path / "missing.json")])
    assert code == EXIT_PARSE
    doc = chain_doc()
    del doc["bonds"]
    code, _ = run(["validate", write(tmp_path, doc, "nobonds.json")])
    assert code == EXIT_PARSE
    doc = chain_doc()
    doc["objects"]["a"] = {"kind": "mystery"}
    code, _ = run(["validate", write(tmp_path, doc, "badobj.json")])
    assert code == EXIT_PARSE
    # explicit morphism tables into a sequence target (mixed index kinds)
    doc = chain_doc()
    doc.update(target={"index": {"kind": "nat"}, "family": "constant"},
               morphism={"phi": [], "f": []})
    code, _ = run(["check", "movable", write(tmp_path, doc, "mixed.json")])
    assert code == EXIT_PARSE
    code, _ = run(["check", "movable",
                   write(tmp_path, {"index": "nat"}, "strindex.json")])
    assert code == EXIT_PARSE
    # tables next to a family would be ignored: the family builds the morphism
    one = {"index": {"kind": "finite", "elements": ["a"], "pairs": []},
           "objects": {"a": abelian(4)}, "bonds": []}
    doc = {"index": {"kind": "nat"}, "family": "constant",
           "params": {"modulus": "4"}, "target": one,
           "morphism": {"phi": [["a", "0"]], "f": []}}
    code, _ = run(["check", "movable", write(tmp_path, doc, "famtables.json")])
    assert code == EXIT_PARSE
    # fields that must be objects
    bad_fields = [
        {"index": {"kind": "nat"}, "family": "constant", "params": []},
        dict(chain_doc(), objects=[]),
        dict(chain_doc(), flags=[]),
    ]
    for k, doc in enumerate(bad_fields):
        code, _ = run(["check", "movable", write(tmp_path, doc, f"field{k}.json")])
        assert code == EXIT_PARSE


def test_unknown_property_rejected_by_parser(tmp_path):
    path = write(tmp_path, chain_doc())
    with pytest.raises(SystemExit) as exc:
        run(["check", "flying", path])
    assert exc.value.code == 2


def _args_read(functions, name) -> set:
    """The attributes a cli function reads off ``args``, with those of
    _horizon_from_args where it calls that."""
    fn = functions[name]
    read = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}
    if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
           and n.func.id == "_horizon_from_args" for n in ast.walk(fn)):
        read |= _args_read(functions, "_horizon_from_args")
    return read


def test_each_command_declares_exactly_the_options_it_reads():
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {n.name: n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef)}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"validate", "check", "compose", "equiv", "demo"}
    for command, parser in sub.choices.items():
        declared = {a.dest for a in parser._actions
                    if not isinstance(a, argparse._HelpAction)}
        assert declared == _args_read(functions, f"cmd_{command}"), command


@pytest.mark.parametrize("argv", [
    ["compose", "doc.json", "--horizon-mu", "3"],
    ["demo", "--seed", "1"],
    ["validate", "doc.json", "--format", "structured"],
    ["equiv", "doc.json", "--cone-depth", "3"]])
def test_options_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compose_and_equiv(tmp_path, capsys):
    doc = chain_doc()
    z4 = abelian(4)
    ident = abelian_map(z4, z4, [["1"]])
    zero = abelian_map(z4, z4, [["0"]])
    doc["morphism"] = {"phi": [["a", "a"], ["b", "b"]],
                       "f": [["a", ident], ["b", ident]]}
    doc["morphism2"] = {"phi": [["a", "a"], ["b", "b"]],
                        "f": [["a", ident], ["b", ident]]}
    path = write(tmp_path, doc, "pair.json")
    code, text = run(["compose", path])
    assert code == EXIT_POSITIVE
    assert "phi=a" in text and "phi=b" in text
    code, text = run(["equiv", path])
    assert code == EXIT_POSITIVE and "equivalent" in text
    doc["morphism2"]["f"] = [["a", zero], ["b", zero]]
    path = write(tmp_path, doc, "pair2.json")
    code, text = run(["equiv", path])
    assert code == EXIT_NEGATIVE and "not equivalent" in text
    del doc["morphism2"]
    path = write(tmp_path, doc, "lone.json")
    for command in ("compose", "equiv"):
        assert run([command, path]) == (EXIT_PARSE, "")
        assert (f"{command} needs 'morphism' and 'morphism2'"
                in capsys.readouterr().err)
    # X -> Y -> W through the nested 'target' and 'target2' documents:
    # Z/4 onto Z/2 over the chain a <= b, then Z/2 at b into Z/4 at the
    # single index c as x2, composes to x2 from X_b to W_c
    z2 = abelian(2)
    y = {"index": doc["index"], "objects": {"a": z2, "b": z2},
         "bonds": [["a", "b", abelian_map(z2, z2, [["1"]])]]}
    w = {"index": {"kind": "finite", "elements": ["c"], "pairs": []},
         "objects": {"c": z4}, "bonds": []}
    doc.update(target=y, target2=w,
               morphism={"phi": [["a", "a"], ["b", "b"]],
                         "f": [[mu, abelian_map(z4, z2, [["1"]])]
                               for mu in "ab"]},
               morphism2={"phi": [["c", "b"]],
                          "f": [["c", abelian_map(z2, z4, [["2"]])]]})
    path = write(tmp_path, doc, "chain3.json")
    code, text = run(["compose", path, "--format", "structured"])
    assert code == EXIT_POSITIVE
    assert json.loads(text) == {"phi": [["c", "b"]],
                                "f": [["c", abelian_map(z4, z4, [["2"]])]]}


def test_demo_deterministic():
    code1, text1 = run(["demo"])
    code2, text2 = run(["demo"])
    assert code1 == code2 == EXIT_POSITIVE
    assert text1 == text2
    assert "HoldsStabilized" in text1 and "FailsAtHorizon" in text1
    code, text = run(["demo", "--format", "structured"])
    assert code == EXIT_POSITIVE
    docs = json.loads(text)
    assert [d["status"] for d in docs] == [
        "HoldsStabilized", "FailsAtHorizon", "FailsAtHorizon",
        "HoldsStabilized"]


def test_module_entry_point_runs_main(monkeypatch, capsys):
    # python -m promov.cli: the module's own __main__ line calls main and
    # exits with its code; dropping the imported module first runs the file
    # fresh, as the interpreter would
    monkeypatch.setattr(sys, "argv", ["promov", "demo"])
    monkeypatch.delitem(sys.modules, "promov.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("promov.cli", run_name="__main__")
    assert exc.value.code == EXIT_POSITIVE
    assert "HoldsStabilized" in capsys.readouterr().out


@pytest.mark.parametrize("prop", PROPERTIES)
def test_phi_above_lambda_max_exits_2(tmp_path, capsys, prop):
    path = write(tmp_path, {"index": {"kind": "nat"}, "family": "constant",
                            "params": {"modulus": "4"}})
    code, text = run(["check", prop, path, "--horizon-lambda", "3"])
    assert code == EXIT_PARSE and text == ""
    assert "phi(4) = 4 exceeds lambda_max = 3" in capsys.readouterr().err


@pytest.mark.parametrize("prop", ["uniformly_movable", "uniformly_co_movable"])
def test_cone_depth_below_mu_exits_2(tmp_path, prop):
    path = write(tmp_path, family_doc())
    code, text = run(["check", prop, path, "--cone-depth", "3"])
    assert code == EXIT_PARSE and text == ""


# ---------------------------------------------------------------------------
# structured output: exactly json.dumps(obj, indent=2, sort_keys=True) + "\n"


def json_dumps_lines(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def assert_writes_like_json_dumps(writer, objs):
    for obj in objs:
        out = io.StringIO()
        writer(obj, out)
        assert out.getvalue() == json_dumps_lines(obj)


_awkward_text = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600"]))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _awkward_text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_awkward_text, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_write_json_matches_json_dumps(obj):
    assert_writes_like_json_dumps(_write_json, [obj])


def pinned_verdict_dicts():
    """verdict_to_dict of a finite corpus slice and of example 2.27 at the
    two horizons the structured-output pin uses."""
    for f in finite_instance_corpus(7, 120)[:40]:
        for prop in PROPERTIES:
            yield verdict_to_dict(check(prop, f, Horizon()))
    for h in (Horizon(), Horizon(10, 30, 31, 31)):
        F, G, f = example_2_27()
        for m in (f, identity_morphism(F), identity_morphism(G)):
            for prop in PROPERTIES:
                yield verdict_to_dict(check(prop, m, h))


def test_write_json_matches_json_dumps_on_verdicts():
    assert_writes_like_json_dumps(_write_json, pinned_verdict_dicts())


def test_byte_identity_check_catches_a_separator_slip():
    def slipped(obj, out):
        out.write(json.dumps(obj, indent=2, sort_keys=True,
                             separators=(",", ":  ")) + "\n")
    with pytest.raises(AssertionError):
        assert_writes_like_json_dumps(slipped, pinned_verdict_dicts())


def test_write_json_matches_json_dumps_on_shared_subtrees():
    # _write_json pastes the text of a dict it has already written at the
    # same indentation; a dict met again at another depth, and a list met
    # twice, must still come out as json.dumps writes them
    leaf = {"kind": "pointed_map", "images": ["0", "1"], "z": None}
    shared_list = [leaf, "x", ["1", "2"]]
    assert_writes_like_json_dumps(_write_json, [
        [leaf, leaf],
        {"a": leaf, "b": leaf, "c": [leaf]},
        {"a": leaf, "b": {"deeper": leaf, "list": [[leaf]]}},
        [shared_list, {"again": shared_list}, shared_list],
        {"outer": {"k": leaf}, "same": {"k": leaf}},
    ])


def test_write_json_matches_json_dumps_on_non_str_keys():
    # json.dumps turns int keys into strings; _write_json hands such a dict
    # to json.dumps itself, re-indented to where it sits
    assert_writes_like_json_dumps(_write_json, [
        {2: "x", 1: ["y", None]},
        [{"k": {3: True, 1: {"deeper": [1, 2]}}}],
    ])


def test_verdict_to_dict_builds_each_distinct_witness_once(monkeypatch):
    calls = []
    to_dict = cli.morphism_to_dict
    monkeypatch.setattr(cli, "morphism_to_dict",
                        lambda m: calls.append(m) or to_dict(m))
    F, G, f = example_2_27()
    repeated = False
    for m in (f, identity_morphism(F), identity_morphism(G)):
        for prop in PROPERTIES:
            v = check(prop, m, Horizon(14, 52, 53, 53))
            placed = [x for w in v.witnesses for x in w.witnesses.values()]
            calls.clear()
            d = verdict_to_dict(v)
            assert sorted(map(repr, calls)) == sorted(map(repr, set(placed)))
            repeated |= len(placed) > len(set(placed))
            assert json.loads(json.dumps(d)) == d
            back = verdict_from_dict(d)
            assert [w.witnesses for w in back.witnesses] == [
                w.witnesses for w in v.witnesses]
            assert verdict_to_dict(back) == d
            assert back == v  # the Unknown ML records of F keep their chain
    assert repeated  # co_movable of f places one witness 705 times


def test_structured_stdout_is_json_dumps(tmp_path):
    z4 = abelian(4)
    ident = abelian_map(z4, z4, [["1"]])
    doc = chain_doc()
    doc["morphism"] = doc["morphism2"] = {"phi": [["a", "a"], ["b", "b"]],
                                          "f": [["a", ident], ["b", ident]]}
    for argv in (["demo", "--format", "structured"],
                 ["compose", write(tmp_path, doc), "--format", "structured"]):
        code, text = run(argv)
        assert code == EXIT_POSITIVE
        assert text == json_dumps_lines(json.loads(text))


# ---------------------------------------------------------------------------
# malformed documents are refused with exit 2 and a named message


def test_string_factors_are_refused():
    with pytest.raises(DocumentError, match="'factors' must be a list"):
        object_from_dict({"kind": "abelian", "factors": "12"})


# integers travel as ASCII decimal strings: anything else is refused, never
# truncated or read leniently
NOT_DECIMAL = [4.7, True, 2.9, 3, None, "1_0", " 5", "5 ", "+5", "", "-",
               "--5", "\u0663", "\uff15", "12a"]


@pytest.mark.parametrize("value", NOT_DECIMAL)
def test_non_decimal_integers_are_refused(value):
    with pytest.raises(DocumentError, match="not a decimal integer"):
        object_from_dict({"kind": "abelian", "factors": [value]})
    with pytest.raises(DocumentError, match="not a decimal integer"):
        object_from_dict({"kind": "pointed_set", "size": value})


def test_decimal_strings_are_read():
    assert object_from_dict({"kind": "abelian", "factors": ["-0", "012", "4"]}
                            ).factors == (0, 12, 4)


@pytest.mark.parametrize("spec", [
    {"kind": "abelian", "factors": [4.7, True]},
    {"kind": "pointed_set", "size": 2.9}])
def test_number_valued_object_exits_2(tmp_path, capsys, spec):
    doc = {"index": {"kind": "finite", "elements": ["a"], "pairs": []},
           "objects": {"a": spec}, "bonds": []}
    code, text = run(["check", "movable", write(tmp_path, doc)])
    assert code == EXIT_PARSE and text == ""
    assert "not a decimal integer" in capsys.readouterr().err


def test_missing_seed_means_0_and_a_number_seed_is_refused(tmp_path):
    doc = {"index": {"kind": "nat"}, "family": "set_sequence"}
    unseeded = run(["check", "movable", write(tmp_path, doc, "a.json")])
    seeded = run(["check", "movable",
                  write(tmp_path, dict(doc, seed="0"), "b.json")])
    assert unseeded == seeded and unseeded[1]
    # a parameter the family does not read, even one named seed, is ignored
    assert run(["check", "movable", write(
        tmp_path, dict(doc, params={"seed": "5"}), "d.json")]) == unseeded
    code, text = run(["check", "movable",
                      write(tmp_path, dict(doc, seed=0), "c.json")])
    assert code == EXIT_PARSE and text == ""


def _with(**changes):
    return dict(chain_doc(), **changes)


FLAGS = ("a finite document cannot carry 'flags'; "
         "its facts are read off its tables")

MALFORMED = {
    "object spec is a list": (
        _with(objects={"a": [], "b": abelian(4)}),
        "an object spec must be an object"),
    "string factors": (
        _with(objects={"a": {"kind": "abelian", "factors": "12"},
                       "b": abelian(4)}),
        "'factors' must be a list"),
    "bond spec is a list": (
        _with(bonds=[["a", "b", []]]), "a morphism spec must be an object"),
    "morphism is a list": (_with(morphism=[]), "'morphism' must be an object"),
    "phi is a number": (
        _with(morphism={"phi": 3, "f": []}), "'phi' must be a list"),
    "elements is a number": (
        _with(index={"kind": "finite", "elements": 3}),
        "'elements' must be a list"),
    "pair is a string": (
        _with(index={"kind": "finite", "elements": ["a", "b"],
                     "pairs": ["ab"]}),
        "an entry of 'pairs' must be a list"),
    "matrix row is a string": (
        _with(bonds=[["a", "b", dict(abelian_map(abelian(4), abelian(4),
                                                 [["1"]]), matrix=["1"])]]),
        "a matrix row must be a list"),
    # no document carries flags: a finite one is refused for carrying any,
    # before a key or value in them is read, whatever JSON type that has
    "periodicity flag is a string": (
        _with(flags={"eventually_periodic": "12"}), FLAGS),
    "periodicity flag is 0": (
        _with(flags={"eventually_periodic": 0}), FLAGS),
    "periodicity flag is false": (
        _with(flags={"eventually_periodic": False}), FLAGS),
    "periodicity flag is empty string": (
        _with(flags={"eventually_periodic": ""}), FLAGS),
    "periodicity flag is empty list": (
        _with(flags={"eventually_periodic": []}), FLAGS),
    "periodicity flag has period 0": (
        _with(flags={"eventually_periodic": ["0", "0"]}), FLAGS),
    "periodicity flag has one entry": (
        _with(flags={"eventually_periodic": ["3"]}), FLAGS),
    "misspelled epimorphic flag": (
        _with(flags={"all_bondings_epimorphc": True}), FLAGS),
    "epimorphic flag is a string": (
        _with(flags={"all_bondings_epimorphic": "false"}), FLAGS),
    "epimorphic flag is 0": (
        _with(flags={"all_bondings_epimorphic": 0}), FLAGS),
    "index element is a list": (
        _with(index={"kind": "finite", "elements": [["a"], "b"], "pairs": []}),
        "an entry of 'elements' must be a string or a number, not list"),
    "phi index is a list": (
        _with(morphism={"phi": [[["a"], "a"]], "f": []}),
        "an index in 'phi' must be a string or a number, not list"),
    "target without a morphism": (
        _with(target={"index": {"kind": "finite", "elements": ["a"],
                                "pairs": []},
                      "objects": {"a": abelian(2)}, "bonds": []}),
        "'target' needs a 'morphism'"),
    "set sequence period is 0": (
        {"index": {"kind": "nat"}, "family": "set_sequence",
         "params": {"period": "0"}},
        "period must be at least 1, not 0"),
    "abelian sequence period is -1": (
        {"index": {"kind": "nat"}, "family": "abelian_sequence",
         "params": {"period": "-1"}},
        "period must be at least 1, not -1"),
    "set sequence max_size is 0": (
        {"index": {"kind": "nat"}, "family": "set_sequence",
         "params": {"max_size": "0"}},
        "max_size must be at least 1, not 0"),
    "nat family document carries flags and objects": (
        {"index": {"kind": "nat"}, "family": "constant",
         "params": {"modulus": "4"},
         "flags": {"eventually_periodic": "junk"}, "objects": 7},
        "a nat family document cannot carry 'flags', 'objects'"),
    "nat family target carries bonds": (
        _with(target={"index": {"kind": "nat"}, "family": "constant",
                      "bonds": []},
              morphism={"phi": [], "f": []}),
        "a nat family document cannot carry 'bonds'"),
    "unknown select": (
        dict(family_doc(), select="middle"), "unknown select value 'middle'"),
    "example_2_27 family as a target": (
        _with(target=family_doc(), morphism={"phi": [], "f": []}),
        "family 'example_2_27' builds a morphism triple"),
    "document root is a list": ([chain_doc()], "document root must be an object"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_exits_2(tmp_path, capsys, case):
    doc, message = MALFORMED[case]
    code, text = run(["check", "movable", write(tmp_path, doc)])
    assert code == EXIT_PARSE and text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["validate"], ["check", "movable"], ["check", "mittag_leffler", "--oracle"]])
def test_an_empty_poset_exits_2(tmp_path, capsys, command):
    # a directed set is non-empty: an empty one is neither valid nor Holds
    doc = {"index": {"kind": "finite", "elements": [], "pairs": []},
           "objects": {}, "bonds": []}
    code, text = run([*command[:2], write(tmp_path, doc), *command[2:]])
    assert code == EXIT_PARSE and text == ""
    assert "a directed poset needs at least one element" in capsys.readouterr().err


def test_commands_in_one_process_match_separate_runs(tmp_path):
    # main() keeps its parser between calls; each command must still print
    # what it prints in a fresh interpreter
    z4 = abelian(4)
    ident = abelian_map(z4, z4, [["1"]])
    doc = chain_doc()
    doc["morphism"] = doc["morphism2"] = {"phi": [["a", "a"], ["b", "b"]],
                                          "f": [["a", ident], ["b", ident]]}
    path = write(tmp_path, doc)
    argvs = [["check", "movable", path, "--format", "structured"],
             ["compose", path, "--format", "structured"],
             ["demo"],
             ["check", "co_movable", path]]
    src = str(Path(promov.__file__).resolve().parents[1])
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "promov.cli", *argv],
                              env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                              capture_output=True, text=True)
        assert run(argv) == (proc.returncode, proc.stdout)


def test_internal_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("a defect")
    monkeypatch.setattr("promov.cli.morphism_from_doc", broken)
    code, text = run(["check", "movable", write(tmp_path, chain_doc())])
    assert code == EXIT_INTERNAL and text == ""
    assert capsys.readouterr().err == "error: internal: RuntimeError: a defect\n"


# ---------------------------------------------------------------------------
# fuzz: one field of a valid document deleted or replaced


def _fuzz_seed_documents():
    z4 = abelian(4)
    morphism = chain_doc()
    morphism["morphism"] = {"phi": [["a", "a"], ["b", "b"]],
                            "f": [["a", abelian_map(z4, z4, [["1"]])],
                                  ["b", abelian_map(z4, z4, [["1"]])]]}
    family = {"index": {"kind": "nat"}, "family": "set_sequence",
              "params": {"period": "2", "max_size": "3"}, "seed": "3"}
    return [chain_doc(), morphism, family]


FUZZ_SEEDS = _fuzz_seed_documents()
_DELETE = object()


def _fields(doc, path=()):
    """Every path to a dict value or list entry inside doc."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


@st.composite
def mutated_documents(draw):
    # a JSON round trip unshares the sub-documents the seeds reuse, so the
    # mutation changes one place only
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_SEEDS))))
    *parents, last = draw(st.sampled_from(list(_fields(doc))))
    holder = functools.reduce(operator.getitem, parents, doc)
    # integers stay small, so no draw can ask for a huge object or period
    value = draw(st.one_of(
        st.just(_DELETE), st.text(alphabet="ab", max_size=3),
        st.lists(st.just("1"), max_size=2),
        st.dictionaries(st.just("a"), st.just("1")), st.none(),
        st.integers(-2, 3).map(str)))
    if value is _DELETE:
        del holder[last]
    else:
        holder[last] = value
    return doc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_exit_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["check", "movable", str(path)])
    assert code in (EXIT_POSITIVE, EXIT_NEGATIVE, EXIT_PARSE, EXIT_INCONCLUSIVE)
    if code == EXIT_NEGATIVE:
        assert "Fails" in text
    assert "Traceback" not in text + err.getvalue()
