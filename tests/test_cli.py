"""Command-line interface: exit codes, document parsing, output formats."""

import io
import json

import pytest

from promov.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NEGATIVE,
    EXIT_PARSE,
    EXIT_POSITIVE,
    main,
    verdict_from_dict,
    verdict_to_dict,
)
from promov.checkers import Horizon, movable_morphism
from promov.families import example_2_27


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
    code, text = run(["check", "strongly_movable", mpath])
    assert code == EXIT_INCONCLUSIVE and "Unknown" in text
    # widening the probe box upgrades the strong check
    code, text = run(["check", "strongly_movable", mpath,
                      "--horizon-lambda", "30"])
    assert code == EXIT_POSITIVE and "HoldsStabilized" in text


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


def test_unknown_property_rejected_by_parser(tmp_path):
    path = write(tmp_path, chain_doc())
    with pytest.raises(SystemExit) as exc:
        run(["check", "flying", path])
    assert exc.value.code == 2


def test_compose_and_equiv(tmp_path):
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
    code, _ = run(["compose", path])
    assert code == EXIT_PARSE
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


@pytest.mark.parametrize("prop", ["uniformly_movable", "uniformly_co_movable"])
def test_cone_depth_below_mu_exits_2(tmp_path, prop):
    path = write(tmp_path, family_doc())
    code, text = run(["check", prop, path, "--cone-depth", "3"])
    assert code == EXIT_PARSE and text == ""
