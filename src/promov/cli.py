"""Command-line front door: load instance documents, run checks, report.

Document format (JSON): top-level keys ``backend`` ("abelian" |
"pointed_set"), ``index`` ({"kind": "finite", "elements": [...], "pairs":
[...]} or {"kind": "nat"}), then either explicit ``objects`` / ``bonds``
tables (finite posets) or ``family`` + ``params`` + ``seed`` (sequences),
optional ``flags``, optional ``target`` (a nested system document) and
``morphism`` {"phi": table, "f": table}.  All integers are decimal strings
so arbitrary precision survives the round trip.

Exit codes: 0 Holds/HoldsStabilized, 1 Fails/FailsAtHorizon, 2 input or
parse error, 3 Unknown/HoldsAtHorizon, 4 internal error (any other exception,
reported as one ``error: internal: <Type>: <message>`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checkers as ck
from . import families as fam
from .categories import (
    FgAbelianMorphism,
    FgAbelianObject,
    PointedFiniteSet,
    PointedMap,
    identity,
)
from .checkers import Horizon, Refutation, Verdict, WitnessRecord
from .indexsets import FiniteDirectedPoset, is_finite_index, validate_poset
from .intlinalg import IntMatrix
from .oracle import OracleCapExceeded, oracle_check
from .systems import (
    InverseSystem,
    SystemFlags,
    SystemMorphism,
    are_equivalent,
    compose_morphisms,
    identity_morphism,
    violations,
)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class DocumentError(ValueError):
    """Malformed instance document."""


# ---------------------------------------------------------------------------
# value codecs (integers travel as decimal strings)


def _enc_int(n: int) -> str:
    return str(int(n))


def _is_decimal(s) -> bool:
    return isinstance(s, str) and s.isascii() and s.removeprefix("-").isdigit()


def _dec_int(s) -> int:
    """The integer a decimal string spells: ASCII digits after an optional
    minus sign.  A JSON number or boolean is refused, not truncated."""
    if not _is_decimal(s):
        raise DocumentError(f"not a decimal integer: {s!r}")
    return int(s)


def object_to_dict(obj) -> dict:
    if isinstance(obj, PointedFiniteSet):
        return {"kind": "pointed_set", "size": _enc_int(obj.size)}
    return {"kind": "abelian", "factors": [_enc_int(d) for d in obj.factors]}


def object_from_dict(d: dict):
    _typed(d, dict, "an object spec")
    kind = d.get("kind")
    if kind == "pointed_set":
        return PointedFiniteSet(_dec_int(d["size"]))
    if kind == "abelian":
        return FgAbelianObject(tuple(_dec_int(x)
                                     for x in _field(d, "factors", list)))
    raise DocumentError(f"unknown object kind {kind!r}")


def morphism_to_dict(m) -> dict:
    if isinstance(m, PointedMap):
        return {"kind": "pointed_map",
                "source": object_to_dict(m.source),
                "target": object_to_dict(m.target),
                "images": [_enc_int(i) for i in m.images]}
    return {"kind": "abelian_map",
            "source": object_to_dict(m.source),
            "target": object_to_dict(m.target),
            "matrix": [[_enc_int(m.matrix.at(i, j))
                        for j in range(m.matrix.cols)]
                       for i in range(m.matrix.rows)]}


def morphism_from_dict(d: dict):
    _typed(d, dict, "a morphism spec")
    kind = d.get("kind")
    src = object_from_dict(d["source"])
    tgt = object_from_dict(d["target"])
    if kind == "pointed_map":
        return PointedMap(src, tgt, tuple(_dec_int(i)
                                          for i in _field(d, "images", list)))
    if kind == "abelian_map":
        rows = [[_dec_int(x) for x in _typed(row, list, "a matrix row")]
                for row in _field(d, "matrix", list)]
        if not rows:
            matrix = IntMatrix(0, src.rank, ())
        else:
            matrix = IntMatrix.from_rows(rows)
        return FgAbelianMorphism(src, tgt, matrix)
    raise DocumentError(f"unknown morphism kind {kind!r}")


# ---------------------------------------------------------------------------
# system / morphism documents


def _index_doc(doc) -> dict:
    index = doc.get("index", {}) if isinstance(doc, dict) else None
    if not isinstance(index, dict):
        raise DocumentError("a system document is an object whose 'index' "
                            "is an object")
    return index


def _typed(value, kind: type, what: str):
    """value, refused unless it is a ``kind``: dict (a JSON object) or list.
    A str is not read as a list of characters."""
    if not isinstance(value, kind):
        raise DocumentError(
            f"{what} must be {'an object' if kind is dict else 'a list'}, "
            f"not {type(value).__name__}")
    return value


def _field(doc: dict, key: str, kind: type = dict, default=None):
    """doc[key], refused unless it is a ``kind``; without a default a
    missing key raises KeyError."""
    return _typed(doc[key] if default is None else doc.get(key, default),
                  kind, repr(key))


def _label(value, what: str):
    """value, refused if it is a list or an object: labels are hash keys."""
    if isinstance(value, (list, dict)):
        raise DocumentError(f"{what} must be a string or a number, "
                            f"not {type(value).__name__}")
    return value


def _table(doc: dict, key: str, width: int, default=None, labels=0) -> list:
    """doc[key], refused unless it is a list of ``width``-entry lists whose
    first ``labels`` items are labels."""
    rows = _field(doc, key, list, default)
    for row in rows:
        if len(_typed(row, list, f"an entry of {key!r}")) != width:
            raise DocumentError(
                f"each entry of {key!r} has {width} items, not {len(row)}")
        for x in row[:labels]:
            _label(x, f"an index in {key!r}")
    return rows


def _build_family(doc: dict, seed_override):
    """What the family named by a nat-index document builds: a system or
    an (F, G, f) triple.  The family sets its own objects, bonds and flags,
    so a document that also carries them is refused."""
    stray = [key for key in ("flags", "objects", "bonds") if key in doc]
    if stray:
        raise DocumentError(
            f"a nat family document cannot carry {', '.join(map(repr, stray))}; "
            "its family builds them")
    return fam.build_family(
        doc.get("family", ""),
        {k: _dec_int(v) for k, v in _field(doc, "params", dict, {}).items()},
        seed_override if seed_override is not None
        else _dec_int(doc.get("seed", "0")))


def system_from_dict(doc: dict, seed_override=None) -> InverseSystem:
    index = _index_doc(doc)
    kind = index.get("kind")
    if kind == "finite":
        poset = FiniteDirectedPoset.from_pairs(
            tuple(_label(x, "an entry of 'elements'")
                  for x in _field(index, "elements", list)),
            [tuple(p) for p in _table(index, "pairs", 2, [], labels=2)])
        problems = validate_poset(poset)
        if problems:
            raise DocumentError("invalid index poset: " + "; ".join(problems))
        objects = {lam: object_from_dict(spec)
                   for lam, spec in _field(doc, "objects").items()}
        bonds = {}
        for lo, hi, mspec in _table(doc, "bonds", 3, labels=2):
            bonds[(lo, hi)] = morphism_from_dict(mspec)
        for a in poset.members():
            bonds.setdefault((a, a), identity(objects[a]))
            for b in poset.above(a):
                if (a, b) not in bonds:
                    raise DocumentError(f"missing bond for pair ({a!r}, {b!r})")
        flags = _flags_from_dict(_field(doc, "flags", dict, {}))
        return InverseSystem(poset, objects=objects, bonds=bonds, flags=flags,
                             name=doc.get("name", "document"))
    if kind == "nat":
        built = _build_family(doc, seed_override)
        if isinstance(built, tuple):
            raise DocumentError(
                f"family {doc.get('family', '')!r} builds a morphism triple; "
                "use it at the top level, not as a bare system")
        return built
    raise DocumentError(f"unknown index kind {kind!r}")


def _flags_from_dict(d: dict) -> SystemFlags:
    """An absent or null flag is no flag; all_bondings_epimorphic is a JSON
    boolean and eventually_periodic a list, which SystemFlags checks."""
    epi, ep = d.get("all_bondings_epimorphic"), d.get("eventually_periodic")
    if epi is not None and type(epi) is not bool:
        raise DocumentError("'all_bondings_epimorphic' must be true or false, "
                            f"not {epi!r}")
    if ep is not None:
        ep = tuple(_dec_int(x) for x in _typed(ep, list, "'eventually_periodic'"))
    return SystemFlags(all_bondings_epimorphic=bool(epi), eventually_periodic=ep)


def morphism_from_doc(doc: dict, seed_override=None) -> SystemMorphism:
    """The morphism a document denotes: an explicit {phi, f} table pair, a
    family-provided morphism, or the identity of the described system."""
    if _index_doc(doc).get("kind") == "nat" and "family" in doc:
        ignored = [key for key in ("target", "morphism") if key in doc]
        if ignored:
            raise DocumentError(
                f"a family document builds its own morphism; it cannot also "
                f"carry {' or '.join(map(repr, ignored))}")
        built = _build_family(doc, seed_override)
        if isinstance(built, tuple):
            F, G, f = built
            select = doc.get("select", "morphism")
            if select == "morphism":
                return f
            if select == "source_system":
                return identity_morphism(F)
            if select == "target_system":
                return identity_morphism(G)
            raise DocumentError(f"unknown select value {select!r}")
        return identity_morphism(built)
    if "target" in doc and "morphism" not in doc:
        raise DocumentError("a document with a 'target' needs a 'morphism' "
                            "into it")
    source = system_from_dict(doc, seed_override)
    if "morphism" not in doc:
        return identity_morphism(source)
    target = (system_from_dict(doc["target"], seed_override)
              if "target" in doc else source)
    return _table_morphism(doc, "morphism", source, target)


def _table_morphism(doc: dict, key: str, source: InverseSystem,
                    target: InverseSystem) -> SystemMorphism:
    """The morphism source -> target given by the {phi, f} tables doc[key]
    of two finite-poset systems."""
    if not (is_finite_index(source.index) and is_finite_index(target.index)):
        raise DocumentError("morphism tables need finite index posets")
    mdoc = _field(doc, key)
    phi_table = {mu: lam for mu, lam in _table(mdoc, "phi", 2, labels=2)}
    f_table = {mu: morphism_from_dict(spec) for mu, spec in _table(mdoc, "f", 2, labels=1)}
    missing = [mu for mu in target.index.members()
               if mu not in phi_table or mu not in f_table]
    if missing:
        raise DocumentError(f"morphism tables missing indices {missing!r}")
    return SystemMorphism(source, target, phi_table.__getitem__,
                          lambda mu: f_table[mu], name=doc.get("name", "document"))


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"parse error in {path} at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    return doc


# ---------------------------------------------------------------------------
# verdict serialization


def _key_to_json(k):
    return ["int", _enc_int(k)] if isinstance(k, int) else ["str", str(k)]


def _key_from_json(pair):
    tag, v = pair
    return _dec_int(v) if tag == "int" else v


def _extra_to_json(extra: dict) -> list:
    out = []
    for k, v in extra.items():
        if isinstance(v, dict):
            v = {"kind": "dict", "items": _extra_to_json(v)}
        elif isinstance(v, int):
            v = {"kind": "int", "value": _enc_int(v)}
        elif isinstance(v, (list, tuple)):
            v = {"kind": "tuple", "value": _deep_listify(v)}
        else:
            v = {"kind": "str", "value": str(v)}
        out.append([_key_to_json(k), v])
    return out


def _deep_listify(v):
    # a string spelling a decimal integer is tagged, so it decodes as a string
    if isinstance(v, (list, tuple)):
        return [_deep_listify(x) for x in v]
    if isinstance(v, int):
        return _enc_int(v)
    if _is_decimal(v):
        return {"str": v}
    return v


def _deep_intify(v):
    if isinstance(v, list):
        return tuple(_deep_intify(x) for x in v)
    if isinstance(v, dict):
        return v["str"]
    return _dec_int(v) if _is_decimal(v) else v


def _extra_from_json(items: list) -> dict:
    out = {}
    for kpair, v in items:
        k = _key_from_json(kpair)
        kind = v["kind"]
        if kind == "dict":
            out[k] = _extra_from_json(v["items"])
        elif kind == "int":
            out[k] = _dec_int(v["value"])
        elif kind == "tuple":
            out[k] = _deep_intify(v["value"])
        else:
            out[k] = v["value"]
    return out


def verdict_to_dict(v: Verdict) -> dict:
    """v as a JSON-ready document.  Equal witness morphisms share one dict
    (``morphism_to_dict`` runs once per distinct morphism), so the document
    is read-only: a change to one copy shows in every place it stands."""
    memo = {}

    def morphism(m) -> dict:
        d = memo.get(m)
        if d is None:
            d = memo[m] = morphism_to_dict(m)
        return d

    return {
        "property": v.property,
        "status": v.status,
        "horizon": None if v.horizon is None else {
            "mu_max": _enc_int(v.horizon.mu_max),
            "lambda_max": _enc_int(v.horizon.lambda_max),
            "muprime_max": _enc_int(v.horizon.muprime_max),
            "cone_max": _enc_int(v.horizon.cone_max)},
        "witnesses": [{
            "mu": _key_to_json(w.mu),
            "index": None if w.index is None else _key_to_json(w.index),
            "rule": w.rule,
            "witnesses": [[_key_to_json(k), morphism(m)]
                          for k, m in w.witnesses.items()],
            "extra": _extra_to_json(w.extra),
        } for w in v.witnesses],
        "refutation": None if v.refutation is None else {
            "mu": _key_to_json(v.refutation.mu),
            "index": (None if v.refutation.index is None
                      else _key_to_json(v.refutation.index)),
            "deeper": (None if v.refutation.deeper is None
                       else _key_to_json(v.refutation.deeper)),
            "reason": v.refutation.reason},
        "notes": list(v.notes),
    }


def verdict_from_dict(d: dict) -> Verdict:
    horizon = None
    if d.get("horizon") is not None:
        hd = d["horizon"]
        horizon = Horizon(_dec_int(hd["mu_max"]), _dec_int(hd["lambda_max"]),
                          _dec_int(hd["muprime_max"]), _dec_int(hd["cone_max"]))
    witnesses = [WitnessRecord(
        mu=_key_from_json(w["mu"]),
        index=None if w["index"] is None else _key_from_json(w["index"]),
        rule=w["rule"],
        witnesses={_key_from_json(k): morphism_from_dict(m)
                   for k, m in w["witnesses"]},
        extra=_extra_from_json(w["extra"]),
    ) for w in d.get("witnesses", [])]
    refutation = None
    if d.get("refutation") is not None:
        rd = d["refutation"]
        refutation = Refutation(
            mu=_key_from_json(rd["mu"]),
            index=None if rd["index"] is None else _key_from_json(rd["index"]),
            deeper=(None if rd["deeper"] is None
                    else _key_from_json(rd["deeper"])),
            reason=rd["reason"])
    return Verdict(d["property"], d["status"], witnesses, refutation,
                   horizon, list(d.get("notes", [])))


# ---------------------------------------------------------------------------
# reporting


def format_verdict_text(v: Verdict) -> str:
    lines = [f"property: {v.property}", f"status:   {v.status}"]
    if v.horizon is not None:
        lines.append(
            f"horizon:  mu<={v.horizon.mu_max} lambda<={v.horizon.lambda_max} "
            f"mu'<={v.horizon.muprime_max} cone<={v.horizon.cone_max}")
    for w in sorted(v.witnesses, key=lambda w: _sort_key(w.mu)):
        rule = f" [{w.rule}]" if w.rule else ""
        lines.append(f"  mu={w.mu}: index={w.index}{rule}")
        for k in sorted(w.witnesses, key=_sort_key):
            lines.append(f"    witness@{k}: {_one_line_morphism(w.witnesses[k])}")
        for k in sorted(w.extra, key=_sort_key):
            lines.append(f"    {k}: {w.extra[k]}")
    if v.refutation is not None:
        r = v.refutation
        lines.append(f"  refutation: mu={r.mu} index={r.index} "
                     f"deeper={r.deeper} ({r.reason})")
    for note in v.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _sort_key(k):
    return (0, k, "") if isinstance(k, int) else (1, 0, str(k))


def _one_line_morphism(m) -> str:
    if isinstance(m, PointedMap):
        return f"images={list(m.images)}"
    return f"matrix={m.matrix.to_rows()}"


def exit_code_for(v: Verdict) -> int:
    if v.is_certified():
        return EXIT_POSITIVE
    if v.is_negative():
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


_quote = json.encoder.encode_basestring_ascii


def _encode(o, pad: str, memo: dict) -> str:
    """o as ``json.dumps(o, indent=2, sort_keys=True)`` writes it when o
    starts at indentation ``pad``.  Plain str, list, tuple and str-keyed
    dict are written here; every other value goes through ``json.dumps``
    itself, re-indented (json escapes every newline inside a string, so
    each newline in its output starts a line).

    ``memo`` maps ``(id(d), pad)`` to the text of each str-keyed dict d
    already written, so a dict placed twice at the same indentation is
    walked once.  The text depends on pad, hence the pair.  Ids are safe
    keys only while every dict in the memo stays alive, which holds for
    the duration of one ``_write_json`` call: the document holds them."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = pad + "  "
        return ("[\n" + inner
                + (",\n" + inner).join([_encode(x, inner, memo) for x in o])
                + "\n" + pad + "]")
    if t is dict and o:
        key = (id(o), pad)
        text = memo.get(key)
        if text is not None:
            return text
        inner = pad + "  "
        try:
            items = [_quote(k) + ": " + _encode(o[k], inner, memo)
                     for k in sorted(o)]
        except TypeError:  # a non-str key, which json.dumps converts, or
            pass           # a value it refuses, which it raises for again
        else:
            text = memo[key] = ("{\n" + inner + (",\n" + inner).join(items)
                                + "\n" + pad + "}")
            return text
    if o is None:
        return "null"
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _write_json(obj, out):
    """Writes obj and a newline, byte for byte as ``json.dump(obj, out,
    indent=2, sort_keys=True)`` followed by ``out.write("\\n")`` would, with
    one write for the document.  (With ``indent`` set, ``json`` runs its
    pure-Python encoder, which makes one write per token.)  Each dict that
    obj holds more than once at one indentation, as ``verdict_to_dict``
    shares equal witness morphisms, is encoded once; the memo lives only
    for this call, while obj keeps every dict in it alive."""
    out.write(_encode(obj, "", {}))
    out.write("\n")


def _emit(v: Verdict, fmt: str, out):
    if fmt == "structured":
        _write_json(verdict_to_dict(v), out)
    else:
        out.write(format_verdict_text(v) + "\n")


# ---------------------------------------------------------------------------
# commands


def _horizon_from_args(args) -> Horizon:
    return Horizon(mu_max=args.horizon_mu, lambda_max=args.horizon_lambda,
                   muprime_max=args.horizon_muprime, cone_max=args.cone_depth)


def cmd_validate(args, out) -> int:
    doc = load_document(args.input)
    f = morphism_from_doc(doc, args.seed)
    problems = violations(f)
    if problems:
        for p in problems:
            out.write(f"violation: {p}\n")
        return EXIT_NEGATIVE
    out.write("valid\n")
    return EXIT_POSITIVE


def cmd_check(args, out) -> int:
    doc = load_document(args.input)
    f = morphism_from_doc(doc, args.seed)
    if args.oracle:
        v = oracle_check(args.property, f)
    else:
        v = ck.check(args.property, f, _horizon_from_args(args))
    _emit(v, args.format, out)
    return exit_code_for(v)


def cmd_compose(args, out) -> int:
    doc = load_document(args.input)
    if "morphism2" not in doc:
        raise DocumentError("compose needs 'morphism' and 'morphism2'")
    f = morphism_from_doc(doc, args.seed)
    # morphism2 runs out of the first morphism's target
    target = (system_from_dict(doc["target2"], args.seed)
              if "target2" in doc else f.target)
    h = compose_morphisms(_table_morphism(doc, "morphism2", f.target, target), f)
    report = {
        "phi": [[_key_to_json(nu)[1], _key_to_json(h.phi(nu))[1]]
                for nu in h.target.index.members()],
        "f": [[_key_to_json(nu)[1], morphism_to_dict(h.f(nu))]
              for nu in h.target.index.members()],
    }
    if args.format == "structured":
        _write_json(report, out)
    else:
        for nu in h.target.index.members():
            out.write(f"nu={nu}: phi={h.phi(nu)} "
                      f"f={_one_line_morphism(h.f(nu))}\n")
    return EXIT_POSITIVE


def cmd_equiv(args, out) -> int:
    doc = load_document(args.input)
    if "morphism2" not in doc:
        raise DocumentError("equiv needs 'morphism' and 'morphism2'")
    f = morphism_from_doc(doc, args.seed)
    g = _table_morphism(doc, "morphism2", f.source, f.target)
    eq = are_equivalent(f, g, mu_max=args.horizon_mu,
                        lambda_max=args.horizon_lambda)
    out.write(("equivalent" if eq else "not equivalent") + "\n")
    return EXIT_POSITIVE if eq else EXIT_NEGATIVE


def cmd_demo(args, out) -> int:
    """The worked walkthrough: one movable morphism between two systems that
    both fail movability at the horizon, plus the image-chain check."""
    F, G, f = fam.example_2_27()
    h = _horizon_from_args(args)
    verdicts = [
        ck.movable_morphism(f, h),
        ck.movable_system(F, h),
        ck.movable_system(G, h),
        ck.mittag_leffler(identity_morphism(G), h),
    ]
    labels = ["movable morphism f : (Z, x2) -> (Z/2^n)",
              "movable system (Z, x2)",
              "movable system (Z/2^n)",
              "mittag-leffler, identity of (Z/2^n)"]
    if args.format == "structured":
        _write_json([verdict_to_dict(v) for v in verdicts], out)
    else:
        for label, v in zip(labels, verdicts):
            out.write(f"== {label} ==\n")
            _emit(v, "text", out)
            out.write("\n")
    return EXIT_POSITIVE


# ---------------------------------------------------------------------------
# argument parsing


PROPERTY_CHOICES = list(ck.PROPERTIES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promov",
        description="Decide movability-type properties of inverse systems "
                    "and their morphisms.")
    sub = parser.add_subparsers(dest="command", required=True)
    box = Horizon()
    options = {
        "input": dict(help="instance document (JSON)"),
        "--horizon-mu": dict(type=int, default=box.mu_max),
        "--horizon-lambda": dict(type=int, default=box.lambda_max),
        "--horizon-muprime": dict(type=int, default=box.muprime_max),
        "--cone-depth": dict(type=int, default=box.cone_max),
        "--format": dict(choices=["text", "structured"], default="text"),
        "--seed": dict(type=int, default=None),
    }

    def add(p, *names):
        # each command declares only the options its cmd_* function reads
        for name in names:
            p.add_argument(name, **options[name])

    horizon = ("--horizon-mu", "--horizon-lambda", "--horizon-muprime",
               "--cone-depth")
    add(sub.add_parser("validate", help="check system/morphism axioms"),
        "input", "--seed")
    pc = sub.add_parser("check", help="decide a property")
    pc.add_argument("property", choices=PROPERTY_CHOICES)
    pc.add_argument("--oracle", action="store_true",
                    help="brute-force reference run (small finite inputs)")
    add(pc, "input", *horizon, "--format", "--seed")
    add(sub.add_parser("compose", help="compose two morphisms"),
        "input", "--format", "--seed")
    add(sub.add_parser("equiv", help="test pro-morphism equivalence"),
        "input", "--horizon-mu", "--horizon-lambda", "--seed")
    add(sub.add_parser("demo", help="run the worked example"),
        *horizon, "--format")
    return parser


_parser = None  # built on the first main() call and kept for the process


def main(argv=None, out=None) -> int:
    global _parser
    out = out if out is not None else sys.stdout
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    commands = {"validate": cmd_validate, "check": cmd_check,
                "compose": cmd_compose, "equiv": cmd_equiv, "demo": cmd_demo}
    try:
        return commands[args.command](args, out)
    except (ValueError, OracleCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except KeyError as e:
        print(f"error: missing document key {e}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as e:
        # a defect, not a verdict: never exit 1, the code of a negative one
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
