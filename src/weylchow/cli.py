"""Batch command-line surface with deterministic JSON/DOT output.

Exit codes: 0 success, 2 usage error, 3 resource cap exceeded,
4 internal assertion (a mathematical invariant was violated).

With --cache-dir, the full output of a successful invocation is stored
under a content-addressed key (hash of the normalized argument vector) and
replayed byte-identically on reruns; this is what makes repeated heavy
E7 queries cheap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import univar
from .errors import (
    InternalComputationError,
    ResourceLimitError,
    UsageError,
    WeylchowError,
)
from .rootdata import DynkinType, build_root_system
from .schubert import (
    ChowClass,
    chern_tangent,
    class_from_json,
    class_to_json,
    multiply,
    poincare_polynomial,
)
from .steenrod import steenrod_total
from .titsjinv import (
    HigherIndexSet,
    JProfile,
    automaton,
    automaton_to_dot,
    automaton_to_json,
    height,
    is_generically_split,
    kac_entry,
    predicted_rational_poincare,
    profile_factor,
)
from .weyl import coset_reps, hasse_diagram, hasse_to_dot, hasse_to_json


def _parse_vertices(text):
    text = (text or "").strip()
    if not text:
        return ()
    try:
        out = tuple(sorted({int(x) for x in text.split(",") if x.strip() != ""}))
    except ValueError:
        raise UsageError(f"cannot parse vertex list {text!r}") from None
    return out


def _parse_profile(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise UsageError(f"cannot parse profile {text!r}") from None


def _graded_piece(classes, i):
    """Degree i of a graded list of classes; the zero class above its top degree."""
    if i < len(classes):
        return classes[i]
    c0 = classes[0]
    return ChowClass(c0.type_name, c0.theta, c0.ring, {})


def _build_parser():
    p = argparse.ArgumentParser(prog="weylchow", add_help=True)
    p.add_argument("--cache-dir", default=None, help="replay identical runs from disk")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, theta=True):
        sp.add_argument("--type", required=True)
        if theta:
            sp.add_argument("--theta", default="")

    sp = sub.add_parser("roots")
    sp.add_argument("--type", required=True)

    sp = sub.add_parser("cosets")
    common(sp)

    sp = sub.add_parser("poincare")
    common(sp)

    sp = sub.add_parser("mult")
    common(sp)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = sub.add_parser("chern")
    common(sp)
    sp.add_argument("--codim", type=int, default=None)
    sp.add_argument("--mod", type=int, default=None)

    sp = sub.add_parser("steenrod")
    common(sp)
    sp.add_argument("--class", dest="cls", required=True)
    sp.add_argument("--i", type=int, default=None)

    sp = sub.add_parser("decompose")
    common(sp)
    sp.add_argument("--circled", default="")
    sp.add_argument("--rost", action="store_true")
    sp.add_argument("--format", choices=("json", "dot"), default="json")

    sp = sub.add_parser("hasse")
    common(sp)
    sp.add_argument("--format", choices=("dot", "json"), default="json")

    sp = sub.add_parser("automaton")
    sp.add_argument("--type", required=True)
    sp.add_argument("--omega", required=True, help="JSON list of circled subsets, or @file")
    sp.add_argument("--format", choices=("dot", "json"), default="json")

    sp = sub.add_parser("jinv")
    sp.add_argument("--type", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("action", choices=("rhs", "predict", "gensplit"))
    sp.add_argument("--theta", default="")
    sp.add_argument("--vertex", type=int, default=None)
    return p


def _dispatch(args) -> str:
    if args.command == "roots":
        rs = build_root_system(args.type)
        return json.dumps(
            {
                "type": rs.type.name(),
                "rank": rs.rank,
                "positive_roots": rs.num_positive_roots(),
                "cartan": [list(row) for row in rs.cartan],
            },
            sort_keys=True,
        )

    if args.command == "cosets":
        rs = build_root_system(args.type)
        ct = coset_reps(rs, _parse_vertices(args.theta))
        return json.dumps(
            {
                "type": rs.type.name(),
                "theta": list(ct.theta),
                "count": len(ct),
                "dim": ct.max_length,
                "reps": [
                    {"word": list(w.word), "length": w.length, "codim": ct.codim(k)}
                    for k, w in enumerate(ct.reps)
                ],
            },
            sort_keys=True,
        )

    if args.command == "poincare":
        rs = build_root_system(args.type)
        g = poincare_polynomial(rs, _parse_vertices(args.theta))
        return univar.to_string(g)

    if args.command == "mult":
        theta = _parse_vertices(args.theta)
        a = class_from_json(args.a)
        b = class_from_json(args.b)
        for cls in (a, b):
            if cls.type_name != DynkinType.parse(args.type).name() or cls.theta != theta:
                raise UsageError("class JSON does not match --type/--theta")
        rs = build_root_system(args.type)
        ct = coset_reps(rs, theta)
        return class_to_json(multiply(a, b), ct)

    if args.command == "chern":
        rs = build_root_system(args.type)
        theta = _parse_vertices(args.theta)
        ring = "Z" if not args.mod else f"Z/{args.mod}"
        classes = chern_tangent(rs, theta, max_codim=args.codim, ring=ring)
        ct = coset_reps(rs, theta)
        if args.codim is not None:
            return class_to_json(_graded_piece(classes, args.codim), ct)
        return json.dumps(
            [json.loads(class_to_json(c, ct)) for c in classes], sort_keys=True
        )

    if args.command == "steenrod":
        theta = _parse_vertices(args.theta)
        cls = class_from_json(args.cls)
        if cls.type_name != DynkinType.parse(args.type).name() or cls.theta != theta:
            raise UsageError("class JSON does not match --type/--theta")
        rs = build_root_system(args.type)
        ct = coset_reps(rs, theta)
        graded = steenrod_total(cls, up_to=args.i)
        if args.i is not None:
            return class_to_json(_graded_piece(graded, args.i), ct)
        return json.dumps(
            [json.loads(class_to_json(c, ct)) for c in graded], sort_keys=True
        )

    if args.command == "decompose":
        from .motive import decomposition_to_dot, decomposition_to_json

        rs = build_root_system(args.type)
        theta = _parse_vertices(args.theta)
        circled = _parse_vertices(args.circled)
        if args.format == "dot":
            return decomposition_to_dot(rs, theta, circled)
        return decomposition_to_json(rs, theta, circled, rost=args.rost)

    if args.command == "hasse":
        rs = build_root_system(args.type)
        h = hasse_diagram(coset_reps(rs, _parse_vertices(args.theta)))
        return hasse_to_dot(h) if args.format == "dot" else hasse_to_json(h)

    if args.command == "automaton":
        text = args.omega
        if text.startswith("@"):
            try:
                with open(text[1:], "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise UsageError(f"cannot read omega file: {exc}") from exc
        try:
            subsets = json.loads(text)
            subsets = [tuple(int(x) for x in s) for s in subsets]
        except (ValueError, TypeError) as exc:
            raise UsageError(f"malformed omega JSON: {exc}") from exc
        omega = HigherIndexSet.build(DynkinType.parse(args.type), subsets)
        a = automaton(omega)
        if args.format == "dot":
            return automaton_to_dot(a)
        payload = json.loads(automaton_to_json(a))
        payload["height"] = height(a)
        return json.dumps(payload, sort_keys=True)

    if args.command == "jinv":
        entry = kac_entry(args.type, args.p)
        profile = JProfile(args.p, _parse_profile(args.profile))
        if args.action == "rhs":
            return univar.to_string(profile_factor(entry, profile))
        if args.action == "predict":
            rs = build_root_system(args.type)
            quot, ok = predicted_rational_poincare(
                rs, _parse_vertices(args.theta), entry, profile
            )
            return json.dumps(
                {"is_polynomial": ok, "quotient": univar.to_string(quot) if ok else None},
                sort_keys=True,
            )
        if args.action == "gensplit":
            if args.vertex is None:
                raise UsageError("gensplit requires --vertex")
            verdict = is_generically_split(args.type, args.vertex, {args.p: profile.values})
            return json.dumps({"generically_split": verdict}, sort_keys=True)

    raise UsageError(f"unknown command {args.command!r}")


def run(argv):
    """Execute one invocation; returns (exit_code, output_text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            return 0, ""
        return 2, "usage error: invalid arguments"
    cache_file = None
    if getattr(args, "cache_dir", None):
        key = hashlib.sha256(
            json.dumps([a for a in argv if not a.startswith("--cache-dir")]).encode()
        ).hexdigest()
        cache_file = os.path.join(args.cache_dir, key + ".out")
        if os.path.exists(cache_file):
            with open(cache_file, "r", encoding="utf-8") as fh:
                return 0, fh.read()
    try:
        out = _dispatch(args)
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    except ResourceLimitError as exc:
        return 3, f"resource cap: {exc}"
    except InternalComputationError as exc:
        return 4, f"internal assertion failed: {exc}"
    except WeylchowError as exc:
        return 4, f"internal error: {exc}"
    if cache_file:
        os.makedirs(args.cache_dir, exist_ok=True)
        with open(cache_file, "w", encoding="utf-8") as fh:
            fh.write(out)
    return 0, out


def main():
    code, out = run(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    if out:
        print(out, file=stream)
    sys.exit(code)


if __name__ == "__main__":
    main()
