"""Batch command-line surface with deterministic JSON/DOT output.

Exit codes: 0 success, 2 usage error, 3 resource cap exceeded,
4 internal assertion (a mathematical invariant was violated).

With --cache-dir, the full output of a successful invocation is stored
under a content-addressed key (hash of the package version and the
parsed arguments, with an `@file` omega read in) and replayed
byte-identically on reruns; this is what makes repeated heavy E7 queries
cheap.  An entry is written to a temporary file and renamed into place,
so an interrupted write never leaves a truncated entry; a cache that
cannot be written costs only the replay, not the answer.

Each subcommand imports the modules it uses when it runs, so `--help`, an
argument error or a `roots` query never pays for loading the Schubert,
Steenrod, motive or Tits machinery.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (
    InternalComputationError,
    ResourceLimitError,
    UsageError,
    WeylchowError,
)


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


def _classes_on_args(args, *texts):
    """The coset table of --type/--theta and the classes in the JSON texts, which live there."""
    from .rootdata import DynkinType, build_root_system
    from .schubert import class_from_json
    from .weyl import coset_reps

    theta = _parse_vertices(args.theta)
    classes = [class_from_json(text) for text in texts]
    name = DynkinType.parse(args.type).name()
    if any(cls.type_name != name or cls.theta != theta for cls in classes):
        raise UsageError("class JSON does not match --type/--theta")
    return coset_reps(build_root_system(args.type), theta), classes


def _graded_json(classes, ct, degree):
    """A graded list of classes as a JSON array, or its piece of one degree (the zero
    class above the top degree) when degree is not None."""
    from .schubert import ChowClass, class_to_json

    if degree is None:
        return "[" + ", ".join(class_to_json(c, ct) for c in classes) + "]"
    if degree < len(classes):
        return class_to_json(classes[degree], ct)
    c0 = classes[0]
    return class_to_json(ChowClass(c0.type_name, c0.theta, c0.ring, {}), ct)


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
        from .rootdata import build_root_system

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
        from .rootdata import build_root_system
        from .weyl import coset_reps

        rs = build_root_system(args.type)
        ct = coset_reps(rs, _parse_vertices(args.theta))
        dim = ct.max_length
        text = ct.word_text
        reps = ", ".join(
            f'{{"codim": {dim - l}, "length": {l}, "word": {text[k]}}}'
            for l in range(dim + 1)
            for k in ct.of_length(l)
        )
        return (
            f'{{"count": {len(ct)}, "dim": {dim}, "reps": [{reps}], '
            f'"theta": {json.dumps(list(ct.theta))}, "type": {json.dumps(rs.type.name())}}}'
        )

    if args.command == "poincare":
        from . import univar
        from .rootdata import build_root_system
        from .weyl import poincare_polynomial

        rs = build_root_system(args.type)
        g = poincare_polynomial(rs, _parse_vertices(args.theta))
        return univar.to_string(g)

    if args.command == "mult":
        from .schubert import class_to_json, multiply

        ct, (a, b) = _classes_on_args(args, args.a, args.b)
        return class_to_json(multiply(a, b), ct)

    if args.command == "chern":
        from .rootdata import build_root_system
        from .schubert import chern_tangent
        from .weyl import coset_reps

        rs = build_root_system(args.type)
        theta = _parse_vertices(args.theta)
        ring = "Z" if args.mod is None else f"Z/{args.mod}"
        classes = chern_tangent(rs, theta, max_codim=args.codim, ring=ring)
        return _graded_json(classes, coset_reps(rs, theta), args.codim)

    if args.command == "steenrod":
        from .steenrod import steenrod_total

        ct, (cls,) = _classes_on_args(args, args.cls)
        return _graded_json(steenrod_total(cls, up_to=args.i), ct, args.i)

    if args.command == "decompose":
        from .motive import decomposition_to_dot, decomposition_to_json
        from .rootdata import build_root_system

        rs = build_root_system(args.type)
        theta = _parse_vertices(args.theta)
        circled = _parse_vertices(args.circled)
        if args.format == "dot":
            if args.rost:
                raise UsageError("--rost needs --format json")
            return decomposition_to_dot(rs, theta, circled)
        return decomposition_to_json(rs, theta, circled, rost=args.rost)

    if args.command == "hasse":
        from .rootdata import build_root_system
        from .weyl import coset_reps, hasse_diagram, hasse_to_dot, hasse_to_json

        rs = build_root_system(args.type)
        h = hasse_diagram(coset_reps(rs, _parse_vertices(args.theta)))
        return hasse_to_dot(h) if args.format == "dot" else hasse_to_json(h)

    if args.command == "automaton":
        from .rootdata import DynkinType
        from .titsjinv import (
            HigherIndexSet,
            automaton,
            automaton_to_dot,
            automaton_to_json,
        )

        try:
            subsets = [tuple(s) for s in json.loads(args.omega)]
        except (ValueError, TypeError) as exc:
            raise UsageError(f"malformed omega JSON: {exc}") from exc
        omega = HigherIndexSet.build(DynkinType.parse(args.type), subsets)
        a = automaton(omega)
        return automaton_to_dot(a) if args.format == "dot" else automaton_to_json(a)

    if args.command == "jinv":
        from . import univar
        from .rootdata import build_root_system
        from .titsjinv import (
            JProfile,
            is_generically_split,
            kac_entry,
            predicted_rational_poincare,
            profile_factor,
        )

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


def _run_cached(args) -> str:
    """Dispatch, replaying from and storing into --cache-dir when one is given."""
    if args.command == "automaton" and args.omega.startswith("@"):
        # read before the key is taken, so the key covers the file's contents, not its path
        try:
            with open(args.omega[1:], "r", encoding="utf-8") as fh:
                args.omega = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read omega file: {exc}") from exc
    if not args.cache_dir:
        return _dispatch(args)
    import hashlib

    # the parsed arguments, so the cache directory's own path is not part of the key
    request = {k: v for k, v in vars(args).items() if k != "cache_dir"}
    key = hashlib.sha256(json.dumps([__version__, request], sort_keys=True).encode()).hexdigest()
    cache_file = os.path.join(args.cache_dir, key + ".out")
    try:
        with open(cache_file, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        pass  # no entry, or one that cannot be read or decoded: a miss, overwritten below
    out = _dispatch(args)
    tmp = f"{cache_file}.{os.getpid()}.tmp"  # same directory, so the rename is atomic
    try:
        os.makedirs(args.cache_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(out)
        os.replace(tmp, cache_file)
    except OSError:
        pass  # the answer stands; only its replay is lost
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def run(argv):
    """Execute one invocation; returns (exit_code, output_text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            return 0, ""
        return 2, "usage error: invalid arguments"
    try:
        return 0, _run_cached(args)
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    except ResourceLimitError as exc:
        return 3, f"resource cap: {exc}"
    except InternalComputationError as exc:
        return 4, f"internal assertion failed: {exc}"
    except WeylchowError as exc:
        return 4, f"internal error: {exc}"


def main():
    code, out = run(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    try:
        if out:
            print(out, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader left early: send the rest (and the flush at exit) to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
