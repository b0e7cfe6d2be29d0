"""Batch command-line surface with deterministic JSON/DOT output.

Exit codes: 0 success, 2 usage error, 3 resource cap exceeded,
4 internal assertion (a mathematical invariant was violated).

With --cache-dir, the full output of a successful invocation is stored
under a content-addressed key (hash of the package version, a digest of
each of the package's sources and the parsed arguments, with an `@file`
omega read in) and replayed byte-identically on reruns; this is what
makes repeated heavy E7 queries cheap, and an edited package never
replays an older build's output.  An entry is written to a temporary
file and renamed into place, so an interrupted write never leaves a
truncated entry; a cache that cannot be written costs only the replay,
not the answer.

`cosets`, `hasse` and `decompose` print their output in pieces (a length
layer of the coset table, or a motive summand, at a time) as they are
rendered, and a cold run with --cache-dir writes the same pieces to the
entry's temporary file, so a run that computes its output never holds it
whole (a replay reads its stored entry whole).  Every computation and
check that can fail runs before the first piece, so an error still prints
nothing on stdout and exits 2, 3 or 4.

Each subcommand imports the modules it uses when it runs, so `--help`, an
argument error or a `roots` query never pays for loading the Schubert,
Steenrod, motive or Tits machinery.

Every integer argument, and every item of a comma-separated list, has one
spelling: ASCII digits with an optional minus, as `str(int)` writes them.
`int` alone would also read "+1", " 1", "01", "1_9" and non-ASCII digits.
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


def _integer(text):
    """text as an int when str(int) spells it so; ValueError (exit 2 from argparse) otherwise."""
    n = int(text)
    if str(n) != text:
        raise ValueError(f"{text!r} is not an integer")
    return n


def _integers(text, what):
    """The integers of a comma-separated list, in order; spaces around commas and empty
    items are dropped."""
    try:
        return [_integer(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"cannot parse {what} {text.strip()!r}") from None


def _parse_vertices(text):
    return tuple(sorted(set(_integers(text, "vertex list"))))


def _parse_profile(text):
    return tuple(_integers(text, "profile"))


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

    def common(sp):
        sp.add_argument("--type", required=True)
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
    sp.add_argument("--codim", type=_integer, default=None)
    sp.add_argument("--mod", type=_integer, default=None)

    sp = sub.add_parser("steenrod")
    common(sp)
    sp.add_argument("--class", dest="cls", required=True)
    sp.add_argument("--i", type=_integer, default=None)

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
    sp.add_argument("--p", type=_integer, required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("action", choices=("rhs", "predict", "gensplit"))
    sp.add_argument("--theta", default="")
    sp.add_argument("--vertex", type=_integer, default=None)
    return p


def _dispatch(args):
    """The invocation's output: its text, or for `cosets`, `hasse` and `decompose` an
    iterable of the text's pieces.  Everything that can raise runs before this returns."""
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
        from .weyl import coset_reps, cosets_to_json

        return cosets_to_json(coset_reps(build_root_system(args.type), _parse_vertices(args.theta)))

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
        from .weyl import coset_reps, hasse_to_dot, hasse_to_json

        ct = coset_reps(build_root_system(args.type), _parse_vertices(args.theta))
        return hasse_to_dot(ct) if args.format == "dot" else hasse_to_json(ct)

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


def _pieces(args):
    """The output of `_dispatch` as an iterable of pieces."""
    out = _dispatch(args)
    return (out,) if isinstance(out, str) else out


def _stored(pieces, cache_dir, cache_file):
    """Yield pieces, writing each to a temporary file that becomes cache_file after the last.

    A run that stops early, or a write that fails, leaves no entry.
    """
    pieces = iter(pieces)  # so that a failed write resumes after the pieces already yielded
    tmp = f"{cache_file}.{os.getpid()}.tmp"  # same directory, so the rename is atomic
    try:
        try:
            os.makedirs(cache_dir, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                for piece in pieces:
                    yield piece
                    fh.write(piece)
            os.replace(tmp, cache_file)
        except OSError:
            yield from pieces  # the answer stands; only its replay is lost
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _run_cached(args):
    """Dispatch, replaying from and storing into --cache-dir when one is given; returns an
    iterable of the output's pieces."""
    if args.command == "automaton" and args.omega.startswith("@"):
        # read before the key is taken, so the key covers the file's contents, not its path
        try:
            with open(args.omega[1:], "r", encoding="utf-8") as fh:
                args.omega = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read omega file: {exc}") from exc
    if not args.cache_dir:
        return _pieces(args)
    import hashlib

    # the parsed arguments, so the cache directory's own path is not part of the key
    request = {k: v for k, v in vars(args).items() if k != "cache_dir"}
    # the version is not bumped between builds, so the sources themselves are keyed too
    package = os.path.dirname(__file__)
    sources = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sources[name] = hashlib.sha256(fh.read()).hexdigest()
    key = hashlib.sha256(
        json.dumps([__version__, sources, request], sort_keys=True).encode()
    ).hexdigest()
    cache_file = os.path.join(args.cache_dir, key + ".out")
    try:
        with open(cache_file, "r", encoding="utf-8") as fh:
            return (fh.read(),)
    except (OSError, UnicodeDecodeError):
        pass  # no entry, or one that cannot be read or decoded: a miss, overwritten below
    return _stored(_pieces(args), args.cache_dir, cache_file)


def _execute(argv):
    """Execute one invocation up to its output; returns (exit_code, iterable of output pieces).

    Every error is caught here, before the first piece: iterating the pieces raises none.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            return 0, ()
        return 2, ("usage error: invalid arguments",)
    try:
        return 0, _run_cached(args)
    except UsageError as exc:
        return 2, (f"usage error: {exc}",)
    except ResourceLimitError as exc:
        return 3, (f"resource cap: {exc}",)
    except InternalComputationError as exc:
        return 4, (f"internal assertion failed: {exc}",)
    except WeylchowError as exc:
        return 4, (f"internal error: {exc}",)


def run(argv):
    """Execute one invocation; returns (exit_code, output_text)."""
    code, pieces = _execute(argv)
    return code, "".join(pieces)


def main():
    """The console script: writes the output piece by piece, with a final newline."""
    code, pieces = _execute(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    try:
        wrote = False
        for piece in pieces:
            stream.write(piece)
            wrote = wrote or bool(piece)
        if wrote:
            stream.write("\n")
        stream.flush()
    except BrokenPipeError:
        # the reader left early: send the rest (and the flush at exit) to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
    finally:
        if hasattr(pieces, "close"):
            pieces.close()  # a cache entry being written is dropped, not left truncated
    sys.exit(code)


if __name__ == "__main__":
    main()
