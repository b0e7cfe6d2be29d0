"""Layer tracer for the weylchow benchmark.

The tracer wraps the names listed in LAYERS with timing spans, without
touching the package's source: each wrapper replaces the original object in
every loaded ``weylchow`` module that refers to it (so ``from .schubert
import multiply`` inside ``cli`` is traced too), and class attributes are
replaced on the class.  A name that no longer exists is recorded as absent
and skipped, so a rename or a deletion shows up in the trace instead of
crashing the run.

A layer's self time is the time its spans cover minus the part covered by
nested spans.  Extra metrics (METRICS) are either the inclusive time of the
outermost activation of some names, or call counts, or values computed by a
hook from a call's arguments and result.
"""

import importlib
import sys
import time

#: layer -> (module, names).  "Class.attr" wraps a method, property or
#: staticmethod on the class.  Names prefixed with "#" only count calls (no
#: span): they are leaf functions called millions of times, where a span
#: would cost more than the work it measures.
LAYERS = {
    "rootdata": ("weylchow.rootdata", [
        "build_root_system", "weyl_degrees", "root_subsystem",
        "DynkinType.parse", "#DynkinType.name", "DynkinType.canonical",
        "DynkinType.same_type", "DynkinType.component_ranges",
        "RootSystem.__init__", "#RootSystem.alpha_omega", "#RootSystem.reflect_weight",
        "#RootSystem.reflect_root", "#RootSystem.root_to_omega",
        "RootSystem.is_positive_root", "RootSystem.num_positive_roots",
        "PositiveRoot.coroot_pairing",
    ]),
    "weyl": ("weylchow.weyl", [
        "coset_reps", "longest_element", "hasse_diagram", "hasse_to_dot", "hasse_to_json",
        "apply_word", "multiply", "all_reduced_words", "enumerate_group",
        "#WeylElement.from_word", "WeylElement.inverse", "WeylElement.__mul__",
        "CosetTable.__init__", "CosetTable.dual_index", "CosetTable.rep_of",
        "CosetTable.graded_counts",
    ]),
    "polynomial": ("weylchow.polynomial", [
        "elementary_symmetric_classes", "series_inverse", "exact_divide_by_linear",
        "Polynomial.__add__", "Polynomial.__sub__", "Polynomial.__mul__",
        "Polynomial.mul_truncated", "Polynomial.scale", "Polynomial.reflect",
        "Polynomial.divided_difference", "Polynomial.is_invariant_under",
        "Polynomial.to_integer", "Polynomial.reduce_mod", "Polynomial.map_fractions",
        "Polynomial.evaluate", "Polynomial.derivative", "Polynomial.graded_parts",
        "Polynomial.homogeneous_part",
    ]),
    "univar": ("weylchow.univar", [
        "tpoly", "add", "mul", "scale", "shift", "divide", "divide_exact",
        "cyclotomic_ratio", "t_power_minus_one", "evaluate", "to_string",
    ]),
    "schubert": ("weylchow.schubert", [
        "multiply", "pieri_multiply", "char_map", "preimage", "divided_difference",
        "poincare_polynomial", "dual", "duality_product", "flag_context",
        "invariant_generators", "chern_tangent", "pullback_to_flags",
        "class_to_json", "class_from_json",
        "_invariant_generators", "_multiply_homogeneous", "_multiply_poly_route",
        "_multiply_by_pairings",
        "_FlagContext.delta_scalars", "_FlagContext.char_map_graded", "_FlagContext.grid",
        "_FlagContext._product_poly", "_FlagContext.basis_preimages",
        "_FlagContext.preimage_of", "_FlagContext.chern_classes",
    ]),
    "steenrod": ("weylchow.steenrod", [
        "steenrod_total", "steenrod_basis_element", "steenrod_on_bs", "bs_pushforward",
        "wu_convention", "_calibrate", "_direct_steenrod_pieces", "_phi_pieces",
        "_steenrod_by_duality",
        "BottSamelsonRing.__init__", "BottSamelsonRing.mul_divisor",
        "BottSamelsonRing.mul_linear", "BottSamelsonRing.add", "BottSamelsonRing.mul",
        "BottSamelsonRing.mul_one_plus_series", "BottSamelsonRing.pull_weight_class",
        "BottSamelsonRing.graded_piece",
    ]),
    "motive": ("weylchow.motive", [
        "decompose", "refine_rost", "singleton_components", "decomposition_profile_sum",
        "decomposition_to_json", "decomposition_to_dot", "compose", "diagonal",
        "idempotent_power", "projector_rank",
    ]),
    "titsjinv": ("weylchow.titsjinv", [
        "automaton", "height", "automaton_to_dot", "automaton_to_json",
        "higher_index_table", "deglex_leq", "kac_entry", "profile_factor",
        "kac_poincare", "predicted_rational_poincare", "is_generically_split",
        "forced_zero_indices", "anisotropic_kernel", "HigherIndexSet.build",
    ]),
    "cli": ("weylchow.cli", ["run", "_dispatch", "_build_parser"]),
}

#: metric -> ("time", [keys]) inclusive seconds of the outermost activation,
#: or ("calls", [keys]) call count.  Keys are "layer:Name".
METRICS = {
    "polynomial.divdiff_s": ("time", ["polynomial:Polynomial.divided_difference"]),
    "polynomial.esym_s": ("time", ["polynomial:elementary_symmetric_classes"]),
    "polynomial.mul_s": ("time", ["polynomial:Polynomial.__mul__"]),
    "polynomial.mul_calls": ("calls", ["polynomial:Polynomial.__mul__"]),
    "schubert.generators_s": ("time", ["schubert:_invariant_generators"]),
    "schubert.grid_s": ("time", ["schubert:_FlagContext.grid"]),
    "schubert.grid_imaged": ("calls", ["schubert:_FlagContext._product_poly"]),
    "schubert.delta_sweep_s": ("time", ["schubert:_FlagContext.delta_scalars"]),
    "schubert.chern_s": ("time", ["schubert:_FlagContext.chern_classes"]),
    "schubert.multiply_calls": ("calls", ["schubert:multiply"]),
    "schubert.poly_route_calls": ("calls", ["schubert:_multiply_poly_route"]),
    "schubert.pairing_route_calls": ("calls", ["schubert:_multiply_by_pairings"]),
    "steenrod.bs_ring_s": ("time", [
        "steenrod:BottSamelsonRing." + m for m in (
            "__init__", "mul_divisor", "mul_linear", "add", "mul",
            "mul_one_plus_series", "pull_weight_class", "graded_piece")]),
    "steenrod.bs_rings_built": ("calls", ["steenrod:BottSamelsonRing.__init__"]),
    "steenrod.pushforward_s": ("time", ["steenrod:bs_pushforward"]),
    "steenrod.direct_s": ("time", ["steenrod:_direct_steenrod_pieces"]),
    "steenrod.phi_s": ("time", ["steenrod:_phi_pieces"]),
    "steenrod.calibrate_s": ("time", ["steenrod:_calibrate"]),
    "weyl.coset_build_s": ("time", ["weyl:CosetTable.__init__"]),
    "weyl.dual_index_s": ("time", ["weyl:CosetTable.dual_index"]),
    "weyl.hasse_s": ("time", ["weyl:hasse_diagram"]),
    "weyl.from_word_calls": ("calls", ["weyl:WeylElement.from_word"]),
    "motive.decompose_s": ("time", ["motive:decompose"]),
    "cli.dispatch_s": ("time", ["cli:_dispatch"]),
    "rootdata.build_s": ("time", ["rootdata:build_root_system"]),
    "rootdata.type_name_calls": ("calls", ["rootdata:DynkinType.name"]),
}

#: metrics fed by hooks below; "max" metrics keep the largest value seen
HOOK_METRICS = {
    "polynomial.divdiff_terms_in": "sum", "polynomial.max_terms": "max",
    "polynomial.mul_terms_out": "sum", "schubert.grid_pivots": "sum",
    "schubert.pair_memo_hits": "sum", "schubert.pair_memo_misses": "sum",
    "steenrod.bs_ring_max_len": "max", "steenrod.pushforward_monomials": "sum",
    "steenrod.phi_cache_hits": "sum", "steenrod.phi_cache_misses": "sum",
    "weyl.coset_reps_total": "sum", "motive.components": "sum",
    "cli.output_bytes": "sum", "cli.replay_hits": "sum", "cli.replay_misses": "sum",
}


def _terms(p):
    return len(p.terms)


def _h_divdiff(t, args, kwargs, result, pre):
    t.add("polynomial.divdiff_terms_in", _terms(args[0]))


def _h_esym(t, args, kwargs, result, pre):
    t.add("polynomial.max_terms", max(_terms(p) for p in result))


def _h_mul(t, args, kwargs, result, pre):
    n = _terms(result)
    t.add("polynomial.mul_terms_out", n)
    t.add("polynomial.max_terms", n)


def _pre_grid(t, args, kwargs):
    ctx, d = args[0], (args[1] if len(args) > 1 else kwargs["d"])
    return d in ctx._grid


def _h_grid(t, args, kwargs, result, was_cached):
    if not was_cached:
        t.add("schubert.grid_pivots", len(result[0]))


def _pre_calls(*keys):
    """A pre hook snapshotting the call counts of `keys`, to see whether a call reached them."""
    def pre(t, args, kwargs):
        return sum(t.calls.get(k, 0) for k in keys)
    return pre


_route_calls = _pre_calls("schubert:_multiply_poly_route", "schubert:_multiply_by_pairings")


def _pre_memo(t, args, kwargs):
    # _multiply_homogeneous consults the pair memo only for 0 < da, db and da + db < dim
    ctx, _, _, da, db = args[:5]
    return da != 0 and db != 0 and da + db < ctx.dim, _route_calls(t, args, kwargs)


def _h_memo(t, args, kwargs, result, pre):
    eligible, before = pre
    if eligible:
        missed = _route_calls(t, args, kwargs) > before
        t.add("schubert.pair_memo_misses" if missed else "schubert.pair_memo_hits", 1)


def _h_bs_init(t, args, kwargs, result, pre):
    t.add("steenrod.bs_ring_max_len", args[0].length)


def _h_push(t, args, kwargs, result, pre):
    t.add("steenrod.pushforward_monomials", len(args[1]))


def _h_phi(t, args, kwargs, result, before):
    built = t.calls.get("steenrod:BottSamelsonRing.__init__", 0) > before
    t.add("steenrod.phi_cache_misses" if built else "steenrod.phi_cache_hits", 1)


def _h_coset(t, args, kwargs, result, pre):
    t.add("weyl.coset_reps_total", len(args[0]))


def _h_decompose(t, args, kwargs, result, pre):
    t.add("motive.components", len(result))


def _h_cli_run(t, args, kwargs, result, before):
    argv = args[0] if args else kwargs["argv"]
    t.add("cli.output_bytes", len(result[1].encode()))
    if any(a.startswith("--cache-dir") for a in argv):
        dispatched = t.calls.get("cli:_dispatch", 0) > before
        t.add("cli.replay_misses" if dispatched else "cli.replay_hits", 1)


#: key -> (pre hook or None, post hook)
HOOKS = {
    "polynomial:Polynomial.divided_difference": (None, _h_divdiff),
    "polynomial:elementary_symmetric_classes": (None, _h_esym),
    "polynomial:Polynomial.__mul__": (None, _h_mul),
    "schubert:_FlagContext.grid": (_pre_grid, _h_grid),
    "schubert:_multiply_homogeneous": (_pre_memo, _h_memo),
    "steenrod:BottSamelsonRing.__init__": (None, _h_bs_init),
    "steenrod:bs_pushforward": (None, _h_push),
    "steenrod:_phi_pieces": (_pre_calls("steenrod:BottSamelsonRing.__init__"), _h_phi),
    "weyl:CosetTable.__init__": (None, _h_coset),
    "motive:decompose": (None, _h_decompose),
    "cli:run": (_pre_calls("cli:_dispatch"), _h_cli_run),
}


def metric_names():
    """Every per-layer metric the tracer reports, in a stable order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors"]
    names += list(METRICS) + list(HOOK_METRICS)
    return names


class Tracer:
    """Spans and counters for one process; install() wraps the LAYERS names."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.clock = time.perf_counter_ns
        self.stack = []            # one [nested span ns] per open span
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.errors = {layer: 0 for layer in LAYERS}
        self.calls = {}            # key -> call count
        self.values = {}           # hook metric -> value
        self.metric_ns = {m: 0 for m, (kind, _) in METRICS.items() if kind == "time"}
        self.depth = {m: 0 for m in self.metric_ns}
        self.top_ns = 0            # time covered by outermost spans
        self.absent = []
        self.hook_errors = 0

    def add(self, metric, value):
        if HOOK_METRICS[metric] == "max":
            self.values[metric] = max(self.values.get(metric, 0), value)
        else:
            self.values[metric] = self.values.get(metric, 0) + value

    # -- installation -------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(mod) for layer, (mod, _) in self.layers.items()}
        timed = {}
        for metric, (kind, keys) in METRICS.items():
            if kind == "time":
                for key in keys:
                    timed.setdefault(key, []).append(metric)
        for layer, (_, names) in self.layers.items():
            for name in names:
                count_only = name.startswith("#")
                name = name.lstrip("#")
                key = f"{layer}:{name}"
                if not self._wrap(mods[layer], layer, name, key, count_only, timed.get(key, ())):
                    self.absent.append(f"{layer}.{name}")

    def _wrap(self, mod, layer, name, key, count_only, metrics):
        owner_name, _, attr = name.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, property):
                setattr(owner, attr, property(
                    self._wrapper(raw.fget, layer, key, count_only, metrics),
                    raw.fset, raw.fdel, raw.__doc__))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(
                    self._wrapper(raw.__func__, layer, key, count_only, metrics)))
            elif callable(raw):
                setattr(owner, attr, self._wrapper(raw, layer, key, count_only, metrics))
            else:
                return False
            return True
        orig = getattr(mod, name, None)
        if not callable(orig):
            return False
        wrapper = self._wrapper(orig, layer, key, count_only, metrics)
        for m in list(sys.modules.values()):
            if m is None or not (getattr(m, "__name__", "") or "").startswith("weylchow"):
                continue
            for attr_name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr_name, wrapper)
        return True

    def _wrapper(self, fn, layer, key, count_only, metrics):
        calls = self.calls
        calls[key] = 0
        layer_calls = self.layer_calls
        if count_only:
            def counted(*args, **kwargs):
                calls[key] += 1
                layer_calls[layer] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        clock = self.clock
        stack = self.stack
        self_ns = self.self_ns
        errors = self.errors
        metric_ns = self.metric_ns
        depth = self.depth
        pre_hook, post_hook = HOOKS.get(key, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            calls[key] += 1
            layer_calls[layer] += 1
            pre = None
            if pre_hook is not None:
                try:
                    pre = pre_hook(tracer, args, kwargs)
                except Exception:
                    tracer.hook_errors += 1
            for m in metrics:
                depth[m] += 1
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                self_ns[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_ns += dur
                for m in metrics:
                    depth[m] -= 1
                    if not depth[m]:
                        metric_ns[m] += dur
            if post_hook is not None:
                try:
                    post_hook(tracer, args, kwargs, result, pre)
                except Exception:
                    tracer.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- report -----------------------------------------------------------

    def report(self):
        """Plain-JSON snapshot; merge() adds snapshots from several processes."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for metric, (kind, keys) in METRICS.items():
            if kind == "time":
                out[metric] = self.metric_ns[metric] / 1e9
            else:
                out[metric] = sum(self.calls.get(k, 0) for k in keys)
        for metric in HOOK_METRICS:
            out[metric] = self.values.get(metric, 0)
        return {
            "metrics": out,
            "top_s": self.top_ns / 1e9,
            "absent": list(self.absent),
            "hook_errors": self.hook_errors,
        }


def merge(reports):
    """Combine report() snapshots of several processes."""
    out = {"metrics": {}, "top_s": 0.0, "absent": [], "hook_errors": 0}
    for rep in reports:
        for name, value in rep["metrics"].items():
            if HOOK_METRICS.get(name) == "max":
                out["metrics"][name] = max(out["metrics"].get(name, 0), value)
            else:
                out["metrics"][name] = out["metrics"].get(name, 0) + value
        out["top_s"] += rep["top_s"]
        out["absent"] = sorted(set(out["absent"]) | set(rep["absent"]))
        out["hook_errors"] += rep["hook_errors"]
    return out
