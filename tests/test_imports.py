"""What a cold process loads: the lazy package namespace and per-subcommand CLI imports."""

import importlib
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import weylchow

MATH_MODULES = {"rootdata", "weyl", "schubert", "polynomial", "steenrod", "motive", "titsjinv"}

#: every public name of `weylchow` apart from `__version__`, by defining module
EXPORTED = {
    "errors": [
        "CalibrationError", "InternalComputationError", "ResourceLimitError", "UsageError",
        "WeylchowError",
    ],
    "rootdata": ["DynkinType", "RootSystem", "build_root_system", "root_subsystem", "weyl_degrees"],
    "weyl": [
        "CosetTable", "WeylElement", "coset_reps", "hasse_edges", "longest_element",
        "poincare_polynomial",
    ],
    "schubert": [
        "ChowClass", "chern_tangent", "dual", "duality_product", "invariant_generators",
        "multiply", "pullback_to_flags",
    ],
    "polynomial": ["Polynomial"],
    "steenrod": ["BottSamelsonRing", "bs_pushforward", "steenrod_total"],
    "motive": [
        "Correspondence", "compose", "decompose", "idempotent_power", "projector_rank",
        "refine_rost", "singleton_components",
    ],
    "titsjinv": [
        "Automaton", "HigherIndexSet", "JProfile", "KacEntry", "TitsIndex",
        "anisotropic_kernel", "automaton", "deglex_leq", "forced_zero_indices", "height",
        "higher_index_table", "is_generically_split", "kac_entry",
        "predicted_rational_poincare", "profile_factor",
    ],
}


#: stdlib modules no command needs: `dataclasses` brings `inspect`, `ast`, `dis` and
#: `tokenize`; no command in integers or mod p needs `fractions`
NO_DATACLASSES = {"dataclasses", "inspect"}
NO_FRACTIONS = {"fractions", "decimal", "numbers"}

HELP_AND_ARGV_ERRORS = {
    "help": ["--help"],
    "missing-type": ["cosets"],
    "unknown-command": ["frobnicate", "--type", "A2"],
}
ROOTS_AND_COSETS = {
    "roots": ["roots", "--type", "B2"],
    "cosets": ["cosets", "--type", "A2", "--theta", ""],
}
CUT_HASSE_AND_TITS = {
    "decompose": ["decompose", "--type", "E7", "--theta", "1,2,3,4,5,6", "--circled", "1,6,7",
                  "--rost"],
    "hasse": ["hasse", "--type", "B3", "--theta", "1"],
    "automaton": ["automaton", "--type", "B3", "--omega", "[[],[1],[1,2],[1,2,3]]"],
    "jinv-rhs": ["jinv", "--type", "F4", "--p", "2", "--profile", "1", "rhs"],
}
#: g(X) is a ratio of Weyl degrees, read without the Schubert layer
POINCARE_COMMANDS = {
    "poincare": ["poincare", "--type", "E6", "--theta", "1"],
    "jinv-predict": ["jinv", "--type", "E6", "--p", "2", "--profile", "1", "predict",
                     "--theta", "2,3,4,5,6"],
}
_A2_CLASS = '{"type": "A2", "theta": [], "ring": "Z/2", "terms": [{"word": [1], "coeff": 1}]}'
SCHUBERT_COMMANDS = {
    "mult": ["mult", "--type", "A2", "--theta", "", "--a", _A2_CLASS, "--b", _A2_CLASS],
    "chern": ["chern", "--type", "B3", "--theta", "1", "--mod", "2"],
    "steenrod": ["steenrod", "--type", "A2", "--theta", "", "--class", _A2_CLASS],
}


def _params(*groups):
    cases = {k: tuple(v) for group in groups for k, v in group.items()}
    return pytest.mark.parametrize("argv", list(cases.values()), ids=list(cases))


def _last_line_of_python(script):
    """The last stdout line of a fresh interpreter that runs script on this weylchow."""
    src = str(Path(weylchow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=env, timeout=60, check=True)
    return p.stdout.splitlines()[-1]


@cache
def _modules_loaded_by(argv: tuple):
    """The weylchow submodules and the top-level stdlib modules a fresh
    interpreter has loaded after one CLI invocation (one process per argv)."""
    script = (
        "import json, sys\n"
        "from weylchow.cli import run\n"
        f"run({list(argv)!r})\n"
        "print(json.dumps([sorted(m.split('.', 1)[1] for m in sys.modules"
        " if m.startswith('weylchow.')), sorted({m.split('.', 1)[0] for m in sys.modules}"
        " & sys.stdlib_module_names)]))\n"
    )
    package, stdlib = json.loads(_last_line_of_python(script))
    return set(package), set(stdlib)


@_params(HELP_AND_ARGV_ERRORS)
def test_help_and_argv_errors_load_no_math_module(argv):
    package, _ = _modules_loaded_by(argv)
    assert package & MATH_MODULES == set()


@_params(ROOTS_AND_COSETS)
def test_roots_and_cosets_load_only_root_data_and_weyl(argv):
    package, _ = _modules_loaded_by(argv)
    assert "rootdata" in package
    assert package & {"schubert", "polynomial", "steenrod", "motive", "titsjinv"} == set()


@_params(CUT_HASSE_AND_TITS, POINCARE_COMMANDS)
def test_cut_hasse_and_tits_commands_load_no_schubert_machinery(argv):
    package, _ = _modules_loaded_by(argv)
    assert package & {"schubert", "polynomial", "steenrod"} == set()


@_params(SCHUBERT_COMMANDS)
def test_schubert_commands_load_no_polynomials(argv):
    # products, Chern classes and Steenrod squares compute in the Schubert basis alone
    package, _ = _modules_loaded_by(argv)
    assert "schubert" in package
    assert "polynomial" not in package


def test_steenrod_import_loads_no_polynomials():
    script = (
        "import json, sys\n"
        "import weylchow.steenrod\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('weylchow.'))))\n"
    )
    loaded = set(json.loads(_last_line_of_python(script)))
    assert "weylchow.schubert" in loaded
    assert "weylchow.polynomial" not in loaded


@_params(HELP_AND_ARGV_ERRORS, ROOTS_AND_COSETS, CUT_HASSE_AND_TITS, POINCARE_COMMANDS,
         SCHUBERT_COMMANDS)
def test_no_command_loads_dataclasses_or_inspect(argv):
    _, stdlib = _modules_loaded_by(argv)
    assert "json" in stdlib  # the stdlib report is live
    assert stdlib & NO_DATACLASSES == set()


@_params(ROOTS_AND_COSETS, CUT_HASSE_AND_TITS, POINCARE_COMMANDS)
def test_weyl_motive_and_tits_commands_load_no_fractions(argv):
    _, stdlib = _modules_loaded_by(argv)
    assert stdlib & NO_FRACTIONS == set()


@_params(SCHUBERT_COMMANDS)
def test_schubert_commands_in_integers_load_no_fractions(argv):
    # `fractions` is loaded only for a rational coefficient or a product over Q
    _, stdlib = _modules_loaded_by(argv)
    assert stdlib & NO_FRACTIONS == set()


def test_rational_product_loads_fractions_and_prints_as_before():
    def a2_class(x, y):
        return json.dumps({"type": "A2", "theta": [], "ring": "Q", "terms": [
            {"word": [1, 2], "coeff": x}, {"word": [2, 1], "coeff": y}]})

    argv = ["mult", "--type", "A2", "--theta", "", "--a", a2_class("1/2", "1/3"),
            "--b", a2_class(1, 0)]
    script = (
        "import json, sys\n"
        "from weylchow.cli import run\n"
        f"code, out = run({argv!r})\n"
        "print(json.dumps([code, out, 'fractions' in sys.modules]))\n"
    )
    code, out, loaded = json.loads(_last_line_of_python(script))
    assert (code, loaded) == (0, True)
    assert out == ('{"ring": "Q", "terms": [{"coeff": "1/3", "word": [1]}, '
                   '{"coeff": "5/6", "word": [2]}], "theta": [], "type": "A2"}')


def test_no_weylchow_module_imports_dataclasses_or_inspect():
    package_dir = Path(weylchow.__file__).resolve().parent
    modules = sorted(f"weylchow.{f.stem}" for f in package_dir.glob("*.py"))
    assert "weylchow.titsjinv" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert _last_line_of_python(script) == "[]"


def test_namespace_resolves_every_exported_name():
    listed = dir(weylchow)
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"weylchow.{module}")
        for name in names:
            assert getattr(weylchow, name) is getattr(owner, name), name
            assert name in listed and name in weylchow.__all__, name
    with pytest.raises(AttributeError):
        weylchow.no_such_name
