"""What a cold process loads: the lazy package namespace and per-subcommand CLI imports."""

import importlib
import json
import os
import subprocess
import sys
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
    "weyl": ["CosetTable", "WeylElement", "coset_reps", "hasse_diagram", "longest_element"],
    "schubert": [
        "ChowClass", "char_map", "chern_tangent", "divided_difference", "dual",
        "duality_product", "invariant_generators", "multiply", "pieri_multiply",
        "poincare_polynomial", "preimage", "pullback_to_flags",
    ],
    "polynomial": ["Polynomial"],
    "steenrod": ["BottSamelsonRing", "bs_pushforward", "steenrod_on_bs", "steenrod_total"],
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


def _modules_loaded_by(argv):
    """The weylchow submodules a fresh interpreter has loaded after one CLI invocation."""
    script = (
        "import json, sys\n"
        "from weylchow.cli import run\n"
        f"run({argv!r})\n"
        "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules"
        " if m.startswith('weylchow.'))))\n"
    )
    src = str(Path(weylchow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=env, timeout=60, check=True)
    return set(json.loads(p.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", [["--help"], ["cosets"], ["frobnicate", "--type", "A2"]],
                         ids=["help", "missing-type", "unknown-command"])
def test_help_and_argv_errors_load_no_math_module(argv):
    assert _modules_loaded_by(argv) & MATH_MODULES == set()


@pytest.mark.parametrize("argv", [["roots", "--type", "B2"], ["cosets", "--type", "A2", "--theta", ""]],
                         ids=["roots", "cosets"])
def test_roots_and_cosets_load_only_root_data_and_weyl(argv):
    loaded = _modules_loaded_by(argv)
    assert "rootdata" in loaded
    assert loaded & {"schubert", "polynomial", "steenrod", "motive", "titsjinv"} == set()


@pytest.mark.parametrize(
    "argv",
    [["decompose", "--type", "E7", "--theta", "1,2,3,4,5,6", "--circled", "1,6,7", "--rost"],
     ["hasse", "--type", "B3", "--theta", "1"],
     ["automaton", "--type", "B3", "--omega", "[[],[1],[1,2],[1,2,3]]"],
     ["jinv", "--type", "F4", "--p", "2", "--profile", "1", "rhs"]],
    ids=["decompose", "hasse", "automaton", "jinv-rhs"],
)
def test_cut_hasse_and_tits_commands_load_no_schubert_machinery(argv):
    assert _modules_loaded_by(argv) & {"schubert", "polynomial", "steenrod"} == set()


def test_namespace_resolves_every_exported_name():
    listed = dir(weylchow)
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"weylchow.{module}")
        for name in names:
            assert getattr(weylchow, name) is getattr(owner, name), name
            assert name in listed and name in weylchow.__all__, name
    with pytest.raises(AttributeError):
        weylchow.no_such_name
