"""What `hvec` loads at start-up: fresh interpreters, compared with a bare one.

Also the lazy package: `import hvectors` loads no module, and each public
name imports its home module on first use.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hvectors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_LOADED = "import sys; {}; print('\\n'.join(sorted(sys.modules)))"


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=60, cwd=ROOT)


def loaded_modules(statement):
    result = run_python("-c", _LOADED.format(statement))
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def hvectors_modules(statement):
    return {name for name in loaded_modules(statement) if name.partition(".")[0] == "hvectors"}


def test_import_hvectors_loads_no_submodule():
    assert hvectors_modules("import hvectors") == {"hvectors"}


@pytest.mark.parametrize("use, loaded", [
    ("hvectors.HVector((1, 2, 1))", {"sequences", "binomials"}),
    ("hvectors.errors.InfeasibleSearchError", {"errors"}),
    ("hvectors.monomials.socle_vector", {"monomials", "errors", "sequences", "binomials"}),
])
def test_first_use_of_a_name_or_submodule_loads_its_module(use, loaded):
    assert hvectors_modules(f"import hvectors; {use}") == {
        "hvectors", *(f"hvectors.{name}" for name in loaded)}


# every command loads these; the rest are each command's own
EVERY_COMMAND = {"hvectors", "hvectors.cli", "hvectors.errors", "hvectors.sequences",
                 "hvectors.binomials"}


@pytest.mark.parametrize("argv, own", [
    (["expand", "5", "2"], set()),
    (["check", "1,3,3,1"], set()),
    (["classify", "1,3,3,1"], set()),
    (["decompose", "1,3,4,3,1"], {"decomposition"}),
    (["refute", "1,3,6,6,5,6,6,3,1"], {"decomposition"}),
    (["realize", "1,3,3,1"], {"monomials"}),
    (["socle", "1,3,3,1"], {"monomials"}),
    (["enumerate", "--degree", "3", "--codim", "3"], {"enumeration"}),
])
def test_each_command_loads_only_the_modules_it_runs(argv, own):
    statement = f"from hvectors.cli import main; assert main({argv!r}) == 0"
    assert hvectors_modules(statement) == EVERY_COMMAND | {f"hvectors.{name}" for name in own}


def test_only_help_and_errors_load_argparse():
    well_formed = loaded_modules('from hvectors.cli import main; assert main(["check", "1,3,3,1"]) == 0')
    assert not (well_formed - loaded_modules("pass")) & {"argparse", "gettext", "locale"}
    helped = run_python("-c", "\n".join([
        "import sys",
        "from hvectors.cli import main",
        "try:",
        "    main(['check', '--help'])",
        "except SystemExit as exc:",
        "    print(exc.code, 'argparse' in sys.modules, file=sys.stderr)",
    ]))
    assert helped.stdout.startswith("usage: hvec check")
    assert helped.stderr == "0 True\n"


def test_import_leaves_out_dataclasses_inspect_and_json():
    added = loaded_modules("import hvectors.cli") - loaded_modules("pass")
    assert "hvectors.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}, sorted(added)


def test_no_source_file_mentions_dataclasses():
    assert [path.name for path in SRC.rglob("*.py") if "dataclasses" in path.read_text()] == []


def test_json_flag_still_prints_the_report():
    result = run_python("-m", "hvectors.cli", "check", "1,3,3,1", "--json")
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert report["input"] == [1, 3, 3, 1]
    assert report["verdicts"]["si_sequence"]["holds"] is True


# the package's public names, as listed before they were resolved lazily
PUBLIC_NAMES = """
    BinomialExpansion ClassificationReport DegreeTrace EnumerationSpec HVector InequalityCheck
    InfeasibleSearchError Monomial NotAnOSequenceError PivotDecomposition PreconditionViolatedError
    Reason ReasonKind RefutationReport RefutedCandidate SequenceFilter SocleVector SurvivorTable
    TraceCase TraceViolationError UnsupportedCodimensionError Verdict binom classify_gorenstein
    complete_intersection_hvector complete_intersection_table count_by_degree
    differentiability_violation divisors enumerate_hvectors expand find_pivot_decomposition
    first_difference first_half hilbert_function is_differentiable is_o_sequence is_si_sequence
    is_symmetric is_unimodal lex_segment_realization lex_socle_vector macaulay_bound
    max_growth_bruteforce monomials_of_degree o_sequence_violation refute_non_si render_monomial
    si_violations socle_vector symmetry_violation unimodality_violation verify_decomposition_traces
""".split()


def test_all_lists_the_public_names():
    assert hvectors.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_home_module_object_and_is_cached(name):
    home = importlib.import_module(f"hvectors.{hvectors._HOME[name]}")
    value = getattr(hvectors, name)
    assert value is getattr(home, name)
    if name != "Monomial":  # an alias of tuple[int, ...], defined in no module
        assert value.__module__ == home.__name__
    assert vars(hvectors)[name] is value


def test_dir_and_star_import_list_every_name():
    assert set(PUBLIC_NAMES) <= set(dir(hvectors))
    namespace = {}
    exec("from hvectors import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(hvectors, name) for name in PUBLIC_NAMES}


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hvectors.no_such_name  # noqa: B018


@pytest.mark.parametrize("module, name", [
    ("monomials", "NotAnOSequenceError"),
    ("monomials", "InfeasibleSearchError"),
    ("decomposition", "InfeasibleSearchError"),
    ("decomposition", "PreconditionViolatedError"),
    ("decomposition", "TraceViolationError"),
    ("decomposition", "UnsupportedCodimensionError"),
])
def test_moved_exceptions_keep_their_old_import_paths(module, name):
    assert getattr(importlib.import_module(f"hvectors.{module}"), name) is getattr(hvectors.errors, name)


def test_sequence_filter_keeps_its_old_import_path():
    from hvectors.enumeration import SequenceFilter

    assert SequenceFilter is hvectors.sequences.SequenceFilter
