"""Start-up: each command imports only the modules it runs, and the package stays whole.

A command is run in a fresh interpreter through ``tau2.cli.main``; the
modules it left in ``sys.modules`` are compared with those of an interpreter
that ran nothing, so what the environment preloads (through ``site``) is not
counted against tau2.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import tau2
from tau2 import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
PATH = os.environ.get("PYTHONPATH")
ENV = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + PATH if PATH else ""))
MARKER = "loaded-modules "
DRIVER = f"""
import sys
try:
    if sys.argv[1:]:
        from tau2 import cli
        cli.main(sys.argv[1:])
except SystemExit:
    pass
print({MARKER!r} + " ".join(sorted(sys.modules)), file=sys.stderr)
"""

HELP = ["--help"]
TABLE_CSV = ["table", "--g", "3", "--format", "csv"]
TABLE_JSON = ["table", "--g", "3", "--format", "json"]
VALUE_CLOSED = ["value", "--g", "3", "--k", "1", "--method", "closed"]
VALUE_BOTH_JSON = ["value", "--g", "3", "--k", "1", "--format", "json"]
VERIFY_CSV = ["verify", "--g-max", "3", "--format", "csv"]
VERIFY_JSON = ["verify", "--g-max", "3", "--format", "json"]
BENCH = ["bench", "--g-max", "2"]
USAGE_ERROR = ["value", "--g", "2"]
# every method and format of the two commands that print through tau2.output
OUTPUT = [
    [command, "--g", "3", *(["--k", "1"] if command == "value" else []),
     "--method", method, "--format", fmt]
    for command in ("table", "value")
    for method in ("closed", "recursive", "both")
    for fmt in ("plain", "csv", "json")
]  # fmt: skip
WELL_FORMED = [
    TABLE_CSV, TABLE_JSON, VALUE_CLOSED, VALUE_BOTH_JSON, VERIFY_CSV, VERIFY_JSON, BENCH, *OUTPUT,
]  # fmt: skip
COMMANDS = [HELP, USAGE_ERROR, *WELL_FORMED]
# what argparse brings: gettext on import, locale with its first translated string
ARGPARSE = {"argparse", "gettext", "locale"}

LAYERS = ("closedform", "combinatorics", "recursion", "verification")

# tau2.__all__ at the commit that made the layers load lazily, less the
# Fraction table layer (TwoPointTable, build_table, two_point_recursive), the
# Fraction single value two_point_streamed, and the names nothing ran (DELETED)
PUBLIC = {
    "CheckFailure", "CheckReport", "__version__",
    "b_domain_max", "b_value", "check_bounds",
    "check_residual_a", "check_residual_b", "check_residual_tau", "check_symmetry",
    "cross_validate", "double_factorial_odd",
    "genus_row", "normalize",
    "odd_lcm", "rational_str", "recursive_row", "two_point_closed",
}  # fmt: skip
# name: the layer that exported it.  The point-form residuals (one entry per
# call, rows rebuilt each time), the Fraction genus 1 seed and <tau_d> for any d
# had only their own tests as callers; factorial and binomial were math's, and
# multinomial's one caller was genus0_npoint.  The Fraction point lookups
# (a_closed and the cache that clear_caches dropped), the one-point value and
# the genus-0 formula had no command as a caller: the rows are integers.
DELETED = {
    "residual_rec_tau": "verification", "residual_rec_a": "verification",
    "residual_rec_b": "verification", "genus1_seed": "recursion",
    "one_point_at": "recursion", "factorial": "combinatorics", "binomial": "combinatorics",
    "multinomial": "combinatorics", "a_closed": "closedform", "clear_caches": "closedform",
    "one_point": "recursion", "genus0_npoint": "recursion",
}  # fmt: skip

# functions whose calls and times the benchmark's tracer (perfbench/trace_job.py)
# reports per layer; it wraps only plain functions listed in a layer's __all__
TRACED = {
    "closedform": ("two_point_closed", "b_value", "normalize"),
    "recursion": ("genus_row",),
    "combinatorics": ("rational_str", "double_factorial_odd"),
    "verification": (
        "cross_validate", "check_symmetry", "check_bounds",
        "check_residual_tau", "check_residual_a", "check_residual_b",
    ),
}  # fmt: skip


def _python(code, *argv, site=True):
    proc = subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", code, *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(proc):
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(MARKER), proc.stderr
    return set(last[len(MARKER) :].split())


def _modules(argv, site=True):
    return _loaded(_python(DRIVER, *argv, site=site))


@pytest.fixture(scope="module")
def loaded():
    """Per command (as a tuple), the modules it loaded beyond a bare interpreter."""
    bare = _modules([])
    return {tuple(argv): _modules(argv) - bare for argv in COMMANDS}


def test_help_loads_no_layer(loaded):
    mods = loaded[tuple(HELP)]
    assert "tau2.cli" in mods
    assert not mods & {f"tau2.{layer}" for layer in LAYERS}
    assert not mods & {"dataclasses", "json", "fractions"}


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_well_formed_commands_load_no_argparse(loaded, argv):
    assert not loaded[tuple(argv)] & ARGPARSE


@pytest.mark.parametrize("argv", [HELP, USAGE_ERROR], ids=" ".join)
def test_help_and_usage_errors_load_argparse(loaded, argv):
    assert "argparse" in loaded[tuple(argv)]


def test_bench_loads_its_module(loaded):
    assert "tau2.bench" in loaded[tuple(BENCH)]


@pytest.mark.parametrize("argv", [HELP, USAGE_ERROR], ids=" ".join)
def test_help_and_usage_errors_load_no_bench(loaded, argv):
    assert "tau2.bench" not in loaded[tuple(argv)]


@pytest.mark.parametrize("argv", [argv for argv in WELL_FORMED if argv != BENCH], ids=" ".join)
def test_other_commands_load_no_bench(loaded, argv):
    assert "tau2.bench" not in loaded[tuple(argv)]


def test_no_module_imports_bench_when_it_loads():
    _python(
        "import sys, tau2.cli, tau2.output, tau2.verification\n"
        "assert 'tau2.bench' not in sys.modules\n"
    )


def test_library_import_of_the_verify_body_loads_no_cli():
    # verification.verify imports what it needs of cli when the command runs
    _python("import sys, tau2.verification\nassert 'tau2.cli' not in sys.modules\n")


# per command, a plain argv and the attributes it parses to
DISPATCH = {
    "value": (["value", "--g", "3", "--k", "1"],
              {"command": "value", "g": 3, "k": 1, "method": "both", "format": "plain"}),
    "table": (["table", "--g", "3"],
              {"command": "table", "g": 3, "method": "closed", "format": "plain"}),
    "verify": (["verify", "--g-max", "3"],
               {"command": "verify", "g_max": 3, "checks": None, "format": "plain"}),
    "bench": (["bench", "--g-max", "3"], {"command": "bench", "g_max": 3, "method": "both"}),
}  # fmt: skip
# tools/same_stdout.py, for the --checks values that verify refuses (CHECKS_REFUSED)
_spec = importlib.util.spec_from_file_location("same_stdout", ROOT / "tools" / "same_stdout.py")
same_stdout = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_stdout)
# argv that pass the size refusal and fail the row's usage check: an off-row --k (the
# negative one read by argparse), and each --checks that verify refuses
CHECKED = {
    "value": [["value", "--g", "3", "--k", "9"], ["value", "--g", "3", "--k", "-1"]],
    "verify": [["verify", "--g-max", "3", "--checks", c] for c in same_stdout.CHECKS_REFUSED],
}
BODY_MODULES = {f"tau2.{module}" for _, _, module, *_ in cli._COMMANDS.values()}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
class TestDispatch:
    """``main`` calls each command's body where it lives, and loads it only to call it."""

    def test_body_is_the_function_named_after_the_command(self, command):
        module = importlib.import_module(f"tau2.{cli._COMMANDS[command][2]}")
        body = getattr(module, command)
        assert isinstance(body, types.FunctionType)
        assert (body.__module__, body.__name__) == (module.__name__, command)

    @pytest.mark.parametrize("form", ["plain", "argparse"])
    def test_main_calls_the_body_bound_now(self, monkeypatch, command, form):
        # a body rebound after import (a test's stub, a tracer's wrapper) is the one main calls
        argv, fields = DISPATCH[command]
        if form == "plain":
            def no_argparse():
                raise AssertionError("a well-formed argv reached argparse")

            monkeypatch.setattr(cli, "_build_parser", no_argparse)
        else:
            # --g=3 is read by argparse alone
            argv = [argv[0], *map("=".join, zip(argv[1::2], argv[2::2]))]
            assert cli._parse(argv) is None
        calls = []
        module = importlib.import_module(f"tau2.{cli._COMMANDS[command][2]}")
        monkeypatch.setattr(module, command, lambda args: calls.append(args) or 0)
        assert cli.main(argv) == 0
        assert [vars(args) for args in calls] == [fields]

    def test_help_usage_errors_and_refusals_load_no_body(self, command):
        genus = next(iter(cli._COMMANDS[command][1]))
        refused = [command, genus, "10000000", *(["--k", "0"] if command == "value" else [])]
        usage = [[command, "--help"], [command, "--frob", "1"], refused, *CHECKED.get(command, [])]
        for argv in usage:
            assert not _modules(argv) & BODY_MODULES, argv


@pytest.mark.parametrize("argv", [TABLE_CSV, VALUE_CLOSED], ids=" ".join)
def test_closed_commands_load_only_the_closed_layers(loaded, argv):
    mods = loaded[tuple(argv)]
    assert {"tau2.closedform", "tau2.combinatorics"} <= mods
    assert not mods & {"tau2.recursion", "tau2.verification"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_dataclasses(loaded, argv):
    assert "dataclasses" not in loaded[tuple(argv)]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_json_loads_only_for_json_format(loaded, argv):
    assert ("json" in loaded[tuple(argv)]) == (argv[-2:] == ["--format", "json"])


@pytest.mark.parametrize("argv", OUTPUT, ids=" ".join)
def test_table_and_value_print_without_fractions(loaded, argv):
    # entries stay integers up to their text; Fraction would bring decimal and numbers
    mods = loaded[tuple(argv)]
    assert "tau2.output" in mods
    assert not mods & {"fractions", "decimal", "numbers"}


# faults.py (which loads no typing) makes a closed row wrong, so that verify reports failures
PLANT = f"""
import sys, types
sys.path.insert(0, {str(ROOT / "tests")!r})
import faults
faults.plant(types.SimpleNamespace(setattr=setattr), "closed", 2, 1, 1)
"""
# (argv, code run before it): value and table on each method, verify in every format
# and on a failing run, and bench on each method
NO_SITE = [
    *[(argv, "") for argv in OUTPUT if argv[-1] == "plain"],
    *[(["verify", "--g-max", "3", "--format", fmt], "") for fmt in ("plain", "csv", "json")],
    (["verify", "--g-max", "3"], PLANT),
    *[(["bench", "--g-max", "2", "--method", m], "") for m in ("closed", "recursive", "both")],
]  # fmt: skip


@pytest.mark.parametrize(
    "argv,prelude", NO_SITE, ids=[" ".join(a) + (" failing" if p else "") for a, p in NO_SITE]
)
def test_no_command_loads_typing(argv, prelude):
    # without site, whose .pth files may load typing first and so hide tau2's own import
    proc = _python(prelude + DRIVER, *argv, site=False)
    assert ("FAIL" in proc.stdout) == bool(prelude)
    assert "typing" not in _loaded(proc)


@pytest.mark.parametrize("argv", [HELP, VERIFY_CSV, VERIFY_JSON, BENCH], ids=" ".join)
def test_other_commands_skip_the_output_module(loaded, argv):
    assert "tau2.output" not in loaded[tuple(argv)]


def test_verify_loads_verification(loaded):
    assert "tau2.verification" in loaded[tuple(VERIFY_CSV)]


@pytest.mark.parametrize("argv", [VERIFY_CSV, VERIFY_JSON], ids=" ".join)
def test_passing_verify_loads_no_fractions(loaded, argv):
    # the checks compare integers; only a failure is reported as Fraction values
    assert not loaded[tuple(argv)] & {"fractions", "decimal"}


def test_layer_loads_on_first_use():
    _python(
        "import sys, tau2\n"
        "assert not [m for m in sys.modules if m.startswith('tau2.')]\n"
        "assert tau2.recursive_row is tau2.recursion.recursive_row\n"
        "assert sorted(m for m in sys.modules if m.startswith('tau2.'))"
        " == ['tau2.combinatorics', 'tau2.recursion']\n"
    )


def test_public_names_are_unchanged():
    assert set(tau2.__all__) == PUBLIC
    assert len(tau2.__all__) == len(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_imports_from_the_package(name):
    namespace = {}
    exec(f"from tau2 import {name}", namespace)
    assert namespace[name] is getattr(tau2, name)
    if name != "__version__":
        layer = next(getattr(tau2, m) for m in LAYERS if name in getattr(tau2, m).__all__)
        assert namespace[name] is getattr(layer, name)


@pytest.mark.parametrize("name", [name for name in tau2.__all__ if name != "__version__"])
def test_each_public_annotation_resolves(name):
    # the layers name Fraction in annotations without importing fractions at run time
    typing.get_type_hints(getattr(tau2, name), localns={"Fraction": Fraction})


@pytest.mark.parametrize("name", sorted(DELETED))
def test_deleted_name_is_gone(name):
    with pytest.raises(AttributeError):
        getattr(tau2, name)
    with pytest.raises(AttributeError):
        getattr(getattr(tau2, DELETED[name]), name)


def test_layers_and_names_are_listed():
    listed = dir(tau2)
    assert PUBLIC <= set(listed)
    assert set(LAYERS) <= set(listed)
    assert listed == sorted(listed)


def test_layer_exports_match_the_package():
    exported = [name for layer in LAYERS for name in getattr(tau2, layer).__all__]
    assert exported + ["__version__"] == tau2.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tau2.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in TRACED.items() for name in names]
)
def test_traced_functions_stay_public_functions(layer, name):
    module = getattr(tau2, layer)
    assert name in module.__all__
    assert isinstance(getattr(module, name), types.FunctionType)


def test_traced_jobs_report_every_per_layer_metric(monkeypatch, request):
    # a traced name that leaves its layer's __all__ is not wrapped, and the
    # benchmark's per-layer metrics that read it are then absent from its report
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    if hasattr(sys, "get_int_max_str_digits"):
        # importing perfbench's checker lifts the int -> str digit limit for the whole
        # process; put it back, so that later tests still see the default
        saved = sys.get_int_max_str_digits()
        request.addfinalizer(lambda: sys.set_int_max_str_digits(saved))
    import run as bench
    from checker import Checker
    from workloads import Job

    jobs = [
        Job("table", 4, ("table", "--g", "4", "--format", "csv")),
        Job("value", 5, ("value", "--g", "5", "--k", "3"), 3),
        Job("verify", 4, ("verify", "--g-max", "4", "--format", "csv")),
    ]
    launcher = bench.Launcher(bench.job_env())
    try:
        records = [bench.run_job(job, launcher, Checker(5), trace=True) for job in jobs]
    finally:
        launcher.close()
    assert not [r.job.argv for r in records if r.failed or r.trace is None]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    reported = bench.per_layer(records)
    assert [m["name"] for m in declared if m["name"] not in reported] == []
