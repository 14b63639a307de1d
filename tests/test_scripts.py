"""The scripts outside the package still match it.

perfbench's tracer rebinds cusplab functions by name, and the demos call
the public API; both break silently when a name moves, so these tests
load them the way they run.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import cusplab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layertrace():
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def test_traced_names_resolve():
    layertrace = load_layertrace()
    assert layertrace.WRAPPED
    for layer, owner, attr in layertrace.WRAPPED:
        assert callable(getattr(owner, attr, None)), (layer, attr)


def raised_names(path):
    """The names that `raise` statements in one source file raise."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    """Each exception class but the CuspLabError base is raised by the
    package or by the test oracles; one whose raiser is gone is dead."""
    from cusplab import errors
    package = os.path.join(ROOT, "src", "cusplab")
    raised = raised_names(os.path.join(ROOT, "tests", "oracles.py"))
    for name in os.listdir(package):
        if name.endswith(".py"):
            raised |= raised_names(os.path.join(package, name))
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.CuspLabError)}
    assert classes - {"CuspLabError"} - raised == set()


def private_reads(path):
    """(line, name) for each underscore name that one package module
    takes from another: imported from it, or read off its module."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    modules = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                reads.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.append((node.lineno, node.value.id + "." + node.attr))
    return [(line, name) for line, name in reads
            if name.rpartition(".")[2].startswith("_")
            and not name.endswith("__")]


def test_no_module_reads_another_modules_private_names():
    """A helper with a leading underscore belongs to its own module; one
    that another module needs is public API and carries a public name."""
    package = os.path.join(ROOT, "src", "cusplab")
    found = {name: private_reads(os.path.join(package, name))
             for name in sorted(os.listdir(package)) if name.endswith(".py")}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_public_names_exist():
    for info in pkgutil.iter_modules(cusplab.__path__):
        module = importlib.import_module("cusplab." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


# cover_lifting.py is left out: its cold cover searches take about 45 s
@pytest.mark.parametrize("script", ["figure_eight_tour.py", "corpus_scan.py",
                                    "long_words.py"])
def test_demo_runs(script):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          env=src_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def loaded_after(code):
    """Which of numpy and scipy a fresh interpreter holds after `code`."""
    probe = (code + "; import sys; print('loaded', *(m for m in "
             "('numpy', 'scipy') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()[1:]


def test_import_leaves_heavy_scipy_out():
    """`import cusplab` stays light: every CLI call and benchmark child pays
    for what it loads, and the package imports numpy and scipy only inside
    the functions that use them."""
    assert loaded_after("import cusplab") == []


@pytest.mark.parametrize("argv", [["arc-dist", "slope 2/5", "slope 3/7"],
                                  ["farey-dist", "2/5", "3/7"]])
def test_distance_commands_leave_numpy_out(argv):
    # the command must succeed, or an early exit would leave numpy out
    # without running the distance path at all
    code = "from cusplab import cli; assert cli.run(%r) == 0" % (argv,)
    assert loaded_after(code) == []


@pytest.mark.parametrize("argv", [["verify-thm14", "--max-word-len", "3"],
                                  ["bundle-report", "RL"]])
def test_bundle_commands_leave_numpy_out(argv):
    # the shape solve runs in plain complex arithmetic, and the report
    # reads the library versions from package metadata
    code = "from cusplab import cli; assert cli.run(%r) == 0" % (argv,)
    assert loaded_after(code) == []


def test_reports_keep_the_library_versions():
    import numpy
    import scipy

    from cusplab import cli
    versions = cli._versions()
    assert versions["numpy"] == numpy.__version__
    assert versions["scipy"] == scipy.__version__


def run_module(*argv):
    """`python -m cusplab ARGV` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "cusplab", *argv],
                          env=src_env(), capture_output=True, text=True,
                          timeout=60)


def test_module_entry_point_runs_the_cli():
    # the package's __main__ runs cli.main once, so runpy has no module
    # run twice to warn about
    done = run_module("farey-dist", "0/1", "2/5")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2\n"
    assert "RuntimeWarning" not in done.stderr
    done = run_module("farey-dist", "0/1", "0/0")
    assert done.returncode == 2
    assert "0/0" in done.stderr
    assert "RuntimeWarning" not in done.stderr
