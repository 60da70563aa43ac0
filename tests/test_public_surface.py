"""The public surface: every exported name has a caller, every name the
benchmark tracer rebinds still exists, and no module imports another
module's private names.

A name in a module's ``__all__`` counts as called when a module under
``src/`` or ``tests/test_acceptance.py`` uses it as code.  Its own
``def``/``class`` line, its ``__all__`` string, docstrings, comments,
attributes of the same name and import statements (the package
re-exports and the imports kept only for the tracer) do not count.  The
few names that lack such a caller are listed below with the reason each
one stays.
"""

import ast
import importlib
import importlib.util
import io
import pkgutil
import tokenize
from pathlib import Path

import pytest

import schifferlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "schifferlab"

# exported names with no caller, and why each stays
UNCALLED = {
    "ylm": "bench/tracing.py rebinds it in scatter.overdetermined",
    "ylm_theta_derivative": "bench/tracing.py rebinds it in scatter.overdetermined",
    "ray_radius": "bench/tracing.py rebinds it in scatter.rays",
    "zero_count_sector": "the contour_count benchmark counts sectors with it",
    "rellich_expand": "the sphere re-expansion that back-scattering data will feed",
    "verify_asymptotics_25_26": "a paper estimate, checked as it stands",
}


def _used_names(path: Path) -> set[str]:
    """The names that ``path`` uses as code: NAME tokens outside import
    statements, other than the name a ``def`` or ``class`` defines and an
    attribute after a dot (``np.polynomial.legendre`` is not ``legendre``)."""
    used = set()
    line: list[str] = []
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type in (tokenize.NAME, tokenize.OP):
            line.append(tok.string)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if line and line[0] not in ("import", "from"):
                used.update(name for before, name in zip([""] + line, line)
                            if name.isidentifier() and before not in ("def", "class", "."))
            line = []
    return used


def _exports() -> list[tuple[str, str]]:
    names = []
    for info in pkgutil.walk_packages(schifferlab.__path__, "schifferlab."):
        module = importlib.import_module(info.name)
        names += [(info.name, name) for name in getattr(module, "__all__", ())]
    return names


def test_every_exported_name_has_a_caller():
    used = set().union(*(_used_names(p) for p in SRC.rglob("*.py")),
                       _used_names(ROOT / "tests" / "test_acceptance.py"))
    exports = _exports()
    assert {name for _, name in exports} >= UNCALLED.keys()
    uncalled = [f"{module}.{name}" for module, name in exports
                if name not in used and name not in UNCALLED]
    assert not uncalled, f"exported but never called: {uncalled}"
    # an allowlisted name that gains a caller leaves the list
    assert not UNCALLED.keys() & used


def _private_imports(path: Path, root: Path = SRC.parent) -> list[str]:
    """``from <module> import _name`` statements in ``path``, a module of
    the package tree under ``root``, that take a private name from a
    schifferlab module, as "line: module._name"."""
    package = path.relative_to(root).parts[:-1]  # a module's package, or an __init__'s own
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # relative: up from the importing package
            base = package[:len(package) - node.level + 1]
            module = ".".join([*base, *([node.module] if node.module else [])])
        else:
            module = node.module or ""
        if module.split(".")[0] != "schifferlab":
            continue
        found += [f"{node.lineno}: {module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    # a private name is its own module's business; another module that
    # needs it needs a public name
    found = {str(p.relative_to(SRC)): _private_imports(p) for p in sorted(SRC.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_private_import_check_reads_every_form_of_import(tmp_path):
    # the shapes of import the check must catch, and the public names and
    # third-party private names it must pass
    probe = tmp_path / "schifferlab" / "scatter" / "probe.py"
    probe.parent.mkdir(parents=True)
    probe.write_text("from ..specfun.bessel import _kernel\n"
                     "from . import _helper\n"
                     "from schifferlab.eigsearch import _CAP, find_real_eigenvalues\n"
                     "from .domain import StarlikeDomain\n"
                     "from numpy.linalg import _umath_linalg\n"
                     "def f():\n"
                     "    from .. import _atomic\n")
    init = probe.with_name("__init__.py")
    init.write_text("from .overdetermined import _Rows\n")
    assert _private_imports(probe, tmp_path) == [
        "1: schifferlab.specfun.bessel._kernel",
        "2: schifferlab.scatter._helper",
        "3: schifferlab.eigsearch._CAP",
        "7: schifferlab._atomic",
    ]
    assert _private_imports(init, tmp_path) == ["1: schifferlab.scatter.overdetermined._Rows"]


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in _tracing_targets()])
def test_every_name_the_tracer_rebinds_resolves(module, attr):
    # a traced benchmark run fails with AttributeError on a name gone from
    # src/; this catches it without a benchmark run
    assert hasattr(importlib.import_module(module), attr)
