"""The package's public names and its imports."""

import ast
from pathlib import Path

import ttdmrg
from ttdmrg import sums, twolevel

SOURCES = sorted(Path(ttdmrg.__file__).parent.glob("*.py"))


def test_all_is_sorted_unique_and_resolves():
    names = ttdmrg.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(ttdmrg, name) is not None, name


def test_chain_fit_is_not_exported():
    for name in ("TwoSiteChain", "fit_chain", "pad_ranks", "compress_two_site_fallback"):
        assert name not in ttdmrg.__all__
        assert not hasattr(ttdmrg, name)
    # bench/tracer.py binds these names; nothing behind them may run
    assert twolevel.fit_chain is None
    assert twolevel.compress_two_site_fallback is None
    assert sums.TwoSiteChain.member_train is None


def unused_imports(source):
    """Names an import binds in ``source`` that nothing in it reads, that
    are not in its ``__all__``, and whose import does not start on a line
    marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused for path in SOURCES if (unused := unused_imports(path.read_text()))
    }
    assert not found


def test_unused_import_check_sees_a_leftover_import():
    source = "from .tt import tt_add, tt_scale\nfrom .tt import inner  # noqa: F401\n"
    assert unused_imports(source + "x = tt_scale\n") == [(1, "tt_add")]
    assert unused_imports(source + "__all__ = ['tt_add']\nx = tt_scale\n") == []
