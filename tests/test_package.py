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


def unread_definitions(sources):
    """Top-level functions and classes, as ``(module, name)``, that no
    statement of the modules in ``sources`` (module name -> source text)
    reads, by name, as an attribute or through an import, other than the
    definition itself."""
    defined, readers = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            read = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    read |= {alias.name for alias in sub.names}
            readers.append((node, read))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node))
    return [
        (module, node.name) for module, node in defined
        if not any(node.name in read for other, read in readers if other is not node)
    ]


def unread_private_helpers(sources):
    """The ``_private`` names among :func:`unread_definitions`."""
    return [
        (module, name) for module, name in unread_definitions(sources)
        if name.startswith("_") and not name.startswith("__")
    ]


def unread_public_names(sources, exported):
    """The public names among :func:`unread_definitions` that ``exported``,
    the package's ``__all__``, does not list: surface only tests read."""
    return [
        (module, name) for module, name in unread_definitions(sources)
        if not name.startswith("_") and name not in exported
    ]


# Public names that nothing in the package reads and __all__ does not list,
# each kept for its reason.
UNREAD_PUBLIC = {
    ("dmrg", "micro_step"): "the documented entry point for one isolated local solve",
    ("mpo", "local_matvec_1site"): "acceptance criterion 6 imports it",
    ("mpo", "local_matvec_2site"): "acceptance criterion 6 imports it",
    ("sums", "TwoSiteChain"): "a placeholder that bench/tracer.py binds",
}


def test_no_private_helper_is_left_unread():
    # the tests' references do not count: a helper only tests call is dead
    assert not unread_private_helpers({path.stem: path.read_text() for path in SOURCES})


def test_private_helper_check_sees_a_leftover_helper():
    sources = {
        "tt": "def _check(x):\n    return x\n\nclass _Chain:\n    pass\n",
        "twolevel": "from .tt import _check\n\ndef _advance_stack(e):\n    return e\n\n"
                    "def _extend_left(e):\n    return tt._Chain(e)\n\n"
                    "def assemble(e):\n    return _extend_left(_check(e))\n",
    }
    assert unread_private_helpers(sources) == [("twolevel", "_advance_stack")]
    # a helper that only its own body reads is still unread
    sources["twolevel"] += "\ndef _shared_step_flops(n):\n    return _shared_step_flops(n - 1)\n"
    assert unread_private_helpers(sources) == [
        ("twolevel", "_advance_stack"), ("twolevel", "_shared_step_flops")
    ]


def test_no_public_name_is_read_by_tests_only():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert set(unread_public_names(sources, ttdmrg.__all__)) == set(UNREAD_PUBLIC)


def test_public_surface_check_sees_a_test_only_name():
    sources = {
        "mpo": "def all_left_envs(x):\n    return x\n\ndef left_env(x):\n    return x\n\n"
               "class Chain:\n    pass\n",
        "twolevel": "from .mpo import left_env\n\ndef run(x):\n    return left_env(x)\n",
    }
    exported = ["Chain", "run"]
    assert unread_public_names(sources, exported) == [("mpo", "all_left_envs")]
    # a name that only its own body reads is still unread; private names are
    # the other check's
    sources["twolevel"] += "\ndef sweep(n):\n    return sweep(n - 1)\n\ndef _step():\n    pass\n"
    assert unread_public_names(sources, exported) == [
        ("mpo", "all_left_envs"), ("twolevel", "sweep")
    ]
