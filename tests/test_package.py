"""The package's public names and its imports."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import ttdmrg
from ttdmrg import dmrg, sums, twolevel

SOURCES = sorted(Path(ttdmrg.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_rebinds():
    """``(module, path)`` for every name bench/tracer.py rebinds, read from its
    ``LAYER_NAMES`` and ``POOL_NAME`` tables."""
    spec = importlib.util.spec_from_file_location("_tracer_tables", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, path) for module, path, *_ in tracer.LAYER_NAMES} | {tracer.POOL_NAME}


def placeholder_names(source):
    """Names ``source`` binds for a tracer to rebind: every name an import
    marked ``# noqa: F401`` binds, then every plain ``name = None`` at module
    level or in a top-level class body (as ``Class.name``); annotated
    fields do not count."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        and "# noqa: F401" in lines[node.lineno - 1]
        for alias in node.names
    ]
    scopes = [(tree.body, "")] + [
        (node.body, f"{node.name}.") for node in tree.body if isinstance(node, ast.ClassDef)
    ]
    for body, prefix in scopes:
        for node in body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                    and node.value.value is None:
                found += [prefix + t.id for t in node.targets if isinstance(t, ast.Name)]
    return found


def stray_placeholders(sources, rebound):
    """Placeholders of the modules in ``sources`` (module name -> source
    text), as ``(ttdmrg.module, name)``, that ``rebound`` does not list."""
    return [
        (f"ttdmrg.{module}", name) for module, source in sources.items()
        for name in placeholder_names(source) if (f"ttdmrg.{module}", name) not in rebound
    ]


def test_every_placeholder_is_one_the_tracer_rebinds():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert placeholder_names(sources["twolevel"])
    assert not stray_placeholders(sources, tracer_rebinds())


def test_placeholder_check_sees_a_stray_import():
    source = (
        "from .tt import inner  # noqa: F401\nfrom .tt import tt_add  # noqa: F401\n"
        "from .tt import tt_scale\nfit_chain = None\nlimit: int = None\n\n"
        "class Chain:\n    member_train = None\n    rank: int = None\n\n"
        "    def run(self):\n        state = None\n        return tt_scale(state)\n"
    )
    assert placeholder_names(source) == ["inner", "tt_add", "fit_chain", "Chain.member_train"]
    rebound = {("ttdmrg.twolevel", name) for name in ("inner", "fit_chain", "Chain.member_train")}
    assert stray_placeholders({"twolevel": source}, rebound) == [("ttdmrg.twolevel", "tt_add")]


def names_read(nodes):
    """Names that ``nodes`` read, by name, as an attribute or through an import."""
    read = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                read |= {alias.name for alias in sub.names}
    return read


def unread_definitions(sources):
    """Top-level functions and classes, and the methods and properties of
    top-level classes as ``Class.name``, as ``(module, name)``, that no
    statement of the modules in ``sources`` (module name -> source text)
    reads, by name, as an attribute or through an import, other than the
    definition itself.  A class's own members do not read it; they do read
    each other."""
    defined, readers = [], []  # readers: (definitions a reader is part of, names it reads)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            if not isinstance(node, ast.ClassDef):
                readers.append(({node}, names_read([node])))
                continue
            readers.append(({node}, names_read(node.bases + node.keywords + node.decorator_list)))
            for member in node.body:
                readers.append(({node, member}, names_read([member])))
                if isinstance(member, ast.FunctionDef):
                    defined.append((module, f"{node.name}.{member.name}", member))
    return [
        (module, name) for module, name, node in defined
        if not any(name.rpartition(".")[2] in read for scope, read in readers
                   if node not in scope)
    ]


def is_private(name):
    name = name.rpartition(".")[2]
    return name.startswith("_") and not name.startswith("__")


def unread_private_helpers(sources):
    """The ``_private`` names among :func:`unread_definitions`."""
    return [(module, name) for module, name in unread_definitions(sources) if is_private(name)]


def unread_public_names(sources, exported):
    """The public names among :func:`unread_definitions` that ``exported``,
    the package's ``__all__``, does not list: surface only tests read."""
    return [
        (module, name) for module, name in unread_definitions(sources)
        if not name.rpartition(".")[2].startswith("_") and name not in exported
    ]


# Public names that nothing in the package reads and __all__ does not list,
# each kept for its reason.
UNREAD_PUBLIC = {
    ("dmrg", "micro_step"): "the documented entry point for one isolated local solve",
    ("mpo", "local_matvec_1site"): "acceptance criterion 6 imports it",
    ("mpo", "local_matvec_2site"): "acceptance criterion 6 imports it",
    ("sums", "TwoSiteChain"): "a placeholder that bench/tracer.py binds",
    ("tt", "TensorTrain.replace_core"): "acceptance criterion 5 calls it",
    ("sums", "OneSiteSumFamily.materialize"):
        "acceptance criterion 5 calls it, and bench/tracer.py binds it",
    ("dmrg", "SweepTrace.for_half_sweep"): "demo 02 and acceptance criteria 7 and 10 read it",
    ("twolevel", "TwoLevelTrace.energies"):
        "bench/workloads.py, demo 03 and acceptance criterion 8 read it",
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
    # methods and properties count too; a sibling member reads one, the
    # class's own members do not read the class
    sources["mpo"] += (
        "\nclass Train:\n    @property\n    def is_left(self):\n        return self.d\n\n"
        "    def copy(self):\n        return Train(self.cores)\n\n"
        "    def d(self):\n        return self.copy()\n"
    )
    assert unread_public_names(sources, exported) == [
        ("mpo", "all_left_envs"), ("mpo", "Train"), ("mpo", "Train.is_left"),
        ("twolevel", "sweep"),
    ]


BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))


def unset_defaults(sources):
    """Defaulted parameters, as ``(module, function, parameter)``, that no
    call in ``sources`` (module name -> source text) passes by keyword, by
    position, through ``*args`` or through ``**kwargs``.  Calls match a
    function by its name (a class's name for ``__init__``), so a name that
    two functions share counts every call for both.  A function whose name
    is read other than as the callee of a call is passed around, so its
    calls cannot be seen and it is skipped; ``ledger`` parameters, the
    accounting sink every kernel takes, are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls, passed = {}, set()
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                passed.add(getattr(node, "id", getattr(node, "attr", None)))
    found = []
    for module, tree in trees.items():
        owners = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = owners.get(id(fn))
            name = owner if fn.name == "__init__" else fn.name
            if name in passed:
                continue
            # a method's callers pass its first parameter as the instance
            shift = owner is not None and "staticmethod" not in {
                getattr(d, "id", None) for d in fn.decorator_list
            }
            args = fn.args.posonlyargs + fn.args.args
            params = [(p.arg, i) for i, p in enumerate(args)
                      if i >= len(args) - len(fn.args.defaults)]
            params += [(p.arg, None) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if d is not None]
            for param, index in params:
                if param == "ledger" or any(
                    any(k.arg in (param, None) for k in call.keywords)
                    or index is not None and (
                        any(isinstance(a, ast.Starred) for a in call.args)
                        or shift + len(call.args) > index
                    )
                    for call in calls.get(name, ())
                ):
                    continue
                qualname = f"{owner}.{fn.name}" if owner else fn.name
                found.append((module, qualname, param))
    return found


# Functions whose defaults no caller in the package or bench/ sets, each
# kept for its reason.
UNSET_DEFAULTS = {
    ("bench.references", "free_fermion_ising_energy"):
        "the closed form's couplings, general like the chain builder's",
    ("bench.references", "heisenberg_sparse_energy"):
        "the sparse reference's coupling, general like the chain builder's",
    ("bench.run", "main"): "argv: tests drive the runner in-process through it",
    ("cli", "main"): "argv: tests drive the CLI in-process through it",
    ("dmrg", "micro_step"): "the documented entry point for one isolated local solve",
    ("models", "dense_ground_state"): "cap: the dense oracle past TTDMRG_DENSE_CAP",
    ("sums", "OneSiteSumFamily.__init__"): "prev_coeff: acceptance criterion 5 sets it",
    ("tt", "round_tt"): "the public rounding of a user's train to caps and a tolerance",
}


def test_every_defaulted_parameter_is_set_by_a_caller():
    sources = {path.stem: path.read_text() for path in SOURCES}
    sources.update({f"bench.{path.stem}": path.read_text() for path in BENCH})
    assert BENCH
    found = {(module, function) for module, function, _ in unset_defaults(sources)}
    assert found == set(UNSET_DEFAULTS)


def test_unset_default_check_sees_a_knob_nobody_turns():
    sources = {
        "mpo": "def right_env(x, j, ledger=None, op_class='env_build'):\n    return x\n\n"
               "def apply(x, scale=1.0):\n    return x\n\n"
               "class Chain:\n    def __init__(self, cores, center=None):\n        pass\n\n"
               "    def replace(self, j, core=None):\n        pass\n",
        "twolevel": "from .mpo import right_env\n\n"
                    "def run(x, tol=1e-12, *, seed=0):\n"
                    "    right_env(x, 1, None)\n    apply(x, *x)\n    Chain(x, center=0)\n"
                    "    Chain(x).replace(0, x)\n    return run(x)\n",
    }
    assert unset_defaults(sources) == [
        ("mpo", "right_env", "op_class"), ("twolevel", "run", "tol"), ("twolevel", "run", "seed"),
    ]
    # a function that is passed around may be called with anything
    sources["twolevel"] += "\nSWEEPS = (run,)\n"
    assert unset_defaults(sources) == [("mpo", "right_env", "op_class")]


# Imports ttdmrg, runs one small solve of each kind, prints every loaded
# module whose name starts with "scipy".
NO_SCIPY_SCRIPT = """
import sys
import ttdmrg
from ttdmrg import SweepConfig, TwoLevelConfig, ising_chain, random_tt, run_dmrg, run_two_level
op = ising_chain(6)
init = random_tt(op.dims, 2, seed=0)
run_dmrg(init, op, SweepConfig(mode="two-site", max_rank=4, max_half_sweeps=2))
run_two_level(init, op, TwoLevelConfig(mode="two-site", max_rank=4, max_iters=2))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_the_package_and_its_solves_load_no_scipy():
    # scipy is a test and benchmark dependency only; a lazy import inside a
    # solve would show up here too
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ttdmrg.__file__).parent.parent)] + sys.path
    ))
    out = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-c", NO_SCIPY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# A backticked dotted name, with an optional call, and a Sphinx role.
CITED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`")
ROLE = re.compile(r":(func|class|data|meth):`~?([\w.]+)`")
MISSING = object()


def resolves(scope, dotted):
    """Whether ``dotted`` names an attribute or submodule reached from
    ``scope`` one part at a time."""
    for part in dotted.split("."):
        found = getattr(scope, part, MISSING)
        if found is MISSING and inspect.ismodule(scope):
            try:
                found = importlib.import_module(f"{scope.__name__}.{part}")
            except ImportError:
                pass
        if found is MISSING:
            return False
        scope = found
    return True


def stale_citations(text, module):
    """The package names ``text``, read in ``module``, cites that do not
    resolve.  Cited are the backticked dotted names that start with
    ``ttdmrg``, a package module or an exported name, and every
    ``:func:``, ``:class:``, ``:data:`` and ``:meth:`` role.  A name resolves
    in ``module`` or from the package (``ttdmrg.`` optional); a bare
    ``:meth:`` also on any class of ``module``."""
    heads = {"ttdmrg", *ttdmrg.__all__} | {path.stem for path in SOURCES}
    cited = [(None, m.group(1)) for m in CITED.finditer(text)
             if m.group(1).split(".")[0] in heads]
    classes = [v for v in vars(module).values() if inspect.isclass(v)]
    stale = []
    for role, name in cited + ROLE.findall(text):
        path = name.removeprefix("ttdmrg.")
        if not (resolves(module, path) or resolves(ttdmrg, path) or (
                role == "meth" and "." not in name and any(hasattr(c, name) for c in classes))):
            stale.append(name)
    return stale


def test_every_name_the_docs_cite_exists():
    found = {"README.md": stale_citations(README.read_text(), ttdmrg)}
    for path in SOURCES:
        module = importlib.import_module(f"ttdmrg.{path.stem}".removesuffix(".__init__"))
        found[path.name] = stale_citations(path.read_text(), module)
    assert not {name: stale for name, stale in found.items() if stale}


def test_citation_check_sees_a_stale_name():
    text = (
        "`sums.sum_train(family, updates, coeffs)` and `ttdmrg.tt.truncate`, "
        "`twolevel.fit_chain` (a placeholder bound to None), `SweepConfig.mode`, "
        "`run.max_rank` (an INI key) and ``tt.tt_add``; :func:`round_tt`, "
        ":func:`~ttdmrg.sums.sum_train`, :meth:`converged`, :meth:`shrink`, "
        ":data:`~ttdmrg.twolevel.COARSE_EPS` and :class:`Missing`."
    )
    assert stale_citations(text, dmrg) == [
        "sums.sum_train", "ttdmrg.sums.sum_train", "shrink", "Missing",
    ]
