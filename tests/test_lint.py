"""Lint checks that need no linter: unused imports, unread constants, unread
dataclass fields, unused definitions, stale cross-references, error messages
raised from more than one place, raised messages that are not written out,
CLI code that branches on the engine outside its one table source,
memoized functions without a listed reason, and tolerance literals without
a name.

They walk the syntax trees with ``ast``.  A name counts as read where it is
loaded (``name``) or looked up as an attribute (``module.name``); binding it
by an import or an assignment does not count.  A ``:func:`` or ``:meth:``
reference resolves when the last part of its dotted name is a function or
class defined in the package.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from types import MappingProxyType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uncollapse"
# every file that may read a name of the package
SOURCES = [path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")]

# Imported but not read: these names stay importable from the module, where
# perfbench/tracer.py looks up the wrappers it times.
TRACER_IMPORTS = {
    ("protocol", "apply_decoherence"),
    ("protocol", "apply_partial_tunnel"),
    ("protocol", "apply_rotation"),
    ("tomography", "apply_decoherence"),
    ("tomography", "apply_rotation"),
    ("qpt", "exact_tomography_record"),
    ("cli", "exact_tomography_record"),
    ("qpt", "bloch_reconstruct"),
    ("cli", "bloch_reconstruct"),
    ("cli", "montecarlo_uncollapse_chi"),
}

# Error messages raised from more than one place, as templates with {} for
# each formatted field, and why.  A rule's message belongs to the one function
# that checks the rule; an entry that is raised once again leaves the map.
DUPLICATE_MESSAGES = MappingProxyType({
    "seed {} outside [0, 2**128)":
        "the CLI refuses a config's seed before the run (exit 2); _shot_uniforms checks a library call's",
    "measurement strength must lie in [0, 1], got {}":
        "a config checks its own p, grid_measurements each grid strength, a PartialMeasurement its p",
    "need at least one initial state":
        "each engine refuses an empty stack: fold for the exact one, _run_batch for the sampled one",
    "decay times must be positive":
        "pure_dephasing_time checks the T1 and T2 it is given, DecoherenceStep its T1 and T_phi",
})

# Every memoized function in the package, (module, qualified name), and why
# it pays.  "identity": its shared objects let _run_batch run a step once for
# a whole stack, since ops compare by identity.  A repeat: the same arguments
# come back within one pass, one row or one process.  A cache that no command
# hits goes, and leaves this map.
CACHES = MappingProxyType({
    ("channels", "PartialMeasurement.transfer"): "identity: the readout every setting shares",
    ("channels", "RotationPulse.transfer"): "identity: the pulses every setting shares",
    ("channels", "decoherence_ops"): "identity: the jump and flip ops every setting shares",
    ("protocol", "_prepare_op"): "identity: the prepare op every setting of an initial shares",
    ("protocol", "compile_sequence"): "per-pass repeat: every pass looks its three programs up again",
    ("qpt", "_design_matrix"): "per-row repeat: every chi inverts the same probe design",
    ("cli", "build_parser"): "per-process repeat: one parser for every main() call",
})

# Raises whose message is not a literal or an f-string: each passes on the
# text of the error it replaces, which the message checks cannot see.
FROZEN_RERAISES = {
    ("cli", "raise ConfigError(str(exc)) from exc"),
}

# A float literal this close to 0 or this large is a tolerance or a limit; it
# is written once, as the value of a module-level NAME = literal.
_TINY, _HUGE = 1e-3, 1e6

_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
_REFERENCE = re.compile(r":(?:func|meth):`~?([\w.]+)`")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _constants(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id))
    return names


def _attribute_loads(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _unread_fields(declaring: list, reading: list) -> set:
    """(class, field) of each field that a dataclass of the ``declaring`` trees
    declares and no tree of ``reading`` loads as an attribute, other than in
    the class's own ``__post_init__``."""
    loads = sum(map(_attribute_loads, reading), Counter())
    unread = set()
    for node in (n for tree in declaring for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if not any(ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
            continue
        checks = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
        own = sum(map(_attribute_loads, checks), Counter())
        fields = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
        unread.update((node.name, name) for name in fields if loads[name] == own[name])
    return unread


def _defined(tree: ast.AST) -> set:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)}


def _unused_definitions(trees: dict) -> set:
    """(module, name) of each top-level def or class of ``trees`` (module stem
    -> tree) that no module reads and ``__init__`` does not export."""
    used = _imported(trees["__init__"]).union(*map(_reads, trees.values()))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        (stem, node.name)
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and node.name not in used
    }


def _message_templates(tree: ast.AST) -> list:
    """The constant template of each literal message that ``tree`` raises: the
    first argument of the raised call, a string or an f-string with {} for each
    field."""
    templates = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            message = node.exc.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                templates.append(message.value)
            elif isinstance(message, ast.JoinedStr):
                parts = ("{}" if isinstance(v, ast.FormattedValue) else v.value for v in message.values)
                templates.append("".join(parts))
    return templates


def _mode_readers(tree: ast.Module) -> set:
    """The name of each top-level definition of ``tree`` that loads a ``.mode``
    attribute, ``<module>`` for a top-level statement that does."""
    return {getattr(node, "name", "<module>") for node in tree.body
            if any(isinstance(n, ast.Attribute) and n.attr == "mode" and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(node))}


def _literal(message: ast.expr) -> bool:
    return isinstance(message, ast.JoinedStr) or (
        isinstance(message, ast.Constant) and isinstance(message.value, str))


def _opaque_raises(tree: ast.AST) -> list:
    """The source of each raise in ``tree`` that makes an error without a
    literal or f-string message, so that :func:`_message_templates` cannot
    see its text.  A bare ``raise`` passes the caught error on unchanged."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and not (isinstance(node.exc, ast.Call) and node.exc.args and _literal(node.exc.args[0]))
    ]


def _cached(tree: ast.AST, prefix: str = "") -> set:
    """The qualified name of each function of ``tree`` decorated with
    ``functools.cache`` or ``functools.lru_cache``, called or not, under any
    spelling of the import."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name + "."
            decorators = (ast.unparse(getattr(d, "func", d)).split(".")[-1] for d in node.decorator_list)
            if not isinstance(node, ast.ClassDef) and {"cache", "lru_cache"} & set(decorators):
                names.add(prefix + node.name)
        names |= _cached(node, name)
    return names


def _unnamed_floats(tree: ast.Module) -> list:
    """The line of each float literal of ``tree`` with 0 < |x| < ``_TINY`` or
    |x| >= ``_HUGE`` that is not the value of a module-level ``NAME = literal``."""
    named = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and all(isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id) for t in node.targets)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float and id(node) not in named
                  and (0.0 < abs(node.value) < _TINY or abs(node.value) >= _HUGE))


def _repeated(templates: list) -> set:
    return {template for template in templates if templates.count(template) > 1}


def _unresolved(text: str, defined: set) -> set:
    return {name for name in _REFERENCE.findall(text) if name.split(".")[-1] not in defined}


def test_every_import_in_the_package_is_read():
    unused = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue  # its imports are the package's exports
        tree = _tree(path)
        unused.update((path.stem, name) for name in _imported(tree) - _reads(tree))
    # an entry that is read again, or no longer imported, leaves the list
    assert unused == TRACER_IMPORTS


def test_every_module_constant_is_read_somewhere():
    reads = set().union(*(_reads(_tree(path)) for path in SOURCES))
    unread = {
        (path.stem, name) for path in PACKAGE.glob("*.py") for name in _constants(_tree(path)) - reads
    }
    assert not unread


def test_the_checks_see_an_unused_import_and_an_unread_constant():
    tree = ast.parse("import os\nfrom math import pi, tau\nLIMIT = 3\n_USED = 2\nprint(tau * _USED)\n")
    assert _imported(tree) - _reads(tree) == {"os", "pi"}
    assert _constants(tree) - _reads(tree) == {"LIMIT"}


def test_every_dataclass_field_is_read_somewhere():
    declaring = [_tree(path) for path in PACKAGE.glob("*.py")]
    assert not _unread_fields(declaring, [_tree(path) for path in SOURCES])


def test_the_field_check_sees_a_field_read_only_by_its_own_check():
    code = (
        "@dataclass(frozen=True)\nclass Shot:\n    seed: tuple\n    flags: tuple = ()\n"
        "    def __post_init__(self):\n        assert self.seed and self.flags\n"
        "@dataclass\nclass Run:\n    shots: int\n    labels: tuple\n"
        "    def __post_init__(self):\n        print(self.seed, self.labels)\n"
        "class Plain:\n    size: int\n"
        "def use(shot, run):\n    run.labels = shot.flags\n"
    )
    tree = ast.parse(code)
    assert _unread_fields([tree], [tree]) == {("Run", "shots"), ("Run", "labels")}


def test_every_top_level_definition_is_read_or_exported():
    assert not _unused_definitions({path.stem: _tree(path) for path in PACKAGE.glob("*.py")})


def test_the_definition_check_sees_an_unused_function_and_class():
    core = "def run():\n    return _step()\ndef _step(): pass\ndef fold_sweep(): pass\nclass Old: pass\n"
    trees = {"__init__": ast.parse("from .core import run\n"), "core": ast.parse(core)}
    assert _unused_definitions(trees) == {("core", "fold_sweep"), ("core", "Old")}


def test_every_docstring_reference_names_a_definition_in_the_package():
    paths = list(PACKAGE.glob("*.py"))
    defined = set().union(*(_defined(_tree(path)) for path in paths))
    stale = {
        (path.stem, name)
        for path in paths
        for name in _unresolved(path.read_text(encoding="utf-8"), defined)
    }
    assert not stale


def test_the_reference_check_sees_a_stale_name():
    defined = _defined(ast.parse("def fold(): pass\nclass Pulse:\n    def unitary(self): pass"))
    text = "See :func:`fold`, :meth:`Pulse.unitary`, :func:`fold_exact`, :meth:`Pulse.kraus`."
    assert _unresolved(text, defined) == {"fold_exact", "Pulse.kraus"}


def test_each_error_message_is_raised_from_one_place():
    templates = [t for path in PACKAGE.glob("*.py") for t in _message_templates(_tree(path))]
    assert _repeated(templates) == set(DUPLICATE_MESSAGES)


def test_the_message_check_sees_a_planted_duplicate():
    code = (
        "def a(p):\n    raise ValueError(f'p={p} outside [0, 1]')\n"
        "def b(q):\n    raise KeyError(f'p={q!r} outside [0, 1]') from None\n"
        "def c(r):\n    raise ValueError('no shots')\n"
        "def d():\n    raise ValueError(str(3))\n    raise\n"
    )
    templates = _message_templates(ast.parse(code))
    assert sorted(templates) == ["no shots", "p={} outside [0, 1]", "p={} outside [0, 1]"]
    assert _repeated(templates) == {"p={} outside [0, 1]"}


def test_every_cache_in_the_package_is_listed_with_its_reason():
    found = {(path.stem, name) for path in PACKAGE.glob("*.py") for name in _cached(_tree(path))}
    assert found == set(CACHES)


def test_the_cache_check_sees_every_spelling_of_a_memoized_function():
    code = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=8)\ndef a(x): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "@lru_cache\ndef c(x): pass\n"
        "class Op:\n    @cache\n    def transfer(self): pass\n"
        "    @property\n    def size(self): pass\n"
        "def d():\n    @functools.lru_cache(None)\n    def inner(): pass\n"
        "@functools.wraps(a)\ndef e(): pass\n"
    )
    assert _cached(ast.parse(code)) == {"a", "b", "c", "Op.transfer", "d.inner"}


def test_every_raised_message_is_written_out():
    raises = {(path.stem, source)
              for path in PACKAGE.glob("*.py") for source in _opaque_raises(_tree(path))}
    assert raises == FROZEN_RERAISES


def test_the_written_out_check_sees_a_formatted_template():
    code = (
        "def a(x, msg):\n    raise DomainError(msg.format(x))\n"
        "def b(x):\n    raise DomainError(f'x={x}')\n"
        "def c():\n    raise DomainError('no shots') from None\n"
        "def d():\n    raise DomainError\n"
        "def e():\n    try:\n        pass\n    except OSError:\n        raise\n"
    )
    assert _opaque_raises(ast.parse(code)) == ["raise DomainError(msg.format(x))", "raise DomainError"]


def test_the_cli_reads_the_mode_only_in_its_check_and_its_table_source():
    # either engine's rows reach one row tail: no command branches on the mode
    assert _mode_readers(_tree(PACKAGE / "cli.py")) == {"SweepSpec", "_table"}


def test_the_mode_check_sees_a_planted_branch():
    code = (
        "class Spec:\n    def __post_init__(self):\n        assert self.mode\n"
        "def _table(spec):\n    return spec.mode == 'mc'\n"
        "def cmd_qpt(spec):\n    spec.mode = 'mc'\n    return 1 if spec.mode == 'exact' else 2\n"
        "def cmd_sweep(config, args):\n    return config['mode'], getattr(args, 'mode')\n"
        "SAMPLED = Spec().mode\n"
    )
    assert _mode_readers(ast.parse(code)) == {"Spec", "_table", "cmd_qpt", "<module>"}


def test_every_tolerance_literal_is_a_named_module_constant():
    unnamed = {(path.stem, line) for path in PACKAGE.glob("*.py") for line in _unnamed_floats(_tree(path))}
    assert not unnamed


def test_the_tolerance_check_sees_unnamed_tiny_and_huge_literals():
    code = (
        "TOL = 1e-9\nBIG = 2e6\nPAIR = (1e-9, 2.0)\nLIMIT: float = 1e-8\n"
        "def f(x):\n    return x < 1e-9 or x > 1e12 or x == 0.5 or x > -1e-4 or x == 0.0\n"
        "class Pulse:\n    EPS = 1e-7\n"
        "STEPS = 10**6\n"
    )
    assert _unnamed_floats(ast.parse(code)) == [3, 4, 6, 6, 6, 8]
