"""Every name a module imports is used in it, every private module-level name of
the package is read somewhere in it, every public name, every optional parameter
and every record field is reached from the commands or the bench, every
cross-reference in a docstring and every call the README names resolves, the CLI
reaches numpy only through ``np`` and no command loads scipy."""
import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "spincim").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name is read when it appears as a bare name anywhere in the module,
    including as the root of an attribute chain; ``import a.b`` binds ``a``.
    Names in quoted annotations are not searched.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_imports_only():
    source = "import os\nimport os.path as osp\nimport sys\nfrom a.b import c\nsys.argv = c\n"
    assert unused_imports(source) == ["line 1: os", "line 2: osp"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments no module reads.

    ``sources`` maps a module name to its text. A name is read when some
    module loads it as a bare name or as an attribute, its own module
    included; a function's calls to itself do not count, and dunder names
    are not private.
    """
    def reads(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = Counter(name for tree in trees.values() for name in reads(tree))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                own = Counter(reads(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                own = Counter()
            else:
                continue
            unread += [f"{module}:{node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.endswith("__")
                       and counts[name] == own[name]]
    return unread


def test_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_checker_flags_unread_private_names_only():
    sources = {
        "a.py": "_used = 1\n_unused, _pair = 2, 3\n__all__ = []\n"
                "def _helper():\n    return _used + _pair\nclass _Gone:\n    pass\n"
                "_attr: int = 4\ndef _stale(n):\n    return _stale(n - 1)\n",
        "b.py": "import a\nfrom a import _helper\n_helper(a._attr)\n",
    }
    assert unread_private_names(sources) == [
        "a.py:2: _unused", "a.py:6: _Gone", "a.py:9: _stale",
    ]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loads(nodes) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that ``nodes`` load. The dotted
    parts of a string count as attributes: the bench wraps callables by path."""
    bare, attrs = set(), set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.update(node.value.split("."))
    return bare, attrs


def unreached_public_names(package: dict[str, str], users: list[str],
                           kept=()) -> list[str]:
    """``module.name`` of each public top-level function or class, and
    ``module.Class.method`` of each public method, that no user reaches.

    ``package`` maps a module name to its text. The ``users`` sources, the
    package's module-level statements and the ``kept`` definitions are
    reached. A reached region reaches a top-level definition by loading its
    name, bare or as an attribute; a method by loading it as an attribute; a
    dunder method with its class. A reached definition's body is then a
    reached region (a class's body without its methods).
    """
    regions, defs = [ast.parse(source) for source in users], []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, _DEFS):
                regions.append(node)
                continue
            methods, body = [], [node]
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, _DEFS[:2])]
                body = [*node.bases, *node.decorator_list,
                        *(s for s in node.body if s not in methods)]
            defs.append((f"{module}.{node.name}", node.name, None, body))
            defs += [(f"{module}.{node.name}.{m.name}", m.name, node.name, [m]) for m in methods]
    bare, attrs = _loads(regions)

    def reached(label, name, owner, _body) -> bool:
        if label in kept or name in attrs:
            return True
        if owner is None:
            return name in bare
        return name.startswith("__") and owner in bare | attrs

    new = [d for d in defs if reached(*d)]
    while new:
        for *_, body in new:
            more_bare, more_attrs = _loads(body)
            bare |= more_bare
            attrs |= more_attrs
        defs = [d for d in defs if d not in new]
        new = [d for d in defs if reached(*d)]
    return [label for label, name, *_ in defs if not name.startswith("_")]


# Public names that no command or bench workload reaches, kept with a reason each.
KEPT = {
    "array.CimArray.export_hex": "writes the dumps that isa-run --init-hex reads",
    "cli._Parser.error": "argparse calls it on a usage error",
    "cost.count_bus_transfers": "criterion 5 counts bus transfers with it",
    "device._Words.generate_state": "PCG64 calls it to seed a trial stream",
    "isa.disassemble": "the goldens and the assembler round trip build programs with it",
    "sca.hamming_weight_attack": "criterion 8: the written word's weight from its energy",
    "sca.obscuring_experiment": "the composite-window experiment, a library call until a "
                                "report takes it",
}
BENCH = sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def test_every_public_name_is_reached_or_kept():
    package = {p.stem: p.read_text() for p in PACKAGE}
    users = [p.read_text() for p in BENCH]
    assert unreached_public_names(package, users, KEPT) == []
    # and no kept name is one that a command or the bench reaches anyway
    assert set(KEPT) <= set(unreached_public_names(package, users))


_HELD_SETS = "a bench span; the sca unit tests fit and score held sets with it"
_SCALAR = "a bench span; the device tests sense scalar cells with it"
# Public names that no command reaches and only the bench keeps: what each
# still serves, and the ROADMAP item after which the bench no longer keeps it.
BENCH_ONLY = {
    "analytic.binomial_stderr": ("the bench's 6-sigma rate check; the oracle tests' tolerances",
                                 "item 9: the sidecar's z-scores reach it from the commands"),
    "array.CimArray.cim_xnor": ("a bench span; the tests' reference authentication composes it",
                                "item 1b unwraps it; it then moves to KEPT or goes"),
    "device.sample_pair_current": (_SCALAR, "item 18 deletes it"),
    "device.sample_single_current": (_SCALAR, "item 18 deletes it"),
    "sca.Dataset": (_HELD_SETS, "item 18 deletes it"),
    "sca.confusion_matrix": (_HELD_SETS, "item 18 deletes it"),
    "sca.synthesize_dataset": (_HELD_SETS, "item 18 deletes it"),
    "sca.train": (_HELD_SETS, "item 18 deletes it"),
}


def test_every_name_only_the_bench_reaches_is_listed():
    """A new name that only the bench reaches fails here, and each ROADMAP
    item that unwraps or deletes a listed name must shrink the list."""
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert set(BENCH_ONLY) == set(unreached_public_names(package, [], KEPT))


def test_checker_flags_unreached_public_names_only():
    package = {
        "a": "import b\nb.run()\nclass Box:\n    def __len__(self):\n        return 0\n"
             "    def size(self):\n        return helper()\n    def unused(self):\n"
             "        return dead()\ndef helper():\n    return 1\ndef dead():\n    return 2\n"
             "def kept():\n    return Box().unused()\n",
        "b": "def run():\n    size = 3\n    return size\ndef by_path():\n    return 0\n",
    }
    users = ["import a\nwrap('b.by_path')\n"]
    assert unreached_public_names(package, users) == [
        "a.Box", "a.Box.size", "a.Box.unused", "a.helper", "a.dead", "a.kept",
    ]
    assert unreached_public_names(package, users, {"a.kept"}) == [
        "a.Box.size", "a.helper",
    ]


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each parameter of ``fn`` with a default, as a call
    passes it (``self`` dropped when ``bound``); keyword-only ones have no position."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][int(bound):]
    first = len(positional) - len(args.defaults)
    return [*((i, a.arg) for i, a in enumerate(positional) if i >= first),
            *((None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)]


def unreached_parameters(package: dict[str, str], users: list[str]) -> list[str]:
    """``module.function.param`` or ``module.Class.method.param`` of each parameter
    with a default, of each public function and method, that no call passes.

    ``package`` maps a module name to its text; its calls and the ``users``' count.
    A call of the function's name (bare or as an attribute; a class's name for
    ``__init__``), or of a name assigned from it (``f = g if c else h``), passes
    a parameter by keyword, by position, or by ``*args`` or ``**kwargs``.
    """
    trees = [(module, ast.parse(source)) for module, source in package.items()]
    knobs = []
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, _DEFS[:2]):
                knobs += [(f"{module}.{node.name}", node.name, node, False)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                knobs += [(f"{module}.{node.name}.{m.name}",
                           node.name if m.name == "__init__" else m.name, m,
                           not any(getattr(d, "id", None) == "staticmethod"
                                   for d in m.decorator_list))
                          for m in node.body if isinstance(m, _DEFS[:2])]
    calls, aliases = {}, {}
    for node in (n for tree in [*(t for _, t in trees), *map(ast.parse, users)]
                 for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node)
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            value = node.value
            for named in (value.body, value.orelse) if isinstance(value, ast.IfExp) else (value,):
                if isinstance(named, (ast.Name, ast.Attribute)):
                    source = getattr(named, "id", None) or named.attr
                    aliases.setdefault(source, set()).add(node.targets[0].id)

    def passes(call, position, name) -> bool:
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or position is not None and len(call.args) > position
                or any(k.arg in (None, name) for k in call.keywords))

    return [f"{label}.{name}" for label, called, fn, bound in knobs
            if not fn.name.startswith("_") or fn.name == "__init__"
            for position, name in _defaulted(fn, bound)
            if not any(passes(call, position, name)
                       for via in (called, *aliases.get(called, ()))
                       for call in calls.get(via, ()))]


# Optional parameters that no command, bench workload or other function passes:
# what each is for, and the ROADMAP item or acceptance criterion that uses it.
KEPT_KNOBS = {
    "array.CimArray.__init__.recorder": (
        "an array recorded from its first write, as the authentication tests build one",
        "criterion 6"),
    "device.calibrate.max_residual": (
        "a fit judged without the residual gate, as the calibration tests run it",
        "item 11"),
    "device.sample_pair_current.disturbance": (_SCALAR, "item 18 deletes it"),
    "device.sample_pair_current.rng": (_SCALAR, "item 18 deletes it"),
    "device.sample_pair_current.size": (_SCALAR, "item 18 deletes it"),
    "device.sample_single_current.disturbance": (_SCALAR, "item 18 deletes it"),
    "device.sample_single_current.rng": (_SCALAR, "item 18 deletes it"),
    "device.sample_single_current.size": (_SCALAR, "item 18 deletes it"),
    "mitigation.evaluate_mitigation.below": (
        "the false-zero rate: a reference move trades false ones for false zeros", "item 5"),
    "mitigation.evaluate_mitigation.pair": (
        "the P,P pair whose false zeros a moved reference raises", "item 5"),
    "sca.hamming_weight_attack.enhanced": (
        "the weight read from the enhanced cost rows", "criterion 8"),
    "sca.hamming_weight_attack.table": (
        "the weight read under the writer's own cost table", "criterion 8"),
    "sca.obscuring_experiment.table": (
        "the composite window under a given cost table", "items 4 and 13"),
    "sca.train.classes": (_HELD_SETS, "item 18 deletes it"),
}


def test_every_optional_parameter_is_passed_or_kept():
    """A new option that nothing passes fails here: it is a knob with no caller."""
    package = {p.stem: p.read_text() for p in PACKAGE}
    users = [p.read_text() for p in BENCH]
    assert set(unreached_parameters(package, users)) == set(KEPT_KNOBS)


def test_checker_flags_unreached_parameters_only():
    package = {
        "a": "class Box:\n    def __init__(self, size=1, *, tag=None):\n        pass\n"
             "    def fill(self, level=0, spill=False):\n        return self\n"
             "    def _hidden(self, x=0):\n        return x\n"
             "    @staticmethod\n    def make(width=8):\n        return width\n"
             "class _Inner:\n    def open(self, key=None):\n        return key\n"
             "def run(n, fast=False, width=4, **extra):\n    return Box(3).fill(spill=True)\n"
             "def kw(n, *, depth=2, limit=0):\n    return n\n"
             "def spread(x=0, y=0):\n    return x\n"
             "def picked(x=0):\n    return x\n",
        "b": "import a\npick = a.picked if a else None\npick(1)\n",
    }
    users = ["import a\na.run(1, True)\na.kw(2, **{'depth': 3})\na.spread(*[1, 2])\n"
             "a.Box.make()\n"]
    assert unreached_parameters(package, users) == [
        "a.Box.__init__.tag", "a.Box.fill.level", "a.Box.make.width", "a.run.width",
    ]


def test_cli_reaches_numpy_only_as_np():
    """``import numpy as np`` with ``np.random.default_rng`` looked up when a
    command runs keeps a bare ``import spincim.cli`` about 0.5 MB lower in peak
    RSS than a ``from numpy.random import default_rng`` would."""
    from spincim import cli

    assert not hasattr(cli, "default_rng")
    tree = ast.parse((ROOT / "src" / "spincim" / "cli.py").read_text())
    numpy = [ast.dump(node) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
             or isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "numpy" for alias in node.names)]
    assert numpy == [ast.dump(ast.parse("import numpy as np").body[0])]


def _is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` (bare, called or dotted) or a ``NamedTuple`` subclass."""
    def named(expr, name):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return name in (getattr(expr, "id", None), getattr(expr, "attr", None))

    return (any(named(d, "dataclass") for d in node.decorator_list)
            or any(named(b, "NamedTuple") for b in node.bases))


def unread_fields(package: dict[str, str], users: list[str], kept=()) -> list[str]:
    """``module.Class.field`` of each annotated field of a dataclass or
    NamedTuple that neither the package nor a user reads as an attribute.

    ``package`` maps a module name to its text. A class whose body names
    ``asdict`` or ``astuple`` serialises every field itself, so all of its
    fields are read; ``kept`` fields count as read too. An attribute of
    ``np`` or ``numpy`` (``np.zeros``) is not a field read.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = {
        node.attr for tree in [*trees.values(), *map(ast.parse, users)] for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and getattr(node.value, "id", None) not in ("np", "numpy")
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_record(node)):
                continue
            if any(isinstance(n, ast.Name) and n.id in ("asdict", "astuple")
                   for n in ast.walk(node)):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    label = f"{module}.{node.name}.{stmt.target.id}"
                    if stmt.target.id not in read and label not in kept:
                        unread.append(label)
    return unread


# Record fields that nothing reads, kept with a reason each.
KEPT_FIELDS: dict[str, str] = {}


def test_every_record_field_is_read_or_kept():
    package = {p.stem: p.read_text() for p in PACKAGE}
    users = [p.read_text() for p in BENCH]
    assert unread_fields(package, users, KEPT_FIELDS) == []
    assert set(KEPT_FIELDS) <= set(unread_fields(package, users))


def test_checker_flags_unread_fields_only():
    package = {
        "a": "import numpy as np\nfrom dataclasses import asdict, dataclass\n"
             "from typing import NamedTuple\n"
             "class Event(NamedTuple):\n    kind: str\n    zeros: int\n    ones: int\n"
             "@dataclass(frozen=True)\nclass Cfg:\n    width: int\n    depth: int\n"
             "@dataclass\nclass Report:\n    rate: float\n    as_dict = asdict\n"
             "class Plain:\n    size: int\n"
             "def use(e, c):\n    return e.kind, c.width, np.zeros(3), np.ones\n",
        "b": "def set_depth(c):\n    c.depth = 2\n",
    }
    assert unread_fields(package, []) == ["a.Event.zeros", "a.Event.ones", "a.Cfg.depth"]
    assert unread_fields(package, ["def f(e):\n    return e.ones\n"], {"a.Cfg.depth"}) == [
        "a.Event.zeros",
    ]


_ROLE = re.compile(r":(func|class|meth|mod):`([^`]*)`")
_DOCUMENTED = (ast.Module, *_DEFS)


def _bound(stmt) -> list[str]:
    """The names a module- or class-level statement binds, imports aside."""
    if isinstance(stmt, _DEFS):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _members(cls: ast.ClassDef) -> set[str]:
    return {name for stmt in cls.body for name in _bound(stmt)}


def _scope(tree) -> dict:
    """A module's top-level names: a class maps to the set of names its body
    binds; a name imported from the package to ``(module, name)``, or to
    ``(module, None)`` for a package module itself; any other name to None."""
    scope = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                origin = (node.module, alias.name) if node.module else (alias.name, None)
                scope[alias.asname or alias.name] = origin if node.level else None
        elif isinstance(node, ast.Import):
            scope.update(dict.fromkeys(a.asname or a.name.split(".")[0] for a in node.names))
        elif isinstance(node, ast.ClassDef):
            scope[node.name] = _members(node)
        else:
            scope.update(dict.fromkeys(_bound(node)))
    return scope


def _resolver(trees: dict):
    """``(scopes, find)`` of the parsed package ``trees``: each module's
    :func:`_scope`, and ``find(module, parts)``, whether the dotted name split
    into ``parts`` names something from ``module``: a top-level name, or
    ``Class.member``, an imported name resolving where it is defined, else
    ``module.name`` of the package."""
    scopes = {module: _scope(tree) for module, tree in trees.items()}

    def find(module, parts) -> bool:
        scope = scopes[module]
        if parts[0] not in scope:
            return len(parts) > 1 and parts[0] in scopes and find(parts[0], parts[1:])
        entry = scope[parts[0]]
        if isinstance(entry, tuple):
            origin, name = entry
            rest = parts[1:] if name is None else [name, *parts[1:]]
            if origin not in scopes:
                return len(parts) == 1
            return not rest or find(origin, rest)
        return len(parts) == 1 or (isinstance(entry, set) and len(parts) == 2
                                   and parts[1] in entry)

    return scopes, find


def unresolved_roles(package: dict[str, str]) -> list[str]:
    """``module: :role:`target``` of each ``:func:``, ``:class:``, ``:meth:``
    or ``:mod:`` role in a docstring of the package that names nothing.

    ``package`` maps a module name to its text; a leading ``~`` and
    ``spincim.`` are dropped from a target. A ``:mod:`` target is a module of
    the package. Any other target resolves in the enclosing class first, then
    in its module (a top-level name, or ``Class.member``; an imported name
    resolves where it is defined), then as ``module.name`` of the package.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    scopes, find = _resolver(trees)

    def resolves(role, target, module, members) -> bool:
        target = target.removeprefix("~").removeprefix("spincim.")
        if role == "mod":
            return target in scopes
        parts = target.split(".")
        return (len(parts) == 1 and parts[0] in members) or find(module, parts)

    def visit(module, node, members):
        if isinstance(node, ast.ClassDef):
            members = _members(node)
        doc = ast.get_docstring(node, clean=False) if isinstance(node, _DOCUMENTED) else None
        for role, target in _ROLE.findall(doc or ""):
            if not resolves(role, target, module, members):
                yield f"{module}: :{role}:`{target}`"
        for child in ast.iter_child_nodes(node):
            yield from visit(module, child, members)

    return [bad for module, tree in trees.items() for bad in visit(module, tree, set())]


def test_every_docstring_role_resolves():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unresolved_roles(package) == []


def test_checker_flags_unresolved_roles_only():
    package = {
        "a": '"""See :func:`helper`, :class:`~spincim.b.Box` and :func:`gone`."""\n'
             "from . import b\nfrom .b import Box\nimport numpy as np\n"
             "def helper():\n"
             '    """:meth:`Box.size`, :func:`b.run`, :func:`np`, :meth:`Box.lost`."""\n',
        "b": '"""Reads :mod:`spincim.a` and :mod:`c`."""\n'
             "class Box:\n"
             '    """:meth:`size`, :meth:`as_dict`, :func:`run`, :func:`~a.helper`."""\n'
             "    as_dict = dict\n    def size(self):\n        return 0\n"
             "def run():\n"
             '    """:meth:`size` is not in scope here."""\n',
    }
    assert unresolved_roles(package) == [
        "a: :func:`gone`", "a: :meth:`Box.lost`", "b: :mod:`c`", "b: :meth:`size`",
    ]


_CALL = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)\(")


def _names_numpy(root: str) -> bool:
    """``np``, ``numpy`` or a class of ``numpy.random`` (``Generator``)."""
    return root in ("np", "numpy") or isinstance(getattr(np.random, root, None), type)


def unresolved_calls(package: dict[str, str], text: str) -> list[str]:
    """Each backticked ``module.name(`` or ``Class.member(`` in ``text`` that
    names nothing in the package, as :func:`unresolved_roles` resolves a
    dotted target from any module of ``package``; numpy roots are skipped."""
    scopes, find = _resolver({module: ast.parse(source) for module, source in package.items()})
    return [f"{target}(" for target in _CALL.findall(text)
            if not _names_numpy(target.split(".")[0])
            and not any(find(module, target.split(".")) for module in scopes)]


def test_every_readme_call_names_something():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unresolved_calls(package, (ROOT / "README.md").read_text()) == []


def test_checker_flags_unresolved_calls_only():
    package = {
        "a": "from .b import Box\ndef helper():\n    return 0\n",
        "b": "class Box:\n    def size(self):\n        return 0\n",
    }
    text = ("`a.helper()`, `Box.size(n)`, `b.Box.size()`, `a.Box.size()`, `np.zeros(3)`, "
            "`Generator.random()`, `c.run()`, `a.gone()`, `Box.lost()`, `Crate.size()`, "
            "`helper()` and `a.helper` without a call")
    assert unresolved_calls(package, text) == [
        "c.run(", "a.gone(", "Box.lost(", "Crate.size(",
    ]


def test_package_never_imports_scipy():
    imported = [
        alias.name if isinstance(node, ast.Import) else node.module
        for path in PACKAGE for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [name for name in imported if name and name.split(".")[0] == "scipy"] == []


def test_calibrate_loads_no_scipy(tmp_path):
    """The calibration fit runs in numpy: a fresh interpreter that runs
    ``calibrate`` through the CLI has no scipy module loaded afterwards."""
    code = (
        "import sys\n"
        "from spincim.cli import main\n"
        f"code = main(['calibrate', '--out', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "calibrate.json").is_file()
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_import_loads_no_command_module():
    """The runners that use ``isa``, ``sca`` and ``mitigation`` import them:
    a fresh interpreter that imports the CLI and loads the default config
    has none of the three loaded."""
    code = (
        "import sys\n"
        "import spincim.cli\n"
        "from spincim.config import load_config\n"
        "load_config(None)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('spincim.isa', 'spincim.sca', 'spincim.mitigation')))\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
