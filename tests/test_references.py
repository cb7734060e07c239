"""Every public top-level function and class in src/cordseg has a caller in
src/cordseg: code that only the tests use belongs in tests/.  One module,
parallel, reads os.fork: every other module takes its worker count from it,
and enters its helpers only as the item of a with statement.
And the command line sets every field of the config objects it builds: a
field that only tests set is a setting without a caller.  In unet only
schedule walks the network's levels; everything else follows its steps.

References are found in the syntax tree, not by text search: a bare name
bound at a module's top level or imported from a package module, or an
attribute read off an imported package module (`ops.conv2d`).  A reference
counts when it sits in another module, at module level, or in another
top-level definition than the one it names.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cordseg"
# the command-line entry points: called by the installed script and by users
ENTRY_POINTS = {("cli", "main"), ("cli", "build_parser")}
# the config objects whose every field the command line sets
CONFIGS = {("unet", "UNetConfig"), ("training", "TrainConfig")}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    return {(module, node.name)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _imports(tree) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Local names bound to package modules, and to names in package modules."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:  # from . import ops
                    modules[local] = alias.name
                else:  # from .ops import ConvParams
                    names[local] = (node.module, alias.name)
    return modules, names


def _references(module, tree):
    """(referenced module, name, enclosing top-level definition or None)."""
    modules, names = _imports(tree)
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                yield modules[node.value.id], node.attr, where
            elif isinstance(node, ast.Name):
                if node.id in names:
                    yield *names[node.id], where
                elif node.id in own:
                    yield module, node.id, where


def _referenced(trees):
    found = set()
    for module, tree in trees.items():
        for target, name, where in _references(module, tree):
            if target != module or where != name:
                found.add((target, name))
    return found


def test_every_public_definition_has_a_caller_in_src():
    trees = _modules()
    unused = _public_definitions(trees) - _referenced(trees) - ENTRY_POINTS
    assert not unused, sorted(f"{m}.{n}" for m, n in unused)


def test_the_reference_finder_sees_attribute_name_and_imported_uses():
    trees = {
        "a": ast.parse("def used():\n    pass\n\ndef lonely():\n    return lonely()\n\n"
                       "class Shape:\n    pass\n"),
        "b": ast.parse("from . import a\nfrom .a import Shape\n\n"
                       "def caller():\n    return a.used(), Shape\n"),
    }
    assert _public_definitions(trees) - _referenced(trees) == {("a", "lonely"), ("b", "caller")}


def _reads_os_fork(tree) -> bool:
    """Whether a module reads os.fork: as an attribute of the imported os
    module, through hasattr/getattr(os, "fork"), or by `from os import fork`."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name == "fork" for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "fork":
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                return True
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            target, name = node.args[:2]
            if (isinstance(target, ast.Name) and target.id in aliases
                    and isinstance(name, ast.Constant) and name.value == "fork"):
                return True
    return False


def test_only_parallel_reads_os_fork():
    readers = {module for module, tree in _modules().items() if _reads_os_fork(tree)}
    assert readers == {"parallel"}


def test_the_fork_finder_sees_attributes_reflection_and_imports():
    sources = {
        "import os\npid = os.fork()\n": True,
        "import os as system\nok = hasattr(system, 'fork')\n": True,
        "import os\nfork = getattr(os, 'fork', None)\n": True,
        "from os import fork\n": True,
        '"""Helpers forked with os.fork."""\nimport os\npid = os.getpid()\n': False,
        "import os\nok = hasattr(os, 'sched_getaffinity')\n": False,
    }
    for source, reads in sources.items():
        assert _reads_os_fork(ast.parse(source)) == reads, source


def _calls(module, tree):
    """(call node, (module, name) called) of every call in a module of a
    name read as an attribute of an imported package module, imported from
    one, or defined at the module's top level."""
    modules, names = _imports(tree)
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            yield node, (modules[func.value.id], func.attr)
        elif isinstance(func, ast.Name) and func.id in names:
            yield node, names[func.id]
        elif isinstance(func, ast.Name) and func.id in own:
            yield node, (module, func.id)


def _helpers_calls(module, tree):
    """(line, whether it is a with item) of every call of parallel.helpers in
    a module."""
    items = {id(item.context_expr) for node in ast.walk(tree)
             if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
    for node, called in _calls(module, tree):
        if called == ("parallel", "helpers"):
            yield node.lineno, id(node) in items


def test_helpers_are_only_entered_as_with_items():
    # so no helper outlives the block that forked it
    calls = {(module, line): item for module, tree in _modules().items()
             for line, item in _helpers_calls(module, tree)}
    assert {module for module, _ in calls} == {"training", "pipeline"}
    assert all(calls.values()), sorted(call for call, item in calls.items() if not item)


def test_the_helpers_finder_sees_attribute_imported_and_bare_calls():
    sources = {
        "from . import parallel\nwith parallel.helpers(1, w) as run:\n    pass\n": [True],
        "from . import parallel as p\nwith open(f), p.helpers(1, w):\n    pass\n": [True],
        "from . import parallel\nblock = parallel.helpers(1, w)\n": [False],
        "from . import parallel\nstack.enter_context(parallel.helpers(1, w))\n": [False],
        "from .parallel import helpers as h\nwith h(0, w):\n    x = h(1, w)\n": [True, False],
        "from . import parallel\nwith helpers(1, w), parallel.workers():\n    pass\n": [],
    }
    for source, items in sources.items():
        found = sorted(_helpers_calls("training", ast.parse(source)))
        assert [item for _, item in found] == items, source
    own = ast.parse("def helpers(count, work):\n    pass\n\nx = helpers(1, w)\n")
    assert [item for _, item in _helpers_calls("parallel", own)] == [False]


def _builds(module, tree, classes):
    """(class, positional argument count, keyword names) of every call in a
    module that builds one of the given (module, name) classes."""
    for node, called in _calls(module, tree):
        if called in classes:
            yield called, len(node.args), {k.arg for k in node.keywords}


def test_cli_passes_every_config_field_by_keyword():
    builds = list(_builds("cli", _modules()["cli"], CONFIGS))
    assert {called for called, _, _ in builds} == CONFIGS
    for (module, name), positional, keywords in builds:
        config = getattr(importlib.import_module(f"cordseg.{module}"), name)
        fields = {f.name for f in dataclasses.fields(config)}
        assert positional == 0 and keywords == fields, (name, sorted(fields - keywords))


def test_the_config_finder_sees_attribute_and_imported_builds():
    tree = ast.parse("from . import unet\nfrom .training import TrainConfig\n\n"
                     "def build(args):\n"
                     "    return unet.UNetConfig(depth=args.depth), TrainConfig(1, seed=2)\n"
                     "other = unet.init_params(unet.UNetConfig(), 0)\n")
    assert sorted(_builds("cli", tree, CONFIGS)) == [
        (("training", "TrainConfig"), 1, {"seed"}),
        (("unet", "UNetConfig"), 0, set()),
        (("unet", "UNetConfig"), 0, {"depth"}),
    ]


def _walks_levels(tree) -> set:
    """Names of the top-level definitions of a module with a for loop or a
    comprehension over a range(...) that mentions depth: a walk over the
    network's levels."""
    def mentions_depth(node):
        return any(isinstance(n, ast.Name) and n.id == "depth"
                   or isinstance(n, ast.Attribute) and n.attr == "depth" for n in ast.walk(node))

    def over_depth(iterable):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "range" and mentions_depth(n) for n in ast.walk(iterable))

    return {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
            if isinstance(node, (ast.For, ast.comprehension)) and over_depth(node.iter)}


def test_only_the_schedule_walks_the_unets_levels():
    # forward, backward, the workspace plan and the layer plan follow unet.schedule
    assert _walks_levels(_modules()["unet"]) == {"schedule"}


def test_the_level_walk_finder_sees_loops_and_comprehensions_over_depth():
    sources = {
        "def f(cfg):\n    for _ in range(cfg.depth):\n        pass\n": {"f"},
        "def f(depth):\n    for i in reversed(range(depth - 1)):\n        pass\n": {"f"},
        "class W:\n    def g(self, cfg):\n        return [i for i in range(1, cfg.depth)]\n": {"W"},
        "def f(cfg):\n    for _ in range(4):\n        x = cfg.depth\n": set(),
        "def f(steps, depth):\n    for step in steps[:depth]:\n        pass\n": set(),
    }
    for source, found in sources.items():
        assert _walks_levels(ast.parse(source)) == found, source
