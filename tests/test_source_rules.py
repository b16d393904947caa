"""Rules the package's own source code keeps."""
from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fpmfp"


def test_no_assert_statements():
    """``python -O`` strips ``assert``: a check must raise a real error."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


# Standard modules that take milliseconds to import (``dataclasses`` pulls
# in ``inspect``, ``dis`` and ``ast``; ``logging`` pulls in ``traceback``
# and ``tokenize``; ``argparse`` pulls in ``gettext`` and ``locale``, and
# building its parsers costs as much again), which every CLI run would pay
# before doing any work, and ``enum``, whose members resolve through a
# Python-level descriptor: ``kind == StKind.CALL`` on an ``Enum`` costs
# several times a comparison of plain constants, on every transfer, refine
# and path-tree step.
SLOW_IMPORTS = {"argparse", "dataclasses", "enum", "logging"}


def _imports(tree: ast.AST):
    """(line, top-level module name) of each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def test_no_slow_stdlib_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _imports(tree) if name in SLOW_IMPORTS]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


def test_only_the_entry_function_uses_the_collector():
    """``cli.run`` freezes the collector on its way out.  ``cli.main``,
    which tests and library callers run in process, and every other
    function must leave it alone: only ``cli`` imports ``gc``, and
    ``run`` is the only function there that names it."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        importers += [path.name for _, name in _imports(tree) if name == "gc"]
    assert importers == ["cli.py"]
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    users = {function.name for function in ast.walk(tree)
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             and (any(isinstance(node, ast.Name) and node.id == "gc"
                      for node in ast.walk(function))
                  or any(name == "gc" for _, name in _imports(function)))}
    assert users == {"run"}


def test_records_are_slotted_namedtuples():
    """Records are ``collections.namedtuple`` classes, subclassed with
    ``__slots__ = ()`` where they add methods: no ``typing.NamedTuple``,
    whose every class compiles a ``ForwardRef`` per field when the
    module loads, and no per-instance ``__dict__``."""
    named = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        named += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                  and "NamedTuple" in (getattr(node, "id", None),
                                       getattr(node, "attr", None),
                                       getattr(node, "name", None))]
    assert named == []
    records = []
    for path in sorted(SRC.glob("*.py")):
        name = "fpmfp" if path.stem == "__init__" else f"fpmfp.{path.stem}"
        module = importlib.import_module(name)
        records += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == name]
    assert len(records) >= 20
    assert [cls.__qualname__ for cls in records
            if not hasattr(cls, "_fields") or cls.__dictoffset__] == []


def test_benchmark_imports_resolve():
    """The traced benchmark run imports these layers' functions by name;
    an API it uses must not vanish without this failing."""
    root = SRC.parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(root / "perfbench"), str(SRC.parent)]))
    child = subprocess.run([sys.executable, "-c", "import layers"],
                           capture_output=True, text=True, env=env,
                           cwd=root, timeout=120)
    assert child.returncode == 0, child.stderr


# ---------------------------------------------------------------------------
# No public name in ``src/`` exists only for the tests
# ---------------------------------------------------------------------------

ROOT = SRC.parent.parent


def _referenced(tree: ast.AST) -> set[str]:
    """Every name ``tree`` refers to: bare names, attribute names and the
    names an import binds."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _benchmark_imports(tree: ast.AST) -> set[str]:
    """The ``fpmfp`` names a benchmark module imports, directly or as an
    attribute of an ``fpmfp`` module it imports."""
    names: set[str] = set()
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "fpmfp"):
            names.update(alias.name for alias in node.names)
            if node.module == "fpmfp":
                modules.update(alias.asname or alias.name
                               for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(node.attr)
    return names


def _library_use_names(readme: str) -> set[str]:
    """The identifiers in README "Library use": its Python example and its
    code spans."""
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = _referenced(ast.parse(example))
    for span in re.findall(r"`([^`\n]+)`", section):
        names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def unused_public_names(sources: dict[str, str], benchmark: list[str],
                        readme: str) -> list[str]:
    """``module: name`` for each public top-level def or class in
    ``sources`` (module file name to text) that no other top-level
    statement of ``sources`` refers to, no ``benchmark`` module imports
    and README "Library use" does not name."""
    allowed = _library_use_names(readme)
    for text in benchmark:
        allowed |= _benchmark_imports(ast.parse(text))
    statements = [(name, stmt) for name, text in sorted(sources.items())
                  for stmt in ast.parse(text, name).body]
    refs = [_referenced(stmt) for _, stmt in statements]
    found = []
    for i, (module, stmt) in enumerate(statements):
        if (not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                or stmt.name.startswith("_") or stmt.name in allowed):
            continue
        if not any(stmt.name in names
                   for j, names in enumerate(refs) if j != i):
            found.append(f"{module}: {stmt.name}")
    return found


def _tree_texts():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    benchmark = [path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return sources, benchmark, readme


def test_every_public_name_has_a_non_test_reader():
    """A public def or class in ``src/fpmfp`` is read by another part of
    the package, imported by the benchmark (whose imports
    ``test_benchmark_imports_resolve`` pins) or named in README "Library
    use".  A helper only tests call belongs next to those tests."""
    sources, benchmark, readme = _tree_texts()
    assert len(sources) > 1 and benchmark
    assert unused_public_names(sources, benchmark, readme) == []


def test_public_name_rule_catches_a_planted_helper():
    sources, benchmark, readme = _tree_texts()
    sources["progen.py"] += (
        "\n\ndef planted_helper(n):\n"
        "    return planted_helper(n - 1) if n else 0\n")
    assert unused_public_names(sources, benchmark, readme) == [
        "progen.py: planted_helper"]
    # Naming it in the "Library use" prose is enough.
    readme = readme.replace("\n## Library use\n",
                            "\n## Library use\n\n`planted_helper`\n", 1)
    assert unused_public_names(sources, benchmark, readme) == []


# ---------------------------------------------------------------------------
# No class member or keyword parameter in ``src/`` exists only for the tests
# ---------------------------------------------------------------------------

def _class_members(tree: ast.AST):
    """(class, member, definition) of each method, class-level field and
    ``self.`` attribute of each class in ``tree``, dunder names aside."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = [(stmt.name, stmt)] + [
                    (node.attr, node) for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"]
            elif isinstance(stmt, ast.AnnAssign):
                found = [(stmt.target.id, stmt)]
            elif isinstance(stmt, ast.Assign):
                found = [(target.id, stmt) for target in stmt.targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            for name, definition in found:
                if not (name.startswith("__") and name.endswith("__")):
                    yield cls.name, name, definition


def _member_reads(tree: ast.AST):
    """(pattern, node) of each attribute ``tree`` reads: the attribute's
    name, or for ``getattr`` with a string or f-string name, a pattern
    with one wildcard per replacement field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Attribute):
            yield re.escape(node.target.attr), node
        elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load):
            yield re.escape(node.attr), node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], (ast.Constant, ast.JoinedStr))):
            name = node.args[1]
            parts = name.values if isinstance(name, ast.JoinedStr) else [name]
            yield "".join(
                re.escape(part.value) if isinstance(part, ast.Constant)
                else ".*" for part in parts), node


def unread_members(sources: dict[str, str], benchmark: list[str],
                   readme: str) -> list[str]:
    """``module: Class.member`` for each class member in ``sources`` that
    nothing in ``sources`` outside the member's own definition reads, no
    ``benchmark`` module reads and README "Library use" does not name."""
    allowed = _library_use_names(readme)
    for text in benchmark:
        allowed.update(node.attr for node in ast.walk(ast.parse(text))
                       if isinstance(node, ast.Attribute))
    trees = {name: ast.parse(text, name)
             for name, text in sorted(sources.items())}
    reads = [read for tree in trees.values() for read in _member_reads(tree)]
    found = []
    for module, tree in trees.items():
        for cls, name, definition in _class_members(tree):
            if name in allowed:
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in own and re.fullmatch(pattern, name)
                       for pattern, node in reads):
                found.append(f"{module}: {cls}.{name}")
    return sorted(set(found))


def _defaulted(function: ast.FunctionDef, method: bool):
    """Each parameter of ``function`` with a default, mapped to its
    position among the arguments a call passes (None: keyword only)."""
    args = function.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in function.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = {name: i for i, name in enumerate(positional) if i >= first}
    out.update((arg.arg, None) for arg, default in zip(args.kwonlyargs,
                                                       args.kw_defaults)
               if default is not None)
    return out


def _calls(tree: ast.AST):
    """(called name, call, parameter names of the enclosing functions,
    enclosing function nodes) of each call in ``tree``."""
    out = []

    def visit(node, params: frozenset, enclosing: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                args = child.args
                visit(child, params | {arg.arg for arg in (
                    args.posonlyargs + args.args + args.kwonlyargs)},
                    (*enclosing, child))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    out.append((func.id, child, params, enclosing))
                elif isinstance(func, ast.Attribute):
                    out.append((func.attr, child, params, enclosing))
            visit(child, params, enclosing)

    visit(tree, frozenset(), ())
    return out


def _passes(call: ast.Call, forwarded: frozenset, param: str,
            index: int | None) -> bool:
    """Whether ``call`` passes ``param`` (by keyword, or by position
    ``index``) something other than an enclosing function's own parameter
    of the same name."""
    def passed(value) -> bool:
        return not (isinstance(value, ast.Name) and value.id == param
                    and param in forwarded)

    if any(kw.arg is None or (kw.arg == param and passed(kw.value))
           for kw in call.keywords):
        return True
    return index is not None and any(
        isinstance(arg, ast.Starred) or (i == index and passed(arg))
        for i, arg in enumerate(call.args[:index + 1]))


def unpassed_keywords(sources: dict[str, str], benchmark: list[str],
                      readme: str) -> list[str]:
    """``module: function(param=)`` for each defaulted parameter of a
    public function or method in ``sources`` that no call outside the
    function passes, in ``sources`` or a ``benchmark`` module, unless
    README "Library use" names it."""
    allowed = _library_use_names(readme)
    trees = {name: ast.parse(text, name)
             for name, text in sorted(sources.items())}
    calls = [call for tree in [*trees.values(),
                               *map(ast.parse, benchmark)]
             for call in _calls(tree)]
    found = []
    for module, tree in trees.items():
        functions = [(stmt, False) for stmt in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                functions += [(stmt, True) for stmt in cls.body]
        for function, method in functions:
            if (not isinstance(function, ast.FunctionDef)
                    or function.name.startswith("_")):
                continue
            for param, index in _defaulted(function, method).items():
                if param not in allowed and not any(
                        name == function.name and function not in enclosing
                        and _passes(call, forwarded, param, index)
                        for name, call, forwarded, enclosing in calls):
                    found.append(f"{module}: {function.name}({param}=)")
    return found


def test_every_member_has_a_non_test_reader():
    """A method, property, field or ``self.`` attribute of a class in
    ``src/fpmfp`` is read outside its own definition, by the package or
    the benchmark, or named in README "Library use"."""
    sources, benchmark, readme = _tree_texts()
    assert unread_members(sources, benchmark, readme) == []


def test_every_keyword_parameter_has_a_non_test_caller():
    """A parameter with a default, of a public function or method in
    ``src/fpmfp``, is passed by some call outside that function, in the
    package or the benchmark, or named in README "Library use".  A call
    that hands on its own function's parameter of the same name does not
    count."""
    sources, benchmark, readme = _tree_texts()
    assert unpassed_keywords(sources, benchmark, readme) == []


def test_member_rule_catches_a_planted_member():
    sources, benchmark, readme = _tree_texts()
    sources["progen.py"] += (
        "\n\nclass Planted:\n"
        "    def __init__(self):\n"
        "        self.planted_field = 1\n\n"
        "    def planted_method(self, n):\n"
        "        return self.planted_method(n - 1) if n else 0\n")
    assert unread_members(sources, benchmark, readme) == [
        "progen.py: Planted.planted_field",
        "progen.py: Planted.planted_method"]
    # A read elsewhere in the package, or a name in "Library use", is
    # enough.
    sources["mips.py"] += "\n\nplanted = Planted().planted_method(1)\n"
    readme = readme.replace("\n## Library use\n",
                            "\n## Library use\n\n`planted_field`\n", 1)
    assert unread_members(sources, benchmark, readme) == []


def test_keyword_rule_catches_a_planted_keyword():
    sources, benchmark, readme = _tree_texts()
    sources["progen.py"] += (
        "\n\ndef planted(n, width=1, *, depth=0):\n"
        "    return planted(n - 1, depth=depth + 1) if n else width\n\n\n"
        "def forwards(depth=0):\n"
        "    return planted(1, depth=depth)\n")
    assert unpassed_keywords(sources, benchmark, readme) == [
        "progen.py: planted(width=)", "progen.py: planted(depth=)",
        "progen.py: forwards(depth=)"]
    # Passing a value by position or by keyword, from outside the
    # function, is enough.
    sources["mips.py"] += "\n\nplanted = forwards(planted(2, 3, depth=1))\n"
    assert unpassed_keywords(sources, benchmark, readme) == []


# ---------------------------------------------------------------------------
# No module constant in ``src/`` exists only for the tests
# ---------------------------------------------------------------------------

def _module_constants(tree: ast.Module):
    """(name, assignment) of each name a top-level assignment in ``tree``
    binds, dunder names aside."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and not (
                        node.id.startswith("__") and node.id.endswith("__")):
                    yield node.id, stmt


def _loads(tree: ast.AST):
    """(name, node) of each bare name and attribute name ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load):
            yield node.attr, node


def unread_constants(sources: dict[str, str], benchmark: list[str],
                     readme: str) -> list[str]:
    """``module: NAME`` for each module-level constant in ``sources``
    that nothing in ``sources`` reads outside its own assignment, no
    ``benchmark`` module reads and README "Library use" does not name.
    Assigning a constant, as a test that patches it does, is no read."""
    allowed = _library_use_names(readme)
    for text in benchmark:
        allowed.update(name for name, _ in _loads(ast.parse(text)))
    trees = {name: ast.parse(text, name)
             for name, text in sorted(sources.items())}
    reads = [read for tree in trees.values() for read in _loads(tree)]
    found = []
    for module, tree in trees.items():
        for name, assignment in _module_constants(tree):
            if name in allowed:
                continue
            own = {id(node) for node in ast.walk(assignment)}
            if not any(read == name and id(node) not in own
                       for read, node in reads):
                found.append(f"{module}: {name}")
    return found


def test_every_module_constant_has_a_non_test_reader():
    """A module-level constant in ``src/fpmfp`` is read outside its own
    assignment, by the package or the benchmark, or named in README
    "Library use".  A constant only tests read or patch belongs next to
    those tests."""
    sources, benchmark, readme = _tree_texts()
    assert unread_constants(sources, benchmark, readme) == []


def test_constant_rule_catches_a_planted_constant():
    sources, benchmark, readme = _tree_texts()
    sources["progen.py"] += (
        "\n\nPLANTED_LIMIT = 3\n"
        "PLANTED_PAIR: tuple = (PLANTED_LIMIT, 1)\n"
        "__planted__ = 0\n")
    assert unread_constants(sources, benchmark, readme) == [
        "progen.py: PLANTED_PAIR"]
    # Patching it, as a test would, is no read.
    sources["mips.py"] += "\n\nprogen.PLANTED_PAIR = (4, 1)\n"
    assert unread_constants(sources, benchmark, readme) == [
        "progen.py: PLANTED_PAIR"]
    # A read elsewhere in the package, or a name in "Library use", is
    # enough.
    read = dict(sources)
    read["lifted.py"] += (
        "\n\ndef planted():\n    return progen.PLANTED_PAIR[0]\n")
    assert unread_constants(read, benchmark, readme) == []
    readme = readme.replace("\n## Library use\n",
                            "\n## Library use\n\n`PLANTED_PAIR`\n", 1)
    assert unread_constants(sources, benchmark, readme) == []


# ---------------------------------------------------------------------------
# Every JSON report streams through ``cmd_io``'s writer
# ---------------------------------------------------------------------------

# What a subcommand module would use to build a report's whole text
# instead of handing the payload to ``cmd_io._write_json``.
WHOLE_TEXT = {"json", "io", "dumps", "dump", "JSONEncoder", "StringIO",
              "getvalue"}


def whole_report_builders(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each use in ``sources`` of what builds a JSON
    report other than by streaming it: the encoder ``_stream_json``
    anywhere but ``cmd_io.py``, and in a ``cmd_*`` module any name of
    ``WHOLE_TEXT``, imported, read or called."""
    found = set()
    for module, text in sorted(sources.items()):
        if module == "cmd_io.py":
            continue
        tree = ast.parse(text, module)
        names = _referenced(tree) | {name for _, name in _imports(tree)}
        banned = {"_stream_json"}
        if module.startswith("cmd_"):
            banned |= WHOLE_TEXT
        found.update(f"{module}: {name}" for name in names & banned)
    return sorted(found)


def test_only_cmd_io_builds_json_reports():
    """A subcommand hands its payload to ``cmd_io._write_json``, which
    streams it to the destination in chunks; no module but ``cmd_io``
    calls the encoder, and no subcommand builds a report's whole text."""
    sources, _, _ = _tree_texts()
    assert {"cmd_analyze.py", "cmd_compare.py", "cmd_io.py"} <= set(sources)
    assert whole_report_builders(sources) == []


def test_report_rule_catches_planted_builders():
    sources, _, _ = _tree_texts()
    sources["cmd_compare.py"] += (
        "\n\nimport json\n\n\n"
        "def planted(payload):\n"
        "    return json.dumps(payload, indent=2, sort_keys=True)\n")
    sources["cmd_analyze.py"] += (
        "\n\ndef planted(payload):\n"
        "    from io import StringIO\n"
        "    from .cmd_io import _stream_json\n"
        "    out = StringIO()\n"
        "    _stream_json(payload, out.write)\n"
        "    return out.getvalue()\n")
    sources["lattice.py"] += (
        "\n\ndef planted(payload, write):\n"
        "    from . import cmd_io\n"
        "    cmd_io._stream_json(payload, write)\n")
    assert whole_report_builders(sources) == [
        "cmd_analyze.py: StringIO", "cmd_analyze.py: _stream_json",
        "cmd_analyze.py: getvalue", "cmd_analyze.py: io",
        "cmd_compare.py: dumps", "cmd_compare.py: json",
        "lattice.py: _stream_json"]


# ---------------------------------------------------------------------------
# A subcommand reads only the flags the CLI's table gives it
# ---------------------------------------------------------------------------

def unknown_flags(sources: dict[str, str], commands: dict) -> list[str]:
    """``module: args.name`` for each attribute that a ``cmd_<x>.handle``
    in ``sources`` reads from its parameter and that is neither
    ``command`` nor the name of a flag ``commands`` (``cli._commands()``)
    defines for subcommand ``<x>``."""
    found = []
    for module, text in sorted(sources.items()):
        if not module.startswith("cmd_"):
            continue
        handles = [node for node in ast.parse(text, module).body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "handle"]
        if not handles:
            continue
        (handle,) = handles
        flags = commands[module[4:-3].replace("_", "-")][1]
        known = {"command"} | {flag[2:].replace("-", "_") for flag in flags}
        param = handle.args.args[0].arg
        found += sorted({
            f"{module}: {param}.{node.attr}" for node in ast.walk(handle)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == param
            and node.attr not in known})
    return found


def test_subcommands_read_only_their_flags():
    """A typo in ``args.<flag>`` would raise ``AttributeError`` only when
    that line runs; the table says which names each ``handle`` gets."""
    from fpmfp import cli

    sources, _, _ = _tree_texts()
    handled = [module for module in sources if module.startswith("cmd_")
               and "\ndef handle(" in sources[module]]
    assert len(handled) == len(cli._commands()) == 5
    assert unknown_flags(sources, cli._commands()) == []


def test_flag_rule_catches_a_planted_misspelling():
    from fpmfp import cli

    sources, _, _ = _tree_texts()
    text = sources["cmd_oracle_check.py"]
    assert text.count("args.max_length") == 1
    sources["cmd_oracle_check.py"] = text.replace(
        "args.max_length", "args.max_lenght")
    # A flag of another subcommand is no flag of this one.
    sources["cmd_dump_dot.py"] += (
        "\n\ndef handle(opts):\n    return opts.analysis, opts.command\n")
    sources["cmd_dump_dot.py"] = sources["cmd_dump_dot.py"].replace(
        "def handle(args)", "def old_handle(args)")
    assert unknown_flags(sources, cli._commands()) == [
        "cmd_dump_dot.py: opts.analysis",
        "cmd_oracle_check.py: args.max_lenght"]
