"""The package holds only what it runs or documents.

Every public top-level function or class, and every public method, in
src/flan must be referenced from src/ or perfbench/ or named in a
backticked README span.  perfbench may name it any way, a dotted-name
string such as a trace target included.  src/ may name a top-level
definition or access it as an attribute, but a method only counts when
accessed as an attribute: a local variable of the same name calls
nothing.  A helper that only tests call belongs in tests/.  The README's
list of the public surface names only what the code defines.  No module
reads the environment.
"""

import ast
import builtins
import importlib
import inspect
import keyword
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flan"
PERFBENCH = ROOT / "perfbench"
IDENT = r"[A-Za-z_]\w*"


def _public_names():
    """(qualified name, bare name, is a method) of each public definition
    in src/flan."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield (f"{path.stem}.{node.name}.{item.name}",
                               item.name, True)


def _code_references(path, dotted_strings: bool) -> tuple[set[str], set[str]]:
    """(bare names, attribute names) in a module's code; the parts of a
    dotted-name string count as attribute names."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif (dotted_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and re.fullmatch(rf"{IDENT}(\.{IDENT})*", node.value)):
            attrs.update(node.value.split("."))
    return names, attrs


def _readme_references() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return {name for span in spans for name in re.findall(IDENT, span)}


def test_every_public_name_is_used_or_documented():
    # named: README spans, src/ attribute accesses and any perfbench
    # mention, which count for every definition; src/ bare names count
    # only for top-level ones
    named, src_names = _readme_references(), set()
    for path in SRC.glob("*.py"):
        names, attrs = _code_references(path, dotted_strings=False)
        src_names |= names
        named |= attrs
    for path in PERFBENCH.glob("*.py"):
        named |= set().union(*_code_references(path, dotted_strings=True))
    unused = [qual for qual, bare, method in _public_names()
              if bare not in named and (method or bare not in src_names)]
    assert not unused, f"only tests call {unused}"


def _surface_names():
    """The leading dotted name of each backticked span in the README's
    bullets under "The public surface, by module": `score_archs(model,
    [arch])[0]` names score_archs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("The public surface, by module", 1)[1].split("\n## ", 1)[0]
    for span in re.findall(r"`([^`]+)`", section):
        found = re.match(rf"{IDENT}(\.{IDENT})*", span)
        if found and not (keyword.iskeyword(found[0]) or hasattr(builtins, found[0])):
            yield found[0]


def _owners() -> list:
    """Every flan module, and every class one of them defines."""
    modules = [importlib.import_module(f"flan.{path.stem}")
               for path in sorted(SRC.glob("*.py"))]
    return modules + [cls for module in modules
                      for _, cls in inspect.getmembers(module, inspect.isclass)
                      if cls.__module__ == module.__name__]


def _resolves(dotted: str, owners: list) -> bool:
    """Whether each part of a dotted name is an attribute of the one before:
    the first of the flan package if it is `flan`, else of one of owners."""
    first, *rest = dotted.split(".")
    if first == "flan":
        starts = [importlib.import_module("flan")]
    else:
        starts = [getattr(owner, first) for owner in owners if hasattr(owner, first)]
    for obj in starts:
        for part in rest:
            if not hasattr(obj, part):
                break
            obj = getattr(obj, part)
        else:
            return True
    return False


def test_the_readme_surface_names_only_what_the_code_defines():
    # the list is prose: a name deleted from the code lingers there unless
    # this checks it
    names = list(_surface_names())
    assert "PreparedBatch.take" in names and "flan.metrics" in names
    owners = _owners()
    missing = [name for name in names if not _resolves(name, owners)]
    assert not missing, f"the README's public surface names {missing}"


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # behaviour comes from arguments and config files only, so no switch
    # can hide in the environment
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            readers += [f"{path.name}:{node.lineno}: {name}"
                        for name in sorted(names & ENV_READERS)]
    assert not readers, f"environment read in src/flan: {readers}"
