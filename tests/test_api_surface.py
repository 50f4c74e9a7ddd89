"""The package holds only what it runs or documents.

Every public top-level function or class, and every public method, in
src/flan must be referenced from src/ or perfbench/ or named in a
backticked README span.  perfbench may name it any way, a dotted-name
string such as a trace target included.  src/ may name a top-level
definition or access it as an attribute, but a method only counts when
accessed as an attribute: a local variable of the same name calls
nothing.  A helper that only tests call belongs in tests/.  No module
reads the environment.
"""

import ast
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
