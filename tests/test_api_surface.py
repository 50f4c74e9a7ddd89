"""The package holds only what it runs or documents.

Every public top-level function or class, and every public method, in
src/flan must be referenced from src/ or perfbench/ (by name or attribute,
or by a dotted-name string such as a trace target) or named in a backticked
README span.  A helper that only tests call belongs in tests/.  No
module reads the environment.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flan"
PERFBENCH = ROOT / "perfbench"
IDENT = r"[A-Za-z_]\w*"


def _public_names():
    """(qualified name, bare name) of each public definition in src/flan."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _code_references(path, dotted_strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (dotted_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and re.fullmatch(rf"{IDENT}(\.{IDENT})*", node.value)):
            names.update(node.value.split("."))
    return names


def _readme_references() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return {name for span in spans for name in re.findall(IDENT, span)}


def test_every_public_name_is_used_or_documented():
    referenced = _readme_references()
    for path in SRC.glob("*.py"):
        referenced |= _code_references(path, dotted_strings=False)
    for path in PERFBENCH.glob("*.py"):
        referenced |= _code_references(path, dotted_strings=True)
    unused = [qual for qual, bare in _public_names() if bare not in referenced]
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
