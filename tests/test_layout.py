"""The package carries no code without a caller: every module-level name in
src/mmner is used somewhere else in the package or exported by it, and every
name a module of the package or a demo imports is used in that module. The
README's "Layout" block lists each of its modules."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmner"
README = PACKAGE.parent.parent / "README.md"
DEMOS = PACKAGE.parent.parent / "demos"


def _definitions(tree: ast.Module):
    """(name, line) of each module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno


def uncalled(package: Path) -> list[str]:
    """``module.name`` of every module-level name that appears on no other
    line of the package and is not imported by its ``__init__``."""
    sources = {path: path.read_text("utf-8") for path in sorted(package.glob("*.py"))}
    init = ast.parse(sources[package / "__init__.py"])
    exported = {alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    lines = [(path, lineno, line) for path, text in sources.items()
             for lineno, line in enumerate(text.splitlines(), start=1)]
    found = []
    for path, text in sources.items():
        for name, def_line in _definitions(ast.parse(text)):
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for where, lineno, line in lines
                       if (where, lineno) != (path, def_line)):
                found.append(f"{path.stem}.{name}")
    return found


def unused_imports(path: Path) -> list[str]:
    """``file:name`` of every name the module imports (``__future__`` aside)
    that no other expression of the module reads."""
    tree = ast.parse(path.read_text("utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{name}" for name in imported if name not in used]


def test_every_src_name_has_a_caller():
    assert uncalled(PACKAGE) == []


def test_readme_layout_lists_every_module():
    block = README.read_text("utf-8").split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^ +(\w+\.py) ", block, re.MULTILINE))
    assert listed == {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py"}


def test_every_import_is_used():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    found = [hit for path in modules if path.name != "__init__.py" for hit in unused_imports(path)]
    assert found == []
