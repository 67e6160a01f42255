"""Every name a module of `src/auctionlab` imports is used in that module, so
a deletion cannot leave an import behind.  `__init__.py` is skipped: its
imports are the package's re-exports."""
import ast
from pathlib import Path

import auctionlab

# (module file, name): why the module keeps a name it never uses
KEPT = {
    ("mechanisms.py", "greedy_allocate"): "perfbench/tracer.py patches this name in mechanisms",
}


def unused_imports(path):
    """(line, name) of each name the module at `path` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; an alias or `from a import b` binds that name
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(lineno, name) for name, lineno in imported.items() if name not in used]


def test_no_module_keeps_an_unused_import():
    modules = sorted(Path(auctionlab.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    unused = {
        (path.name, name): f"{path.name}:{lineno}: {name}"
        for path in modules
        if path.name != "__init__.py"
        for lineno, name in unused_imports(path)
    }
    assert [line for key, line in unused.items() if key not in KEPT] == []
    assert set(KEPT) <= set(unused), "a kept name is used again: drop it from KEPT"
