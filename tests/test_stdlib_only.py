"""The runtime is stdlib-only: every absolute import in `src/auctionlab`
names a standard-library module or the package itself."""
import ast
import sys
from pathlib import Path

import auctionlab


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(auctionlab.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "auctionlab":
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []
