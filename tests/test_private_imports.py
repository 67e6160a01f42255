"""Modules of `src/auctionlab` share only public names: no module imports
an underscore name from another module of the package."""
import ast
from pathlib import Path

import auctionlab


def test_no_module_imports_a_private_name_of_the_package():
    modules = sorted(Path(auctionlab.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "auctionlab":
                continue
            private += [
                f"{path.name}:{node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert private == []
