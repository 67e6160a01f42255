"""The package keeps to the oldest Python that pyproject.toml admits
(`requires-python = ">=3.10"`): every module parses as 3.10 source."""
import ast
from pathlib import Path

import auctionlab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_module_parses_as_python_3_10():
    assert 'requires-python = ">=3.10"' in PYPROJECT.read_text()
    modules = sorted(Path(auctionlab.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    for path in modules:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
