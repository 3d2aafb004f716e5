import ast
import sys
from pathlib import Path

import phmid

# numpy is the one declared runtime dependency; anything else installed
# alongside it (scipy, say) would import fine here and fail for users
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_numpy_and_the_stdlib():
    sources = sorted(Path(phmid.__file__).resolve().parent.glob("*.py"))
    assert len(sources) > 1
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not foreign, foreign


def test_every_public_name_is_used_by_the_package():
    # a name that only the tests use belongs in tests/oracles.py
    sources = Path(phmid.__file__).resolve().parent.glob("*.py")
    used = set()
    for path in sources:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [name for name in phmid.__all__ if name not in used]
    assert not unused, unused
