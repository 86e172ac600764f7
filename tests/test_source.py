import ast
from pathlib import Path

import quadeq

SRC = Path(quadeq.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts; checks in the package must be explicit raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
