import ast
import pathlib

import cyclelink

PACKAGE = pathlib.Path(cyclelink.__file__).parent


def test_no_assert_statements_in_package():
    # certificate re-checks must still run under `python -O`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
