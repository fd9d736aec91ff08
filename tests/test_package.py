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


def test_no_environment_reads_in_package():
    # behaviour depends on arguments only, never on environment variables
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(a.name in ("environ", "getenv") for a in node.names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
