import ast
import pathlib

import ergostop

PACKAGE = pathlib.Path(ergostop.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    # a private name belongs to its module; one that a sibling needs is public
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []
