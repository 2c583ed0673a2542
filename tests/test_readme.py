"""The README's Python stays in step with the package API.

Every fenced ``python`` block must compile, and every name it imports
from ``mslqr`` must exist.  The blocks are not executed: the library
example runs a full-size Riccati solve.
"""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_compiles_and_imports_existing_names():
    blocks = python_blocks()
    assert blocks
    for i, block in enumerate(blocks):
        compile(block, f"README.md block {i}", "exec")
        tree = ast.parse(block)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "mslqr":
                        importlib.import_module(alias.name)
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "mslqr"):
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names
                           if not hasattr(module, a.name)]
                assert not missing, (f"README block {i} imports {missing} "
                                     f"from {node.module}")
