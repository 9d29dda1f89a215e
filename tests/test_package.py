import ast
import types
from pathlib import Path

import tnormcat


def test_all_lists_every_imported_name_and_no_module():
    tree = ast.parse(Path(tnormcat.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(tnormcat.__all__)
    assert not [
        name for name in tnormcat.__all__
        if isinstance(getattr(tnormcat, name), types.ModuleType)
    ]
