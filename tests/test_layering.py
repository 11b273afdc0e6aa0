"""Each module's imports from the package: one decision, one module.

The checksum and every file rule live in `container`, the config text
format in `cli`, and `model` reaches neither `optim` nor `train`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "onemax"

LAYERS = {
    "container": set(),
    "seeds": set(),
    "dsp": {"container"},
    "model": {"container"},
    "optim": {"container"},
    "data": {"container", "dsp", "seeds"},
    "train": {"dsp", "model", "data", "optim", "seeds"},
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """The onemax submodules a module imports, however it spells the import."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:          # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1:                         # from . import x, y
                found.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("onemax."):
                found.add(node.module.split(".")[1])
            elif node.module == "onemax":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("onemax."))
    return found


def definitions(module: str) -> set[str]:
    """Names a module defines at top level (imported names do not count)."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layer(module):
    assert package_imports(module) == LAYERS[module]


def test_every_module_is_pinned_except_the_cli():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS) | {"__init__", "cli"}


def test_checksum_and_config_text_have_one_home():
    moved_checksum = {"FNV_OFFSET", "FNV_PRIME", "_MASK64", "_BLOCK", "_POWERS", "_BYTE_ONES",
                      "_WORD_SHIFTS", "_TOP_BYTE", "_prefix_xor", "_low_bytes", "fnv1a"}
    config_codec = {"_parse_bool", "_parse_tuple", "_PARSERS", "CONFIG_PARSERS", "value_text",
                    "_float_text", "config_text"}
    assert moved_checksum <= definitions("container")
    assert config_codec <= definitions("cli")
    for module in ("optim", "train", "model"):
        assert not definitions(module) & (moved_checksum | config_codec), module
