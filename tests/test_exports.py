"""Every exported name has a caller in the program: src/ or scripts/."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "fdopt").glob("*.py"))
# CALIBRATION_SIZES is the scoring protocol's published constant;
# rep_params is the representation oracle that perfbench calls
NO_PROGRAM_CALLER = {"CALIBRATION_SIZES", "rep_params"}


def _exports(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _used_names() -> set[str]:
    """Names read, attributes taken and names imported anywhere in the
    program; definitions and __all__ strings do not count."""
    names = set()
    for path in MODULES + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


USED = _used_names()
EXPORTS = [
    (path.stem, name)
    for path in MODULES
    for name in _exports(path)
    if name not in NO_PROGRAM_CALLER
]


@pytest.mark.parametrize("module, name", EXPORTS)
def test_every_export_has_a_program_caller(module, name):
    assert name in USED, f"fdopt.{module}.{name} has no caller"
