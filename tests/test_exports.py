"""Every exported name has a caller in the program: src/ or scripts/. Every
record field and property is read by the program: src/, scripts/ or
perfbench/."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "fdopt").glob("*.py"))
# CALIBRATION_SIZES is the scoring protocol's published constant;
# rep_params is the representation oracle that perfbench calls
NO_PROGRAM_CALLER = {"CALIBRATION_SIZES", "rep_params"}
# FdGradient.degenerate flags a floored congruence spectrum; the step
# diagnostics planned for the metrics log (ROADMAP item 5) will read it
NO_PROGRAM_READER = {("FdGradient", "degenerate")}


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


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
    for tree in _trees(MODULES + sorted((ROOT / "scripts").glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _read_attributes() -> set[str]:
    """Attributes read anywhere in src/, scripts/ or perfbench/."""
    paths = [p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return {
        node.attr
        for tree in _trees(sorted(paths))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _record_members() -> list[tuple[str, str]]:
    """(class, name) of every field (an annotated name in a class body) and
    every property declared under src/fdopt."""
    members = []
    for tree in _trees(MODULES):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.append((cls.name, item.target.id))
                elif isinstance(item, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in item.decorator_list
                ):
                    members.append((cls.name, item.name))
    return members


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


def test_every_record_member_is_read():
    read = _read_attributes()
    unread = [
        f"{cls}.{name}"
        for cls, name in _record_members()
        if name not in read and (cls, name) not in NO_PROGRAM_READER
    ]
    assert not unread, f"declared but never read by the program: {unread}"
