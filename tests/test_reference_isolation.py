"""The scalar reference trainer stays off the shipped training path.

Every candidate trains on the stacked trainer; :mod:`repro.nn.reference`
keeps the one-model loop only as the oracle the ``==`` suites compare
against.  These walk the syntax trees of every module under ``repro`` so a
second trainer cannot come back unnoticed: only ``nn/reference.py`` may
define or use the scalar names, and no module may import it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
REFERENCE = PACKAGE_ROOT / "nn" / "reference.py"

#: The scalar trainer, its optimizers and the protocols built on them.
SCALAR_NAMES = {
    "Trainer",
    "Optimizer",
    "SGD",
    "MomentumSGD",
    "RMSProp",
    "Adam",
    "get_optimizer",
    "available_optimizers",
    "_train_and_score",
    "evaluate_single_fold",
    "evaluate_kfold",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(tree: ast.AST, path: Path) -> set[str]:
    """Absolute names of every module ``tree`` imports, relative forms resolved."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            modules.add(base)
            # ``from repro.nn import reference`` imports a submodule too.
            modules.update(f"{base}.{alias.name}" for alias in node.names)
    return modules


def _scalar_uses(tree: ast.AST) -> list[str]:
    """Every definition, import or reference of a scalar name in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.alias):
            name = (node.asname or node.name).rsplit(".", 1)[-1]
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in SCALAR_NAMES:
            found.append(f"{name} (line {getattr(node, 'lineno', '?')})")
    return found


def _shipped_modules() -> list[Path]:
    return sorted(PACKAGE_ROOT.rglob("*.py"))


def test_only_the_reference_defines_or_uses_the_scalar_trainer():
    offenders = {}
    for path in _shipped_modules():
        if path == REFERENCE:
            continue
        uses = _scalar_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            offenders[str(path.relative_to(PACKAGE_ROOT))] = uses
    assert offenders == {}


def test_no_module_imports_the_reference():
    importers = [
        str(path.relative_to(PACKAGE_ROOT))
        for path in _shipped_modules()
        if "repro.nn.reference"
        in _imported_modules(ast.parse(path.read_text(), filename=str(path)), path)
    ]
    assert importers == []


def test_the_reference_defines_every_scalar_name():
    # Keeps the guarded names live: a rename in the reference must be
    # mirrored here, or the two tests above would guard nothing.
    tree = ast.parse(REFERENCE.read_text())
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert SCALAR_NAMES <= defined
    assert not (PACKAGE_ROOT / "nn" / "optimizers.py").exists()


def test_the_import_resolver_sees_every_import_form():
    # The resolver must catch the relative and package forms, or the import
    # guard would pass a module that does import the reference.
    path = PACKAGE_ROOT / "workers" / "example.py"
    for source in (
        "from ..nn.reference import Trainer",
        "from ..nn import reference",
        "import repro.nn.reference",
        "from repro.nn import reference as ref",
    ):
        assert "repro.nn.reference" in _imported_modules(ast.parse(source), path), source
    assert "repro.nn.reference" in _imported_modules(
        ast.parse("from .reference import Trainer"), PACKAGE_ROOT / "nn" / "evaluation.py"
    )
    assert "repro.nn.reference" not in _imported_modules(
        ast.parse("from ..nn.evaluation import kfold_indices"), path
    )
