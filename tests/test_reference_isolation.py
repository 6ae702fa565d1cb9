"""The scalar reference trainer stays off the shipped training path.

Every candidate trains on the stacked trainer; :mod:`repro.nn.reference`
keeps the one-model loop only as the oracle the ``==`` suites compare
against.  These walk the syntax trees of every module under ``repro`` so a
second trainer cannot come back unnoticed: only ``nn/reference.py`` may
define or use the scalar names, no module may import it, and no shipped
model class carries the scalar backward pass (its per-layer ``backward``,
gradient buffers or training-mode caches).  The training loss is the
reference's alone too: no shipped class computes, stores or reports one,
and only the reference (and the ``repro.nn`` re-exports) imports
``repro.nn.losses``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.nn import losses

PACKAGE_ROOT = Path(repro.__file__).parent
REFERENCE = PACKAGE_ROOT / "nn" / "reference.py"
NN_EXPORTS = PACKAGE_ROOT / "nn" / "__init__.py"

#: The scalar backward pass, the trainer and optimizers built on it, and
#: the protocols built on those.
SCALAR_NAMES = {
    "backpropagate",
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
    "ReferenceHistory",
    "evaluate_loss",
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


#: What a model class would define to carry its own scalar backward pass.
#: ``StackedMLPGroup.train_step`` is the fused step every candidate trains
#: with, so ``train_step`` is barred on the per-model classes only.
BACKWARD_ATTRIBUTES = {"backward", "gradients", "grad_weights", "grad_bias", "_last_input"}
PER_MODEL_CLASSES = {"DenseLayer", "MLP"}


def _class_definitions(tree: ast.AST, barred_for) -> list[str]:
    """Members of ``tree``'s classes named in ``barred_for(class name)``.

    A member is a method, a ``self`` attribute assigned anywhere in the
    class, or a name assigned in the class body (a dataclass field).
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        barred = barred_for(node.name)
        body = {id(statement) for statement in node.body}
        for inner in ast.walk(node):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [inner.name]
            elif (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.ctx, ast.Store)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                names = [inner.attr]
            elif isinstance(inner, (ast.Assign, ast.AnnAssign)) and id(inner) in body:
                targets = inner.targets if isinstance(inner, ast.Assign) else [inner.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name} (line {inner.lineno})" for name in names if name in barred]
    return found


def _backward_definitions(tree: ast.AST) -> list[str]:
    """Members of ``tree``'s classes that hold a backward pass."""
    return _class_definitions(
        tree,
        lambda name: BACKWARD_ATTRIBUTES | ({"train_step"} if name in PER_MODEL_CLASSES else set()),
    )


def test_no_shipped_class_defines_a_scalar_backward_pass():
    offenders = {}
    for path in _shipped_modules():
        if path == REFERENCE:
            continue
        found = _backward_definitions(ast.parse(path.read_text(), filename=str(path)))
        if found:
            offenders[str(path.relative_to(PACKAGE_ROOT))] = found
    assert offenders == {}


def test_the_backward_guard_sees_every_form():
    for source in (
        "class DenseLayer:\n    def backward(self, upstream): ...",
        "class MLP:\n    def train_step(self, x, y): ...",
        "class MLP:\n    def gradients(self): ...",
        "class DenseLayer:\n    def forward(self, x):\n        self._last_input = x",
        "class Conv:\n    def __init__(self):\n        self.grad_weights = None",
    ):
        assert _backward_definitions(ast.parse(source)), source
    assert _backward_definitions(ast.parse("class StackedMLPGroup:\n    def train_step(self): ...")) == []


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


#: What a class would define to compute, store or report a training loss.
LOSS_ATTRIBUTES = {"train_loss", "final_train_loss", "loss", "evaluate_loss"}


def _loss_definitions(tree: ast.AST) -> list[str]:
    return _class_definitions(tree, lambda name: LOSS_ATTRIBUTES)


def _imports_losses(tree: ast.AST, path: Path) -> bool:
    """Whether ``tree`` imports ``repro.nn.losses`` or a loss name re-exported by ``repro.nn``."""
    barred = {"repro.nn.losses"} | {f"repro.nn.{name}" for name in losses.__all__}
    return bool(barred & _imported_modules(tree, path))


def test_no_shipped_class_defines_or_records_a_loss():
    offenders = {}
    for path in _shipped_modules():
        if path == REFERENCE:
            continue
        found = _loss_definitions(ast.parse(path.read_text(), filename=str(path)))
        if found:
            offenders[str(path.relative_to(PACKAGE_ROOT))] = found
    assert offenders == {}


def test_the_loss_guard_sees_every_form():
    for source in (
        "class TrainingHistory:\n    train_loss: list = []",
        "class TrainingHistory:\n    @property\n    def final_train_loss(self): ...",
        "class MLP:\n    def __init__(self):\n        self.loss = None",
        "class MLP:\n    def evaluate_loss(self, x, y): ...",
        "class Result:\n    loss = 0.0",
    ):
        assert _loss_definitions(ast.parse(source)), source
    # A local variable of a method is not a member.
    assert _loss_definitions(ast.parse("class A:\n    def f(self):\n        loss = 1")) == []
    tree = ast.parse(REFERENCE.read_text())
    assert {"train_loss", "final_train_loss"} <= {
        name.split(" ")[0].split(".")[1] for name in _loss_definitions(tree)
    }


def test_only_the_reference_imports_the_losses():
    importers = [
        str(path.relative_to(PACKAGE_ROOT))
        for path in _shipped_modules()
        if path not in (REFERENCE, NN_EXPORTS)
        and _imports_losses(ast.parse(path.read_text(), filename=str(path)), path)
    ]
    assert importers == []
    assert _imports_losses(ast.parse(REFERENCE.read_text()), REFERENCE)


def test_the_loss_import_guard_sees_every_form():
    path = PACKAGE_ROOT / "nn" / "mlp.py"
    for source in (
        "from .losses import Loss, get_loss",
        "from . import losses",
        "import repro.nn.losses",
        "from repro.nn import get_loss",
        "from ..nn import CategoricalCrossEntropy",
    ):
        assert _imports_losses(ast.parse(source), path), source
    assert not _imports_losses(ast.parse("from .activations import Softmax"), path)
