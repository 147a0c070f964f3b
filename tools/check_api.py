#!/usr/bin/env python
"""API-surface lint, run in CI.

Two invariants keep the public surface deliberate:

1. **No symbol escapes ``__all__``** — every module under ``src/repro``
   must define ``__all__``, every name listed in it must exist, and
   every top-level public ``def`` / ``class`` defined in the module
   (not imported into it) must be listed.  Helpers stay underscored or
   get blessed explicitly; nothing leaks by accident.

2. **Config fields always default** — every field of the public config
   dataclasses (``repro.api.SimulationConfig`` and its nested
   ``ModelSpec`` / ``LadderSpec``) carries a default (or factory), so
   each stays constructible bare and adding a field is never a breaking
   change for existing call sites.

3. **The serve facade is total** — ``repro.serve.__all__`` is sorted,
   duplicate-free, and re-exports (identically, by object) every name
   its submodules list in their own ``__all__``.  The package is the
   wire-protocol surface tenants program against; a submodule symbol
   missing from the facade is an API leak the first out-of-tree client
   would fossilize.

4. **One engine decision, one place** — each engine-rejection message
   (``ENGINE_MESSAGES``) occurs in the string literals of exactly one
   module under ``src/``, so the rules cannot drift into re-spelled
   copies.  Docstrings are prose, not rejections, and do not count.

5. **The backend computes, the device prices** — the compute-only
   backend modules (``COMPUTE_ONLY_MODULES``) never mention ``_charge``
   and hold no cost-category string literal (``COST_CATEGORIES``); op
   prices live in ``repro/backend/tpu_backend.py`` alone.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

# Modules allowed to skip __all__ entirely (single-assignment trivia).
ALL_EXEMPT = {"repro/version.py"}


def module_all(tree: ast.Module) -> list[str] | None:
    """The literal ``__all__`` list of a parsed module, if any."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return None
                return [str(name) for name in value]
    return None


def public_definitions(tree: ast.Module) -> list[str]:
    """Top-level public def/class names defined (not imported) here."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                names.append(node.name)
    return names


def check_all_invariant() -> list[str]:
    errors = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT / "src").as_posix()
        if rel in ALL_EXEMPT:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        declared = module_all(tree)
        if declared is None:
            errors.append(f"{rel}: missing (or non-literal) __all__")
            continue
        defined = public_definitions(tree)
        for name in defined:
            if name not in declared:
                errors.append(
                    f"{rel}: public symbol {name!r} escapes __all__ "
                    "(list it or underscore it)"
                )
    return errors


def check_all_resolves() -> list[str]:
    """Every name each repro module lists in __all__ actually exists."""
    import importlib
    import pkgutil

    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro

    errors = []
    modules = ["repro"] + [
        name
        for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                errors.append(
                    f"{module_name}: __all__ lists {name!r} which does not exist"
                )
    return errors


def check_config_defaults() -> list[str]:
    import dataclasses

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.api import LadderSpec, ModelSpec, SimulationConfig

    errors = []
    for cls in (SimulationConfig, ModelSpec, LadderSpec):
        for field in dataclasses.fields(cls):
            if (
                field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING
            ):
                errors.append(
                    f"repro.api.{cls.__name__}: field {field.name!r} has no "
                    "default — every config field must default"
                )
    return errors


def check_serve_surface() -> list[str]:
    """``repro.serve`` re-exports every submodule symbol, sorted, once."""
    import importlib
    import pkgutil

    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro.serve as serve

    errors = []
    declared = list(getattr(serve, "__all__", ()))
    if declared != sorted(declared):
        errors.append("repro.serve: __all__ is not sorted")
    if len(declared) != len(set(declared)):
        errors.append("repro.serve: __all__ has duplicate entries")
    facade = set(declared)
    for info in pkgutil.iter_modules(serve.__path__):
        module = importlib.import_module(f"repro.serve.{info.name}")
        for name in getattr(module, "__all__", ()):
            if name not in facade:
                errors.append(
                    f"repro.serve: {info.name}.__all__ exports {name!r} "
                    "missing from the package facade"
                )
            elif getattr(serve, name, None) is not getattr(module, name):
                errors.append(
                    f"repro.serve: facade {name!r} is not the same object "
                    f"as serve.{info.name}.{name}"
                )
    return errors


#: Engine-rejection message fragments; each must live in one module.
ENGINE_MESSAGES = (
    "has no elementwise path",
    "requires the fused sweep engine",
    "does not take a block_shape",
    "multiple of 128",
    "has no packed kernels",
    "requires field=0.0",
)


def string_literals(tree: ast.Module) -> list[str]:
    """Every non-docstring string literal of a module.

    Implicitly concatenated pieces arrive as one literal; an f-string
    contributes its literal parts joined, each placeholder as ``{}``.
    """
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    skip = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    literals = []
    # ast.walk is breadth-first: an f-string comes before its parts.
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skip.update(id(value) for value in node.values)
            literals.append("".join(
                value.value if isinstance(value, ast.Constant) else "{}"
                for value in node.values
            ))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip:
                literals.append(node.value)
    return literals


def check_engine_messages() -> list[str]:
    """Each engine-rejection message occurs in exactly one src module."""
    owners: dict[str, list[str]] = {message: [] for message in ENGINE_MESSAGES}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        rel = path.relative_to(REPO_ROOT / "src").as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        literals = string_literals(tree)
        for message in ENGINE_MESSAGES:
            if any(message in literal for literal in literals):
                owners[message].append(rel)
    return [
        f"engine message {message!r} occurs in {len(modules)} modules "
        f"({', '.join(modules) or 'none'}); keep it in one "
        "(repro/core/config.py resolve_engine)"
        for message, modules in owners.items()
        if len(modules) != 1
    ]


#: Modules of the op vocabulary that must only compute.
COMPUTE_ONLY_MODULES = ("repro/backend/base.py", "repro/backend/numpy_backend.py")

#: The cost model's op categories, which only the pricing backend names.
COST_CATEGORIES = ("mxu", "vpu", "alu", "formatting", "conv")


def check_compute_only_backend() -> list[str]:
    """The compute-only backend modules carry no cost accounting."""
    errors = []
    for rel in COMPUTE_ONLY_MODULES:
        text = (REPO_ROOT / "src" / rel).read_text(encoding="utf-8")
        if "_charge" in text:
            errors.append(f"{rel}: mentions _charge; price ops in the TPU backend")
        for node in ast.walk(ast.parse(text, filename=rel)):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in COST_CATEGORIES
            ):
                errors.append(
                    f"{rel}:{node.lineno}: cost category literal {node.value!r}; "
                    "price ops in the TPU backend"
                )
    return errors


def main() -> int:
    errors = (
        check_all_invariant()
        + check_all_resolves()
        + check_config_defaults()
        + check_serve_surface()
        + check_engine_messages()
        + check_compute_only_backend()
    )
    if errors:
        for line in errors:
            print(f"check_api: {line}")
        print(f"check_api: FAILED ({len(errors)} violation(s))")
        return 1
    print("check_api: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
