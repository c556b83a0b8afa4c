"""The retained reference oracles stay test-and-bench only.

``repro.consistency.reference``, ``repro.blocktree.reference`` and
``repro.net.reference_queue`` are the pre-optimisation algorithms kept
for differential tests and bench baselines.  Production code importing
one is a second implementation of something on the run path: only other
``reference*.py`` modules and package ``__init__.py`` re-exports may.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ORACLES = {
    "repro.consistency.reference",
    "repro.blocktree.reference",
    "repro.net.reference_queue",
}


def _imported_modules(path):
    """Absolute dotted names of everything ``path`` imports, at any depth
    (module top or inside a function), relative imports resolved."""
    package = ("repro", *path.relative_to(SRC).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            if node.module:
                base.append(node.module)
            module = ".".join(base)
            yield module
            # ``from repro.consistency import reference`` names a module too.
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_only_references_and_package_inits_import_an_oracle():
    offenders = sorted(
        f"{path.relative_to(SRC)} imports {module}"
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py" and not path.name.startswith("reference")
        for module in _imported_modules(path)
        if module in ORACLES
    )
    assert offenders == []


def test_the_oracles_exist():
    """A renamed oracle must not turn the walk above into a no-op."""
    for module in ORACLES:
        assert (SRC.joinpath(*module.split(".")[1:]).with_suffix(".py")).is_file()
