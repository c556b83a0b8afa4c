"""The retained reference oracles stay test-and-bench only, and every
other module has a consumer.

``repro.consistency.reference``, ``repro.blocktree.reference`` and
``repro.net.reference_queue`` are the pre-optimisation algorithms kept
for differential tests and bench baselines.  Production code importing
one is a second implementation of something on the run path: only other
``reference*.py`` modules may (package ``__init__.py`` files included,
which re-export nothing — see ``tests/test_package_inits.py``).

Conversely, a module that nothing but the tests imports is a second copy
of a rule or dead weight, unless it is one of those oracles or a paper
construct that a named test pins (:data:`PAPER_CONSTRUCTS`).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
ORACLES = {
    "repro.consistency.reference",
    "repro.blocktree.reference",
    "repro.net.reference_queue",
}


#: The code whose imports make a module used: the library itself, the
#: end-to-end benchmark, the gates and figure benches, and the examples.
CONSUMERS = ("src", "bench", "benchmarks", "examples")

#: Paper constructs that no workload runs → the test that pins each one.
PAPER_CONSTRUCTS = {
    # The only linearizability check against L(BT-ADT) (Figures 2 and 3).
    "repro.consistency.embedding": "tests/test_embedding.py",
}


def _imported_modules(path):
    """Absolute dotted names of everything ``path`` imports, at any depth
    (module top or inside a function), relative imports resolved (only
    modules under ``src/repro`` use them)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = []
            if node.level:
                package = ("repro", *path.relative_to(SRC).parts[:-1])
                base = list(package[: len(package) - node.level + 1])
            if node.module:
                base.append(node.module)
            module = ".".join(base)
            yield module
            # ``from repro.consistency import reference`` names a module too.
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_only_references_import_an_oracle():
    offenders = sorted(
        f"{path.relative_to(SRC)} imports {module}"
        for path in SRC.rglob("*.py")
        if not path.name.startswith("reference")
        for module in _imported_modules(path)
        if module in ORACLES
    )
    assert offenders == []


def test_the_oracles_exist():
    """A renamed oracle must not turn the walk above into a no-op."""
    for module in ORACLES:
        assert (SRC.joinpath(*module.split(".")[1:]).with_suffix(".py")).is_file()


def _module_name(path):
    return ".".join(("repro", *path.relative_to(SRC).with_suffix("").parts))


def test_every_module_has_a_consumer():
    """Each plain module under ``src/repro`` is imported by some other
    module of :data:`CONSUMERS`, or is an oracle or a pinned paper
    construct."""
    modules = {
        _module_name(path)
        for path in SRC.rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }
    used = set()
    for directory in CONSUMERS:
        for path in (ROOT / directory).rglob("*.py"):
            own = _module_name(path) if path.is_relative_to(SRC) else None
            used.update(m for m in _imported_modules(path) if m != own)
    assert sorted(modules - used - ORACLES - set(PAPER_CONSTRUCTS)) == []


def test_paper_constructs_are_pinned_by_their_tests():
    for module, test in PAPER_CONSTRUCTS.items():
        assert module in set(_imported_modules(ROOT / test)), test
