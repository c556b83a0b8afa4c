"""The retained reference oracles stay test-and-bench only, and every
other module, class and function has a consumer.

``repro.consistency.reference``, ``repro.blocktree.reference`` and
``repro.net.reference_queue`` are the pre-optimisation algorithms kept
for differential tests and bench baselines.  Production code importing
one is a second implementation of something on the run path: only other
``reference*.py`` modules may (package ``__init__.py`` files included,
which re-export nothing — see ``tests/test_package_inits.py``).

Conversely, a module that nothing but the tests imports, or a top-level
class or function or a method that nothing but the tests names, is a
second copy of a rule or dead weight, unless it lives in one of those
oracles or is a paper construct that a named test pins
(:data:`PAPER_CONSTRUCTS`).
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
ORACLES = {
    "repro.consistency.reference",
    "repro.blocktree.reference",
    "repro.net.reference_queue",
}


#: The code whose imports and names make a module or name used: the
#: library itself, the end-to-end benchmark, the gates and figure
#: benches, and the examples.
CONSUMERS = ("src", "bench", "benchmarks", "examples")

#: Paper constructs that no workload runs → the test that pins each one,
#: keyed by module, by ``module.name`` (a top-level class or function) or
#: by ``module.Class.method``.
PAPER_CONSTRUCTS = {
    # The only linearizability check against L(BT-ADT) (Figures 2 and 3).
    "repro.consistency.embedding": "tests/test_embedding.py",
    # Definition 2.1: a word of input symbols run through τ and δ.
    "repro.adt.base.apply_sequence": "tests/test_adt.py",
    # §3.1.2: mcps, the score of the maximal common prefix.
    "repro.blocktree.score.mcps": "tests/test_score_selection.py",
    # §5.1: "the most computational work" as a score function.
    "repro.blocktree.score.WorkScore": "tests/test_score_selection.py",
    # Figure 9 (left): the Compare&Swap object.
    "repro.concurrent.objects.CASRegister": "tests/test_shared_objects.py",
    # Figure 10: compare&swap by one consumeToken (Theorem 4.1).
    "repro.concurrent.reductions.cas_compare_and_swap": "tests/test_reductions.py",
    # Consensus from CAS, which with Figure 10 gives Theorem 4.2.
    "repro.concurrent.reductions.CASConsensusProgram": "tests/test_reductions.py",
    # §4.1: random schedules in the f < n crash-failure environment.
    "repro.concurrent.scheduler.RandomScheduler": (
        "tests/test_scheduler_modelcheck.py"
    ),
    # Definition 4.2: the restriction of a history to a set of processes.
    "repro.histories.history.ConcurrentHistory.restrict_to_procs": (
        "tests/test_histories.py"
    ),
    # The history order ↗: process order or operation order.
    "repro.histories.history.ConcurrentHistory.program_order": (
        "tests/test_histories.py"
    ),
    # Θ's get(K, h): the blocks consumed for holder h, without a consume.
    "repro.oracle.theta.ThetaOracle.consumed_for": "tests/test_theta.py",
}

#: Method-name prefixes reached by name-built dispatch, never by a
#: literal name (``BlockchainNode.apply_lifecycle`` calls
#: ``getattr(self, f"lifecycle_{action}")``).
DISPATCHED = ("lifecycle_",)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(path):
    """Absolute dotted names of everything ``path`` imports, at any depth
    (module top or inside a function), relative imports resolved (only
    modules under ``src/repro`` use them)."""
    for node in ast.walk(_parse(path)):
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
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(("repro", *parts))


def _names(root):
    """Every identifier ``root`` mentions: names, attributes and imported
    names."""
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _is_dunder_all(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    else:
        targets = [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _self_unused(tree):
    """The module's top-level classes and functions that it does not use
    itself outside their own definition and ``__all__``."""
    used = [
        set() if _is_dunder_all(node) else set(_names(node)) for node in tree.body
    ]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for definition in tree.body:
        if isinstance(definition, kinds) and not any(
            definition.name in names
            for node, names in zip(tree.body, used)
            if node is not definition
        ):
            yield definition.name


def _exempt(key):
    """An oracle or pinned construct, or a name defined in one."""
    exempt = ORACLES | set(PAPER_CONSTRUCTS)
    parts = key.split(".")
    return any(".".join(parts[:i]) in exempt for i in range(2, len(parts) + 1))


def test_every_module_has_a_consumer():
    """Each module under ``src/repro``, and each top-level class and
    function in one, has a consumer, unless :func:`_exempt`.

    A plain module is used when some other module of :data:`CONSUMERS`
    imports it.  A name is used when a :data:`CONSUMERS` file other than
    its own module names it, or when its own module uses it outside its
    definition and ``__all__``.
    """
    imported, named = set(), {}
    for directory in CONSUMERS:
        for path in (ROOT / directory).rglob("*.py"):
            own = _module_name(path) if path.is_relative_to(SRC) else None
            imported.update(m for m in _imported_modules(path) if m != own)
            for name in _names(_parse(path)):
                named.setdefault(name, set()).add(own)
    orphans = []
    for path in SRC.rglob("*.py"):
        module = _module_name(path)
        if path.name not in ("__init__.py", "__main__.py") and module not in imported:
            orphans.append(module)
        orphans += [
            f"{module}.{name}"
            for name in _self_unused(_parse(path))
            if not named.get(name, set()) - {module}
        ]
    orphans = sorted(key for key in orphans if not _exempt(key))
    assert orphans == [], "\n".join(orphans)


_WORD = re.compile(r"[A-Za-z_]\w*")


def _methods(tree):
    """``(class name, method definition)`` for every method in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


def _method_owner(key):
    """The class of a ``module.Class.method`` key, else ``None``."""
    module, _, owner = key.rpartition(".")[0].rpartition(".")
    try:
        cls = getattr(importlib.import_module(module), owner, None)
    except ImportError:
        return None
    return cls if isinstance(cls, type) else None


def _overrides(key):
    cls = _method_owner(key)
    method = key.rpartition(".")[2]
    return cls is not None and any(method in vars(b) for b in cls.__mro__[1:])


def test_every_method_has_a_consumer():
    """Each method of a class under ``src/repro`` has a consumer, unless
    :func:`_exempt`.

    A method is used when a :data:`CONSUMERS` file names it outside its
    own definition (as a word anywhere in the file: ``bench/trace.py``
    binds methods by string), when it is a dunder, when name-built
    dispatch reaches it (:data:`DISPATCHED`), or when it overrides a
    base-class method.
    """
    words = Counter()
    for directory in CONSUMERS:
        for path in (ROOT / directory).rglob("*.py"):
            words.update(_WORD.findall(path.read_text()))
    orphans = []
    for path in SRC.rglob("*.py"):
        module = _module_name(path)
        lines = path.read_text().splitlines()
        for owner, method in _methods(_parse(path)):
            name, key = method.name, f"{module}.{owner}.{method.name}"
            own = "\n".join(lines[method.lineno - 1 : method.end_lineno])
            if not (
                (name.startswith("__") and name.endswith("__"))
                or name.startswith(DISPATCHED)
                or words[name] > _WORD.findall(own).count(name)
                or _overrides(key)
            ):
                orphans.append(key)
    orphans = sorted(key for key in orphans if not _exempt(key))
    assert orphans == [], "\n".join(orphans)


def test_paper_constructs_are_pinned_by_their_tests():
    """Each key, a module or a ``module.name``, is imported by its test;
    the test of a ``module.Class.method`` key names the method."""
    for construct, test in PAPER_CONSTRUCTS.items():
        if _method_owner(construct) is None:
            assert construct in set(_imported_modules(ROOT / test)), test
        else:
            method = construct.rpartition(".")[2]
            assert method in set(_names(_parse(ROOT / test))), test
