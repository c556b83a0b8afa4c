"""Package ``__init__`` files re-export nothing, so a run loads only what it uses.

Every import names the module that defines the name.  A package
``__init__.py`` holds its docstring and the few names it defines itself
(``repro.__version__``, ``repro.mempool.TX_GOSSIP_TAG``,
``repro.storage.STORE_KINDS``/``open_store``); importing one module of a
package therefore does not load its siblings, and the paper-only
modules (the BT-ADT transducer, the oracles Θ, the hierarchy checkers)
and the retained reference oracles stay out of a simulation run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: What a bench cell, ``classify_protocol`` and a campaign import.
RUN_ENTRY_POINTS = (
    "repro.protocols.classify",
    "repro.shard.run",
    "repro.campaign.engine",
    "repro.workloads.scenarios",
)

#: Modules no simulation run calls: the reference oracles, the paper's
#: ADT/oracle layer and the offline consistency checkers.
NOT_ON_THE_RUN_PATH = {
    "repro.adt",
    "repro.adt.base",
    "repro.adt.sequential",
    "repro.blocktree.bt_adt",
    "repro.blocktree.reference",
    "repro.consistency.embedding",
    "repro.consistency.hierarchy",
    "repro.consistency.reference",
    "repro.net.broadcast",
    "repro.net.reference_queue",
    "repro.oracle",
    "repro.oracle.refinement",
    "repro.oracle.tapes",
    "repro.oracle.theta",
}

#: The one package ``__init__`` that imports from its own package: the
#: backends ``STORE_KINDS`` maps to.
OWN_PACKAGE_IMPORTS_ALLOWED = {"storage/__init__.py"}


def _package_inits():
    return sorted(SRC.rglob("__init__.py"))


def _own_package_imports(path):
    package = ".".join(("repro", *path.relative_to(SRC).parts[:-1]))
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == package or module.startswith(package + "."):
                yield node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(package + "."):
                    yield node.lineno


def test_no_package_init_assigns_all():
    offenders = [
        str(path.relative_to(SRC))
        for path in _package_inits()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        if node.id == "__all__"
    ]
    assert offenders == []


def test_only_storage_init_imports_from_its_own_package():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in _package_inits()
        if str(path.relative_to(SRC)) not in OWN_PACKAGE_IMPORTS_ALLOWED
        for line in _own_package_imports(path)
    ]
    assert offenders == []


def test_a_run_does_not_load_the_paper_only_modules():
    """Checked in a fresh interpreter: pytest's own imports would leak in."""
    code = (
        "import sys\n"
        + "".join(f"import {module}\n" for module in RUN_ENTRY_POINTS)
        + "print('\\n'.join(sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert set(RUN_ENTRY_POINTS) <= set(loaded)
    assert sorted(NOT_ON_THE_RUN_PATH & set(loaded)) == []


def test_a_fault_free_run_does_not_load_the_fault_models():
    """``repro.net.faults`` loads only once a scenario configures a
    partition, churn or eclipse; checked in a fresh interpreter."""
    code = (
        "import sys\n"
        "from repro.protocols.bitcoin import run_bitcoin\n"
        "from repro.workloads.scenarios import PartitionWindow, ProtocolScenario\n"
        "run_bitcoin(ProtocolScenario(name='plain', n_nodes=3, duration=30.0))\n"
        "print('repro.net.faults' in sys.modules)\n"
        "split = (PartitionWindow(groups=(('p0',), ('p1', 'p2'))),)\n"
        "ProtocolScenario(name='split', n_nodes=3, partitions=split).build_channel()\n"
        "print('repro.net.faults' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert loaded == ["False", "True"]


def test_the_paper_only_modules_exist():
    """A renamed module must not turn the check above into a no-op."""
    for module in NOT_ON_THE_RUN_PATH:
        path = SRC.joinpath(*module.split(".")[1:])
        assert path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()
