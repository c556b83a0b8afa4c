"""Pluggable block-store backends: where a replica's tree persists.

The package splits block persistence out of
:class:`~repro.blocktree.tree.BlockTree`: the tree keeps every block and
its fork-choice and ancestry *indices* in RAM and writes each block
through to a :class:`~repro.storage.base.BlockStore`.  The durable log
backend survives a crash, and :meth:`BlockTree.replay` rebuilds the tree
from it (see ``docs/architecture.md``).  Fork-choice verdicts are
byte-identical across the two backends — differential-tested in
``tests/test_storage.py``; ``benchmarks/test_bench_storage.py`` gates
append, cold-read and replay speed.

Backends are selected by keyword (the ``--store`` knob), the location
by ``path``::

    open_store("memory")                 # dicts; the default, no files
    open_store("log", path="n0.btlog")   # append-only binary log, durable
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.storage.base import BlockStore
from repro.storage.logstore import AppendOnlyLogStore
from repro.storage.memory import InMemoryStore

#: Keyword → backend class (the ``--store`` knob's vocabulary).
STORE_KINDS: Dict[str, Type[BlockStore]] = {
    "memory": InMemoryStore,
    "log": AppendOnlyLogStore,
}


def open_store(kind: str, path: Optional[str] = None) -> BlockStore:
    """Open the ``kind`` backend (a :data:`STORE_KINDS` key) at ``path``.

    ``log`` without a path is an error (a log store *is* its file).
    """
    if kind not in STORE_KINDS:
        raise ValueError(
            f"unknown store kind {kind!r}; expected one of {sorted(STORE_KINDS)}"
        )
    if kind == "memory":
        if path:
            raise ValueError("memory store takes no path")
        return InMemoryStore()
    if path is None:
        raise ValueError("log store needs a path")
    return AppendOnlyLogStore(path=path)
