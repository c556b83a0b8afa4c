"""Pluggable block-store backends with a checkpoint/prune lifecycle.

The package splits block persistence out of
:class:`~repro.blocktree.tree.BlockTree`: the tree keeps its fork-choice
and ancestry *indices* in RAM but resolves the blocks themselves through
a :class:`~repro.storage.base.BlockStore`, so million-block scenarios
can run under a bounded hot set (see ``PrunePolicy`` in
:mod:`repro.blocktree.tree` and ``docs/architecture.md`` for the
lifecycle).  Fork-choice verdicts are byte-identical across backends —
differential-tested in ``tests/test_storage.py`` and gated at the
1M-block scale by ``benchmarks/test_bench_storage.py``.

Backends are selected by *spec string* (the ``--store`` knob)::

    open_store("memory")                 # dicts; the default, no files
    open_store("log", path="n0.btlog")   # append-only binary log
    open_store("sqlite", path="n0.db")   # stdlib sqlite3
    open_store("log:/var/data/n0.btlog") # path inline in the spec
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.storage.base import BlockStore
from repro.storage.logstore import AppendOnlyLogStore
from repro.storage.memory import InMemoryStore
from repro.storage.sqlite import SQLiteStore

#: Spec keyword → backend class (the ``--store`` knob's vocabulary).
STORE_KINDS: Dict[str, Type[BlockStore]] = {
    "memory": InMemoryStore,
    "log": AppendOnlyLogStore,
    "sqlite": SQLiteStore,
}


def open_store(spec: str, path: Optional[str] = None) -> BlockStore:
    """Open a block store from a spec string (module docstring grammar).

    ``spec`` is a backend keyword, optionally with an inline
    ``kind:path`` location; an explicit ``path`` argument overrides the
    inline one.  ``sqlite`` without any path opens ``":memory:"``;
    ``log`` without a path is an error (a log store *is* its file).
    """
    kind, _, inline = spec.partition(":")
    kind = kind.strip().lower()
    target = path if path is not None else (inline or None)
    if kind not in STORE_KINDS:
        raise ValueError(
            f"unknown store spec {spec!r}; expected one of {sorted(STORE_KINDS)}"
        )
    if kind == "memory":
        if target:
            raise ValueError("memory store takes no path")
        return InMemoryStore()
    if kind == "sqlite":
        return SQLiteStore(path=target or ":memory:")
    if target is None:
        raise ValueError("log store needs a path (e.g. 'log:/tmp/blocks.btlog')")
    return AppendOnlyLogStore(path=target)
