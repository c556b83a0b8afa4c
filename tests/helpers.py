"""Importable test helpers.

Lives in its own module (not ``conftest.py``) so test modules can
``from helpers import build_chain`` without colliding with the
``benchmarks/conftest.py`` module when both directories are collected in
one pytest run — two ``conftest`` modules shadow each other on
``sys.path``, a ``helpers`` module exists only here.
"""

from __future__ import annotations

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain


def build_chain(*labels) -> Chain:
    """Chain b0 ⌢ labels[0] ⌢ labels[1] ⌢ … with content-derived ids."""
    blocks = [GENESIS]
    for lbl in labels:
        blocks.append(make_block(blocks[-1], label=str(lbl)))
    return Chain.of(blocks)
