"""Token oracles Θ and the oracle-refined BlockTree (paper Sections 3.2–3.3).

The token oracle abstracts the block-creation/validation process: a process
obtains the right to chain a new block ``bℓ`` to ``bh`` by winning a token
``tknh`` from the oracle (``getToken``), and commits the block by consuming
the token (``consumeToken``).  Tokens are granted with probability
``p_{αi}`` determined by the invoking process's *merit* ``αi``, realized
as an infinite pseudorandom tape per merit (Definition 3.5, Figure 5).

Two oracle flavours differ only in the per-object consumption cap ``k``:

* **Frugal** ``Θ_F,k`` — at most ``k`` tokens consumed per object, hence at
  most ``k`` forks from any block (k-Fork Coherence, Theorem 3.2).
* **Prodigal** ``Θ_P`` — ``k = ∞``; validates only (Bitcoin/Ethereum).

``R(BT-ADT, Θ)`` (Definition 3.7, Figure 7) refines ``append`` into
``getToken*; consumeToken`` executed atomically.
"""
