"""Byzantine node behaviours for the protocol experiments.

The paper's §4.2 model allows processes to "arbitrarily deviate from the
protocol"; Definition 4.2 then restricts histories to events at *correct*
processes.  These adversarial nodes exercise that boundary:

* :class:`ForgingMiner` — announces blocks without solving the proof of
  work.  With ``pow_difficulty_bits > 0`` honest replicas apply ``P`` on
  reception and refuse them ("the oracle is the only generator of valid
  blocks"); the forger's chain never enters an honest BlockTree.
* :class:`EquivocatingMiner` — mines one block slot but announces two
  different blocks to disjoint halves of the network, trying to keep the
  fork alive (a weak double-spend pattern); honest convergence still wins
  because both halves eventually exchange blocks and the selection rule
  is deterministic.
* :class:`WithholdingMiner` — a selfish-mining flavour: keeps its blocks
  private for ``withhold_for`` seconds before releasing, lengthening the
  divergence window the Eventual-Prefix metrics measure.

The signature adversaries (wired through ``AdversarialScenario.byzantine``
and :data:`ADVERSARY_KINDS`) mount attacks that *only* the authenticated
pipeline (``scenario.auth``, see :mod:`repro.crypto.auth`) defeats — the
PoW predicate, double-spend rules and lifecycle machinery all accept
their blocks:

* :class:`ForgedSignatureMiner` — seals blocks with a guessed key: the
  digest is invalid under the scenario PKI (``bad-digest``), so every
  honest replica refuses them on receipt.
* :class:`EquivocatingMiner` (with auth on) — signs *two rivals at one
  height* with its real key; honest replicas assemble slander-proof
  :class:`~repro.crypto.auth.EquivocationEvidence`, ban both rivals and
  flood the evidence.
* :class:`StolenIdentityRelay` — mines blocks claiming a victim's
  ``creator`` identity, sealed with its own key (it cannot produce the
  victim's digest); identity binding rejects them (``wrong-signer``).

Each adversary overrides one step of :class:`BitcoinNode`'s mined-block
path and inherits the rest: ``_solve_pow`` (forger), ``seal_block``
(signature adversaries), ``publish_block`` (withholder) or the
found-block action itself (the equivocator calls ``mine_block`` twice).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro._util import prf_uint64
from repro.blocktree.block import Block, make_block
from repro.crypto.signatures import KeyPair
from repro.protocols.bitcoin import BitcoinNode

__all__ = [
    "ForgingMiner",
    "EquivocatingMiner",
    "WithholdingMiner",
    "ForgedSignatureMiner",
    "StolenIdentityRelay",
    "ADVERSARY_KINDS",
]


class ForgingMiner(BitcoinNode):
    """Mines without proof-of-work: nonce 0, no puzzle search.

    Under real-PoW validation its blocks fail ``P`` at every honest
    replica and are dropped before entering any tree.
    """

    def _solve_pow(self, tip: Block, payload: tuple) -> int:
        return 0  # forged: no work behind the block

    def validate_incoming(self, block: Block) -> bool:
        return True  # the forger itself accepts anything (it is Byzantine)


class EquivocatingMiner(BitcoinNode):
    """Announces two conflicting blocks per mined slot, split-brain style."""

    def seal_block(self, block: Block) -> Block:
        # Bypass the authenticator's slashing-protection journal — the
        # whole point of this adversary is to sign rival pairs, which
        # honest ``sign_block`` refuses to do.
        if self.auth is None:
            return block
        kp = self.auth.keypair_for(self.name)
        return replace(block, signature=kp.sign("block", block.block_id))

    def on_block_found(self) -> None:
        tip = self.selected_tip()
        payload = self.make_payload()
        # Both rivals are sealed with the equivocator's *real* key — each
        # signature verifies in isolation; only the pair is provable
        # misbehaviour (the equivocation index catches it).  Each carries
        # its own valid proof, so both pass P.
        variants = [
            self.mine_block(tip, payload, f"{self.name}#{self.blocks_mined}{tag}")
            for tag in ("A", "B")
        ]
        self.blocks_mined += 1
        peers = [p for p in self.network.process_names() if p != self.name]
        half = len(peers) // 2
        for group, block in zip((peers[:half], peers[half:]), variants):
            for peer in group:
                self.send(peer, ("block-gossip", block.block_id, block))
        # The equivocator adopts variant A locally and keeps mining.
        self.adopt_block(variants[0], relay=False)
        self._schedule_mining()


class WithholdingMiner(BitcoinNode):
    """Selfish-mining flavour: delays the release of its own blocks."""

    def __init__(self, name: str, scenario) -> None:
        super().__init__(name, scenario)
        self.withhold_for: float = 2.0 * scenario.channel_delta
        self._private: List[Block] = []

    def publish_block(self, block: Block) -> None:
        """Adopt privately; announce only after ``withhold_for``."""
        self.adopt_block(block, relay=False)
        self._private.append(block)
        self.call_later(self.withhold_for, self._release, block)

    def _release(self, block: Block) -> None:
        self._private.remove(block)
        self.announce_block(block)


class ForgedSignatureMiner(BitcoinNode):
    """Seals its blocks with a key it invented, not the registered one.

    The forged digest never matches what the scenario PKI recomputes, so
    honest replicas reject every block (``bad-digest``) before any other
    validation work.  Without ``scenario.auth`` the blocks are
    structurally fine and enter honest trees — the attack the signed
    pipeline exists to stop.
    """

    def seal_block(self, block: Block) -> Block:
        if self.auth is None:
            return block
        forged = KeyPair(
            owner=self.name, seed=prf_uint64("forged-key", self.scenario.seed, self.name)
        )
        return replace(block, signature=forged.sign("block", block.block_id))

    def validate_incoming(self, block: Block) -> bool:
        return True  # Byzantine: accepts anything, including its own forgeries


class StolenIdentityRelay(BitcoinNode):
    """Mines blocks impersonating another replica's identity.

    Each block claims the victim's ``creator`` but is sealed with the
    attacker's own key — it cannot produce the victim's digest without
    the victim's seed.  The digest verifies (the attacker *is*
    registered), but identity binding rejects the mismatch
    (``wrong-signer``).  Unsigned pipelines accept the impersonation
    wholesale.
    """

    @property
    def victim_index(self) -> int:
        return 1 if self.index == 0 else 0

    def seal_block(self, block: Block) -> Block:
        # Rebuild through make_block so the impersonating block's id is
        # self-consistent (the id commits to the claimed creator).
        stolen = make_block(
            parent=block.parent_id or "",
            label=block.label,
            payload=block.payload,
            creator=self.victim_index,
            nonce=block.nonce,
            weight=block.weight,
        )
        if self.auth is None:
            return stolen
        return self.auth.sign_block(stolen, self.name)

    def validate_incoming(self, block: Block) -> bool:
        return True  # Byzantine: accepts anything, including its own blocks


#: AdversarialScenario.byzantine kind → node class (mirrored by
#: BYZANTINE_KINDS in repro.workloads.scenarios for validation).
ADVERSARY_KINDS = {
    "forged-signature": ForgedSignatureMiner,
    "equivocating-signer": EquivocatingMiner,
    "stolen-identity": StolenIdentityRelay,
}
