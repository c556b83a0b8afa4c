"""Authenticated blocks and transactions: the signed-pipeline machinery.

The BADT framework assumes every replica can check a validity predicate
on receipt; real deployments instantiate the integrity half of that
predicate with digital signatures (NISTIR 8202).  This module closes the
gap for the simulation: authoring replicas sign the *content id* of
every block they produce (and clients sign the transactions they issue),
and every receive path — flood relay, reconcile rounds, fast-sync BLOCKS
batches, mempool ingest, shard facets — verifies before accept/park/
relay.

Design points:

* **Witness segregation.**  Signatures live in a field excluded from
  ``stable_repr`` (see ``Block._STABLE_REPR_EXCLUDE``), so content ids
  are identical with authentication on or off and signing never changes
  an id.  A block signature therefore covers the id, which itself
  commits to parent, label, payload, creator and nonce.

* **Fast verification.**  A naive verify recomputes the full
  ``hash_hex("sig", seed, owner, kind, id)`` per arrival.  The
  authenticator instead keeps one SHA-256 *midstate* per (signer, kind)
  — the hash state after absorbing the static prefix — and finishes it
  with a single ``copy()``/``update(id)`` per item, plus a bounded cache
  of already-verified ``(id, signer)`` pairs: a plain dict cleared
  wholesale when it reaches ``cache_cap``.
  :meth:`BlockAuthenticator.prime_batch` amortizes sync/reconcile
  batches through the same midstates.

* **Identity binding.**  A signed block whose ``creator`` is set must be
  signed *by* that creator (defeating :class:`StolenIdentityRelay`-style
  impersonation).  Consensus protocols that materialize the same block
  locally at every replica (Hyperledger ordering, Red Belly superblocks)
  or ship proposals inside BFT messages (Algorand) build blocks with
  ``creator=None`` — each replica seals its local copy with its own key,
  and any registered signer with a valid digest is accepted.

* **Equivocation.**  For creator-attributed (mined) blocks, one signer
  producing two different blocks on the same parent is provable
  misbehaviour: honest miners never re-mine a parent because selection
  only ever extends leaves.  The authenticator indexes the first block
  seen per (signer, parent); a second rival yields a slander-proof
  :class:`EquivocationEvidence` (both signed blocks), bans both ids, and
  the node floods the evidence (forward-once) and piggybacks it on
  fast-sync block batches so rejoining replicas learn the bans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._util import counter_row, prf_uint64, sha256_hex, stable_repr
from repro.blocktree.block import Block, creator_name
from repro.crypto.hashing import hash_hex
from repro.crypto.signatures import KeyPair, Signature, SignatureRegistry
from repro.workloads.transactions import Transaction

__all__ = [
    "AUTH_REJECT_REASONS",
    "XSHARD_ISSUER_PREFIX",
    "BlockAuthenticator",
    "EquivocationEvidence",
    "auth_key_seed",
    "build_registry",
    "sign_submissions",
]

#: Typed verdicts ``check_block``/``check_tx`` can return besides ``"ok"``.
AUTH_REJECT_REASONS = (
    "unsigned",
    "unknown-signer",
    "bad-digest",
    "wrong-signer",
    "equivocation",
)

#: Cross-shard two-phase records (LOCK surrogates, COMMIT/ABORT/RELEASE)
#: are derived deterministically by facet replicas, not issued by a
#: client holding a key; they are authenticated transitively by the
#: signature of the block that carries them and are exempt from the
#: per-transaction signature requirement.
XSHARD_ISSUER_PREFIX = "xshard-"

_CACHE_CAP_DEFAULT = 1 << 16

#: The authenticator's row of a replica's counter table, at zero.
_ZERO = dict.fromkeys(
    ("verified", "cache_hits", "batch_primed", "evidence_accepted")
    + tuple(
        f"{kind}:{reason}" for reason in AUTH_REJECT_REASONS for kind in ("block", "tx")
    ),
    0,
)


def auth_key_seed(seed: int, owner: str) -> int:
    """The signing seed of ``owner`` in the scenario keyed by ``seed``.

    Derived from the scenario seed alone so every replica — including
    shard facets built from a facet-scoped copy of the scenario — agrees
    on the same PKI without any key-distribution protocol.
    """
    return prf_uint64("auth-key", seed, owner)


def build_registry(seed: int, owners: Iterable[str]) -> SignatureRegistry:
    """The scenario PKI: one deterministic keypair per owner."""
    registry = SignatureRegistry()
    for owner in owners:
        registry.register(owner, auth_key_seed(seed, owner))
    return registry


@dataclass(frozen=True)
class EquivocationEvidence:
    """A slander-proof equivocation witness: two signed rivals.

    Valid evidence requires *both* blocks to carry digest-valid
    signatures by ``signer`` over distinct ids at the same parent — a
    third party cannot frame an honest miner without its key.
    """

    signer: str
    parent_id: str
    block_a: Block
    block_b: Block

    @property
    def evidence_id(self) -> str:
        """Content id of the evidence (order-independent in the pair)."""
        first, second = sorted((self.block_a.block_id, self.block_b.block_id))
        return sha256_hex("auth-evidence", self.signer, self.parent_id, first, second)

    @property
    def banned_ids(self) -> Tuple[str, str]:
        """Both rival ids — each is banned once the evidence verifies."""
        return (self.block_a.block_id, self.block_b.block_id)


def _forked_digest(seed: int, owner: str, kind: str, content_id: str) -> str:
    """Reference (un-amortized) digest — what ``KeyPair.sign`` produces."""
    return hash_hex("sig", seed, owner, kind, content_id)


class BlockAuthenticator:
    """Per-replica verifier/signer for the authenticated pipeline.

    Holds the scenario PKI, the midstate table, the verified-pair cache,
    the equivocation index and the ban set.  One instance per replica
    (shard facets each get their own); all state but ``counts`` is RAM —
    a crash drops it, and the replica re-learns bans from evidence
    piggybacked on fast-sync batches.
    """

    def __init__(
        self,
        registry: SignatureRegistry,
        cache_cap: int = _CACHE_CAP_DEFAULT,
        amortize: bool = True,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.registry = registry
        self.cache_cap = cache_cap
        # ``amortize=False`` is the reference mode: every digest is
        # recomputed from scratch through ``Registry.verify_detailed``
        # (no midstate table).  Differential tests and the auth bench's
        # naive baseline pin the amortized path against it.
        self.amortize = amortize
        # (content_id, signer) pairs whose digest verified — cleared
        # wholesale at capacity (an LRU's per-hit bookkeeping costs more
        # than re-verifying rare evictees).
        self._verified: Dict[Tuple[str, str], bool] = {}
        # (owner, kind) → sha256 midstate over the static digest prefix.
        self._midstates: Dict[Tuple[str, str], Any] = {}
        # (signer, parent_id) → first creator-attributed block seen.
        self._first_at: Dict[Tuple[str, str], Block] = {}
        # (owner, parent_id) → block id this replica has signed there.
        # The signer-side slashing-protection journal: an honest signer
        # must never seal two different mined blocks at one parent (the
        # pair would be valid EquivocationEvidence against itself).
        # Carried across simulated crashes — real validators persist
        # exactly this journal for exactly this reason.
        self.signed_parents: Dict[Tuple[str, str], str] = {}
        self.evidence: Dict[str, EquivocationEvidence] = {}
        self.banned_ids: set = set()
        self._fresh_evidence: List[EquivocationEvidence] = []
        #: Verification counters and typed rejects: the authenticator's
        #: row of the replica's counter table.
        self.counts = counter_row(counts, _ZERO)

    # -- signing -------------------------------------------------------------

    def keypair_for(self, owner: str) -> Optional[KeyPair]:
        """The registered keypair of ``owner`` (``None`` if unknown)."""
        return self.registry.keys.get(owner)

    def sign_block(self, block: Block, owner: str) -> Block:
        """A copy of ``block`` sealed with ``owner``'s key.

        The signature covers ``("block", block_id)``; witness
        segregation guarantees the id is unchanged by sealing.

        Slashing protection: a creator-attributed block whose parent
        this owner has already signed a *different* block at is returned
        unsigned — refusing to sign is safe (peers drop the unsigned
        block), whereas signing would hand them provable equivocation
        evidence against an honest miner (e.g. after a crash that lost
        the chain but not this journal).
        """
        if block.creator is not None:
            key = (owner, block.parent_id or "")
            prior = self.signed_parents.get(key)
            if prior is not None and prior != block.block_id:
                return block
            self.signed_parents[key] = block.block_id
        kp = self.registry.keys[owner]
        return replace(block, signature=kp.sign("block", block.block_id))

    # -- verification --------------------------------------------------------

    def _midstate(self, kp: KeyPair, kind: str):
        key = (kp.owner, kind)
        state = self._midstates.get(key)
        if state is None:
            state = hashlib.sha256()
            for part in ("sig", kp.seed, kp.owner, kind):
                state.update(stable_repr(part))
            self._midstates[key] = state
        return state

    def _digest(self, kp: KeyPair, kind: str, content_id: str) -> str:
        if not self.amortize:
            return _forked_digest(kp.seed, kp.owner, kind, content_id)
        finisher = self._midstate(kp, kind).copy()
        finisher.update(stable_repr(content_id))
        return finisher.hexdigest()

    def _remember(self, key: Tuple[str, str]) -> None:
        if self.cache_cap > 0:
            if len(self._verified) >= self.cache_cap:
                self._verified.clear()
            self._verified[key] = True

    def _verify_signature(self, sig: Signature, kind: str, content_id: str) -> str:
        """Digest check with midstate + cache: ``"ok"``/``"unknown-signer"``/
        ``"bad-digest"`` (the same verdicts as ``Registry.verify_detailed``)."""
        key = (content_id, sig.signer)
        if key in self._verified:
            self.counts["cache_hits"] += 1
            return "ok"
        kp = self.registry.keys.get(sig.signer)
        if kp is None:
            return "unknown-signer"
        if sig.digest != self._digest(kp, kind, content_id):
            return "bad-digest"
        self.counts["verified"] += 1
        self._remember(key)
        return "ok"

    def check_block(self, block: Block) -> str:
        """Full receive-path verdict for one block.

        ``"ok"`` or one of :data:`AUTH_REJECT_REASONS`.  Genesis is
        valid by assumption.  Note the identity-binding and
        equivocation checks run *after* a cache hit too — the cache only
        certifies the digest, and witness segregation means the same id
        can arrive re-sealed by a different signer.
        """
        sig = block.signature
        block_id = block.block_id
        if sig is not None and (block_id, sig.signer) in self._verified:
            # Hot path — digest already certified (sync priming, orphan
            # re-adoption, redundant multi-peer fetches).  The ban,
            # binding and equivocation checks still run per call; only
            # the digest recomputation is skipped.  Genesis never
            # reaches here (it is never primed or remembered).
            if block_id in self.banned_ids:
                return self._reject("block", "equivocation")
            self.counts["cache_hits"] += 1
            claimed = creator_name(block)
            if claimed is not None and sig.signer != claimed:
                return self._reject("block", "wrong-signer")
            verdict = self._note_equivocation(block)
            if verdict != "ok":
                return self._reject("block", verdict)
            return "ok"
        if block.is_genesis:
            return "ok"
        if block_id in self.banned_ids:
            return self._reject("block", "equivocation")
        if sig is None:
            return self._reject("block", "unsigned")
        verdict = self._verify_signature(sig, "block", block.block_id)
        if verdict == "ok":
            claimed = creator_name(block)
            if claimed is not None and sig.signer != claimed:
                verdict = "wrong-signer"
            else:
                verdict = self._note_equivocation(block)
        if verdict != "ok":
            return self._reject("block", verdict)
        return "ok"

    def check_tx(self, tx: Transaction) -> str:
        """Receive-path verdict for one transaction at mempool ingest.

        Cross-shard two-phase records are exempt (see
        :data:`XSHARD_ISSUER_PREFIX`); every other transaction must be
        signed by its issuer.
        """
        if tx.issuer.startswith(XSHARD_ISSUER_PREFIX):
            return "ok"
        sig = tx.signature
        if sig is None:
            return self._reject("tx", "unsigned")
        verdict = self._verify_signature(sig, "tx", tx.tx_id)
        if verdict == "ok" and sig.signer != tx.issuer:
            verdict = "wrong-signer"
        if verdict != "ok":
            return self._reject("tx", verdict)
        return "ok"

    def _reject(self, kind: str, reason: str) -> str:
        self.counts[f"{kind}:{reason}"] += 1
        return reason

    # -- batched verification ------------------------------------------------

    def prime_batch(self, blocks: Sequence[Block]) -> int:
        """Amortized digest pre-verification for a sync/reconcile batch.

        Populates the verified-pair cache so the per-block
        :meth:`check_block` calls on the adoption path hit it; identity
        binding and equivocation still run per block there.  Returns the
        number of fresh digests verified.
        """
        pending: List[Tuple[Tuple[str, str], KeyPair, str]] = []
        verified = self._verified
        keys = self.registry.keys
        append = pending.append
        for block in blocks:
            sig = block.signature
            if sig is None or block.parent_id is None:  # unsigned / genesis
                continue
            key = (block.block_id, sig.signer)
            if key in verified:
                continue
            kp = keys.get(sig.signer)
            if kp is None:
                continue
            append((key, kp, sig.digest))
        if not pending:
            return 0
        expected: Dict[Tuple[str, str], str]
        if not self.amortize:
            expected = {
                key: _forked_digest(kp.seed, kp.owner, "block", key[0])
                for key, kp, _ in pending
            }
        else:
            # Tight amortized loop: one midstate copy + id finisher per
            # signature, the per-signer prefix hashed once per batch.
            expected = {}
            copiers: Dict[str, Any] = {}
            for key, kp, _ in pending:
                copy = copiers.get(kp.owner)
                if copy is None:
                    copy = copiers[kp.owner] = self._midstate(kp, "block").copy
                finisher = copy()
                finisher.update(stable_repr(key[0]))
                expected[key] = finisher.hexdigest()
        primed = 0
        for key, _kp, digest in pending:
            if digest == expected[key]:
                self._remember(key)
                primed += 1
        self.counts["batch_primed"] += primed
        self.counts["verified"] += primed
        return primed

    # -- equivocation --------------------------------------------------------

    def _note_equivocation(self, block: Block) -> str:
        """Index a digest-valid, identity-bound block; detect rivals.

        Only creator-attributed blocks participate: consensus protocols
        legitimately let one signer seal different blocks at the same
        parent across rounds (Algorand re-proposals), whereas a miner
        extends a parent at most once because selection only extends
        leaves.
        """
        if block.creator is None:
            return "ok"
        key = (block.signature.signer, block.parent_id or "")
        first = self._first_at.get(key)
        if first is None:
            self._first_at[key] = block
            return "ok"
        if first.block_id == block.block_id:
            return "ok"
        evidence = EquivocationEvidence(
            signer=block.signature.signer,
            parent_id=block.parent_id or "",
            block_a=first,
            block_b=block,
        )
        if self._accept_evidence(evidence):
            self._fresh_evidence.append(evidence)
        return "equivocation"

    def evidence_valid(self, evidence: EquivocationEvidence) -> bool:
        """Whether ``evidence`` proves equivocation under this PKI."""
        a, b = evidence.block_a, evidence.block_b
        if a.block_id == b.block_id:
            return False
        if a.parent_id != evidence.parent_id or b.parent_id != evidence.parent_id:
            return False
        for block in (a, b):
            sig = block.signature
            if sig is None or sig.signer != evidence.signer:
                return False
            if creator_name(block) != evidence.signer:
                return False
            if self._verify_signature(sig, "block", block.block_id) != "ok":
                return False
        return True

    def _accept_evidence(self, evidence: EquivocationEvidence) -> bool:
        eid = evidence.evidence_id
        if eid in self.evidence or not self.evidence_valid(evidence):
            return False
        self.evidence[eid] = evidence
        self.banned_ids.update(evidence.banned_ids)
        self.counts["evidence_accepted"] += 1
        return True

    def ingest_evidence(self, evidence: EquivocationEvidence) -> bool:
        """Accept relayed/piggybacked evidence; ``True`` if it was fresh."""
        return self._accept_evidence(evidence)

    def drain_fresh_evidence(self) -> Tuple[EquivocationEvidence, ...]:
        """Evidence this replica generated locally since the last drain."""
        fresh = tuple(self._fresh_evidence)
        self._fresh_evidence.clear()
        return fresh

    def stats(self) -> Dict[str, int]:
        """The counters plus the evidence held and the ids banned now."""
        evidence, banned = len(self.evidence), len(self.banned_ids)
        return {**self.counts, "evidence": evidence, "banned": banned}


def sign_submissions(submissions: Sequence[Any], registry: SignatureRegistry):
    """Seal every client transaction in a compiled traffic schedule.

    Applied as a post-pass over ``compile_submissions`` output so the
    schedule itself (times, ingress choices, tx ids) stays byte-identical
    to the unsigned pipeline.  Cross-shard records keep flowing unsigned
    (see :data:`XSHARD_ISSUER_PREFIX`); unknown issuers are left
    unsigned too — they exercise the ``unsigned`` reject path.
    """
    def seal(tx: Transaction) -> Transaction:
        if tx.issuer.startswith(XSHARD_ISSUER_PREFIX):
            return tx
        kp = registry.keys.get(tx.issuer)
        if kp is None:
            return tx
        return replace(tx, signature=kp.sign("tx", tx.tx_id))

    return tuple(
        replace(sub, txs=tuple(seal(tx) for tx in sub.txs)) for sub in submissions
    )
