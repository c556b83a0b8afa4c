"""Tests for the authenticated pipeline (``repro.crypto.auth``).

Covers the verifier/signer unit behaviour (witness segregation, typed
reject reasons, identity binding, equivocation evidence, slashing
protection, batch priming), the end-to-end signed runs (id-identity with
the unsigned pipeline, traffic signing, adversary containment), and the
campaign/measurement surface (auth presets, CellResult.auth).
"""

from dataclasses import replace

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.crypto.auth import (
    AUTH_REJECT_REASONS,
    BlockAuthenticator,
    EquivocationEvidence,
    build_registry,
    creator_name,
    sign_submissions,
)
from repro.crypto.signatures import KeyPair, SignatureRegistry
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode, run_bitcoin
from repro.workloads.scenarios import (
    AdversarialScenario,
    ProtocolScenario,
    adversarial_scenarios,
)
from repro.workloads.traffic import ClientTrafficScenario, Submission
from repro.workloads.transactions import Transaction

SEED = 424242


def fresh_auth(owners=("p0", "p1", "p2", "client0"), **kwargs) -> BlockAuthenticator:
    return BlockAuthenticator(build_registry(SEED, owners), **kwargs)


class TestVerifyDetailed:
    def test_ok(self):
        reg = SignatureRegistry()
        kp = reg.register("alice", seed=9)
        assert reg.verify_detailed(kp.sign("m", 1), "m", 1) == "ok"

    def test_unknown_signer(self):
        reg = SignatureRegistry()
        ghost = KeyPair(owner="ghost", seed=1)
        assert reg.verify_detailed(ghost.sign("m"), "m") == "unknown-signer"

    def test_bad_digest(self):
        reg = SignatureRegistry()
        kp = reg.register("alice", seed=9)
        assert reg.verify_detailed(kp.sign("m"), "other") == "bad-digest"
        forged = KeyPair(owner="alice", seed=666).sign("m")
        assert reg.verify_detailed(forged, "m") == "bad-digest"

    def test_verify_delegates(self):
        reg = SignatureRegistry()
        kp = reg.register("alice", seed=9)
        assert reg.verify(kp.sign("m"), "m")
        assert not reg.verify(kp.sign("m"), "other")


class TestWitnessSegregation:
    def test_signing_preserves_block_id(self):
        auth = fresh_auth()
        block = make_block(GENESIS, label="x", creator=0)
        sealed = auth.sign_block(block, "p0")
        assert sealed.block_id == block.block_id
        assert sealed.signature is not None and block.signature is None

    def test_signing_preserves_tx_id(self):
        tx = Transaction.make(("a",), ("b",), issuer="client0")
        kp = KeyPair(owner="client0", seed=7)
        signed = replace(tx, signature=kp.sign("tx", tx.tx_id))
        assert signed.tx_id == tx.tx_id

    def test_signature_grows_wire_bytes(self):
        auth = fresh_auth()
        block = make_block(GENESIS, label="x", creator=0)
        sealed = auth.sign_block(block, "p0")
        sig = sealed.signature
        expected = 4 + len(sig.signer) + 1 + len(sig.digest) + 1
        assert sealed.wire_bytes() == block.wire_bytes() - 1 + expected

    def test_tx_signature_grows_wire_bytes(self):
        tx = Transaction.make(("a",), ("b",), issuer="client0")
        kp = KeyPair(owner="client0", seed=7)
        signed = replace(tx, signature=kp.sign("tx", tx.tx_id))
        sig = signed.signature
        expected = 4 + len(sig.signer) + 1 + len(sig.digest) + 1
        assert signed.wire_bytes() == tx.wire_bytes() - 1 + expected


class TestCheckBlock:
    def test_genesis_always_ok(self):
        assert fresh_auth().check_block(GENESIS) == "ok"

    def test_signed_block_ok(self):
        auth = fresh_auth()
        block = auth.sign_block(make_block(GENESIS, label="x", creator=0), "p0")
        assert auth.check_block(block) == "ok"

    def test_unsigned_rejected(self):
        auth = fresh_auth()
        assert auth.check_block(make_block(GENESIS, label="x", creator=0)) == "unsigned"
        assert auth.counters["block:unsigned"] == 1

    def test_forged_key_rejected(self):
        auth = fresh_auth()
        block = make_block(GENESIS, label="x", creator=0)
        forged = KeyPair(owner="p0", seed=31337)
        bad = replace(block, signature=forged.sign("block", block.block_id))
        assert auth.check_block(bad) == "bad-digest"

    def test_unknown_signer_rejected(self):
        auth = fresh_auth()
        block = make_block(GENESIS, label="x", creator=None)
        ghost = KeyPair(owner="p99", seed=1)
        bad = replace(block, signature=ghost.sign("block", block.block_id))
        assert auth.check_block(bad) == "unknown-signer"

    def test_stolen_identity_rejected(self):
        # Valid digest by a registered signer, but the block claims a
        # different creator: identity binding refuses it.
        auth = fresh_auth()
        block = make_block(GENESIS, label="x", creator=0)
        stolen = auth.sign_block(replace(block, creator=0), "p1")
        # sign_block signs with p1's real key; claimed creator is p0.
        assert auth.check_block(stolen) == "wrong-signer"

    def test_creatorless_block_accepts_any_registered_signer(self):
        # Hyperledger/Red Belly materialize the same block at every
        # replica; each seals its local copy with its own key.
        auth = fresh_auth()
        block = make_block(GENESIS, label="sb0", creator=None)
        for signer in ("p0", "p1", "p2"):
            sealed = auth.sign_block(block, signer)
            assert auth.check_block(sealed) == "ok"

    def test_cache_hit_still_checks_binding(self):
        auth = fresh_auth()
        block = make_block(GENESIS, label="x", creator=0)
        sealed = auth.sign_block(block, "p0")
        assert auth.check_block(sealed) == "ok"
        assert auth.check_block(sealed) == "ok"
        assert auth.counters["cache_hits"] >= 1
        # Same id re-sealed by a different signer: the digest cache must
        # not bypass identity binding.
        resealed = replace(
            block, signature=auth.keypair_for("p1").sign("block", block.block_id)
        )
        assert auth.check_block(resealed) == "wrong-signer"


class TestCheckTx:
    def test_signed_tx_ok(self):
        auth = fresh_auth()
        tx = Transaction.make(("a",), ("b",), issuer="client0")
        kp = auth.keypair_for("client0")
        assert auth.check_tx(replace(tx, signature=kp.sign("tx", tx.tx_id))) == "ok"

    def test_unsigned_tx_rejected(self):
        auth = fresh_auth()
        tx = Transaction.make(("a",), ("b",), issuer="client0")
        assert auth.check_tx(tx) == "unsigned"

    def test_wrong_issuer_rejected(self):
        auth = fresh_auth()
        tx = Transaction.make(("a",), ("b",), issuer="client0")
        kp = auth.keypair_for("p0")
        assert (
            auth.check_tx(replace(tx, signature=kp.sign("tx", tx.tx_id)))
            == "wrong-signer"
        )

    def test_xshard_records_exempt(self):
        auth = fresh_auth()
        tx = Transaction.make(("c",), ("d",), issuer="xshard-lock|t1|0|1|10.0")
        assert auth.check_tx(tx) == "ok"

    def test_reject_reasons_counted(self):
        auth = fresh_auth()
        tx = Transaction.make(("a",), ("b",), issuer="client0")
        auth.check_tx(tx)
        assert auth.counters["tx:unsigned"] == 1
        assert set(AUTH_REJECT_REASONS) == {
            "unsigned",
            "unknown-signer",
            "bad-digest",
            "wrong-signer",
            "equivocation",
        }


class TestSlashingProtection:
    def test_refuses_second_block_at_same_parent(self):
        auth = fresh_auth()
        first = make_block(GENESIS, label="a", creator=0)
        rival = make_block(GENESIS, label="b", creator=0)
        assert auth.sign_block(first, "p0").signature is not None
        assert auth.sign_block(rival, "p0").signature is None

    def test_resigning_same_block_is_fine(self):
        auth = fresh_auth()
        block = make_block(GENESIS, label="a", creator=0)
        assert auth.sign_block(block, "p0").signature is not None
        assert auth.sign_block(block, "p0").signature is not None

    def test_creatorless_blocks_not_journaled(self):
        auth = fresh_auth()
        a = make_block(GENESIS, label="sb0", creator=None)
        b = make_block(GENESIS, label="sb1", creator=None)
        assert auth.sign_block(a, "p0").signature is not None
        assert auth.sign_block(b, "p0").signature is not None

    def test_journal_survives_crash_rebuild(self):
        scenario = ProtocolScenario(
            name="journal", n_nodes=3, duration=30.0, auth=True
        )
        node = BitcoinNode("p0", scenario)
        block = make_block(GENESIS, label="a", creator=0)
        assert node.auth.sign_block(block, "p0").signature is not None
        node.network = type("N", (), {"simulator": None})()  # unused by crash path
        node.lifecycle_crash()
        rival = make_block(GENESIS, label="b", creator=0)
        assert node.auth.sign_block(rival, "p0").signature is None

    def test_counters_carried_across_crash(self):
        scenario = ProtocolScenario(
            name="carry", n_nodes=3, duration=30.0, auth=True
        )
        node = BitcoinNode("p0", scenario)
        sealed = node.auth.sign_block(make_block(GENESIS, label="a", creator=1), "p1")
        assert node.auth.check_block(sealed) == "ok"
        before = node.auth_report()["verified"]
        assert before >= 1
        node.network = type("N", (), {"simulator": None})()
        node.lifecycle_crash()
        assert node.auth_report()["verified"] == before
        assert node.auth.counters["verified"] == 0


class TestEquivocationEvidence:
    def pair(self, auth):
        kp = auth.keypair_for("p0")
        a = make_block(GENESIS, label="a", creator=0)
        b = make_block(GENESIS, label="b", creator=0)
        a = replace(a, signature=kp.sign("block", a.block_id))
        b = replace(b, signature=kp.sign("block", b.block_id))
        return a, b

    def test_rival_detected_and_both_banned(self):
        auth = fresh_auth()
        a, b = self.pair(auth)
        assert auth.check_block(a) == "ok"
        assert auth.check_block(b) == "equivocation"
        assert auth.banned_ids == {a.block_id, b.block_id}
        assert len(auth.evidence) == 1
        (ev,) = auth.drain_fresh_evidence()
        assert sorted(ev.banned_ids) == sorted((a.block_id, b.block_id))
        assert not auth.drain_fresh_evidence()

    def test_first_block_banned_retroactively(self):
        auth = fresh_auth()
        a, b = self.pair(auth)
        assert auth.check_block(a) == "ok"
        auth.check_block(b)
        assert auth.check_block(a) == "equivocation"

    def test_evidence_is_slander_proof(self):
        # A pair where one block carries a forged digest cannot frame p0.
        auth = fresh_auth()
        a, b = self.pair(auth)
        forged = replace(
            b, signature=KeyPair(owner="p0", seed=666).sign("block", b.block_id)
        )
        bogus = EquivocationEvidence(
            signer="p0", parent_id=GENESIS.block_id, block_a=a, block_b=forged
        )
        assert not auth.evidence_valid(bogus)
        assert not auth.ingest_evidence(bogus)
        assert not auth.banned_ids

    def test_evidence_requires_matching_parent(self):
        auth = fresh_auth()
        kp = auth.keypair_for("p0")
        a = make_block(GENESIS, label="a", creator=0)
        child = make_block(a, label="c", creator=0)
        a = replace(a, signature=kp.sign("block", a.block_id))
        child = replace(child, signature=kp.sign("block", child.block_id))
        bogus = EquivocationEvidence(
            signer="p0", parent_id=GENESIS.block_id, block_a=a, block_b=child
        )
        assert not auth.evidence_valid(bogus)

    def test_evidence_requires_identity_binding(self):
        # Both digests valid under p1's key, but the blocks claim
        # creator 0: p1 cannot be slashed with p0-attributed blocks.
        auth = fresh_auth()
        kp = auth.keypair_for("p1")
        a = make_block(GENESIS, label="a", creator=0)
        b = make_block(GENESIS, label="b", creator=0)
        a = replace(a, signature=kp.sign("block", a.block_id))
        b = replace(b, signature=kp.sign("block", b.block_id))
        bogus = EquivocationEvidence(
            signer="p1", parent_id=GENESIS.block_id, block_a=a, block_b=b
        )
        assert not auth.evidence_valid(bogus)

    def test_ingest_is_idempotent(self):
        auth = fresh_auth()
        other = fresh_auth()
        a, b = self.pair(auth)
        auth.check_block(a)
        auth.check_block(b)
        (ev,) = list(auth.evidence.values())
        assert other.ingest_evidence(ev)
        assert not other.ingest_evidence(ev)
        assert other.banned_ids == set(ev.banned_ids)

    def test_evidence_id_order_independent(self):
        auth = fresh_auth()
        a, b = self.pair(auth)
        e1 = EquivocationEvidence("p0", GENESIS.block_id, a, b)
        e2 = EquivocationEvidence("p0", GENESIS.block_id, b, a)
        assert e1.evidence_id == e2.evidence_id

    def test_algorand_style_reproposals_not_equivocation(self):
        # creator=None blocks may legitimately share a parent.
        auth = fresh_auth()
        for label in ("r0", "r1"):
            block = make_block(GENESIS, label=label, creator=None)
            sealed = auth.sign_block(block, "p0")
            assert auth.check_block(sealed) == "ok"
        assert not auth.evidence


class TestBatchPriming:
    def test_prime_batch_populates_cache(self):
        signer = fresh_auth()
        verifier = fresh_auth()
        blocks = []
        parent = GENESIS
        for i in range(20):
            parent = make_block(parent, label=f"b{i}", creator=0)
            blocks.append(signer.sign_block(parent, "p0"))
        primed = verifier.prime_batch(blocks)
        assert primed == 20
        hits_before = verifier.counters["cache_hits"]
        for block in blocks:
            assert verifier.check_block(block) == "ok"
        assert verifier.counters["cache_hits"] == hits_before + 20

    def test_prime_batch_skips_bad_digests(self):
        verifier = fresh_auth()
        block = make_block(GENESIS, label="x", creator=0)
        forged = replace(
            block, signature=KeyPair(owner="p0", seed=666).sign("block", block.block_id)
        )
        assert verifier.prime_batch([forged]) == 0
        assert verifier.check_block(forged) == "bad-digest"

    def test_cache_cap_zero_disables_cache(self):
        auth = fresh_auth(cache_cap=0)
        block = auth.sign_block(make_block(GENESIS, label="x", creator=0), "p0")
        assert auth.check_block(block) == "ok"
        assert auth.check_block(block) == "ok"
        assert auth.counters["cache_hits"] == 0
        assert auth.counters["verified"] == 2

    def test_midstate_digest_matches_reference(self):
        auth = fresh_auth()
        kp = auth.keypair_for("p0")
        block = make_block(GENESIS, label="x", creator=0)
        assert auth._digest(kp, "block", block.block_id) == kp.sign(
            "block", block.block_id
        ).digest


class TestSignSubmissions:
    def test_client_txs_sealed(self):
        registry = build_registry(SEED, ("client0",))
        tx = Transaction.make(("a",), ("b",), issuer="client0")
        sub = Submission(time=1.0, ingress="p0", txs=(tx,))
        (signed,) = sign_submissions((sub,), registry)
        assert signed.time == sub.time and signed.ingress == sub.ingress
        assert signed.txs[0].signature is not None
        assert signed.txs[0].tx_id == tx.tx_id

    def test_xshard_and_unknown_issuers_left_unsigned(self):
        registry = build_registry(SEED, ("client0",))
        lock = Transaction.make(("c",), ("d",), issuer="xshard-lock|t|0|1|5.0")
        ghost = Transaction.make(("e",), ("f",), issuer="nobody")
        sub = Submission(time=1.0, ingress="p0", txs=(lock, ghost))
        (signed,) = sign_submissions((sub,), registry)
        assert all(tx.signature is None for tx in signed.txs)


class TestScenarioKnobs:
    def test_defaults_unsigned(self):
        sc = ProtocolScenario(name="x", n_nodes=3, duration=10.0)
        assert not sc.auth and sc.build_auth() is None

    def test_build_auth(self):
        sc = ProtocolScenario(name="x", n_nodes=3, duration=10.0, auth=True)
        auth = sc.build_auth()
        assert auth is not None and auth.cache_cap == 65536
        assert all(auth.keypair_for(n) is not None for n in sc.node_names())

    def test_signers_include_clients_and_spammer(self):
        sc = ProtocolScenario(
            name="x",
            n_nodes=3,
            duration=10.0,
            auth=True,
            traffic=ClientTrafficScenario(name="t", rate=1.0, n_clients=2),
        )
        signers = sc.auth_signers()
        assert "client0" in signers and "client1" in signers and "spammer" in signers

    def test_validation(self):
        # The verified-pair cache size is the authenticator's default,
        # not a scenario knob.
        with pytest.raises(TypeError):
            ProtocolScenario(name="x", n_nodes=3, duration=10.0, auth_cache=-1)
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="x", n_nodes=3, duration=10.0, byzantine=(("p9", "forged-signature"),)
            ).validate()
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="x", n_nodes=3, duration=10.0, byzantine=(("p0", "nonsense"),)
            ).validate()

    def test_auth_presets_registered(self):
        presets = adversarial_scenarios(n_nodes=4, duration=60.0)
        for name in ("forged-signature", "equivocating-signer", "stolen-identity"):
            assert presets[name].auth
            assert presets[name].byzantine
            presets[name].validate()


class TestSignedRuns:
    def test_signed_run_id_identical_to_unsigned(self):
        # Witness segregation + size-independent channel delays: the
        # signed pipeline must replay the unsigned run block for block.
        base = dict(name="ident", n_nodes=4, duration=90.0, mean_block_interval=10.0)
        unsigned = run_bitcoin(ProtocolScenario(**base))
        signed = run_bitcoin(ProtocolScenario(**base, auth=True))
        chains_u = {k: c.tip_id for k, c in unsigned.final_chains().items()}
        chains_s = {k: c.tip_id for k, c in signed.final_chains().items()}
        assert chains_u == chains_s
        totals = signed.auth_stats()["totals"]
        assert totals["verified"] > 0
        assert all(v == 0 for k, v in totals.items() if ":" in k)

    def test_unsigned_run_reports_no_auth_stats(self):
        run = run_bitcoin(ProtocolScenario(name="plain", n_nodes=3, duration=30.0))
        assert run.auth_stats() == {}

    def test_signed_traffic_commits(self):
        sc = ProtocolScenario(
            name="signed-traffic",
            n_nodes=4,
            duration=120.0,
            mean_block_interval=10.0,
            auth=True,
            traffic=ClientTrafficScenario(name="t", rate=1.0),
        )
        run = run_bitcoin(sc)
        stats = run.mempool_stats()
        assert stats["committed"]["txs"] > 0
        assert run.auth_stats()["totals"]["tx:unsigned"] == 0

    def test_equivocating_pair_never_both_commit(self):
        # Regression for the tentpole property: across every honest
        # replica's selected chain, no evidence pair has both rivals
        # present, and no banned block is on the chain at all.
        sc = adversarial_scenarios(n_nodes=4, duration=240.0)["equivocating-signer"]
        run = ProtocolRun.execute(BitcoinNode, sc)
        byz = dict(sc.byzantine)
        for node in run.nodes:
            if node.name in byz:
                continue
            chain_ids = {b.block_id for b in node.select_chain().blocks}
            for ev in node.auth.evidence.values():
                a, b = ev.banned_ids
                assert not (a in chain_ids and b in chain_ids)
            assert not (chain_ids & node.auth.banned_ids)

    def test_only_the_adversary_is_slashed(self):
        sc = adversarial_scenarios(n_nodes=4, duration=240.0)["equivocating-signer"]
        run = ProtocolRun.execute(BitcoinNode, sc)
        byz = set(dict(sc.byzantine))
        signers = {ev.signer for n in run.nodes for ev in n.auth.evidence.values()}
        assert signers and signers <= byz
        # Honest production continues despite every leaf being poisoned
        # at times (the clean-prefix fallback in select_chain).
        heights = [
            n.select_chain().height for n in run.nodes if n.name not in byz
        ]
        assert min(heights) > 0

    @pytest.mark.parametrize(
        "preset,reason",
        [("forged-signature", "block:bad-digest"), ("stolen-identity", "block:wrong-signer")],
    )
    def test_adversary_blocks_never_enter_honest_chains(self, preset, reason):
        sc = adversarial_scenarios(n_nodes=4, duration=240.0)[preset]
        run = ProtocolRun.execute(BitcoinNode, sc)
        byz = dict(sc.byzantine)
        bad = {int(n[1:]) for n in byz}
        for node in run.nodes:
            if node.name in byz:
                continue
            assert all(b.creator not in bad for b in node.select_chain().blocks)
        assert run.auth_stats()["totals"][reason] > 0

    def test_append_stats_carry_auth_report(self):
        run = run_bitcoin(
            ProtocolScenario(name="st", n_nodes=3, duration=60.0, auth=True)
        )
        stats = run.append_stats()
        assert all("auth" in entry for entry in stats.values())


class TestCampaignSurface:
    def test_auth_preset_cell_round_trips(self):
        from repro.campaign.engine import run_single_cell

        sc = adversarial_scenarios(n_nodes=4, duration=120.0)["forged-signature"]
        result = run_single_cell("bitcoin", sc)
        assert result.auth is not None
        assert result.auth["totals"]["block:bad-digest"] > 0
        assert result.deterministic_dict()["auth"] == result.auth

    def test_unsigned_cell_has_no_auth_block(self):
        from repro.campaign.engine import run_single_cell

        sc = ProtocolScenario(name="plain", n_nodes=3, duration=30.0)
        result = run_single_cell("bitcoin", sc)
        assert result.auth is None

    def test_grid_restricts_auth_presets_to_bitcoin(self):
        from repro.campaign.grid import CampaignGrid

        with pytest.raises(ValueError):
            CampaignGrid(scenarios=("forged-signature",))
        grid = CampaignGrid(
            protocols=("bitcoin",), scenarios=("forged-signature",), duration=60.0
        )
        assert grid.expand()


def test_creator_name():
    assert creator_name(make_block(GENESIS, creator=3)) == "p3"
    assert creator_name(make_block(GENESIS, creator=None)) is None
