"""Tests for the crypto substrate: hashing, PoW, Merkle, VRF, signatures."""

import pytest

from repro.crypto.hashing import (
    hash_hex,
    hash_to_unit,
    leading_zero_bits,
    meets_difficulty,
)
from repro.crypto.merkle import MerkleTree
from repro.crypto.pow import PoWPuzzle
from repro.crypto.signatures import KeyPair, SignatureRegistry
from repro.crypto.vrf import VRFKey, sortition_weight


class TestHashing:
    def test_deterministic(self):
        assert hash_hex("a", 1) == hash_hex("a", 1)

    def test_distinct_inputs(self):
        assert hash_hex("a") != hash_hex("b")

    def test_hash_to_unit_range(self):
        for i in range(100):
            assert 0.0 <= hash_to_unit("u", i) < 1.0

    def test_leading_zero_bits(self):
        assert leading_zero_bits("f" * 64) == 0
        assert leading_zero_bits("0" + "f" * 63) == 4
        assert leading_zero_bits("00" + "f" * 62) == 8
        assert leading_zero_bits("0" * 64) == 256

    def test_meets_difficulty(self):
        digest = "0" * 4 + "f" * 60
        assert meets_difficulty(digest, 16)
        assert not meets_difficulty(digest, 17)


class TestPoW:
    def test_mine_and_verify(self):
        puzzle = PoWPuzzle("parent", "payload", "miner0", difficulty_bits=8)
        solution = puzzle.mine()
        assert solution is not None
        assert puzzle.check(solution.nonce)
        assert meets_difficulty(solution.digest, 8)

    def test_difficulty_scales_attempts(self):
        easy = PoWPuzzle("p", "c", "m", difficulty_bits=2).mine()
        hard = PoWPuzzle("p", "c", "m", difficulty_bits=10).mine()
        assert easy.attempts <= hard.attempts

    def test_mine_exhaustion_returns_none(self):
        puzzle = PoWPuzzle("p", "c", "m", difficulty_bits=40)
        assert puzzle.mine(max_attempts=10) is None

    def test_wrong_nonce_rejected(self):
        puzzle = PoWPuzzle("p", "c", "m", difficulty_bits=8)
        solution = puzzle.mine()
        assert not puzzle.check(solution.nonce + 1) or puzzle.digest(
            solution.nonce + 1
        ) != puzzle.digest(solution.nonce)

    def test_header_binds_all_fields(self):
        a = PoWPuzzle("p1", "c", "m", 8).digest(0)
        b = PoWPuzzle("p2", "c", "m", 8).digest(0)
        assert a != b


class TestMerkle:
    def test_root_deterministic(self):
        assert MerkleTree(["a", "b", "c"]).root == MerkleTree(["a", "b", "c"]).root

    def test_root_sensitive_to_leaves(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["a", "c"]).root

    def test_empty_tree_has_root(self):
        assert len(MerkleTree([]).root) == 64

    def test_single_leaf(self):
        t = MerkleTree(["only"])
        proof = t.prove(0)
        assert MerkleTree.verify(t.root, "only", proof)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_proofs_verify_for_all_leaves(self, n):
        leaves = [f"tx{i}" for i in range(n)]
        t = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert MerkleTree.verify(t.root, leaf, t.prove(i))

    def test_wrong_value_fails(self):
        t = MerkleTree(["a", "b", "c"])
        assert not MerkleTree.verify(t.root, "z", t.prove(0))

    def test_wrong_root_fails(self):
        t = MerkleTree(["a", "b"])
        assert not MerkleTree.verify("0" * 64, "a", t.prove(0))

    def test_out_of_range_proof(self):
        with pytest.raises(IndexError):
            MerkleTree(["a"]).prove(5)


class TestVRF:
    def test_deterministic_and_verifiable(self):
        key = VRFKey(seed=42, owner="alice")
        out = key.evaluate("round", 1)
        assert key.evaluate("round", 1) == out
        assert key.verify(out, "round", 1)
        assert not key.verify(out, "round", 2)

    def test_values_uniformish(self):
        key = VRFKey(seed=7, owner="bob")
        vals = [key.evaluate("r", i).value for i in range(500)]
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_different_keys_different_values(self):
        a = VRFKey(seed=1, owner="a").evaluate("x").value
        b = VRFKey(seed=2, owner="b").evaluate("x").value
        assert a != b

    def test_sortition_proportional_to_stake(self):
        key = VRFKey(seed=3, owner="c")
        rich_hits = sum(
            sortition_weight(key.evaluate("r", i).value, 0.5, 1.0)[0]
            for i in range(400)
        )
        poor_hits = sum(
            sortition_weight(key.evaluate("r", i).value, 0.05, 1.0)[0]
            for i in range(400)
        )
        assert rich_hits > poor_hits * 3

    def test_sortition_priority_deterministic(self):
        selected1, prio1 = sortition_weight(0.2, 1.0, 1.0)
        selected2, prio2 = sortition_weight(0.2, 1.0, 1.0)
        assert selected1 == selected2 and prio1 == prio2
        assert selected1 and prio1 == pytest.approx(0.8)


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        reg = SignatureRegistry()
        kp = reg.register("alice", seed=9)
        sig = kp.sign("msg", 1)
        assert reg.verify(sig, "msg", 1)

    def test_wrong_message_rejected(self):
        reg = SignatureRegistry()
        kp = reg.register("alice", seed=9)
        sig = kp.sign("msg")
        assert not reg.verify(sig, "other")

    def test_unknown_signer_rejected(self):
        reg = SignatureRegistry()
        kp = KeyPair(owner="ghost", seed=1)
        assert not reg.verify(kp.sign("m"), "m")

    def test_forged_signer_name_rejected(self):
        reg = SignatureRegistry()
        reg.register("alice", seed=9)
        forged = KeyPair(owner="alice", seed=666).sign("m")
        assert not reg.verify(forged, "m")

    def test_quorum_counts_distinct_signers(self):
        reg = SignatureRegistry()
        sigs = [reg.register(f"n{i}", i).sign("v") for i in range(3)]
        assert SignatureRegistry.quorum(sigs, 3)
        assert not SignatureRegistry.quorum(sigs[:2] + [sigs[1]], 3)
