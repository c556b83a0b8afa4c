"""Tests for the crypto substrate: hashing, PoW, Merkle, VRF, signatures."""

import pytest

from repro.crypto.hashing import (
    hash_hex,
    leading_zero_bits,
    meets_difficulty,
)
from repro.crypto.merkle import merkle_root
from repro.crypto.pow import PoWPuzzle
from repro.crypto.signatures import KeyPair, SignatureRegistry
from repro.crypto.vrf import VRFKey, sortition_weight


class TestHashing:
    def test_deterministic(self):
        assert hash_hex("a", 1) == hash_hex("a", 1)

    def test_distinct_inputs(self):
        assert hash_hex("a") != hash_hex("b")

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


# Exact Merkle roots are spelled out from the Bitcoin-style rule: a leaf
# hashes as ("leaf", v), a pair as ("node", left, right), a level of odd
# length repeats its last hash, and no leaves hash as ("empty",).
def _leaf(value):
    return hash_hex("leaf", value)


def _node(left, right):
    return hash_hex("node", left, right)


class TestMerkle:
    def test_root_deterministic(self):
        assert merkle_root(["a", "b", "c"]) == merkle_root(["a", "b", "c"])

    def test_root_sensitive_to_leaves(self):
        assert merkle_root(["a", "b"]) != merkle_root(["a", "c"])

    def test_empty_tree_has_root(self):
        assert merkle_root([]) == hash_hex("empty")

    def test_single_leaf(self):
        assert merkle_root(["a"]) == _leaf("a")

    def test_root_of_two_leaves(self):
        assert merkle_root(["a", "b"]) == _node(_leaf("a"), _leaf("b"))

    def test_root_of_three_leaves(self):
        ab = _node(_leaf("a"), _leaf("b"))
        assert merkle_root(["a", "b", "c"]) == _node(ab, _node(_leaf("c"), _leaf("c")))

    def test_root_of_five_leaves(self):
        abcd = _node(_node(_leaf("a"), _leaf("b")), _node(_leaf("c"), _leaf("d")))
        ee = _node(_leaf("e"), _leaf("e"))
        assert merkle_root(["a", "b", "c", "d", "e"]) == _node(abcd, _node(ee, ee))


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
