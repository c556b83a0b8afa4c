"""The LRC abstraction and Update Agreement, checked on recorded histories.

**Light Reliable Communication** (Definition 4.4) requires

* *Validity*: a correct sender eventually receives its own message;
* *Agreement*: if any correct process receives ``m``, every correct
  process eventually receives ``m``.

The gossip transports of :mod:`repro.net.reconcile` implement LRC in the
crash model over reliable channels: the sender self-delivers immediately
and every first reception is relayed onward, so any block reaching one
correct replica reaches all.  Under a dropping adversary a flooding
relay chain can be severed — which is exactly the Theorem 4.7
experiment.

**Update Agreement** (Definition 4.3, Figure 13) is checked post-hoc on
the recorded history: with events ``send/receive/update`` carrying args
``(parent_id, block_id, creator)``,

* R1 — every update at the block's creator has a matching send by it;
* R2 — every update of a foreign block is preceded by a matching receive
  at the same process;
* R3 — every updated block is eventually received by *every* correct
  process.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.consistency.properties import PropertyCheck
from repro.histories.history import ConcurrentHistory

__all__ = ["check_update_agreement", "check_lrc"]


def _replica_events(history: ConcurrentHistory, name: str) -> list:
    return [op for op in history.operations() if op.name == name]


def check_update_agreement(
    history: ConcurrentHistory,
    correct_procs: Optional[Iterable[str]] = None,
) -> Dict[str, PropertyCheck]:
    """Check R1/R2/R3 of Definition 4.3 on a recorded history.

    Replica events must carry args ``(parent_id, block_id, creator)``.
    ``correct_procs`` defaults to every process that recorded at least one
    replica event.
    """
    updates = _replica_events(history, "update")
    sends = _replica_events(history, "send")
    receives = _replica_events(history, "receive")
    if correct_procs is None:
        correct = sorted({op.proc for op in updates + sends + receives})
    else:
        correct = sorted(correct_procs)

    send_keys = {(op.proc, op.args[:2]) for op in sends}
    receive_keys: Dict[tuple, int] = {}
    for op in receives:
        key = (op.proc, op.args[:2])
        if key not in receive_keys:
            receive_keys[key] = op.inv_eid

    r1 = PropertyCheck("R1", True)
    r2 = PropertyCheck("R2", True)
    r3 = PropertyCheck("R3", True)

    for op in updates:
        parent_id, block_id, creator = op.args[0], op.args[1], op.args[2]
        key2 = (op.proc, (parent_id, block_id))
        if op.proc == creator:
            # R1: the creator must have sent its own update.
            if (op.proc, (parent_id, block_id)) not in send_keys and r1.ok:
                r1 = PropertyCheck(
                    "R1", False,
                    f"update of own block {str(block_id)[:8]} at {op.proc} "
                    "without a send",
                )
        else:
            # R2: a foreign update needs a prior receive at the same process.
            received_at = receive_keys.get(key2)
            if (received_at is None or received_at > op.inv_eid) and r2.ok:
                r2 = PropertyCheck(
                    "R2", False,
                    f"update of foreign block {str(block_id)[:8]} at {op.proc} "
                    "without a prior receive",
                )
        # R3: every correct process eventually receives the block.
        for k in correct:
            if (k, (parent_id, block_id)) not in receive_keys and r3.ok:
                r3 = PropertyCheck(
                    "R3", False,
                    f"block {str(block_id)[:8]} updated at {op.proc} never "
                    f"received by {k}",
                )
    return {"R1": r1, "R2": r2, "R3": r3}


def check_lrc(
    history: ConcurrentHistory,
    correct_procs: Optional[Iterable[str]] = None,
) -> Dict[str, PropertyCheck]:
    """Check the LRC properties (Definition 4.4) on a recorded history.

    *Validity*: every send by a correct process has a matching receive at
    the sender.  *Agreement*: every message received by some correct
    process is received by all correct processes.
    """
    sends = _replica_events(history, "send")
    receives = _replica_events(history, "receive")
    if correct_procs is None:
        correct = sorted({op.proc for op in sends + receives})
    else:
        correct = sorted(correct_procs)
    received_by: Dict[tuple, Set[str]] = {}
    for op in receives:
        received_by.setdefault(op.args[:2], set()).add(op.proc)

    validity = PropertyCheck("LRC-validity", True)
    for op in sends:
        if op.proc not in correct:
            continue
        if op.proc not in received_by.get(op.args[:2], set()):
            validity = PropertyCheck(
                "LRC-validity", False,
                f"{op.proc} sent {str(op.args[1])[:8]} but never received it",
            )
            break

    agreement = PropertyCheck("LRC-agreement", True)
    for key, procs in sorted(received_by.items(), key=lambda kv: str(kv[0])):
        if procs & set(correct) and not set(correct) <= procs:
            missing = sorted(set(correct) - procs)[0]
            agreement = PropertyCheck(
                "LRC-agreement", False,
                f"message {str(key[1])[:8]} received by some but not by {missing}",
            )
            break
    return {"validity": validity, "agreement": agreement}
