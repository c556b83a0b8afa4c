#!/usr/bin/env python
"""Update Agreement and LRC necessity (Definition 4.3, Theorems 4.6–4.7).

Two runs of the same gossip-based blockchain:

* a clean run — flooding implements Light Reliable Communication, the
  R1/R2/R3 Update Agreement properties hold, and the history satisfies
  BT Eventual Consistency;
* a run under a message-drop adversary that severs every block delivery
  to one victim process — R3 and LRC-Agreement break, and the Eventual
  Prefix checker reports the violation the theorem predicts.

Run:  python examples/update_agreement_demo.py
"""

from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTEventualConsistency
from repro.histories.continuation import Continuation, ContinuationModel, GrowthMode
from repro.net.broadcast import check_lrc, check_update_agreement
from repro.net.channels import LossyChannel, SynchronousChannel
from repro.net.faults import MessageDropAdversary
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.workloads.scenarios import ProtocolScenario


def report(title, run, continuation=None) -> None:
    print(f"\n== {title} ==")
    correct = run.node_names
    ua = check_update_agreement(run.history, correct)
    lrc = check_lrc(run.history, correct)
    for name, check in {**ua, **lrc}.items():
        mark = "✓" if check.ok else "✗"
        suffix = f" — {check.witness}" if check.witness else ""
        print(f"  {mark} {name}{suffix}")
    history = run.history.purged()
    ec = BTEventualConsistency(score=LengthScore()).check(history, continuation)
    print(f"  {'✓' if ec.ok else '✗'} BT Eventual Consistency")
    for name, check in ec.failures().items():
        print(f"      ({name}: {check.witness})")


def main() -> None:
    scenario = ProtocolScenario(
        name="bitcoin", n_nodes=4, duration=150.0, mean_block_interval=12.0, seed=5
    )

    clean = ProtocolRun.execute(BitcoinNode, scenario)
    report("Clean run: flooding gossip implements LRC", clean)

    adversary = MessageDropAdversary(
        matcher=lambda src, dst, msg: dst == "p3"
        and isinstance(msg, tuple)
        and msg
        and msg[0] == "block-gossip"
    )
    lossy = LossyChannel(SynchronousChannel(delta=scenario.channel_delta), adversary)
    broken = ProtocolRun.execute(BitcoinNode, scenario, channel=lossy)
    # The victim keeps mining its own branch: declared as its own growth group.
    continuation = ContinuationModel(
        {
            "p0": Continuation(True, GrowthMode.GROWING, "main"),
            "p1": Continuation(True, GrowthMode.GROWING, "main"),
            "p2": Continuation(True, GrowthMode.GROWING, "main"),
            "p3": Continuation(True, GrowthMode.GROWING, "isolated"),
        }
    )
    report(
        f"Adversarial run: every block gossip to p3 dropped "
        f"({adversary.dropped} messages)",
        broken,
        continuation,
    )
    print("\n-> Theorem 4.7: without LRC there is no BT Eventual Consistency.")


if __name__ == "__main__":
    main()
