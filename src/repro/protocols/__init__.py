"""The seven blockchain systems of Table 1 as simulator protocols.

Each protocol model implements exactly the mechanism its Table 1
classification depends on:

========== ======================= ======================= ==============
System     getToken (block prod.)  consumeToken (commit)   Refinement
========== ======================= ======================= ==============
Bitcoin    PoW race (merit-expo)   unrestricted            R(BT_EC, Θ_P)
Ethereum   PoW race + GHOST f      unrestricted            R(BT_EC, Θ_P)
ByzCoin    PoW keyblocks           PBFT, smallest digest   R(BT_SC, Θ_F,1)
Algorand   VRF sortition           BA* agreement           R(BT_SC, Θ_F,1) w.h.p.
PeerCensus PoW blocks              PBFT commit             R(BT_SC, Θ_F,1)
Red Belly  consortium proposals    superblock consensus    R(BT_SC, Θ_F,1)
Hyperledger ordering service       total-order delivery    R(BT_SC, Θ_F,1)
========== ======================= ======================= ==============

All share :class:`~repro.protocols.base.BlockchainNode` — a replica
holding a local BlockTree, flooding gossip for dissemination (LRC), and
history recording of reads/appends/update events — and a
:class:`~repro.protocols.base.ProtocolRun` harness that runs the network
and hands the recorded history to the consistency checkers.
:mod:`repro.protocols.classify` regenerates Table 1.
"""
