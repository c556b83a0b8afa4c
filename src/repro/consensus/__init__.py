"""Consensus algorithms used by the Table 1 protocol models.

These run inside the message-passing simulator of :mod:`repro.net` as
*components* attached to host processes (messages are namespaced, so a
node can run a blockchain protocol and several consensus instances over
one channel):

* :mod:`repro.consensus.pbft` — simplified three-phase PBFT with view
  change (f < n/3 Byzantine); the commitment engine behind ByzCoin,
  PeerCensus and Red Belly in §5.
* :mod:`repro.consensus.ba_star` — Algorand's BA* in its soft-vote /
  cert-vote period structure with committee sortition (§5.4).
* :mod:`repro.consensus.superblock` — Red Belly-style superblock
  assembly: every member proposes, the union is committed (§5.6).
* :mod:`repro.consensus.ordering` — the leader-based ordering service of
  Hyperledger Fabric: total-order broadcast with crash fail-over (§5.7).
"""
