"""repro — an executable reproduction of *Blockchain Abstract Data Type*.

Anceaume, Del Pozzo, Ludinard, Potop-Butucaru, Tucci-Piergiovanni —
PPoPP 2019 poster; full version arXiv:1802.09877.

The library turns the paper's formal framework into runnable, checkable
artifacts:

* :mod:`repro.adt` — ADTs as transducers, sequential specifications.
* :mod:`repro.blocktree` — the BlockTree and the BT-ADT (Definition 3.1).
* :mod:`repro.storage` — block-store backends (memory, durable binary
  log) a replica's tree writes through and recovers from.
* :mod:`repro.oracle` — token oracles Θ_F/Θ_P and R(BT-ADT, Θ).
* :mod:`repro.histories` — concurrent histories (Definition 2.4).
* :mod:`repro.consistency` — SC/EC criteria checkers and the hierarchy.
* :mod:`repro.concurrent` — shared-memory objects, model checker, and the
  consensus constructions of Section 4.1 (Figures 9–12).
* :mod:`repro.net` — message-passing discrete-event simulator, channels,
  LRC / Update Agreement (Section 4.2–4.4).
* :mod:`repro.consensus` — PBFT, BA*, DBFT-style, ordering service.
* :mod:`repro.crypto` — hashing, proof-of-work, VRF/sortition, Merkle roots,
  simulated signatures.
* :mod:`repro.protocols` — the seven systems of Table 1 as simulations.
* :mod:`repro.workloads` — synthetic transactions and scenario configs.
* :mod:`repro.analysis` — metrics and table/series rendering.
* :mod:`repro.paper` — the paper's exact figures and experiment registry.
"""

__version__ = "1.0.0"
