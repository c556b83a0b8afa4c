"""The individual consistency properties (Definitions 3.2, 3.3 and 3.9).

Each checker returns a :class:`PropertyCheck` carrying the verdict and —
on failure — a human-readable witness naming the offending operations, so
that benches can print counterexamples exactly like the paper's figures
discuss them.

Near-linear batch checking
--------------------------

The safety checkers ride the ancestry index (:mod:`repro.blocktree.tree`)
and the O(log n)/O(1) prefix algebra of
:class:`~repro.blocktree.chain.Chain`.  Each property has one path: the
scan that decides it is the scan that names its witness, so a violating
history (the normal case for a prodigal-oracle protocol) costs what a
passing one does.

* **Strong Prefix** — a running-maximum scan: a set of chains is
  pairwise comparable iff it is totally ordered by ``⊑``, so each chain
  only needs one O(log n) test against the current maximum.
  O(reads · log n).  The pair the scan stops at is the
  witness: the first read in history order that diverges from any
  earlier read, named with the read holding the maximum.
* **Eventual Prefix** — the minimum pairwise common-prefix score of the
  frozen limit chains equals the score of their *collective* maximal
  common prefix (tree LCA argument), computed by a single O(p log n)
  LCA fold; the failing verdicts are stated from the values the fold
  holds.
* **Block Validity** — one cumulative pass over the distinct blocks ever
  observed (id-set lookups + a max-append-invocation-eid running along
  each root path), O(blocks + reads); the first failing read's chain is
  then walked once, genesis→tip, to name its first offending block.

The pre-index pairwise algorithms survive next door in ``reference.py``
as a test-and-bench oracle only — nothing here imports them.
``tests/test_checkers_differential.py`` asserts on random refinement
histories that Block Validity and Eventual Prefix verdicts equal the
oracle's, witness and all, and that Strong Prefix agrees on the verdict
and the failing clause (it may name a different, equally incomparable
pair than the oracle's ``for i: for j > i`` order).

Liveness clauses are decided under the continuation semantics documented
in :mod:`repro.histories.continuation`:

* **Ever-Growing Tree** holds iff every process declared to read forever
  is declared GROWING (a frozen process that reads forever returns a
  bounded score infinitely often — the literal violation of Def. 3.2).
* **Eventual Prefix** holds iff the *limit chains* of the reads-forever
  processes pairwise agree far enough: if any reads-forever process is
  GROWING, all of them must be GROWING in one growth group (future scores
  grow unboundedly, so any finite divergence eventually violates the
  bound); if all are FROZEN, the minimum pairwise common-prefix score of
  their final chains must cover every read score in the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.blocktree.chain import Chain
from repro.blocktree.score import ScoreFunction
from repro.histories.continuation import ContinuationModel, GrowthMode
from repro.histories.events import Event, EventKind, OpRecord
from repro.histories.history import ConcurrentHistory

__all__ = [
    "PropertyCheck",
    "program_order_reaches",
    "check_block_validity",
    "check_local_monotonic_read",
    "check_strong_prefix",
    "check_ever_growing_tree",
    "check_eventual_prefix",
    "check_k_fork_coherence",
]


@dataclass(frozen=True)
class PropertyCheck:
    """Verdict of one property check, with an optional counterexample."""

    name: str
    ok: bool
    witness: str = ""

    def __bool__(self) -> bool:
        """Truthiness is the verdict (``if check: …``)."""
        return self.ok


def program_order_reaches(history: ConcurrentHistory, e1: Event, e2: Event) -> bool:
    """Exact reachability in the program order ``ր`` (transitive).

    ``ր`` is generated by ``↦→`` (same-process order) and ``≺`` (response
    before later invocation).  A path from ``e1`` to ``e2`` exists iff
    they are process-ordered directly, or some response on ``e1``'s
    process at/after ``e1`` precedes some invocation on ``e2``'s process
    at/before ``e2`` (one ``≺`` hop suffices: a response may jump to *any*
    later invocation, so multi-hop routes reach nothing more).
    """
    if e1.eid >= e2.eid:
        return False
    if e1.proc == e2.proc:
        return True
    if e1.kind is EventKind.RESPONSE:
        first_resp = e1
    else:
        candidates = [
            e
            for e in history.events
            if e.proc == e1.proc and e.eid >= e1.eid and e.kind is EventKind.RESPONSE
        ]
        if not candidates:
            return False
        first_resp = min(candidates, key=lambda e: e.eid)
    if e2.kind is EventKind.INVOCATION:
        last_inv = e2
    else:
        candidates = [
            e
            for e in history.events
            if e.proc == e2.proc and e.eid <= e2.eid and e.kind is EventKind.INVOCATION
        ]
        if not candidates:
            return False
        last_inv = max(candidates, key=lambda e: e.eid)
    return first_resp.eid < last_inv.eid


# ---------------------------------------------------------------------------
# Safety properties — exact on finite histories.
# ---------------------------------------------------------------------------


def _first_offending_block(
    history: ConcurrentHistory,
    read: OpRecord,
    valid_block_ids: Optional[Set[str]],
    invocations: Dict[str, List[Event]],
    strict_order: bool,
) -> Optional[PropertyCheck]:
    """Block Validity of one read: the failing verdict naming the first
    block (genesis→tip) of its chain that is invalid or has no ``append``
    invocation before the read's response, or ``None``."""
    for block in history.returned_chain(read).non_genesis():
        if valid_block_ids is not None and block.block_id not in valid_block_ids:
            return PropertyCheck(
                "block-validity",
                False,
                f"read {read.op_id} at {read.proc} returned invalid block "
                f"{block.short()} (∉ B′)",
            )
        invs = invocations.get(block.block_id, ())
        if strict_order:
            ordered = any(
                program_order_reaches(history, inv, read.response) for inv in invs
            )
        else:
            ordered = any(inv.eid < read.resp_eid for inv in invs)
        if not ordered:
            return PropertyCheck(
                "block-validity",
                False,
                f"read {read.op_id} at {read.proc} returned block "
                f"{block.short()} with no prior append invocation",
            )
    return None


def check_block_validity(
    history: ConcurrentHistory,
    valid_block_ids: Optional[Set[str]] = None,
    strict_order: bool = False,
) -> PropertyCheck:
    """Block Validity (Definition 3.2).

    Every non-genesis block in every chain returned by a read must (i) be
    valid — membership in ``valid_block_ids`` when supplied, else taken on
    trust from the recording — and (ii) have an ``append`` invocation
    program-order-before the read's response.  With ``strict_order`` the
    exact ``ր`` reachability is used, which quantifies over the whole
    event order, so every read's chain is walked; the default compares
    global event order, which coincides on recorder-produced histories
    (appends are recorded before the blocks become visible to reads).

    Near-linear by default: each *distinct* block is examined once.  A
    per-block memo carries two cumulative facts along every root path —
    whether all blocks so far are valid members of ``B′`` with at least
    one append invocation, and the maximum first-invocation eid seen — so
    judging a read is an O(Δ) tipward walk to the memo frontier plus one
    O(1) comparison against its response eid.  The first read that fails
    gets the one genesis→tip walk that names its first offending block.
    """
    invocations: Dict[str, List[Event]] = {}
    for op in history.appends():
        if op.args:
            invocations.setdefault(str(op.args[0]), []).append(op.invocation)
    if strict_order:
        for read in history.reads():
            verdict = _first_offending_block(
                history, read, valid_block_ids, invocations, True
            )
            if verdict is not None:
                return verdict
        return PropertyCheck("block-validity", True)
    first_inv = {b: min(inv.eid for inv in invs) for b, invs in invocations.items()}
    #: block id → (all blocks on its root path valid+appended, max first
    #: append-invocation eid along that path).  Read-independent, so it
    #: is shared by every read that revisits the block.
    memo: Dict[str, Tuple[bool, float]] = {}
    for read in history.reads():
        chain = history.returned_chain(read)
        suffix: List = []
        ok, max_eid = True, -math.inf
        for block in chain.iter_tipward():
            if block.parent_id is None:
                break
            known = memo.get(block.block_id)
            if known is not None:
                ok, max_eid = known
                break
            suffix.append(block)
        for block in reversed(suffix):
            if ok:
                if valid_block_ids is not None and block.block_id not in valid_block_ids:
                    ok = False
                else:
                    eid = first_inv.get(block.block_id, math.inf)
                    if eid > max_eid:
                        max_eid = eid
            memo[block.block_id] = (ok, max_eid)
        if not ok or max_eid >= read.resp_eid:
            verdict = _first_offending_block(
                history, read, valid_block_ids, invocations, False
            )
            if verdict is None:
                raise RuntimeError(
                    f"block-validity scan flagged read {read.op_id} but its "
                    "chain has no offending block"
                )
            return verdict
    return PropertyCheck("block-validity", True)


def check_local_monotonic_read(
    history: ConcurrentHistory, score: ScoreFunction
) -> PropertyCheck:
    """Local Monotonic Read (Definition 3.2).

    For reads of the same process in process order, returned scores never
    decrease.  One pass over the reads (grouped per process by the
    history's cached index); the per-chain score is O(1) for the length
    score on tree-backed chain views.
    """
    for proc in history.procs():
        reads = history.reads_of(proc)
        for earlier, later in zip(reads, reads[1:]):
            s1 = score(history.returned_chain(earlier))
            s2 = score(history.returned_chain(later))
            if s2 < s1:
                return PropertyCheck(
                    "local-monotonic-read",
                    False,
                    f"process {proc}: read {earlier.op_id} scored {s1} but later "
                    f"read {later.op_id} scored {s2}",
                )
    return PropertyCheck("local-monotonic-read", True)


def _limit_chains(
    history: ConcurrentHistory, model: ContinuationModel
) -> Dict[str, Tuple[str, Chain]]:
    """Limit behaviour of each reads-forever process.

    Returns ``proc → (group, limit_chain)`` where ``group`` is the growth
    group for GROWING processes (their limit chain is the group branch:
    the highest-scoring final chain among group members) and the marker
    ``"<frozen>"`` for FROZEN ones (limit chain = own final chain).
    """
    finals: Dict[str, Chain] = {}
    for proc in model.per_process:
        chain = history.last_chain_of(proc)
        finals[proc] = chain if chain is not None else Chain.genesis()
    group_branch: Dict[str, Chain] = {}
    for proc, cont in model.per_process.items():
        if cont.mode is GrowthMode.GROWING:
            current = group_branch.get(cont.group)
            candidate = finals[proc]
            if current is None or len(candidate) > len(current) or (
                len(candidate) == len(current)
                and candidate.block_ids() > current.block_ids()
            ):
                group_branch[cont.group] = candidate
    limits: Dict[str, Tuple[str, Chain]] = {}
    for proc, cont in model.per_process.items():
        if not cont.reads_forever:
            continue
        if cont.mode is GrowthMode.GROWING:
            limits[proc] = (cont.group, group_branch[cont.group])
        else:
            limits[proc] = ("<frozen>", finals[proc])
    return limits


def _first_divergence(chains: Iterable[Chain]) -> Tuple[Optional[int], Optional[int]]:
    """Running-maximum scan over ``chains``: positions ``(m, j)``, ``m < j``,
    where the ``j``-th chain is the first one incomparable with an earlier
    one and the ``m``-th holds the maximum of those before it; ``(m, None)``
    when the sequence is totally ordered by ``⊑`` with its maximum at ``m``
    (``None`` for an empty sequence).  Stops consuming at ``j``.

    Two prefixes of one maximum are always comparable, so "incomparable
    with the maximum" ⇔ "incomparable with some earlier chain": one
    O(log n) ancestor test per chain decides pairwise comparability.
    """
    m: Optional[int] = None
    top: Optional[Chain] = None
    for j, chain in enumerate(chains):
        if top is None or top.is_prefix_of(chain):
            m, top = j, chain
        elif not chain.is_prefix_of(top):
            return m, j
    return m, None


def check_strong_prefix(
    history: ConcurrentHistory, continuation: Optional[ContinuationModel] = None
) -> PropertyCheck:
    """Strong Prefix (Definition 3.2): all returned chains pairwise comparable.

    With a continuation, every declared limit chain must also be
    comparable with every returned chain, and a growing group's branch
    must extend every observed chain (chains that diverge in the limit
    witness a violation).

    The reads are one :func:`_first_divergence` scan in history order.
    Once it passes they are totally ordered by ``⊑`` with maximum ``top``.
    Every limit chain is then a prefix of ``top``: :func:`_limit_chains`
    returns only ``history.last_chain_of(p)`` values (or genesis), and
    those come from the same completed-read list as ``history.reads()``.
    So limits are pairwise comparable and comparable with every read, and
    the only clause left is the growing one: ``top`` itself must be a
    prefix of each growing branch (``⊑`` is transitive, so ``top`` is the
    witness read).
    """
    reads = history.reads()
    chain_of = history.returned_chain
    m, j = _first_divergence(map(chain_of, reads))
    if j is not None:
        r1, r2 = reads[m], reads[j]
        return PropertyCheck(
            "strong-prefix",
            False,
            f"reads {r1.op_id}@{r1.proc} and {r2.op_id}@{r2.proc} returned "
            f"diverging chains [{chain_of(r1).describe()}] vs "
            f"[{chain_of(r2).describe()}]",
        )
    if continuation is None or m is None:
        return PropertyCheck("strong-prefix", True)
    read, top = reads[m], chain_of(reads[m])
    for proc, (group, limit) in sorted(_limit_chains(history, continuation).items()):
        # A growing branch extends forever: the observed chain must be a
        # prefix of (or equal to) the branch.
        if group != "<frozen>" and not top.is_prefix_of(limit):
            return PropertyCheck(
                "strong-prefix",
                False,
                f"read {read.op_id}@{read.proc} chain [{top.describe()}] "
                f"diverges from growing branch of {proc}",
            )
    return PropertyCheck("strong-prefix", True)


# ---------------------------------------------------------------------------
# Liveness properties — continuation semantics.
# ---------------------------------------------------------------------------


def check_ever_growing_tree(
    history: ConcurrentHistory,
    score: ScoreFunction,
    continuation: Optional[ContinuationModel] = None,
) -> PropertyCheck:
    """Ever-Growing Tree (Definition 3.2) under continuation semantics.

    A process that reads forever while frozen returns a bounded score
    infinitely often — after any read, the set of later reads with no
    greater score is infinite, violating the definition.  Hence: the
    property holds iff every reads-forever process is GROWING.  Complete
    histories (no continuation) satisfy it vacuously.
    """
    model = continuation if continuation is not None else history.continuation
    if model is None:
        return PropertyCheck("ever-growing-tree", True, "complete history (vacuous)")
    for proc in model.reads_forever_procs():
        cont = model.of(proc)
        if cont is not None and cont.mode is GrowthMode.FROZEN:
            chain = history.last_chain_of(proc) or Chain.genesis()
            return PropertyCheck(
                "ever-growing-tree",
                False,
                f"process {proc} reads forever but is frozen at score "
                f"{score(chain)} — infinitely many reads never exceed it",
            )
    return PropertyCheck("ever-growing-tree", True)


def check_eventual_prefix(
    history: ConcurrentHistory,
    score: ScoreFunction,
    continuation: Optional[ContinuationModel] = None,
) -> PropertyCheck:
    """Eventual Prefix (Definition 3.3) under continuation semantics.

    For every read with score ``s``, eventually all pairs of returned
    chains must share a common prefix of score ≥ ``s``.  Decided from the
    declared limit chains as described in the module docstring.

    Near-linear: instead of the O(p²) pairwise ``mcps`` walks over the
    frozen limit chains, a single ``common_prefix`` (LCA) fold computes
    their *collective* maximal common prefix.  Its score equals the
    minimal pairwise score exactly: every pairwise common prefix extends
    the collective one (monotone score ⇒ ≥), and the pair that diverges
    first attains it.
    """
    model = continuation if continuation is not None else history.continuation
    if model is None:
        return PropertyCheck("eventual-prefix", True, "complete history (vacuous)")
    limits = _limit_chains(history, model)
    if not limits:
        return PropertyCheck("eventual-prefix", True, "no process reads forever")
    groups = sorted({g for g, _ in limits.values() if g != "<frozen>"})
    frozen = {p: c for p, (g, c) in limits.items() if g == "<frozen>"}
    if len(groups) > 1:
        g1, g2 = groups[:2]
        return PropertyCheck(
            "eventual-prefix",
            False,
            f"growth groups {g1!r} and {g2!r} diverge forever: future read "
            "scores grow unboundedly past their fixed common prefix",
        )
    if groups and frozen:
        fp = min(frozen)
        return PropertyCheck(
            "eventual-prefix",
            False,
            f"process {fp} is frozen while others grow: growing reads "
            "eventually score past the fixed common prefix with "
            f"{fp}'s final chain",
        )
    if groups:
        return PropertyCheck("eventual-prefix", True)
    # All reads-forever processes frozen: the minimal pairwise common-prefix
    # score must cover every score ever read (observed or final).
    chains = list(frozen.values())
    if len(chains) > 1:
        collective = chains[0]
        for chain in chains[1:]:
            collective = collective.common_prefix(chain)
        min_pair = score(collective)
    else:
        min_pair = math.inf
    observed = [score(history.returned_chain(r)) for r in history.reads()]
    observed.extend(score(c) for c in chains)
    s_max = max(observed, default=score.genesis_score)
    if min_pair < s_max:
        return PropertyCheck(
            "eventual-prefix",
            False,
            f"frozen limit chains agree only up to score {min_pair} but a read "
            f"scored {s_max}",
        )
    return PropertyCheck("eventual-prefix", True)


# ---------------------------------------------------------------------------
# k-Fork Coherence (Definition 3.9).
# ---------------------------------------------------------------------------


def check_k_fork_coherence(
    history: ConcurrentHistory,
    k: float,
    parent_of: Optional[Dict[str, str]] = None,
) -> PropertyCheck:
    """k-Fork Coherence: ≤ k successful appends per holder block.

    The parent map is taken from ``parent_of`` when provided, from the
    appends' recorded ``(block_id, parent_id)`` argument pairs otherwise,
    completed from the chains returned by reads.
    """
    parents: Dict[str, str] = dict(parent_of or {})
    for op in history.appends():
        if len(op.args) >= 2 and op.args[1] is not None:
            parents[str(op.args[0])] = str(op.args[1])
    for read in history.reads():
        for block in history.returned_chain(read).non_genesis():
            parents.setdefault(block.block_id, block.parent_id or "")
    # Count *distinct blocks* per holder: replicated recordings of the same
    # committed block are echoes of one token consumption, not extra forks.
    children: Dict[str, set] = {}
    for op in history.successful_appends():
        block_id = str(op.args[0]) if op.args else None
        if block_id is None:
            continue
        parent = parents.get(block_id)
        if parent is None:
            continue
        bucket = children.setdefault(parent, set())
        bucket.add(block_id)
        if len(bucket) > k:
            return PropertyCheck(
                "k-fork-coherence",
                False,
                f"holder {parent[:12]} has {len(bucket)} distinct successful "
                f"appends (> k = {k})",
            )
    return PropertyCheck("k-fork-coherence", True)
