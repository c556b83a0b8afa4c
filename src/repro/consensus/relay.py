"""Multi-hop committee broadcast over sparse overlays.

Quorum protocols (PBFT vote phases, Red Belly proposal collection,
committee-PoW candidate dissemination) assume every committee message
reaches *every* member.  :meth:`SimProcess.broadcast` only reaches
overlay neighbours, so on a ring or small-world topology votes from
non-adjacent replicas would never arrive and quorums would starve.

:class:`QuorumRelay` restores all-to-all delivery over any *connected*
overlay with a forward-once flood: the origin wraps its message in an
envelope ``(tag, origin, seq, inner)`` and sends it to its neighbours;
every member forwards each envelope exactly once on first sight and
then processes ``inner`` **as if it came from the origin** — vote
counting keys on the origin's identity, not on whichever neighbour
happened to deliver the envelope.

The relay is only engaged when an overlay is installed; on the default
full topology :meth:`QuorumRelay.broadcast` is the direct one-hop
broadcast, so historical runs stay byte-identical.  Each relay instance
owns a distinct ``tag`` namespace, letting several protocol layers on
one host (inner PBFT, outer proposal collection, candidate flood) relay
independently.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Set, Tuple

from repro.net.process import SimProcess

__all__ = ["QuorumRelay"]


class QuorumRelay:
    """Forward-once flood of committee messages over the overlay.

    Parameters
    ----------
    host:
        The owning simulated process (used for sends and neighbour
        lookup); the relay routes its envelope ``tag`` to itself there.
    tag:
        Envelope discriminator, unique per protocol layer on a host.
    deliver:
        Callback ``(origin, inner)`` invoked once per envelope on this
        member, with the *origin* replica as the sender identity.  By
        default the inner message re-enters the host's decode boundary,
        exactly as if the origin had sent it directly.
    """

    def __init__(
        self,
        host: SimProcess,
        tag: str,
        deliver: Optional[Callable[[str, Any], None]] = None,
    ) -> None:
        self.host = host
        self.tag = tag
        self.deliver = deliver or host.on_message
        self._seq = 0
        self._seen: Set[Tuple[str, int]] = set()
        host.route(self.on_message, {tag: 4})

    @property
    def active(self) -> bool:
        """Whether the host's network routes through a sparse overlay."""
        return getattr(self.host.network, "overlay", None) is not None

    def broadcast(self, message: Any, include_self: bool = False) -> None:
        """Send ``message`` committee-wide (optionally to the origin too).

        One hop on the full topology — exactly
        :meth:`SimProcess.broadcast`, no envelope; flooded in an envelope
        over a sparse overlay, the origin's own copy sent bare *after*
        the peer sends (channel delays draw from the simulator RNG per
        send, so the order is part of a run's identity).
        """
        if not self.active:
            self.host.broadcast(message, include_self=include_self)
            return
        origin = self.host.name
        seq = self._seq
        self._seq += 1
        self._seen.add((origin, seq))
        envelope = (self.tag, origin, seq, message)
        for peer in self.host.network.neighbors_of(origin):
            self.host.send(peer, envelope)
        if include_self:
            self.host.send(origin, message)

    def on_message(self, src: str, message: tuple) -> None:
        """Handle an envelope ``(tag, origin, seq, inner)``.

        First sight forwards the envelope to every neighbour except the
        one it arrived from (the dedup set, not the exclusion, is what
        makes cyclic topologies terminate) and delivers ``inner``
        attributed to the origin.  Repeats are dropped silently.
        """
        _tag, origin, seq, inner = message
        key = (origin, seq)
        if key in self._seen:
            return
        self._seen.add(key)
        for peer in self.host.network.neighbors_of(self.host.name):
            if peer != src:
                self.host.send(peer, message)
        self.deliver(origin, inner)
