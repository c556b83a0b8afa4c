"""User→shard hashing.

Users are mapped to shards with the repo's seeded PRF, so the
assignment is a pure function of ``(user, n_shards)``: it never
depends on which replicas are alive, which makes it trivially stable
under replica churn (the Hypothesis suite in
``tests/test_shard_property.py`` pins this down).  Every replica hosts
every shard, so no replica→shard map is needed.
"""

from __future__ import annotations

from repro._util import prf_uint64

__all__ = ["shard_of_user"]


def shard_of_user(user: str, n_shards: int) -> int:
    """The shard owning ``user``'s coins — a pure PRF of the name.

    Independence from the replica set is the stability property:
    replicas joining, crashing, or churning never migrate a user.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return 0
    return prf_uint64("shard-user", user) % n_shards
