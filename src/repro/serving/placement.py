"""Pluggable shard-placement policies for the fleet router.

A placement policy decides *which shard* serves a query. It decides
locality and load shape, never outcomes — every shard of a fleet serves
the same repository with the same engine seed, so a session's trace is
byte-identical wherever it lands.

Built-ins:

* ``hash_tenant`` — stable hash of the tenant name modulo shard count.
  A tenant's queries always land on the same shard, so its detection
  locality (cache scope, chunk beliefs warmed by earlier queries) stays
  in one process. Adding shards remaps tenants, as plain modulo hashing
  does.
* ``least_loaded`` — the shard with the fewest router-tracked sessions,
  active or queued, at submission time (ties broken by shard index).
  Best throughput for skewed tenants at the price of tenant locality.

Both are selectable by name (``FleetConfig.placement``, ``repro fleet
--placement``); any other :class:`PlacementPolicy` instance plugs in
through ``FleetConfig.placement``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Sequence, Union

from repro.errors import ConfigError

__all__ = [
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "make_placement_policy",
]


class PlacementPolicy:
    """Base class: picks a shard index for one submission."""

    name = "placement"

    def choose(self, item, shards: Sequence) -> int:
        """Index into ``shards`` for this item (0-based).

        ``item`` is a :class:`~repro.serving.workload.WorkloadItem` (or
        anything exposing ``tenant``); each element of ``shards`` exposes
        ``index``, ``active`` (router-tracked sessions the shard has
        admitted and not yet finished) and ``queued`` (submissions still
        waiting in the shard's router-side queue). A burst of submissions
        is all ``queued`` until the shard's dispatcher admits it.
        """
        raise NotImplementedError


class HashTenantPolicy(PlacementPolicy):
    """Stable tenant-affine placement: blake2(tenant) mod shard count."""

    name = "hash_tenant"

    def choose(self, item, shards: Sequence) -> int:
        tenant = getattr(item, "tenant", "default") or "default"
        digest = hashlib.blake2b(tenant.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big") % len(shards)


class LeastLoadedPolicy(PlacementPolicy):
    """Send each submission to the currently least-loaded shard."""

    name = "least_loaded"

    def choose(self, item, shards: Sequence) -> int:
        # Return the *position* in the passed sequence, not the shard's
        # own fleet index — supervision hands policies the live subset,
        # where positions and fleet indexes can differ.
        return min(
            range(len(shards)),
            key=lambda i: (
                shards[i].active + shards[i].queued, shards[i].index
            ),
        )


#: The built-in placement policies by name (name -> factory).
PLACEMENT_POLICIES: Dict[str, Callable[[], PlacementPolicy]] = {
    "hash_tenant": HashTenantPolicy,
    "least_loaded": LeastLoadedPolicy,
}


def make_placement_policy(
    spec: Union[str, PlacementPolicy, None],
) -> PlacementPolicy:
    """Resolve a placement spec (name, instance or None) to a policy."""
    if spec is None:
        return HashTenantPolicy()
    if isinstance(spec, PlacementPolicy):
        return spec
    factory = PLACEMENT_POLICIES.get(spec)
    if factory is None:
        raise ConfigError(
            f"unknown placement policy {spec!r}; "
            f"available: {sorted(PLACEMENT_POLICIES)}"
        )
    return factory()
