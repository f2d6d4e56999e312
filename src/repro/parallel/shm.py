"""One detection memo for every process of a pool or fleet.

ExSample's premise is that detector invocations dominate cost, so the
machinery *around* detection must be as close to free as the OS allows.
Every process of a worker pool (:mod:`repro.experiments.parallel`) or a
fleet (:mod:`repro.serving.fleet`) would otherwise warm its own private
detection memo, re-paying detection for frames a sibling had already
resolved. EKO (Bang et al., 2021) makes the same observation for
adaptive video sampling at large: amortize storage and decode state
across queries so only the sampling logic stays on the hot path.

:class:`SharedDetectionCache` is a dict proxy served by a
``multiprocessing.Manager`` holding *serialized* detection rows keyed
like :class:`~repro.detection.cache.DetectionCache`. The manager server
executes each dict operation atomically, and because detection is a
pure function of ``(seed, video, frame)``, concurrent writers racing on
one key store byte-identical rows — last write wins harmlessly, so no
cross-operation lock is needed. Adopt it through the existing cache
knob: ``QueryEngine(dataset, detection_cache="shared")`` or CLI
``--cache shared``.
"""

from __future__ import annotations

import os
import pickle
import uuid
from typing import Dict, List, Optional

from repro.detection.cache import (
    CacheInfo,
    CacheKey,
    DetectionCache,
    ScopeCacheInfo,
)
from repro.parallel.procs import start_manager

__all__ = [
    "SharedDetectionCache",
    "adopt_shared_cache",
    "shared_detection_cache",
]


# -- one detection memo for a whole pool -------------------------------------


_MANAGER = None
_PROCESS_CACHE: Optional["SharedDetectionCache"] = None

#: Reserved first element of in-store counter rows; detection keys are
#: ``(scope_digest, video, frame, class_filter)`` tuples whose scope is a
#: blake2 hex digest, so this sentinel can never collide with one.
_COUNTERS_PREFIX = "__repro_counters__"


def _is_counter_key(key) -> bool:
    return (
        isinstance(key, tuple) and len(key) == 2 and key[0] == _COUNTERS_PREFIX
    )


def _manager():
    """The process's lazily started manager server (exits with its owner)."""
    global _MANAGER
    if _MANAGER is None:
        _MANAGER = start_manager()
    return _MANAGER


class SharedDetectionCache(DetectionCache):
    """A cross-process :class:`~repro.detection.cache.DetectionCache`.

    Detection rows are pickled into a manager-served dict proxy, so all
    workers of a pool (and the parent) read and write one memo: a frame
    any process detected is a hit for every process after it. The
    manager server executes each dict operation atomically, and
    deterministic detection makes concurrent puts on one key
    byte-identical, so races are harmless by construction.

    ``hits``/``misses`` count *this process's* lookups (the store itself
    is shared; counters are deliberately local so reading them costs no
    IPC) — a worker reporting ``hits > 0`` on a cold private start is
    proof the entries came from another process.

    Pickling ships the proxy, not the contents, so an engine carrying
    this cache fans out to workers still wired to the one shared store.
    The proxy only resolves inside the owning process tree while the
    creator is alive — for durable ``QuerySession`` checkpoints use a
    plain per-process cache policy.

    One shared store routinely serves detectors over *different*
    worlds, seeds and noise profiles (a multi-dataset sweep's workers
    all adopt the same cache); like every detection cache its keys are
    namespaced by each detector's content-derived ``cache_scope``, so
    entries can never cross detectors.
    """

    #: ``in`` on the manager proxy is an IPC round-trip; stat-only
    #: probes (the serving batcher's hit attribution) must not pay it.
    fast_contains = False

    def __init__(self, store=None):
        self._store = _manager().dict() if store is None else store
        self.policy = "shared"
        self.capacity = None
        self.hits = 0
        self.misses = 0
        self._scope_hits = {}
        self._scope_misses = {}

    def __len__(self) -> int:
        # Counter rows (see publish_counters) live in the same store but
        # are bookkeeping, not memoized detections.
        return sum(
            1 for key in self._store.keys() if not _is_counter_key(key)
        )

    def get(self, key: CacheKey):
        """The cached detection list for ``key``, or None on a miss."""
        scope = key[0]
        blob = self._store.get(key)
        if blob is None:
            self.misses += 1
            self._scope_misses[scope] = self._scope_misses.get(scope, 0) + 1
            return None
        self.hits += 1
        self._scope_hits[scope] = self._scope_hits.get(scope, 0) + 1
        return pickle.loads(blob)

    def put(self, key: CacheKey, detections) -> None:
        """Memoize one frame's finished detections for every process."""
        self._store[key] = pickle.dumps(
            list(detections), protocol=pickle.HIGHEST_PROTOCOL
        )

    def clear(self) -> None:
        """Drop the shared entries and reset this process's counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self._scope_hits.clear()
        self._scope_misses.clear()

    def snapshot(self, scope=None):
        """A counter-free copy of the stored entries (see the base class).

        Fetched key by key so only the requested scope's blobs cross the
        manager connection; counter rows (process bookkeeping in the same
        store) are excluded. Pays one IPC round-trip per entry — callers
        like the repository-index recorder restrict to one scope.
        """
        entries = {}
        for key in self._store.keys():
            if _is_counter_key(key):
                continue
            if scope is not None and key[0] != scope:
                continue
            blob = self._store.get(key)
            if blob is not None:
                entries[key] = pickle.loads(blob)
        return entries

    def info(self) -> CacheInfo:
        return CacheInfo(
            policy=self.policy,
            hits=self.hits,
            misses=self.misses,
            size=len(self),
            capacity=None,
            per_scope=self._per_scope(),
        )

    # -- cross-process counter aggregation --------------------------------

    def publish_counters(self) -> None:
        """Publish this process's local counters into the shared store.

        Hit/miss counters are deliberately process-local (reading them
        costs no IPC), which leaves a fleet blind: each shard process
        knows only its own share of the per-scope breakdown. Publishing
        writes this process's cumulative counters under a reserved
        per-process key — one small row, overwritten in place on every
        call — so any process holding the store can assemble the
        fleet-wide picture with :meth:`aggregate_info`. Shard servers
        publish whenever they answer a ``stats`` frame.
        """
        if not hasattr(self, "_counter_token"):
            self._counter_token = f"{os.getpid()}:{uuid.uuid4().hex[:8]}"
        scopes = set(self._scope_hits) | set(self._scope_misses)
        payload = {
            scope: (
                self._scope_hits.get(scope, 0),
                self._scope_misses.get(scope, 0),
            )
            for scope in scopes
        }
        self._store[(_COUNTERS_PREFIX, self._counter_token)] = pickle.dumps(
            (self.hits, self.misses, payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def aggregate_info(self) -> CacheInfo:
        """Fleet-wide :class:`CacheInfo`: every process's published counters.

        Sums the counter rows of all processes that have called
        :meth:`publish_counters` (this process's live counters are
        published first, so they are always included). ``size`` counts
        the shared detection rows once — they are one store, however many
        processes read it. Counter rows are fetched individually so the
        memoized detection blobs never cross the manager connection.
        """
        self.publish_counters()
        hits = misses = size = 0
        scopes: Dict[str, List[int]] = {}
        for key in self._store.keys():
            if not _is_counter_key(key):
                size += 1
                continue
            blob = self._store.get(key)
            if blob is None:
                continue
            row_hits, row_misses, per_scope = pickle.loads(blob)
            hits += row_hits
            misses += row_misses
            for scope, (scope_hits, scope_misses) in per_scope.items():
                entry = scopes.setdefault(scope, [0, 0])
                entry[0] += scope_hits
                entry[1] += scope_misses
        return CacheInfo(
            policy=self.policy,
            hits=hits,
            misses=misses,
            size=size,
            capacity=None,
            per_scope={
                scope: ScopeCacheInfo(hits=h, misses=m)
                for scope, (h, m) in scopes.items()
            },
        )

    def __getstate__(self) -> dict:
        return {"store": self._store}

    def __setstate__(self, state: dict) -> None:
        self._store = state["store"]
        self.policy = "shared"
        self.capacity = None
        self.hits = 0
        self.misses = 0
        self._scope_hits = {}
        self._scope_misses = {}


def shared_detection_cache() -> SharedDetectionCache:
    """This process's shared detection cache (one per process).

    In a pool parent the first call starts the manager server and
    creates the store; workers receive the parent's cache through the
    pool initializer (:func:`adopt_shared_cache`), so their engines —
    including ones built inside the worker via ``dataset_engine`` with
    the ``shared`` cache policy — all join the same memo.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = SharedDetectionCache()
    return _PROCESS_CACHE


def adopt_shared_cache(cache: SharedDetectionCache) -> None:
    """Install a pool parent's shared cache as this process's cache."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = cache
