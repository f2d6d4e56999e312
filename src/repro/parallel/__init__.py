"""Shared-memory state transport for process-parallel execution.

See :mod:`repro.parallel.shm` for the two primitives: a
:class:`~repro.parallel.shm.SharedWorldStore` that ships synthetic
worlds to workers as ~100-byte handles over named shared memory, and a
:class:`~repro.parallel.shm.SharedDetectionCache` that gives every
process in a pool one detection memo. :mod:`repro.parallel.procs` is
how every child process the library starts is started and stopped.
"""

from repro.parallel.shm import (
    SharedDetectionCache,
    SharedWorldHandle,
    SharedWorldStore,
    adopt_shared_cache,
    attach_shared_world,
    publish_worlds,
    shared_detection_cache,
)

__all__ = [
    "SharedDetectionCache",
    "SharedWorldHandle",
    "SharedWorldStore",
    "adopt_shared_cache",
    "attach_shared_world",
    "publish_worlds",
    "shared_detection_cache",
]
