"""Process plumbing shared by experiment pools and the serving fleet.

:mod:`repro.parallel.procs` is how every child process the library
starts is started and stopped. :mod:`repro.parallel.shm` holds the
:class:`~repro.parallel.shm.SharedDetectionCache` that gives every
process in a pool one detection memo.
"""

from repro.parallel.shm import (
    SharedDetectionCache,
    adopt_shared_cache,
    shared_detection_cache,
)

__all__ = [
    "SharedDetectionCache",
    "adopt_shared_cache",
    "shared_detection_cache",
]
