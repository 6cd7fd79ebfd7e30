"""Shared pytest fixtures.

The one suite-wide invariant enforced here: **no leaked shared-memory
segments**.  Two subsystems back themselves with named segments under
``/dev/shm``: the one-copy weight segments
(``repro.models.persistence``, ``repro-weights-*``) and the
data-parallel trainer (``repro.train.ddp``, ``repro-ddp-*``).  In both,
the parent process owns creation and unlinking, and ``close()``
must reclaim every segment even when workers died mid-operation (chaos
kills, supervisor terminations, a rank dying mid-step, a worker holding
a weight mapping).  A test that exits leaving a segment behind has found
a real leak — fail loudly here rather than letting ``/dev/shm`` fill up
over a long CI run.
"""

import glob
import os

import pytest

from repro.models.persistence import WEIGHTS_NAME_PREFIX
from repro.train.ddp import DDP_NAME_PREFIX

_SHM_DIR = "/dev/shm"
_AUDITED_PREFIXES = (WEIGHTS_NAME_PREFIX, DDP_NAME_PREFIX)


def _shm_segments():
    if not os.path.isdir(_SHM_DIR):  # non-Linux: nothing to audit
        return set()
    found = set()
    for prefix in _AUDITED_PREFIXES:
        found.update(glob.glob(os.path.join(_SHM_DIR, f"{prefix}-*")))
    return found


@pytest.fixture(autouse=True)
def no_ring_leaks():
    """Fail any test that leaks a shared-memory segment it created.

    Segments that predate the test (another process, a prior aborted
    run) are ignored — the fixture only audits what the test added."""
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, (
        f"leaked shared-memory segments: {sorted(leaked)} — "
        "ShardedEngine.close() / DataParallelTrainer.close() (or the test "
        "itself) must unlink every segment it creates")
