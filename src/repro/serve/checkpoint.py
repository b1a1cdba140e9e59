"""Atomic shard checkpoints: tmp + ``os.replace``, corrupt = absent.

A shard's whole resumable state -- per-node filter state, the shared
prediction ledger's rolling windows and CUSUM accumulators, per-node
capper/budget state, quarantine streaks, held decisions and queued
ledger prices, and the processed-interval counters -- serialises to one
JSON document.  Writes go through a temporary file in the destination
directory followed by ``os.replace``
(the same crash-safety pattern as the npz trace cache), so a snapshot is
either the complete previous checkpoint or the complete new one, never a
torn hybrid.  A checkpoint that fails to parse on load is treated as
absent (cold start) rather than fatal: the service's job is to come back
up.

JSON is the right container here: every piece of state is floats, ints,
strings, and small lists, and Python's ``repr``-based float serialisation
round-trips bit-exactly -- which the checkpoint/restore tests rely on.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import tempfile
from typing import Callable, Optional

__all__ = ["CHECKPOINT_VERSION", "Checkpointer", "read_checkpoint", "write_checkpoint"]

logger = logging.getLogger(__name__)

#: Bumped whenever a shard checkpoint's layout changes, so an older
#: checkpoint reads as a cold start instead of failing to load.
CHECKPOINT_VERSION = 2


def write_checkpoint(path: str, state: dict, chaos=None) -> None:
    """Atomically persist ``state`` as JSON at ``path``.

    ``chaos`` is an optional :class:`~repro.chaos.disk.DiskChaos`: when
    its schedule fires for this save, the write fails the way a real
    disk does -- a partial tmp write followed by ``OSError(ENOSPC)``
    (tmp cleaned up, previous checkpoint intact), or a simulated crash
    between the tmp write and ``os.replace`` that litters a torn tmp
    file.  Either way the failure surfaces as ``OSError`` and the
    on-disk checkpoint is never a torn hybrid.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = {"checkpoint_version": CHECKPOINT_VERSION}
    payload.update(state)
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python one, with the same bytes at a few times the cost.
    document = json.dumps(payload, sort_keys=True)
    action = None if chaos is None else chaos.draw(os.path.basename(path))
    if action is not None:
        kind, fraction = action
        torn = document[: max(1, int(len(document) * fraction))]
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(torn)
            handle.flush()
            os.fsync(handle.fileno())
        if kind == "enospc":
            # The writer notices the failed write and cleans its tmp.
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise OSError(
                errno.ENOSPC, "no space left on device (injected)"
            )
        # "torn": crash before os.replace -- the torn tmp stays behind.
        raise OSError(
            errno.EIO, "crash before replace left torn tmp (injected)"
        )
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(document)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_checkpoint(path: str) -> Optional[dict]:
    """Load a checkpoint, or ``None`` when absent/unreadable/of another
    version.

    An unreadable checkpoint, or one of any other version, logs a
    warning and reads as a cold start; losing one period of state is
    recoverable, refusing to boot is not.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        logger.warning("discarding unreadable checkpoint %s (%s)", path, exc)
        return None
    version = state.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        logger.warning(
            "discarding checkpoint %s with unsupported version %r", path, version
        )
        return None
    return state


class Checkpointer:
    """Periodic + on-demand snapshots of one shard's state.

    Parameters
    ----------
    path:
        Where the snapshot lives.
    state_fn:
        Zero-argument callable returning the state dict to persist.
    every_intervals:
        Snapshot after this many :meth:`tick` calls (processed
        telemetry intervals).  The restart guarantee follows directly:
        at most one checkpoint period of pipeline history is lost.
    chaos:
        Optional :class:`~repro.chaos.disk.DiskChaos` failpoint hook
        (see :func:`write_checkpoint`).
    """

    def __init__(
        self,
        path: str,
        state_fn: Callable[[], dict],
        every_intervals: int = 64,
        chaos=None,
    ) -> None:
        if every_intervals < 1:
            raise ValueError("every_intervals must be >= 1")
        self.path = path
        self.state_fn = state_fn
        self.every_intervals = int(every_intervals)
        self.chaos = chaos
        self._since_save = 0
        #: Snapshots written over this checkpointer's lifetime.
        self.saves = 0
        #: Saves that failed with an OSError (disk full, torn write).
        self.failures = 0

    def tick(self, aligned: bool = True) -> bool:
        """Count one processed interval; snapshot when the period is up.

        ``aligned`` lets the caller veto the snapshot at unsafe points:
        the shard worker passes ``False`` while an allocation round is
        mid-barrier, because ``state_dict`` drops the in-flight round
        and restoring such a snapshot would close the next round with
        mixed-interval samples -- breaking bit-identical crash
        recovery.  A vetoed save stays due and fires on the next
        aligned tick.

        Returns ``True`` only when a snapshot was *successfully*
        written this tick -- callers gate their event-stream flush on
        that, so events never outrun the durable state.
        """
        self._since_save += 1
        if self._since_save >= self.every_intervals and aligned:
            return self.save()
        return False

    def save(self) -> bool:
        """Snapshot now (period rollover, SIGTERM, or clean shutdown).

        A failed write (``OSError``: disk full, injected tear) is
        counted, logged, and absorbed -- the previous snapshot stays
        authoritative and the service keeps running; losing one period
        of durability must never take the shard down.  Returns whether
        the snapshot landed.
        """
        try:
            write_checkpoint(self.path, self.state_fn(), chaos=self.chaos)
        except OSError as exc:
            self.failures += 1
            self._since_save = 0
            logger.warning(
                "checkpoint save to %s failed (%s); previous snapshot "
                "stays authoritative", self.path, exc,
            )
            return False
        self._since_save = 0
        self.saves += 1
        return True

    def load(self) -> Optional[dict]:
        """Read the last durable snapshot (``None`` on cold start)."""
        return read_checkpoint(self.path)
