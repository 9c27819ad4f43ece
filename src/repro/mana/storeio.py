"""Syscall shim for every durable checkpoint-store mutation.

All file operations that mutate the on-disk checkpoint state — chunk
publishes, image and manifest writes, journal records, GC/prune
unlinks — go through a :class:`StoreIO` instead of calling
``os``/``open`` directly.  Each :class:`~repro.mana.checkpoint.
CheckpointStore` owns one (``store.io``) and hands it to its chunk
store and journal.  That buys two things:

* **Named crash points.**  Each operation fires a *before* and an
  *after* hook around the underlying syscall, named
  ``<context>.<site>.<when>`` (e.g. ``save.chunk.link.before``,
  ``drain.image.rename.after``, ``gc.chunk.unlink.before``).  A
  :class:`repro.faults.CrashPointInjector` given as the object's
  ``injector`` can enumerate them or kill the mutation at any one of
  them — the adversary of PROTOCOLS.md §13.  With no injector every
  hook is a single ``is None`` test.
* **Durability discipline.**  Writers follow write-tmp → fsync →
  publish (rename/link).  In the default ``"fast"`` mode the fsync
  *crash points* still fire (so the sweep covers them) but no real
  ``os.fsync`` is issued — this is a simulation and tier-1 tests must
  stay fast.  ``durability="strict"`` turns on real fsyncs of both
  files and parent directories.

The *context* half of a point name is an argument of every operation:
the caller says whether the mutation serves the synchronous save path
(``"save"``), the async drainer (``"drain"``), chunk garbage collection
(``"gc"``), generation pruning (``"prune"``) or a repair (``"fsck"``).
Work fanned out to a pool carries its context with it.

A store opened without its own object shares :data:`DEFAULT`, the
process default; :func:`set_durability` / :func:`set_injector` and the
module-level :func:`write_file` / :func:`rename` act on it, so a setting
made there reaches every such store, opened before or after the call.

Crash semantics: a dead injector (one that already fired) raises from
*every* subsequent hook, so once a simulated process dies mid-mutation
its ``finally`` blocks cannot clean up — exactly like a real SIGKILL.
What such a crash leaves behind (stray unique-named ``*.tmp`` files,
pending journal records, manifest-less generations, orphan chunks) is
what :mod:`repro.mana.fsck` repairs.
"""

from __future__ import annotations

import os
import threading

#: Suffix every temporary file ends with (unique writer id in front).
TMP_SUFFIX = ".tmp"


class StoreIO:
    """The I/O settings of one checkpoint store and the shimmed syscalls
    that obey them: a durability mode and an optional crash-point
    injector."""

    def __init__(self, durability: str = "fast", injector=None):
        self.durability = durability
        self.injector = injector      # CrashPointInjector | None

    @property
    def durability(self) -> str:
        """``"fast"`` (default): fsync crash points fire but no real
        fsync.  ``"strict"``: real ``os.fsync`` on files and parent
        directories."""
        return self._durability

    @durability.setter
    def durability(self, mode: str) -> None:
        if mode not in ("fast", "strict"):
            raise ValueError(f"durability mode {mode!r}; expected fast|strict")
        self._durability = mode

    def _point(self, context: str, site: str, when: str) -> None:
        inj = self.injector
        if inj is not None:
            inj.hit(f"{context}.{site}.{when}")

    # ------------------------------------------------------------------
    # shimmed operations
    # ------------------------------------------------------------------
    def write_file(self, path: str, data, site: str, context: str) -> None:
        """Write ``data`` to ``path`` (write → flush → fsync discipline).

        Crash points: ``<site>.write.before`` (nothing on disk yet),
        ``<site>.write.after`` (bytes written, not yet synced),
        ``<site>.fsync.before`` / ``.after``."""
        self._point(context, site + ".write", "before")
        with open(path, "wb") as f:
            f.write(data)
            self._point(context, site + ".write", "after")
            self._point(context, site + ".fsync", "before")
            if self._durability == "strict":
                f.flush()
                os.fsync(f.fileno())
        self._point(context, site + ".fsync", "after")

    def rename(self, src: str, dst: str, site: str, context: str) -> None:
        """Atomic publish via ``os.replace`` with a parent-dir sync in
        strict mode."""
        self._point(context, site + ".rename", "before")
        os.replace(src, dst)
        self._point(context, site + ".rename", "after")
        self._dir_sync(os.path.dirname(dst), site, context)

    def link(self, src: str, dst: str, site: str, context: str) -> None:
        """Atomic create-if-absent publish via ``os.link``.

        Propagates :class:`FileExistsError` — the caller's dedup hit."""
        self._point(context, site + ".link", "before")
        os.link(src, dst)
        self._point(context, site + ".link", "after")
        self._dir_sync(os.path.dirname(dst), site, context)

    def unlink(self, path: str, site: str, context: str,
               missing_ok: bool = True) -> None:
        self._point(context, site + ".unlink", "before")
        try:
            os.remove(path)
        except FileNotFoundError:
            if not missing_ok:
                raise
        self._point(context, site + ".unlink", "after")

    def rmdir(self, path: str, site: str, context: str) -> None:
        """Remove a (now empty) directory; a non-empty or missing dir is
        tolerated — fsck finishes half-removed generation dirs."""
        self._point(context, site + ".rmdir", "before")
        try:
            os.rmdir(path)
        except OSError:
            pass
        self._point(context, site + ".rmdir", "after")

    def _dir_sync(self, dirpath: str, site: str, context: str) -> None:
        """Make a rename/link durable: fsync the containing directory
        (strict mode; the crash points fire in both modes)."""
        self._point(context, site + ".dirsync", "before")
        if self._durability == "strict" and dirpath:
            try:
                fd = os.open(dirpath, os.O_RDONLY)
            except OSError:
                fd = -1
            if fd >= 0:
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        self._point(context, site + ".dirsync", "after")


#: The process default, shared by every store opened without its own
#: :class:`StoreIO`.
DEFAULT = StoreIO()


# ----------------------------------------------------------------------
# the process default's settings
# ----------------------------------------------------------------------
def set_durability(mode: str) -> None:
    """Set :data:`DEFAULT`'s durability mode (``"fast"`` | ``"strict"``)."""
    DEFAULT.durability = mode


def get_durability() -> str:
    return DEFAULT.durability


def set_injector(injector) -> None:
    """Install (or with ``None`` remove) :data:`DEFAULT`'s crash-point
    injector."""
    DEFAULT.injector = injector


def get_injector():
    return DEFAULT.injector


# ----------------------------------------------------------------------
# unique temp names: no cross-writer tmp collisions
# ----------------------------------------------------------------------
def tmp_name(path: str) -> str:
    """A per-writer-unique temp name next to ``path``.

    ``<path>.<pid>.<tid>.tmp`` — two processes (or two threads) racing
    on the same final path never clobber each other's temp file, and the
    trailing ``.tmp`` keeps every stray-file filter working."""
    return f"{path}.{os.getpid()}.{threading.get_ident()}{TMP_SUFFIX}"


# ----------------------------------------------------------------------
# the process default's operations, in the "save" context
# ----------------------------------------------------------------------
def write_file(path: str, data, site: str) -> None:
    DEFAULT.write_file(path, data, site, "save")


def rename(src: str, dst: str, site: str) -> None:
    DEFAULT.rename(src, dst, site, "save")
