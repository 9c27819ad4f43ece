"""Syscall shim for every durable checkpoint-store mutation.

All file operations that mutate the on-disk checkpoint state — chunk
publishes, image and manifest writes, journal records, GC/prune
unlinks — go through this module instead of calling ``os``/``open``
directly.  That buys two things:

* **Named crash points.**  Each operation fires a *before* and an
  *after* hook around the underlying syscall, named
  ``<context>.<site>.<when>`` (e.g. ``save.chunk.link.before``,
  ``drain.image.rename.after``, ``gc.chunk.unlink.before``).  A
  :class:`repro.faults.CrashPointInjector` installed via
  :func:`set_injector` can enumerate them or kill the mutation at any
  one of them — the adversary of PROTOCOLS.md §13.  With no injector
  installed every hook is a single ``is None`` test.
* **Durability discipline.**  Writers follow write-tmp → fsync →
  publish (rename/link).  In the default ``"fast"`` mode the fsync
  *crash points* still fire (so the sweep covers them) but no real
  ``os.fsync`` is issued — this is a simulation and tier-1 tests must
  stay fast.  ``set_durability("strict")`` turns on real fsyncs of both
  files and parent directories.

The *context* half of a point name comes from a thread-local stack:
:func:`op_context` labels whether the mutation runs under the
synchronous save path (``"save"``, the default), the async drainer
(``"drain"``), chunk garbage collection (``"gc"``), or generation
pruning (``"prune"``).  A save that fans its chunk publishes out to a
worker pool hands its context to the workers with the work.

Crash semantics: a dead injector (one that already fired) raises from
*every* subsequent hook, so once a simulated process dies mid-mutation
its ``finally`` blocks cannot clean up — exactly like a real SIGKILL.
What such a crash leaves behind (stray unique-named ``*.tmp`` files,
pending journal records, manifest-less generations, orphan chunks) is
what :mod:`repro.mana.fsck` repairs.
"""

from __future__ import annotations

import contextlib
import os
import threading

#: Suffix every temporary file ends with (unique writer id in front).
TMP_SUFFIX = ".tmp"

_DURABILITY = "fast"          # "fast" | "strict"
_INJECTOR = None              # CrashPointInjector | None
_TLS = threading.local()


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def set_durability(mode: str) -> None:
    """``"fast"`` (default): fsync crash points fire but no real fsync.
    ``"strict"``: real ``os.fsync`` on files and parent directories."""
    global _DURABILITY
    if mode not in ("fast", "strict"):
        raise ValueError(f"durability mode {mode!r}; expected fast|strict")
    _DURABILITY = mode


def get_durability() -> str:
    return _DURABILITY


def set_injector(injector) -> None:
    """Install (or with ``None`` remove) the crash-point injector
    consulted by every shimmed operation, process-wide."""
    global _INJECTOR
    _INJECTOR = injector


def get_injector():
    return _INJECTOR


# ----------------------------------------------------------------------
# operation context (thread-local)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def op_context(name: str):
    """Label shimmed operations on this thread as part of ``name``
    (``"save"`` / ``"drain"`` / ``"gc"`` / ``"prune"``)."""
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(name)
    try:
        yield
    finally:
        stack.pop()


def current_context() -> str:
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else "save"


def _point(site: str, when: str) -> None:
    inj = _INJECTOR
    if inj is not None:
        inj.hit(f"{current_context()}.{site}.{when}")


# ----------------------------------------------------------------------
# unique temp names (satellite: no cross-writer tmp collisions)
# ----------------------------------------------------------------------
def tmp_name(path: str) -> str:
    """A per-writer-unique temp name next to ``path``.

    ``<path>.<pid>.<tid>.tmp`` — two processes (or two threads) racing
    on the same final path never clobber each other's temp file, and the
    trailing ``.tmp`` keeps every stray-file filter working."""
    return f"{path}.{os.getpid()}.{threading.get_ident()}{TMP_SUFFIX}"


# ----------------------------------------------------------------------
# shimmed operations
# ----------------------------------------------------------------------
def write_file(path: str, data, site: str) -> None:
    """Write ``data`` to ``path`` (write → flush → fsync discipline).

    Crash points: ``<site>.write.before`` (nothing on disk yet),
    ``<site>.write.after`` (bytes written, not yet synced),
    ``<site>.fsync.before`` / ``.after``."""
    _point(site + ".write", "before")
    with open(path, "wb") as f:
        f.write(data)
        _point(site + ".write", "after")
        _point(site + ".fsync", "before")
        if _DURABILITY == "strict":
            f.flush()
            os.fsync(f.fileno())
    _point(site + ".fsync", "after")


def rename(src: str, dst: str, site: str) -> None:
    """Atomic publish via ``os.replace`` with a parent-dir sync in
    strict mode."""
    _point(site + ".rename", "before")
    os.replace(src, dst)
    _point(site + ".rename", "after")
    _dir_sync(os.path.dirname(dst), site)


def link(src: str, dst: str, site: str) -> None:
    """Atomic create-if-absent publish via ``os.link``.

    Propagates :class:`FileExistsError` — the caller's dedup hit."""
    _point(site + ".link", "before")
    os.link(src, dst)
    _point(site + ".link", "after")
    _dir_sync(os.path.dirname(dst), site)


def unlink(path: str, site: str, missing_ok: bool = True) -> None:
    _point(site + ".unlink", "before")
    try:
        os.remove(path)
    except FileNotFoundError:
        if not missing_ok:
            raise
    _point(site + ".unlink", "after")


def rmdir(path: str, site: str) -> None:
    """Remove a (now empty) directory; a non-empty or missing dir is
    tolerated — fsck finishes half-removed generation dirs."""
    _point(site + ".rmdir", "before")
    try:
        os.rmdir(path)
    except OSError:
        pass
    _point(site + ".rmdir", "after")


def _dir_sync(dirpath: str, site: str) -> None:
    """Make a rename/link durable: fsync the containing directory
    (strict mode; the crash points fire in both modes)."""
    _point(site + ".dirsync", "before")
    if _DURABILITY == "strict" and dirpath:
        try:
            fd = os.open(dirpath, os.O_RDONLY)
        except OSError:
            fd = -1
        if fd >= 0:
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    _point(site + ".dirsync", "after")
