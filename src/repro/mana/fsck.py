"""``repro fsck``: crash-recovery repair for a checkpoint directory.

A checkpoint base directory shut down *dirty* when a writer died — real
``kill -9`` or a simulated :class:`repro.util.errors.InjectedCrash` —
between beginning a store mutation and retiring its journal record
(:mod:`repro.mana.journal`).  What such a death can leave behind is
exactly enumerable:

* **pending journal records** — the mutation's intent, still on disk;
* **stray ``*.tmp`` files** — a write-tmp that never reached its
  ``rename``/``link`` publish (unique per-writer names mean no later
  writer ever reuses them);
* **manifest-less generation directories** — rank images whose
  generation never committed (the manifest is always written last);
* **orphan chunks** — content-addressed store entries referenced by no
  surviving image (harmless until reclaimed);
* **corrupt chunks** — a torn chunk write that somehow reached a final
  path, or plain bit rot.

:func:`fsck` repairs all of it with one pass, driven by the journal:

1. *Replay the journal.*  For each pending ``image-save`` /
   ``manifest-commit`` / ``drain-finalize`` record: if the named
   generation has a manifest at its final path the mutation completed —
   roll **forward** by retiring the record; otherwise the generation is
   invisible by construction — roll **back** by deleting its directory.
   Pending ``prune`` records name their doomed generations, and
   deletion is re-runnable, so fsck finishes them; ``gc`` is idempotent
   and is redone by the orphan sweep below.  Torn records (``op="?"``)
   are simply retired.
2. *Sweep temp files* under the base, store, and generation
   directories — **all** of them: fsck must only run while no writer
   is active.  It is the only code that removes temp files; opening a
   store (or a check-only fsck) never does.
3. *Deep-verify referenced chunks* (decompress + sha256).  A
   hash-mismatched chunk is moved to ``<base>/quarantine/`` — kept for
   forensics, out of the store so the generations referencing it report
   a clean "chunk missing" instead of tripping on it at restart time.
4. *Remove orphan chunks* (reference scan over the surviving images).
5. *Report* which generations are restorable and why the rest are not.

fsck is idempotent: running it twice returns a second report with
nothing to do.  :func:`auto_repair` is the supervised-restart hook —
it answers "was the shutdown dirty?" cheaply and runs the full repair
only if so.  Both take a directory's
:class:`~repro.mana.checkpoint.CheckpointStore` (or the directory).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mana import storeio
from repro.mana.checkpoint import (
    QUARANTINE_DIRNAME,
    CheckpointStore,
    store_for,
)
from repro.mana.chunkstore import CHUNK_SUFFIX
from repro.util.errors import IntegrityError

#: Journal ops whose pending record names a possibly-uncommitted
#: generation (roll forward iff its manifest is on disk).
_GENERATION_OPS = ("image-save", "manifest-commit", "drain-finalize")


@dataclass
class FsckReport:
    """What one :func:`fsck` pass found and (in repair mode) fixed."""

    base_dir: str
    #: True when there was anything to repair (pending records, stray
    #: temp files, quarantined or orphaned chunks).
    dirty: bool = False
    #: True when this pass ran in repair mode (check-only passes leave
    #: the directory untouched and report what a repair would do).
    repaired: bool = False
    #: Pending journal records found (op + fields), oldest first.
    pending_records: List[Dict] = field(default_factory=list)
    #: Generations rolled back (manifest never committed), ascending.
    rolled_back_generations: List[int] = field(default_factory=list)
    #: Generations whose records were retired because their manifest
    #: was already durable (the mutation completed), ascending.
    rolled_forward_generations: List[int] = field(default_factory=list)
    #: Generations whose interrupted prune was finished, ascending.
    finished_prunes: List[int] = field(default_factory=list)
    #: Stray ``*.tmp`` files removed (store + generation dirs).
    stray_tmp_removed: int = 0
    #: Digests moved to ``<base>/quarantine/`` (hash mismatch).
    quarantined_chunks: List[str] = field(default_factory=list)
    #: Referenced digests that are simply gone (nothing to quarantine).
    missing_chunks: List[str] = field(default_factory=list)
    #: Unreferenced chunks deleted, and their compressed bytes.
    orphan_chunks_removed: int = 0
    orphan_bytes_reclaimed: int = 0
    #: Post-repair restorability verdicts.
    restorable_generations: List[int] = field(default_factory=list)
    #: generation -> human-readable problems, for every generation
    #: present but not restorable.
    skipped_generations: Dict[int, List[str]] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human summary (CLI output)."""
        if not self.dirty:
            return (
                f"{self.base_dir}: clean; restorable generations: "
                f"{self.restorable_generations}"
            )
        bits = []
        if self.rolled_back_generations:
            bits.append(f"rolled back {self.rolled_back_generations}")
        if self.rolled_forward_generations:
            bits.append(f"rolled forward {self.rolled_forward_generations}")
        if self.finished_prunes:
            bits.append(f"finished prune of {self.finished_prunes}")
        if self.stray_tmp_removed:
            bits.append(f"removed {self.stray_tmp_removed} stray tmp")
        if self.quarantined_chunks:
            bits.append(f"quarantined {len(self.quarantined_chunks)} chunk(s)")
        if self.missing_chunks:
            bits.append(f"{len(self.missing_chunks)} chunk(s) missing")
        if self.orphan_chunks_removed:
            bits.append(
                f"reclaimed {self.orphan_chunks_removed} orphan chunk(s) "
                f"({self.orphan_bytes_reclaimed} bytes)"
            )
        what = "dirty shutdown repaired" if self.repaired else "dirty"
        return (
            f"{self.base_dir}: {what} "
            f"({'; '.join(bits) or 'journal replay only'}); "
            f"restorable generations: {self.restorable_generations}"
        )


def _stray_tmp(store: CheckpointStore) -> List[str]:
    """Every ``*.tmp`` under the base, store, and generation
    directories: what a writer that died between write-tmp and publish
    left behind."""
    dirs = [store.base_dir, store.chunks.dir]
    dirs += [store.generation_dir(g) for g in store.generations()]
    out = []
    for d in dirs:
        try:
            names = sorted(os.listdir(d))
        except (FileNotFoundError, NotADirectoryError):
            continue
        out += [os.path.join(d, n) for n in names
                if n.endswith(storeio.TMP_SUFFIX)]
    return out


def _quarantine_chunk(store: CheckpointStore, digest: str) -> None:
    """Move a corrupt chunk out of the store, keeping its bytes for
    forensics.  After the move the referencing generations report a
    clean 'chunk missing' instead of a checksum error."""
    qdir = os.path.join(store.base_dir, QUARANTINE_DIRNAME)
    os.makedirs(qdir, exist_ok=True)
    try:
        os.replace(
            store.chunks.chunk_path(digest),
            os.path.join(qdir, digest + CHUNK_SUFFIX),
        )
    except OSError:
        pass


def fsck(store, repair: bool = True) -> FsckReport:
    """Check (and with ``repair``, fix) one checkpoint directory, given
    as its :class:`CheckpointStore` or its path.

    With ``repair=False`` nothing is mutated: the report describes what
    a repair pass *would* do (journal records stay pending, temps stay,
    corrupt chunks are reported but not quarantined).

    Must not run concurrently with an active writer on the same
    directory — it sweeps temp files unconditionally.
    """
    store = store_for(store)
    report = FsckReport(base_dir=store.base_dir, repaired=repair)
    if not os.path.isdir(store.base_dir):
        return report
    journal = store.journal
    pinned = store.pinned_generations()

    # 1. Replay the journal --------------------------------------------
    pending = journal.pending()
    report.pending_records = [
        {k: v for k, v in rec.items() if k != "_token"} for rec in pending
    ]
    rolled_back: List[int] = []
    rolled_forward: List[int] = []
    finished: List[int] = []
    if repair:
        for rec in pending:
            op = rec.get("op")
            if op in _GENERATION_OPS:
                gen = rec.get("generation")
                if isinstance(gen, int) and gen not in pinned:
                    if os.path.exists(store.manifest_path(gen)):
                        if gen not in rolled_forward:
                            rolled_forward.append(gen)
                    else:
                        if gen not in rolled_back:
                            rolled_back.append(gen)
                        store.remove_generation(gen)
            elif op == "prune":
                for gen in rec.get("generations", []) or []:
                    if isinstance(gen, int) and gen not in pinned:
                        store.remove_generation(gen)
                        if gen not in finished:
                            finished.append(gen)
            # "gc", torn ("?"), and unknown ops: idempotent or
            # meaningless — the orphan sweep below redoes any GC.
            journal.retire(rec["_token"])
        # Manifest-less generation directories with no pending record
        # are also rollback targets: a writer can die in the window
        # between retiring its last image-save record and beginning the
        # manifest commit (or before its first journal write reached
        # disk).  With no writer active — fsck's precondition — a
        # generation without its commit marker is garbage by definition.
        for gen in store.generations():
            if gen in pinned or gen in rolled_back:
                continue
            if not os.path.exists(store.manifest_path(gen)):
                rolled_back.append(gen)
                store.remove_generation(gen)
    report.rolled_back_generations = sorted(rolled_back)
    report.rolled_forward_generations = sorted(rolled_forward)
    report.finished_prunes = sorted(finished)

    # 2. Temp-file sweep -----------------------------------------------
    stray = _stray_tmp(store)
    if repair:
        for path in stray:
            try:
                os.remove(path)
                report.stray_tmp_removed += 1
            except OSError:
                continue
    else:
        report.dirty = bool(stray)

    # 3. Deep-verify referenced chunks, quarantine mismatches ----------
    chunks = store.chunks
    referenced = store.referenced_chunks()
    for digest in sorted(referenced):
        if not chunks.contains(digest):
            report.missing_chunks.append(digest)
            continue
        try:
            chunks.get(digest, context="fsck")
        except IntegrityError:
            report.quarantined_chunks.append(digest)
            if repair:
                _quarantine_chunk(store, digest)
            continue

    # 4. Orphan-chunk removal ------------------------------------------
    if repair:
        removed, reclaimed = chunks.gc(referenced)
        report.orphan_chunks_removed = removed
        report.orphan_bytes_reclaimed = reclaimed
    else:
        orphans = chunks.digests() - referenced - chunks.pinned()
        report.orphan_chunks_removed = len(orphans)

    # 5. Restorability verdicts ----------------------------------------
    for gen in store.generations():
        problems = store.validate(gen)
        if problems:
            report.skipped_generations[gen] = problems
        else:
            report.restorable_generations.append(gen)

    report.dirty = bool(
        report.dirty
        or report.pending_records
        or report.rolled_back_generations
        or report.finished_prunes
        or report.stray_tmp_removed
        or report.quarantined_chunks
        or report.orphan_chunks_removed
    )
    return report


def auto_repair(store) -> Optional[FsckReport]:
    """The supervised-restart hook: repair only if the shutdown was
    dirty (``store``: a :class:`CheckpointStore` or its path).

    Cheap dirtiness probe first — pending journal records, or stray
    temp files anywhere in the layout.  A clean directory returns
    ``None`` without mutating anything (and without the cost of a deep
    chunk verification), so a supervisor restarting after an ordinary
    rank failure sees no fsck event in its trace.
    """
    store = store_for(store)
    if not os.path.isdir(store.base_dir):
        return None
    if not store.journal.pending() and not _stray_tmp(store):
        return None
    return fsck(store, repair=True)
