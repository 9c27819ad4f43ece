"""Durability intent journal for checkpoint-store mutations.

Every multi-step store mutation — a rank image save (which publishes
chunks and then an image header), a generation manifest commit, chunk
GC, generation pruning — *begins* by writing a
tiny JSON record under ``<ckpt_base>/journal/`` and *retires* (unlinks)
it only once the mutation is fully durable.  A crash in between leaves
the record pending, and a pending record is exactly what tells
:mod:`repro.mana.fsck` that the store shut down dirty and which
mutation to roll back or forward:

* ``image-save`` / ``manifest-commit`` — if the named generation has a
  manifest at its final path it is complete (the manifest is always
  written last): roll *forward* by retiring the record.  Otherwise the
  generation is invisible by construction: roll *back* by deleting its
  directory.  ``drain-finalize``, which older versions' async drainer
  wrapped around its manifest commit and prune, is no longer written;
  fsck still applies the same rule to it.
* ``prune`` — the record names the doomed generations; deletion is
  re-runnable, so fsck simply finishes it.
* ``gc`` — reference-scan-and-delete is idempotent; fsck redoes it.

Record files are uniquely named (``<seq>-<op>-<pid>-<tid>.json``), so
concurrent writers — rank threads in one job, or several jobs sharing a
store — never collide, and the journal needs no locking beyond the
filesystem's.  Records are written through the owning store's
:class:`repro.mana.storeio.StoreIO`, so the journal's own syscalls are
themselves crash points named after the caller's operation context: a
record torn by a crash *during its own write* parses as ``op="?"`` and
is retired by fsck like any other stale record.

The record sequence number is the one piece of state shared by every
journal in the process (see :data:`_SEQ`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from typing import Dict, List, Optional

from repro.mana import storeio

JOURNAL_DIRNAME = "journal"

#: In-process sequence numbers give records a stable sort order within
#: one writer process; cross-process uniqueness comes from the pid.  The
#: counter is process-wide, not per journal: several store objects may
#: be open on one directory (a reopened store after a crash, a sweep's
#: second view), and fsck replays records oldest-first by name, so a
#: second object's counter restarting at 1 would sort its new records
#: before the stale ones.
_SEQ = itertools.count(1)


class Journal:
    """The intent journal of one checkpoint base directory, written
    through ``io`` (the owning store's, else the process default)."""

    def __init__(self, base_dir: str, io: Optional[storeio.StoreIO] = None):
        self.base_dir = base_dir
        self.dir = os.path.join(base_dir, JOURNAL_DIRNAME)
        self.io = io or storeio.DEFAULT

    # ------------------------------------------------------------------
    def begin(self, op: str, *, context: str = "save", **fields) -> str:
        """Write a pending record for ``op`` on behalf of the operation
        ``context``; returns the retire token.

        The record is durable (fsync discipline) before this returns, so
        the mutation it announces can never outrun it to disk."""
        os.makedirs(self.dir, exist_ok=True)
        name = (
            f"{next(_SEQ):06d}-{op}-{os.getpid()}-"
            f"{threading.get_ident()}.json"
        )
        path = os.path.join(self.dir, name)
        doc = dict(fields)
        doc["op"] = op
        self.io.write_file(
            path, json.dumps(doc, sort_keys=True).encode("utf-8"),
            f"journal.{op}", context,
        )
        return path

    def retire(self, token: Optional[str], context: str = "save") -> None:
        """Remove a record once its mutation is fully durable (tolerates
        an already-retired token: fsck may have gotten there first)."""
        if token is None:
            return
        op = self._op_of(token)
        self.io.unlink(token, f"journal-retire.{op}", context)

    # ------------------------------------------------------------------
    def pending(self) -> List[Dict]:
        """Pending records, oldest first (sorted by record name).

        A record torn mid-write (crash during the journal's own write)
        comes back as ``{"op": "?"}`` so fsck can still retire it."""
        try:
            names = sorted(os.listdir(self.dir))
        except FileNotFoundError:
            return []
        out: List[Dict] = []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.dir, name)
            try:
                with open(path, "rb") as f:
                    doc = json.loads(f.read().decode("utf-8"))
                if not isinstance(doc, dict) or "op" not in doc:
                    doc = {"op": "?"}
            except (OSError, ValueError, UnicodeDecodeError):
                doc = {"op": "?"}
            doc["_token"] = path
            out.append(doc)
        return out

    def retire_matching(self, op: Optional[str] = None,
                        generation: Optional[int] = None,
                        context: str = "save") -> int:
        """Retire every pending record matching ``op`` and/or
        ``generation`` (used by an async round's drain when it abandons a
        generation: the rollback happened in-process, so the records
        must not trigger an fsck rollback later).  Returns the count."""
        n = 0
        for rec in self.pending():
            if op is not None and rec.get("op") != op:
                continue
            if generation is not None and rec.get("generation") != generation:
                continue
            self.retire(rec["_token"], context)
            n += 1
        return n

    # ------------------------------------------------------------------
    @staticmethod
    def _op_of(token: str) -> str:
        parts = os.path.basename(token).split("-")
        return parts[1] if len(parts) >= 2 else "?"
