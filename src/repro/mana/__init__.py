"""MANA — the paper's contribution, reimplemented over simulated MPI.

Subpackage map (one module per paper concept):

* :mod:`repro.mana.records` — per-object reconstruction descriptors
  (the "MANA-internal structure" of §4.2 that stores additional
  MANA-specific information beside the physical id);
* :mod:`repro.mana.virtid` — the NEW virtual-id architecture: a single
  table of entries, 32-bit ids with kind tags and embedded ggids,
  embedded into the first 32 bits of whatever handle type the target
  ``mpi.h`` declares;
* :mod:`repro.mana.legacy` — the OLD design (per-type string-keyed maps,
  int-only virtual ids) kept as the ablation baseline; it fails by
  construction on pointer-handle implementations;
* :mod:`repro.mana.wrappers` — the stub functions of Figure 1: one
  wrapper per MPI call, translating virtual to physical ids on the way
  into the lower half and back on the way out;
* :mod:`repro.mana.drain` — the checkpoint-time quiesce and
  point-to-point drain protocol (send-count alltoall + Iprobe/Recv);
* :mod:`repro.mana.checkpoint` — checkpoint images (format 4 monolithic
  and format 5 incremental) and the :class:`CheckpointStore` that owns
  one checkpoint directory (``store_for``);
* :mod:`repro.mana.chunkstore` — the per-directory content-addressed
  store of compressed content-defined chunks backing format-5 images;
* :mod:`repro.mana.replay` — restart-time reconstruction of MPI objects
  through standard MPI calls only (§5's required subset);
* :mod:`repro.mana.coordinator` — the checkpoint coordinator state
  machine (the moral equivalent of the DMTCP coordinator).
"""

from repro.mana.virtid import VirtualIdTable, VidEntry, GgidPolicy
from repro.mana.legacy import LegacyVirtualIdMaps
from repro.mana.wrappers import ManaRank, ManaFacade
from repro.mana.coordinator import CheckpointCoordinator, CheckpointKind
from repro.mana.checkpoint import CheckpointImage, CheckpointStore, store_for
from repro.mana.chunkstore import ChunkStore, chunk_spans

__all__ = (
    "VirtualIdTable",
    "VidEntry",
    "GgidPolicy",
    "LegacyVirtualIdMaps",
    "ManaRank",
    "ManaFacade",
    "CheckpointCoordinator",
    "CheckpointKind",
    "CheckpointImage",
    "CheckpointStore",
    "ChunkStore",
    "chunk_spans",
    "store_for",
)
