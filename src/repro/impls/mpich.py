"""Simulated MPICH: 32-bit handles with a kind-tagged two-level table.

Handle layout (32 bits), modelled on real MPICH's ``MPIR_Handle``:

    [ category:2 | kind:4 | payload:26 ]

* category 1 = builtin (predefined object; payload is a builtin index;
  the resulting integers are **fixed at "compile time"** — identical in
  every session, upper or lower half, before or after restart);
* category 2 = dynamic; payload splits into a 10-bit first-level index
  (the "page") and a 16-bit second-level index (the slot), mirroring the
  2-layer table the paper compares to 2-level page tables;
* category 0 with payload 0 = the null handle of that kind.

Dynamic allocation starts at a page offset salted by the library epoch,
so a restarted lower half hands out *different* physical ids for the
same logical objects — the exact hazard MANA's virtual ids absorb.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mpi.api import BaseMpiLib, HandleKind, HandleSpace
from repro.util.bits import BitField
from repro.util.errors import InvalidHandleError

# Fixed kind codes (part of the "ABI", shared by the whole MPICH family).
KIND_CODES = {
    HandleKind.COMM: 0x1,
    HandleKind.GROUP: 0x2,
    HandleKind.DATATYPE: 0x3,
    HandleKind.OP: 0x4,
    HandleKind.REQUEST: 0x5,
}
CODE_KINDS = {v: k for k, v in KIND_CODES.items()}

CATEGORY_NULL = 0
CATEGORY_BUILTIN = 1
CATEGORY_DYNAMIC = 2

HANDLE_LAYOUT = BitField(32, [("category", 2), ("kind", 4), ("payload", 26)])
DYNAMIC_LAYOUT = BitField(26, [("page", 10), ("slot", 16)])

PAGE_SLOTS = 1 << 16
NUM_PAGES = 1 << 10

# Field readers and per-kind dynamic handle prefixes, bound once: a
# handle is decoded on every MPI call.  The payload is the low 26 bits
# of a handle, so DYNAMIC_LAYOUT's shifts apply to the handle itself.
_CATEGORY_SHIFT, _CATEGORY_MASK = HANDLE_LAYOUT.reader("category")
_KIND_SHIFT, _KIND_MASK = HANDLE_LAYOUT.reader("kind")
_PAGE_SHIFT, _PAGE_MASK = DYNAMIC_LAYOUT.reader("page")
_SLOT_MASK = DYNAMIC_LAYOUT.reader("slot")[1]
_DYNAMIC_PREFIX = {
    kind: HANDLE_LAYOUT.pack(category=CATEGORY_DYNAMIC, kind=code, payload=0)
    for kind, code in KIND_CODES.items()
}


class TwoLevelHandleSpace(HandleSpace):
    """The MPICH-family handle space: 32-bit ids, two-level object table."""

    handle_bits = 32

    def __init__(self, epoch: int = 0, builtin_salt: int = 0):
        # builtin_salt distinguishes family members (Cray MPI uses
        # different magic constants than stock MPICH) but is constant per
        # implementation, keeping builtins session-stable.
        self._builtin_salt = builtin_salt
        self._builtin_counts: Dict[str, int] = {k: 0 for k in HandleKind.ALL}
        self._builtins: Dict[int, object] = {}
        # pages[kind] -> {page_index: [slot objects or None]}; a page
        # grows on demand to the highest slot handed out so far.
        self._pages: Dict[str, Dict[int, List[Optional[object]]]] = {
            k: {} for k in HandleKind.ALL
        }
        self._free: Dict[str, List[Tuple[int, int]]] = {
            k: [] for k in HandleKind.ALL
        }
        self._next: Dict[str, Tuple[int, int]] = {}
        # Restarted instances allocate from a different starting page.
        start_page = (epoch * 3 + 1) % (NUM_PAGES - 8)
        for k in HandleKind.ALL:
            self._next[k] = (start_page, 0)

    # -- builtin handles ---------------------------------------------------
    def _builtin_handle(self, kind: str, index: int) -> int:
        return HANDLE_LAYOUT.pack(
            category=CATEGORY_BUILTIN,
            kind=KIND_CODES[kind],
            payload=(index + self._builtin_salt) & ((1 << 26) - 1),
        )

    # -- HandleSpace contract ----------------------------------------------
    def insert(self, kind: str, obj, builtin_name: Optional[str] = None) -> int:
        if builtin_name is not None:
            idx = self._builtin_counts[kind]
            self._builtin_counts[kind] += 1
            handle = self._builtin_handle(kind, idx)
            self._builtins[handle] = obj
            return handle
        if self._free[kind]:
            page, slot = self._free[kind].pop()
        else:
            page, slot = self._next[kind]
            if slot + 1 >= PAGE_SLOTS:
                self._next[kind] = ((page + 1) % NUM_PAGES, 0)
            else:
                self._next[kind] = (page, slot + 1)
        pages = self._pages[kind]
        table = pages.get(page)
        if table is None:
            table = pages[page] = []
        if slot >= len(table):
            table.extend([None] * (slot + 1 - len(table)))
        table[slot] = obj
        return _DYNAMIC_PREFIX[kind] | (page << _PAGE_SHIFT) | slot

    def _category(self, kind: str, handle: int) -> int:
        """Validate that ``handle`` is a 32-bit ``kind`` handle and
        return its category."""
        if not 0 <= handle < (1 << 32):
            raise InvalidHandleError(
                f"{handle:#x} is not a 32-bit MPICH handle"
            )
        code = (handle >> _KIND_SHIFT) & _KIND_MASK
        if CODE_KINDS.get(code) != kind:
            raise InvalidHandleError(
                f"handle {handle:#010x} is not a {kind} handle "
                f"(kind code {code})"
            )
        return (handle >> _CATEGORY_SHIFT) & _CATEGORY_MASK

    def resolve(self, kind: str, handle: int):
        category = self._category(kind, handle)
        if category == CATEGORY_BUILTIN:
            try:
                return self._builtins[handle]
            except KeyError:
                raise InvalidHandleError(
                    f"unknown builtin handle {handle:#010x}"
                ) from None
        if category != CATEGORY_DYNAMIC:
            raise InvalidHandleError(f"null/invalid handle {handle:#010x}")
        page = (handle >> _PAGE_SHIFT) & _PAGE_MASK
        slot = handle & _SLOT_MASK
        table = self._pages[kind].get(page)
        obj = table[slot] if table is not None and slot < len(table) else None
        if obj is None:
            raise InvalidHandleError(
                f"dangling {kind} handle {handle:#010x} "
                f"(page {page}, slot {slot})"
            )
        return obj

    def remove(self, kind: str, handle: int) -> None:
        if self._category(kind, handle) != CATEGORY_DYNAMIC:
            raise InvalidHandleError(
                f"cannot remove non-dynamic handle {handle:#010x}"
            )
        page = (handle >> _PAGE_SHIFT) & _PAGE_MASK
        slot = handle & _SLOT_MASK
        table = self._pages[kind].get(page)
        if table is None or slot >= len(table) or table[slot] is None:
            raise InvalidHandleError(f"double free of {handle:#010x}")
        table[slot] = None
        self._free[kind].append((page, slot))

    def null_handle(self, kind: str) -> int:
        return HANDLE_LAYOUT.pack(
            category=CATEGORY_NULL, kind=KIND_CODES[kind], payload=0
        )


class MpichLib(BaseMpiLib):
    """Stock MPICH (the cluster-provided MPICH-3.3.2 of Section 6)."""

    name = "mpich"
    BUILTIN_SALT = 0x400  # distinguishes family members' magic constants

    def _make_handle_space(self) -> HandleSpace:
        return TwoLevelHandleSpace(
            epoch=self.epoch, builtin_salt=self.BUILTIN_SALT
        )

    def constant(self, name: str) -> int:
        # MPICH-family constants are compile-time integers: resolving one
        # does not require an initialized library (mpi.h literals).
        try:
            return self._constants[name]
        except KeyError:
            pass
        # Pre-init access: compute the literal the header would contain.
        # Builtin handles depend only on registration order, which is
        # fixed, so the value can be computed without creating objects.
        order = _builtin_registration_order()
        if name not in order:
            return super().constant(name)  # raises MpiError
        kind, idx = order[name]
        space: TwoLevelHandleSpace = self.handles  # type: ignore[assignment]
        return space._builtin_handle(kind, idx)


def _builtin_registration_order() -> Dict[str, Tuple[str, int]]:
    """name -> (kind, builtin index) in the fixed registration order used
    by BaseMpiLib._create_builtins (the simulated "mpi.h" ABI)."""
    from repro.mpi import constants as C

    order: Dict[str, Tuple[str, int]] = {}
    order["MPI_COMM_WORLD"] = (HandleKind.COMM, 0)
    order["MPI_COMM_SELF"] = (HandleKind.COMM, 1)
    order["MPI_GROUP_EMPTY"] = (HandleKind.GROUP, 0)
    for i, tname in enumerate(C.PREDEFINED_DATATYPES):
        order[tname] = (HandleKind.DATATYPE, i)
    for i, oname in enumerate(C.PREDEFINED_OPS):
        order[oname] = (HandleKind.OP, i)
    return order
