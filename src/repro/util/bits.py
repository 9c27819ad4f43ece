"""Bit-field packing helpers.

Both the MPICH-style physical handles (kind bits | level-1 index |
level-2 index) and MANA's new 32-bit virtual ids (kind tag | ggid/index)
are dense bit-packed integers.  This module provides one declarative
encoder/decoder used by both, so the encodings are tested once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


def mask(nbits: int) -> int:
    """Return an ``nbits``-wide all-ones mask (``mask(4) == 0xF``)."""
    if nbits < 0:
        raise ValueError(f"negative field width: {nbits}")
    return (1 << nbits) - 1


@dataclass(frozen=True)
class _Field:
    name: str
    width: int
    shift: int


class BitField:
    """A fixed-width integer laid out as named contiguous bit fields.

    Fields are declared most-significant first, e.g.::

        layout = BitField(32, [("kind", 4), ("index", 28)])
        word = layout.pack(kind=2, index=77)
        layout.unpack(word)  # {"kind": 2, "index": 77}

    The total field width must equal the declared word width, so layouts
    are self-checking.
    """

    def __init__(self, width: int, fields: Sequence[Tuple[str, int]]):
        total = sum(w for _, w in fields)
        if total != width:
            raise ValueError(
                f"field widths sum to {total}, expected word width {width}"
            )
        self.width = width
        self._fields: List[_Field] = []
        shift = width
        for name, w in fields:
            if w <= 0:
                raise ValueError(f"field {name!r} has non-positive width {w}")
            shift -= w
            self._fields.append(_Field(name, w, shift))
        self._by_name: Dict[str, _Field] = {f.name: f for f in self._fields}
        if len(self._by_name) != len(self._fields):
            raise ValueError("duplicate field names")

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self._fields)

    def capacity(self, name: str) -> int:
        """Number of distinct values field ``name`` can hold."""
        return 1 << self._by_name[name].width

    def pack(self, **values: int) -> int:
        """Pack named field values into a single integer.

        Every declared field must be given; values must fit their width.
        """
        if set(values) != set(self._by_name):
            missing = set(self._by_name) - set(values)
            extra = set(values) - set(self._by_name)
            raise ValueError(f"bad fields: missing={missing}, extra={extra}")
        word = 0
        for f in self._fields:
            v = values[f.name]
            if not 0 <= v <= mask(f.width):
                raise ValueError(
                    f"value {v} does not fit field {f.name!r} ({f.width} bits)"
                )
            word |= v << f.shift
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Decode an integer into its named fields."""
        if not 0 <= word <= mask(self.width):
            raise ValueError(f"word {word:#x} exceeds {self.width} bits")
        return {f.name: (word >> f.shift) & mask(f.width) for f in self._fields}

    def extract(self, word: int, name: str) -> int:
        """Extract a single field without decoding the rest."""
        shift, field_mask = self.reader(name)
        return (word >> shift) & field_mask

    def reader(self, name: str) -> Tuple[int, int]:
        """``(shift, mask)`` of field ``name``: hot paths bind the pair
        once and decode with ``(word >> shift) & mask`` — no dict, no
        range check (:meth:`unpack` keeps both, for diagnostics)."""
        f = self._by_name[name]
        return f.shift, mask(f.width)

    def replace(self, word: int, **values: int) -> int:
        """Return ``word`` with the given fields overwritten."""
        for name, v in values.items():
            f = self._by_name[name]
            if not 0 <= v <= mask(f.width):
                raise ValueError(
                    f"value {v} does not fit field {name!r} ({f.width} bits)"
                )
            word = (word & ~(mask(f.width) << f.shift)) | (v << f.shift)
        return word


def pack_fields(layout: BitField, **values: int) -> int:
    """Functional alias for :meth:`BitField.pack`."""
    return layout.pack(**values)


def unpack_fields(layout: BitField, word: int) -> Dict[str, int]:
    """Functional alias for :meth:`BitField.unpack`."""
    return layout.unpack(word)
