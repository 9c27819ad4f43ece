"""Unit + property tests for the bit-field packing helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import BitField, mask


class TestMask:
    def test_small_masks(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(4) == 0xF
        assert mask(32) == 0xFFFFFFFF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBitFieldConstruction:
    def test_widths_must_sum(self):
        with pytest.raises(ValueError, match="field widths sum"):
            BitField(32, [("a", 4), ("b", 4)])

    def test_zero_width_field_rejected(self):
        with pytest.raises(ValueError):
            BitField(8, [("a", 8), ("b", 0)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BitField(8, [("a", 4), ("a", 4)])

    def test_field_names_in_order(self):
        bf = BitField(16, [("hi", 8), ("lo", 8)])
        assert bf.field_names == ("hi", "lo")

    def test_capacity(self):
        bf = BitField(32, [("kind", 3), ("index", 29)])
        assert bf.capacity("kind") == 8
        assert bf.capacity("index") == 1 << 29


class TestPackUnpack:
    def setup_method(self):
        self.bf = BitField(32, [("category", 2), ("kind", 4), ("payload", 26)])

    def test_roundtrip(self):
        w = self.bf.pack(category=2, kind=5, payload=12345)
        assert self.bf.unpack(w) == {
            "category": 2, "kind": 5, "payload": 12345,
        }

    def test_msb_first_layout(self):
        w = self.bf.pack(category=1, kind=0, payload=0)
        assert w == 1 << 30

    def test_extract_single_field(self):
        w = self.bf.pack(category=2, kind=3, payload=99)
        assert self.bf.extract(w, "kind") == 3
        assert self.bf.extract(w, "payload") == 99

    def test_readers_agree_with_unpack(self):
        w = self.bf.pack(category=2, kind=3, payload=99)
        assert self.bf.reader("kind") == (26, 0xF)
        for name, value in self.bf.unpack(w).items():
            shift, field_mask = self.bf.reader(name)
            assert (w >> shift) & field_mask == value

    def test_replace(self):
        w = self.bf.pack(category=1, kind=2, payload=7)
        w2 = self.bf.replace(w, payload=8)
        assert self.bf.unpack(w2) == {"category": 1, "kind": 2, "payload": 8}

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            self.bf.pack(category=4, kind=0, payload=0)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="bad fields"):
            self.bf.pack(category=1, kind=0)

    def test_extra_field_rejected(self):
        with pytest.raises(ValueError, match="bad fields"):
            self.bf.pack(category=1, kind=0, payload=0, zap=1)

    def test_unpack_out_of_range(self):
        with pytest.raises(ValueError):
            self.bf.unpack(1 << 32)
        with pytest.raises(ValueError):
            self.bf.unpack(-1)

    def test_replace_rejects_oversized(self):
        w = self.bf.pack(category=0, kind=0, payload=0)
        with pytest.raises(ValueError):
            self.bf.replace(w, kind=16)


@given(
    category=st.integers(0, 3),
    kind=st.integers(0, 15),
    payload=st.integers(0, (1 << 26) - 1),
)
def test_property_roundtrip(category, kind, payload):
    bf = BitField(32, [("category", 2), ("kind", 4), ("payload", 26)])
    w = bf.pack(category=category, kind=kind, payload=payload)
    assert 0 <= w < (1 << 32)
    assert bf.unpack(w) == {
        "category": category, "kind": kind, "payload": payload,
    }


@given(st.integers(0, (1 << 32) - 1))
def test_property_unpack_pack_identity(word):
    bf = BitField(32, [("a", 7), ("b", 11), ("c", 14)])
    assert bf.pack(**bf.unpack(word)) == word
