"""PackedArray: layout exactness and random-operation equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.packed import PackedArray


class TestBasics:
    def test_byte_size_28bit(self):
        """Two 28-bit ELL(2,20) registers pack into exactly 7 bytes."""
        assert PackedArray(28, 2).byte_size == 7

    def test_byte_size_6bit_hll(self):
        assert PackedArray(6, 2048).byte_size == 1536

    def test_byte_size_3bit(self):
        assert PackedArray(3, 2048).byte_size == 768

    def test_empty(self):
        array = PackedArray(13, 0)
        assert len(array) == 0
        assert array.to_bytes() == b""

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            PackedArray(0, 4)
        with pytest.raises(ValueError):
            PackedArray(129, 4)

    def test_wide_registers_for_ell_0_64(self):
        """ELL(0, 64) needs 70-bit registers (Sec. 2.5, PCSA-equivalent)."""
        array = PackedArray(70, 3)
        array[1] = (1 << 70) - 1
        assert array[0] == 0
        assert array[1] == (1 << 70) - 1
        assert array.byte_size == (70 * 3 + 7) // 8

    def test_rejects_value_overflow(self):
        array = PackedArray(4, 4)
        with pytest.raises(ValueError):
            array[0] = 16

    def test_rejects_negative_value(self):
        array = PackedArray(4, 4)
        with pytest.raises(ValueError):
            array[0] = -1

    def test_index_error(self):
        array = PackedArray(4, 4)
        with pytest.raises(IndexError):
            array[4]

    def test_negative_index(self):
        array = PackedArray(8, 4)
        array[-1] = 77
        assert array[3] == 77

    def test_msb_first_layout(self):
        array = PackedArray(4, 2)
        array[0] = 0xA
        array[1] = 0x5
        assert array.to_bytes() == b"\xa5"

    def test_straddling_byte_boundary(self):
        array = PackedArray(12, 2)
        array[0] = 0xABC
        array[1] = 0xDEF
        assert array.to_bytes() == bytes([0xAB, 0xCD, 0xEF])

    def test_repr(self):
        assert "width=6" in repr(PackedArray(6, 8))


class TestRoundtrips:
    @given(
        width=st.integers(1, 64),
        values=st.lists(st.integers(min_value=0), min_size=0, max_size=40),
    )
    @settings(max_examples=120)
    def test_set_get_equivalence(self, width, values):
        values = [v & ((1 << width) - 1) for v in values]
        array = PackedArray(width, len(values))
        for i, value in enumerate(values):
            array[i] = value
        assert list(array) == values
        assert array.to_list() == values

    @given(
        width=st.integers(1, 64),
        values=st.lists(st.integers(min_value=0), min_size=1, max_size=40),
    )
    @settings(max_examples=120)
    def test_from_values_to_bytes_roundtrip(self, width, values):
        values = [v & ((1 << width) - 1) for v in values]
        array = PackedArray.from_values(width, values)
        restored = PackedArray.from_bytes(width, len(values), array.to_bytes())
        assert restored == array
        assert restored.to_list() == values

    @given(st.data())
    @settings(max_examples=60)
    def test_random_writes_match_reference_list(self, data):
        width = data.draw(st.integers(1, 33))
        count = data.draw(st.integers(1, 30))
        array = PackedArray(width, count)
        reference = [0] * count
        for _ in range(data.draw(st.integers(0, 50))):
            index = data.draw(st.integers(0, count - 1))
            value = data.draw(st.integers(0, (1 << width) - 1))
            array[index] = value
            reference[index] = value
        assert list(array) == reference

    def test_from_bytes_length_validation(self):
        with pytest.raises(ValueError):
            PackedArray.from_bytes(6, 4, b"\x00" * 10)

    def test_from_values_overflow_validation(self):
        with pytest.raises(ValueError):
            PackedArray.from_values(4, [16])

    def test_final_byte_zero_padded(self):
        array = PackedArray.from_values(3, [7])
        assert array.to_bytes() == bytes([0b11100000])


# -- NumPy codec against the big-integer reference ------------------------------


def reference_from_values(width, values):
    """The big-integer packer: one Python shift-or per value."""
    count = len(values)
    size = (width * count + 7) // 8
    if count == 0:
        return b""
    window = 0
    for value in values:
        window = (window << width) | value
    window <<= size * 8 - count * width
    return window.to_bytes(size, "big")


def reference_to_list(width, count, data):
    """The big-integer unpacker: one shift-and-mask per register."""
    if count == 0:
        return []
    window = int.from_bytes(data, "big")
    total_bits = len(data) * 8
    mask = (1 << width) - 1
    return [(window >> (total_bits - (i + 1) * width)) & mask for i in range(count)]


CODEC_COUNTS = (0, 1, 2, 7, 8, 1023, 1024)


class TestCodecMatchesReference:
    @pytest.mark.parametrize("width", range(1, 129))
    def test_bytes_and_roundtrip(self, width):
        rng = random.Random(width)
        for count in CODEC_COUNTS:
            values = [rng.getrandbits(width) for _ in range(count)]
            if count >= 2:
                values[0] = (1 << width) - 1  # every bit set
                values[-1] = 0
            data = PackedArray.from_values(width, values).to_bytes()
            assert data == reference_from_values(width, values), count
            restored = PackedArray.from_bytes(width, count, data).to_list()
            assert restored == reference_to_list(width, count, data) == values, count

    @pytest.mark.parametrize("width", [1, 7, 28, 63, 64, 70, 128])
    @pytest.mark.parametrize("bad", ["negative", "oversized", "huge", "huge_negative"])
    def test_out_of_range_value_is_named(self, width, bad):
        value = {
            "negative": -1,
            "oversized": 1 << width,
            "huge": 1 << 200,
            "huge_negative": -(1 << 200),
        }[bad]
        with pytest.raises(ValueError, match=f"value {value} does not fit in {width} bits"):
            PackedArray.from_values(width, [0, 1, value, 2])

    def test_from_registers_names_the_bad_register(self):
        from repro.core.exaloglog import ExaLogLog
        from repro.core.params import make_params

        params = make_params(2, 20, 4)
        maximum = params.max_register_value
        for bad in (-1, maximum + 1, 1 << 100):
            registers = [0] * params.m
            registers[5] = bad
            with pytest.raises(ValueError, match=f"register value {bad} out of range"):
                ExaLogLog.from_registers(params, registers)
        registers = [maximum] * params.m
        assert ExaLogLog.from_registers(params, registers).registers == tuple(registers)


def _sketches_sharing_packed_array():
    from repro.baselines.hll_compact4 import HllCompact4
    from repro.baselines.hyperloglog import HyperLogLog, MartingaleHyperLogLog
    from repro.baselines.hyperlogloglog import HyperLogLogLog
    from repro.baselines.pcsa import PCSA
    from repro.baselines.spikesketch import SpikeSketch
    from repro.core.martingale import MartingaleExaLogLog

    return [
        ("HLL", lambda: HyperLogLog(10)),
        ("HLL8", lambda: HyperLogLog(8, register_width=8)),
        ("MartingaleHLL", lambda: MartingaleHyperLogLog(8)),
        ("HLLL", lambda: HyperLogLogLog(10)),
        ("compact4", lambda: HllCompact4(10)),
        ("PCSA", lambda: PCSA(8)),
        ("SpikeSketch", lambda: SpikeSketch(64)),
        ("MartingaleELL", lambda: MartingaleExaLogLog(2, 20, 6)),
    ]


@pytest.mark.parametrize(
    "factory",
    [factory for _, factory in _sketches_sharing_packed_array()],
    ids=[name for name, _ in _sketches_sharing_packed_array()],
)
def test_sketch_from_bytes_roundtrip(factory):
    rng = random.Random(7)
    sketch = factory()
    for _ in range(3000):
        sketch.add_hash(rng.getrandbits(64))
    data = sketch.to_bytes()
    restored = type(sketch).from_bytes(data)
    assert restored.to_bytes() == data
    assert restored.estimate() == sketch.estimate()
