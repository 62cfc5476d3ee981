"""Response tables: hard decode and encode of short codes as one row gather.

Every decoder of a code with ``n <= TABLE_BITS`` answers
``decode_batch_detailed``/``decode_batch`` by bit-packing each received
word into a row index and gathering from four read-only arrays, built at
construction by running the decoder's own ``_decode_kernel`` over all
``2^n`` words.  Codes with ``k <= TABLE_BITS`` encode the same way from
their codebook.  The tables only memoize the kernels, so these tests pin
them to the kernels exactly — values, shapes and dtypes — over every
registry code, every decoder strategy that accepts it and every available
kernel backend, and check the error surface and the untabled path of
long composite codes.
"""

import numpy as np
import pytest

from repro.backends import available_backends, resolve_backend, use_backend
from repro.coding import get_code, get_decoder
from repro.coding.linear import TABLE_BITS
from repro.coding.registry import available_codes, available_decoders
from repro.coding.repetition import repetition_code
from repro.coding.decoders import SyndromeDecoder
from repro.errors import DimensionError, NotBinaryError
from repro.gf2.vectors import all_binary_vectors

FIELDS = ("messages", "codewords", "corrected_errors", "detected_uncorrectable")

#: Registry codes plus a composite short enough to be tabled itself.
TABLED_CODES = available_codes() + ["interleaved:hamming74:1"]

BATCH_SIZES = [0, 1, 16, 4096]


def _accepts(code_name: str, strategy: str) -> bool:
    try:
        get_decoder(get_code(code_name), strategy)
    except (ValueError, TypeError):
        return False
    return True


#: Every (code, strategy) pair whose decoder constructor accepts the code.
PAIRS = [
    (code_name, strategy)
    for code_name in TABLED_CODES
    for strategy in available_decoders()
    if _accepts(code_name, strategy)
]


@pytest.fixture(params=available_backends())
def backend(request):
    return request.param


def _decoder(code_name, strategy, backend):
    return get_decoder(get_code(code_name), strategy, backend=backend)


def _assert_identical(result, expected):
    for field in FIELDS:
        got, want = getattr(result, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), field


def _words(n, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (batch, n), dtype=np.uint8)


def test_pairs_cover_every_strategy_family():
    strategies = {strategy for _, strategy in PAIRS}
    assert {"syndrome", "sec-ded", "fht", "soft-fht", "reed-majority", "ml",
            "interleaved"} <= strategies


@pytest.mark.parametrize("code_name,strategy", PAIRS)
class TestDecodeTable:
    def test_built_at_construction(self, code_name, strategy, backend):
        decoder = _decoder(code_name, strategy, backend)
        assert decoder._table is not None
        assert len(decoder._table) == 1 << decoder.code.n

    def test_equals_kernel_on_every_word(self, code_name, strategy, backend):
        decoder = _decoder(code_name, strategy, backend)
        words = all_binary_vectors(decoder.code.n)
        expected = decoder._decode_kernel(words)
        _assert_identical(decoder.decode_batch_detailed(words), expected)
        messages = decoder.decode_batch(words)
        assert messages.dtype == expected.messages.dtype
        assert np.array_equal(messages, expected.messages)

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_equals_kernel_at_batch_size(self, code_name, strategy, backend, batch):
        decoder = _decoder(code_name, strategy, backend)
        words = _words(decoder.code.n, batch, seed=batch)
        expected = decoder._decode_kernel(words)
        _assert_identical(decoder.decode_batch_detailed(words), expected)
        assert np.array_equal(decoder.decode_batch(words), expected.messages)

    def test_table_is_read_only_and_never_aliased(self, code_name, strategy, backend):
        decoder = _decoder(code_name, strategy, backend)
        result = decoder.decode_batch_detailed(_words(decoder.code.n, 16))
        for field in FIELDS:
            column = getattr(decoder._table, field)
            assert not column.flags.writeable, field
            with pytest.raises(ValueError):
                column[0] = column[1]
            answer = getattr(result, field)
            assert answer.flags.writeable, field
            assert not np.shares_memory(answer, column), field

    def test_errors_preserved(self, code_name, strategy, backend):
        decoder = _decoder(code_name, strategy, backend)
        n = decoder.code.n
        for bad_shape in [(4, n + 1), (n,), (2, 2, n)]:
            with pytest.raises(DimensionError):
                decoder.decode_batch_detailed(np.zeros(bad_shape, dtype=np.uint8))
            with pytest.raises(DimensionError):
                decoder.decode_batch(np.zeros(bad_shape, dtype=np.uint8))
        words = _words(n, 4)
        words[2, 0] = 2
        with pytest.raises(NotBinaryError):
            decoder.decode_batch_detailed(words)
        with pytest.raises(NotBinaryError):
            decoder.decode_batch(words)

    def test_index_is_one_backend_kernel_call(self, code_name, strategy, backend,
                                              monkeypatch):
        decoder = _decoder(code_name, strategy, backend)
        kernels = resolve_backend(backend)
        calls = []
        original = kernels.pack_rows

        def spy(bits):
            calls.append(bits.shape)
            return original(bits)

        monkeypatch.setattr(kernels, "pack_rows", spy)
        decoder.decode_batch_detailed(_words(decoder.code.n, 16))
        assert calls == [(16, decoder.code.n)]


@pytest.mark.parametrize("code_name", available_codes() + ["interleaved:hamming74:3"])
def test_encode_table_equals_packed_encode(code_name, backend):
    with use_backend(backend):
        code = get_code(code_name)
        assert code.k <= TABLE_BITS
        messages = all_binary_vectors(code.k)
        expected = code._packed_encode(messages)
        encoded = code.encode_batch(messages)
        assert encoded.dtype == expected.dtype == np.uint8
        assert np.array_equal(encoded, expected)
        assert np.array_equal(code.all_codewords, expected)
        assert code.encode_batch(np.zeros((0, code.k), dtype=np.uint8)).shape == (
            0, code.n)
        assert not code._encode_table.flags.writeable
        assert not np.shares_memory(encoded, code._encode_table)
        with pytest.raises(DimensionError):
            code.encode_batch(np.zeros((2, code.k + 1), dtype=np.uint8))
        with pytest.raises(NotBinaryError):
            code.encode_batch(np.full((2, code.k), 3, dtype=np.uint8))


def test_table_bits_is_the_boundary():
    assert SyndromeDecoder(repetition_code(TABLE_BITS))._table is not None
    assert SyndromeDecoder(repetition_code(TABLE_BITS + 1))._table is None


def test_long_composite_takes_the_kernel_path(monkeypatch):
    decoder = get_decoder(get_code("interleaved:hamming84:16"))
    assert decoder.code.n > TABLE_BITS
    assert decoder._table is None
    assert decoder.base_decoder._table is not None
    words = _words(decoder.code.n, 16)
    expected = decoder._decode_kernel(words)
    calls = []
    kernel = decoder._decode_kernel

    def counting_kernel(batch):
        calls.append(len(batch))
        return kernel(batch)

    monkeypatch.setattr(decoder, "_decode_kernel", counting_kernel)
    _assert_identical(decoder.decode_batch_detailed(words), expected)
    assert np.array_equal(decoder.decode_batch(words), expected.messages)
    assert calls == [16, 16]
