"""The kernel surface every compute backend implements.

A :class:`KernelBackend` bundles the repo's hot inner kernels — the
bit-packed GF(2) primitives of :mod:`repro.gf2.bitpack`, the fused
hard-decision decode searches (nearest codeword, coset-leader lookup)
and the float soft-decision searches (codebook correlation, Hadamard
spectrum).  The base class *is* the NumPy reference implementation:
every method body here is the exact vectorised code the decoders ran
before backends existed, so ``numpy`` is correct by construction and
accelerated backends (:mod:`repro.backends.native_backend`,
:mod:`repro.backends.numba_backend`) override only what they speed up,
inheriting the reference for everything else.

The contract is **bit-identity**: for any input, every kernel must
return arrays exactly equal (values *and* semantics — first-occurrence
argmax/argmin, tie counting, float reduction order) to this reference.
Integer kernels are exact by nature; the float kernels are only
bit-identical if the backend reproduces NumPy's pairwise summation
order, which is what :func:`repro.backends.registry.backend_ready`
verifies before a backend is ever selected.

Kernel methods assume *validated, canonical* inputs (correct dtypes,
2-D shapes, 0/1 bit arrays): validation stays in the public wrappers
(:mod:`repro.gf2.bitpack`, the decoder entry points), so dispatch adds
no per-call overhead.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

#: Number of logical bits carried per packed word (mirrors
#: :data:`repro.gf2.bitpack.WORD_BITS`; duplicated here so the backend
#: layer never imports the layer that dispatches to it).
WORD_BITS = 64


class KernelBackend:
    """Reference (NumPy) implementation of the pluggable kernel surface.

    Subclasses override :attr:`name`, :attr:`priority` and whichever
    kernels they accelerate.  ``priority`` orders the capability probe:
    the highest-priority backend that imports, compiles and passes the
    bit-identity self-check becomes the process default.
    """

    #: Registry key (``backend=`` argument, ``REPRO_BACKEND`` value).
    name: str = "numpy"
    #: Auto-selection rank; higher wins when several backends are usable.
    priority: int = 10
    #: One-line description shown by ``repro backends``.
    summary: str = "vectorised NumPy bit-slicing (always available)"

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def availability(self) -> Tuple[bool, str]:
        """Whether this backend can run here, with a reason when not.

        Called once per process by the capability probe; expensive
        set-up (imports, JIT warm-up, C compilation) belongs here so a
        ``(True, "")`` answer means the kernels are ready to call.
        """
        return True, ""

    # ------------------------------------------------------------------
    # Bit-packing kernels (integer-exact)
    # ------------------------------------------------------------------
    def pack_rows(self, bits: np.ndarray) -> np.ndarray:
        """Pack a validated ``(rows, n)`` uint8 0/1 array along its last axis.

        Returns ``(rows, ceil(n / 64))`` uint64 words, LSB-first: bit
        ``t`` of word ``w`` is column ``64 * w + t``.
        """
        rows, n = bits.shape
        words = -(-n // WORD_BITS)
        packed = np.zeros((rows, words), dtype=np.uint64)
        if n:
            as_bytes = packed.view(np.uint8)
            as_bytes[:, : -(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
        return packed

    def pack_cols(self, bits: np.ndarray) -> np.ndarray:
        """Bit-slice a validated ``(batch, n)`` uint8 array: pack the batch axis.

        Returns ``(n, ceil(batch / 64))`` uint64 words; row ``j`` is the
        bit-slice of column ``j`` across the whole batch.
        """
        return self.pack_rows(np.ascontiguousarray(bits.T))

    def popcount(
        self, packed: np.ndarray, axis: Union[int, None] = -1
    ) -> Union[np.ndarray, np.int64]:
        """Population count of uint64 words, summed along ``axis``."""
        return np.bitwise_count(np.asarray(packed, dtype=np.uint64)).sum(
            axis=axis, dtype=np.int64
        )

    def hamming_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hamming distance between packed rows (broadcasting allowed)."""
        return self.popcount(np.bitwise_xor(a, b), axis=-1)

    def gf2_matmul(
        self, slices: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Bit-sliced GF(2) product against a precompiled column structure.

        Parameters
        ----------
        slices : numpy.ndarray
            ``(k, words)`` uint64 input bit-slices.
        indptr, indices : numpy.ndarray
            CSR-style column supports of the fixed ``(k, n)`` matrix:
            column ``j`` of the output is the XOR of input slices
            ``indices[indptr[j]:indptr[j + 1]]``.

        Returns
        -------
        numpy.ndarray
            ``(len(indptr) - 1, words)`` output bit-slices.
        """
        n_out = indptr.size - 1
        out = np.zeros((n_out, slices.shape[1]), dtype=np.uint64)
        for j in range(n_out):
            lo, hi = indptr[j], indptr[j + 1]
            if hi - lo == 1:
                out[j] = slices[indices[lo]]
            elif hi > lo:
                np.bitwise_xor.reduce(slices[indices[lo:hi]], axis=0, out=out[j])
        return out

    # ------------------------------------------------------------------
    # Fused hard-decision decode kernels (integer-exact)
    # ------------------------------------------------------------------
    def nearest_codeword(
        self, packed_words: np.ndarray, packed_codebook: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exhaustive minimum-Hamming-distance search over a codebook.

        Parameters
        ----------
        packed_words : numpy.ndarray
            ``(batch, words)`` uint64 bit-packed received words.
        packed_codebook : numpy.ndarray
            ``(n_codes, words)`` uint64 bit-packed codebook
            (``n_codes >= 1``).

        Returns
        -------
        tuple
            ``(indices, distances, ties)``: per row the *first* index
            attaining the minimum distance, that distance (int64), and
            whether more than one codeword attained it.
        """
        if len(packed_words) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), np.zeros(0, dtype=bool)
        distances = self.hamming_distance(
            packed_words[:, None, :], packed_codebook[None, :, :]
        )
        best = distances.min(axis=1)
        indices = distances.argmin(axis=1)
        ties = (distances == best[:, None]).sum(axis=1) > 1
        return indices, best.astype(np.int64), ties

    def syndrome_decode(
        self,
        words: np.ndarray,
        parity: np.ndarray,
        leader_table: np.ndarray,
        leader_weight: np.ndarray,
        max_weight: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused coset-leader decoding: syndrome, table lookup, correction.

        Parameters
        ----------
        words : numpy.ndarray
            ``(batch, n)`` uint8 0/1 received words.
        parity : numpy.ndarray
            ``(r, n)`` uint8 parity-check matrix ``H``.
        leader_table : numpy.ndarray
            ``(2^r, n)`` uint8 coset leaders indexed by the MSB-first
            integer value of the syndrome ``H w^T``.
        leader_weight : numpy.ndarray
            ``(2^r,)`` int64 Hamming weight of each leader.
        max_weight : int
            Bounded-distance ceiling; leaders heavier than this flag the
            word instead of correcting.  ``-1`` means complete decoding.

        Returns
        -------
        tuple
            ``(codewords, corrected, flagged)``: corrected words
            (flagged rows carry the received word unchanged), per-row
            int64 correction counts (0 for flagged rows) and the
            detected-uncorrectable flags.
        """
        r = parity.shape[0]
        syndromes = (words.astype(np.int64) @ parity.T.astype(np.int64)) & 1
        weights = 1 << np.arange(r - 1, -1, -1, dtype=np.int64)
        table_index = syndromes @ weights
        leaders = leader_table[table_index]
        corrected = leader_weight[table_index].copy()
        flagged = np.zeros(words.shape[0], dtype=bool)
        if max_weight >= 0:
            heavy = corrected > max_weight
            leaders = leaders.copy()
            leaders[heavy] = 0  # flagged words fall back to raw extraction
            corrected[heavy] = 0
            flagged = heavy
        return words ^ leaders, corrected, flagged

    # ------------------------------------------------------------------
    # Float soft-decision decode kernels (pairwise-sum order matters)
    # ------------------------------------------------------------------
    def correlation_decode(
        self, values: np.ndarray, signs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exhaustive codebook correlation (soft-ML) argmax with tie flags.

        Parameters
        ----------
        values : numpy.ndarray
            ``(batch, n)`` float64 BPSK confidences.
        signs : numpy.ndarray
            ``(n_codes, n)`` float64 ±1 codebook rows (``+1`` = bit 0).

        Returns
        -------
        tuple
            ``(best_index, ties)``: per row the first index of the
            maximum correlation score and whether the maximum was
            attained more than once.

        Notes
        -----
        The score is an elementwise product + axis sum (not BLAS) so the
        float reduction order is NumPy's pairwise scheme for every batch
        size — accelerated backends must replicate that order exactly.
        """
        scores = (values[:, None, :] * signs[None, :, :]).sum(axis=2)
        best_index = scores.argmax(axis=1)
        best = scores[np.arange(len(values)), best_index]
        ties = (scores == best[:, None]).sum(axis=1) > 1
        return best_index, ties

    def soft_spectrum_decode(
        self, values: np.ndarray, hadamard: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hadamard-spectrum argmax-|T| search for RM(1, m) soft decoding.

        Parameters
        ----------
        values : numpy.ndarray
            ``(batch, n)`` float64 BPSK confidences, ``n = 2^m``.
        hadamard : numpy.ndarray
            ``(n, n)`` float64 ±1 Hadamard matrix.

        Returns
        -------
        tuple
            ``(best_index, best_value, ties)``: per row the first index
            of the largest-magnitude spectrum coefficient, the (signed)
            coefficient itself, and the tie flag (more than one
            coefficient at the maximum magnitude, or an all-zero
            spectrum).
        """
        batch = values.shape[0]
        spectra = (values[:, None, :] * hadamard[None, :, :]).sum(axis=2)
        magnitudes = np.abs(spectra)
        best = magnitudes.max(axis=1, initial=0.0)
        best_index = (
            magnitudes.argmax(axis=1) if batch else np.zeros(0, dtype=np.int64)
        )
        best_value = spectra[np.arange(batch), best_index]
        ties = ((magnitudes == best[:, None]).sum(axis=1) > 1) | (best == 0.0)
        return best_index, best_value, ties

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} priority={self.priority}>"


class NumpyBackend(KernelBackend):
    """The always-available reference backend (the base class verbatim)."""

    name = "numpy"
    priority = 10
    summary = "vectorised NumPy bit-slicing (always available)"
