"""Exhaustive maximum-likelihood (nearest-codeword) decoding.

The reference decoder for the exhaustive analyses: scans all 2^k
codewords and picks the closest in Hamming distance.  Ties flag the word
``detected_uncorrectable`` and resolve to the smallest message index, so
decoding regions are deterministic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.backends import resolve_backend
from repro.coding.decoders.base import BatchDecodeResult, DecodeResult, Decoder
from repro.gf2.bitpack import pack_rows


class MaximumLikelihoodDecoder(Decoder):
    """Brute-force nearest-codeword decoder (reference implementation)."""

    strategy_name = "ml"

    @cached_property
    def _packed_codebook(self) -> np.ndarray:
        """All 2^k codewords bit-packed once per decoder instance."""
        return pack_rows(self.code.all_codewords)

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Exhaustive nearest-codeword decode of one word.

        Scans all 2^k codewords for the minimum Hamming distance;
        distance ties raise ``detected_uncorrectable`` and resolve to
        the smallest message index, so the reference is deterministic.
        """
        word = self._check_received(received)
        codewords = self.code.all_codewords
        distances = np.count_nonzero(codewords != word[None, :], axis=1)
        best = int(distances.min())
        candidates = np.nonzero(distances == best)[0]
        index = int(candidates[0])
        message = self.code.all_messages[index].copy()
        codeword = codewords[index].copy()
        return DecodeResult(
            message=message,
            codeword=codeword,
            corrected_errors=best,
            detected_uncorrectable=len(candidates) > 1,
        )

    def _decode_kernel(self, words: np.ndarray) -> BatchDecodeResult:
        """Vectorised nearest-codeword search over the whole batch.

        Bit-identical to scalar :meth:`decode` per row.  Received words
        and the codebook are bit-packed so the whole ``(batch, 2^k)``
        distance matrix is XOR + popcount on ``uint64`` words; distance
        ties keep the smallest message index and raise
        ``detected_uncorrectable``.
        """
        indices, best, ties = resolve_backend(self.backend).nearest_codeword(
            pack_rows(words, backend=self.backend), self._packed_codebook
        )
        return BatchDecodeResult(
            messages=self.code.all_messages[indices].copy(),
            codewords=self.code.all_codewords[indices].copy(),
            corrected_errors=best.astype(np.int64),
            detected_uncorrectable=ties,
        )
