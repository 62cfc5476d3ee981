"""Decoder interface and result record."""

from __future__ import annotations

import inspect
from abc import ABC, ABCMeta, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.backends import resolve_backend
from repro.coding.linear import TABLE_BITS, LinearBlockCode
from repro.errors import DimensionError
from repro.gf2.bitpack import pack_rows, packed_hamming_distance, packed_row_order
from repro.gf2.vectors import as_bit_array


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one received word.

    Attributes
    ----------
    message:
        The decoder's best estimate of the k message bits.  Always
        populated — when the pattern is detected-uncorrectable the
        decoder applies its fallback policy (see each decoder's docs)
        rather than returning nothing, because the paper's Fig. 5 counts
        *erroneous messages*, which requires a message estimate.
    codeword:
        The codeword estimate aligned with ``message`` (``None`` when the
        decoder only re-extracted message bits without committing to a
        codeword).
    corrected_errors:
        Number of bit corrections the decoder applied.
    detected_uncorrectable:
        True when the decoder knows the word is in error but could not
        correct it — the paper's "error flag" output in Fig. 1.
    """

    message: np.ndarray
    codeword: Optional[np.ndarray]
    corrected_errors: int
    detected_uncorrectable: bool

    @property
    def error_flag(self) -> bool:
        """Fig. 1 'error flags' line: any detected anomaly."""
        return self.detected_uncorrectable or self.corrected_errors > 0


@dataclass(frozen=True)
class BatchDecodeResult:
    """Vectorised outcome of decoding a whole batch of received words.

    The batched counterpart of :class:`DecodeResult`: one array per
    field, aligned row-for-row with the input batch and bit-identical to
    running the scalar decoder word by word.

    Attributes
    ----------
    messages : numpy.ndarray
        ``(batch, k)`` message estimates (always populated — flagged
        rows hold the decoder's fallback estimate, matching the scalar
        policy).
    codewords : numpy.ndarray
        ``(batch, n)`` codeword estimates.  Rows whose scalar decode
        would return ``codeword=None`` (detected-uncorrectable with no
        commitment) hold the *received* word unchanged; check
        :attr:`detected_uncorrectable` before trusting a row.
    corrected_errors : numpy.ndarray
        ``(batch,)`` number of bit corrections applied per word.
    detected_uncorrectable : numpy.ndarray
        ``(batch,)`` boolean error flags (the paper's Fig. 1 "error
        flags" line, vectorised).
    """

    messages: np.ndarray
    codewords: np.ndarray
    corrected_errors: np.ndarray
    detected_uncorrectable: np.ndarray

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def error_flags(self) -> np.ndarray:
        """Per-word Fig. 1 'error flags': any detected anomaly."""
        return self.detected_uncorrectable | (self.corrected_errors > 0)

    def __getitem__(self, index: int) -> DecodeResult:
        """Scalar view of row ``index`` as a :class:`DecodeResult`."""
        return DecodeResult(
            message=self.messages[index].copy(),
            codeword=self.codewords[index].copy(),
            corrected_errors=int(self.corrected_errors[index]),
            detected_uncorrectable=bool(self.detected_uncorrectable[index]),
        )


#: Largest code dimension the exhaustive correlation soft decoder will
#: enumerate (2^k codeword scores per word; the paper's codes have k=4).
SOFT_CODEBOOK_K_LIMIT = 16


class _TabledDecoderMeta(ABCMeta):
    """Builds each decoder's response table once its constructor returns.

    Subclass constructors set up the lookup state their kernels need
    *after* ``super().__init__``, so the table — the finished kernel run
    over every received word — can only be computed once the outermost
    ``__init__`` is done.
    """

    def __call__(cls, *args, **kwargs):
        decoder = super().__call__(*args, **kwargs)
        decoder._table = decoder._build_table()
        return decoder

    @property
    def __signature__(cls) -> inspect.Signature:
        # Report the constructor's parameters, not those of __call__.
        init = inspect.signature(cls.__init__)
        return init.replace(parameters=list(init.parameters.values())[1:])


class Decoder(ABC, metaclass=_TabledDecoderMeta):
    """Base class for decoders of a specific code.

    Every decoder exposes two input domains:

    * **hard** — 0/1 received words (:meth:`decode`,
      :meth:`decode_batch`, :meth:`decode_batch_detailed`);
    * **soft** — real per-bit confidences in the BPSK convention
      (positive = "looks like 0", magnitude = reliability;
      :meth:`decode_soft`, :meth:`decode_soft_batch`,
      :meth:`decode_soft_batch_detailed`).

    The base soft implementation is exhaustive correlation decoding —
    score every codeword against the confidence vector and pick the
    maximum, which *is* maximum-likelihood on an AWGN-style channel —
    so every short code in the registry gets a working soft path for
    free.  Structured codes override it with a faster kernel (RM(1, m)
    uses the Hadamard spectrum, see
    :class:`~repro.coding.decoders.fht.FhtDecoder`).

    Batched hard decoding has one public entry pair,
    :meth:`decode_batch_detailed` and :meth:`decode_batch`, here.  Each
    subclass supplies its vectorised algorithm as :meth:`_decode_kernel`.
    For codes with ``n <=``
    :data:`~repro.coding.linear.TABLE_BITS` the constructor runs that
    kernel once over all ``2^n`` received words, and every later call
    bit-packs its words into row indices and gathers the answers from
    those four read-only arrays: the table memoizes the kernel, so the
    results are the kernel's, bit for bit.  Longer codes call the kernel
    directly.
    """

    #: Short identifier used in reports and the decoder-policy ablation.
    strategy_name: str = "abstract"

    #: Kernel backend this decoder's batched paths dispatch to.  ``None``
    #: (the default) resolves the ambient backend at each call; set a
    #: name (``get_decoder(..., backend="native")``) to pin one.
    backend: Optional[str] = None

    def __init__(self, code: LinearBlockCode):
        self.code = code
        self._codebook_signs: Optional[np.ndarray] = None
        #: Kernel responses to every received word in packed-row order
        #: (``None`` while building it, and for codes longer than
        #: ``TABLE_BITS``).
        self._table: Optional[BatchDecodeResult] = None

    @abstractmethod
    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Decode one received n-bit word."""

    def _build_table(self) -> Optional[BatchDecodeResult]:
        """Run :meth:`_decode_kernel` over all ``2^n`` words, if n is small."""
        if self.code.n > TABLE_BITS:
            return None
        table = self._decode_kernel(packed_row_order(self.code.n))
        for column in (
            table.messages,
            table.codewords,
            table.corrected_errors,
            table.detected_uncorrectable,
        ):
            column.flags.writeable = False
        return table

    def _table_rows(self, words: np.ndarray) -> np.ndarray:
        """Table row of each validated word: its bit-packed value."""
        return pack_rows(words, backend=self.backend)[:, 0]

    def decode_batch(self, received: np.ndarray) -> np.ndarray:
        """Decode a batch of received words into message estimates.

        Parameters
        ----------
        received : numpy.ndarray
            ``(batch, n)`` array of 0/1 received bits.

        Returns
        -------
        numpy.ndarray
            ``(batch, k)`` ``uint8`` message estimates, row ``i``
            decoding ``received[i]``.  Use :meth:`decode_batch_detailed`
            when the error flags or correction counts are also needed.
        """
        words = self._check_received_batch(received)
        if self._table is None:
            return self._decode_kernel(words).messages
        return self._table.messages.take(self._table_rows(words), axis=0)

    def decode_batch_detailed(self, received: np.ndarray) -> BatchDecodeResult:
        """Decode a batch keeping per-word flags and correction counts.

        Parameters
        ----------
        received : numpy.ndarray
            ``(batch, n)`` array of 0/1 received bits.

        Returns
        -------
        BatchDecodeResult
            Per-word messages, codeword estimates, correction counts and
            detected-uncorrectable flags, bit-identical to scalar
            :meth:`decode` calls.  The arrays are fresh copies, never
            views of the decoder's table.
        """
        words = self._check_received_batch(received)
        table = self._table
        if table is None:
            return self._decode_kernel(words)
        rows = self._table_rows(words)
        return BatchDecodeResult(
            messages=table.messages.take(rows, axis=0),
            codewords=table.codewords.take(rows, axis=0),
            corrected_errors=table.corrected_errors.take(rows, axis=0),
            detected_uncorrectable=table.detected_uncorrectable.take(rows, axis=0),
        )

    def _decode_kernel(self, words: np.ndarray) -> BatchDecodeResult:
        """Decode validated ``(batch, n)`` words: the batched algorithm.

        Subclasses override this with a fully vectorised kernel; the
        base implementation loops over :meth:`decode` and is the
        reference the vectorised kernels are tested against.
        """
        batch = words.shape[0]
        messages = np.empty((batch, self.code.k), dtype=np.uint8)
        codewords = np.empty((batch, self.code.n), dtype=np.uint8)
        corrected = np.zeros(batch, dtype=np.int64)
        flagged = np.zeros(batch, dtype=bool)
        for i, word in enumerate(words):
            result = self.decode(word)
            messages[i] = result.message
            codewords[i] = word if result.codeword is None else result.codeword
            corrected[i] = result.corrected_errors
            flagged[i] = result.detected_uncorrectable
        return BatchDecodeResult(
            messages=messages,
            codewords=codewords,
            corrected_errors=corrected,
            detected_uncorrectable=flagged,
        )

    # ------------------------------------------------------------------
    # Soft-decision interface
    # ------------------------------------------------------------------
    def decode_soft(self, confidences: Sequence[float]) -> DecodeResult:
        """Decode one n-vector of real confidences (BPSK convention).

        Delegates to :meth:`decode_soft_batch_detailed` on a one-row
        batch, so scalar and batched soft decoding are identical by
        construction (same kernel, same tie-break).
        """
        values = np.asarray(confidences, dtype=np.float64)
        if values.shape != (self.code.n,):
            raise ValueError(
                f"expected {self.code.n} confidences, got shape {values.shape}"
            )
        return self.decode_soft_batch_detailed(values[None, :])[0]

    def decode_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        """Soft-decode a ``(batch, n)`` confidence array into messages.

        Message-only fast path for hot loops (the soft-gain Monte-Carlo
        sweep): skips the codeword re-encode and correction-count
        bookkeeping that :meth:`decode_soft_batch_detailed` adds,
        mirroring the hard :meth:`decode_batch` / detailed split.

        Parameters
        ----------
        confidences : numpy.ndarray
            ``(batch, n)`` real confidences; positive means "looks like
            0", magnitude is the reliability (LLR-like).

        Returns
        -------
        numpy.ndarray
            ``(batch, k)`` ``uint8`` message estimates.  Use
            :meth:`decode_soft_batch_detailed` when the error flags or
            correction counts are also needed.
        """
        values = self._check_soft_batch(confidences)
        best_index, _ = resolve_backend(self.backend).correlation_decode(
            values, self._soft_codebook_signs()
        )
        return self.code.all_messages[best_index]

    def decode_soft_batch_detailed(self, confidences: np.ndarray) -> BatchDecodeResult:
        """Vectorised correlation (soft-ML) decoding of a whole batch.

        Scores all 2^k codewords against every row — exact maximum
        likelihood for any memoryless symmetric soft channel — and
        breaks score ties deterministically by the smallest message
        index (ties also raise ``detected_uncorrectable``, mirroring
        the hard decoders' ambiguity flag).  ``corrected_errors``
        counts where the chosen codeword differs from the sign-sliced
        input, aligning soft telemetry with the hard path's.

        Parameters
        ----------
        confidences : numpy.ndarray
            ``(batch, n)`` real confidence array.

        Returns
        -------
        BatchDecodeResult
            Row-aligned messages, codeword commitments, correction
            counts and tie flags.
        """
        values = self._check_soft_batch(confidences)
        best_index, ties = resolve_backend(self.backend).correlation_decode(
            values, self._soft_codebook_signs()
        )
        messages = self.code.all_messages[best_index]
        codewords = self.code.all_codewords[best_index]
        hard = (values < 0).astype(np.uint8)
        corrected = packed_hamming_distance(
            pack_rows(codewords, backend=self.backend),
            pack_rows(hard, backend=self.backend),
            backend=self.backend,
        )
        return BatchDecodeResult(
            messages=messages,
            codewords=codewords,
            corrected_errors=corrected.astype(np.int64),
            detected_uncorrectable=ties,
        )

    def _correlation_scores(self, values: np.ndarray) -> np.ndarray:
        """``(batch, 2^k)`` correlation of each row with every codeword.

        Elementwise product + axis sum (not BLAS matmul) keeps the
        floating-point reduction order identical for every batch size,
        so 1-row and 4096-row calls are bit-identical.
        """
        signs = self._soft_codebook_signs()
        return (values[:, None, :] * signs[None, :, :]).sum(axis=2)

    def _soft_codebook_signs(self) -> np.ndarray:
        """±1 rows of the codebook (``+1`` encodes bit 0), cached."""
        if self._codebook_signs is None:
            if self.code.k > SOFT_CODEBOOK_K_LIMIT:
                raise NotImplementedError(
                    f"correlation soft decoding enumerates 2^k codewords; "
                    f"k={self.code.k} exceeds the limit of "
                    f"{SOFT_CODEBOOK_K_LIMIT} — override decode_soft_batch_detailed"
                )
            self._codebook_signs = 1.0 - 2.0 * self.code.all_codewords.astype(
                np.float64
            )
        return self._codebook_signs

    def _check_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        values = np.asarray(confidences, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.code.n:
            raise ValueError(
                f"expected (batch, {self.code.n}) confidences, got {values.shape}"
            )
        return values

    def _check_received(self, received: Sequence[int]) -> np.ndarray:
        return as_bit_array(received, length=self.code.n)

    def _fallback_message(self, word: np.ndarray) -> np.ndarray:
        """Best message estimate for a detected-uncorrectable word.

        Reads the message bits verbatim when the code carries them at
        known positions; otherwise trusts the received word (solving
        against G when it happens to be a codeword, zeros when not).
        """
        positions = self.code.message_positions
        if positions is not None:
            return word[positions].copy()
        try:
            return self.code.extract_message(word)
        except Exception:
            return np.zeros(self.code.k, dtype=np.uint8)

    def _apply_fallback_messages(
        self, messages: np.ndarray, words: np.ndarray, flagged: np.ndarray
    ) -> None:
        """Overwrite flagged rows of ``messages`` with the scalar fallback.

        Batch paths compute messages via
        :meth:`~repro.coding.linear.LinearBlockCode.extract_message_batch`,
        which assumes valid codewords; flagged rows are not codewords,
        so when the code lacks verbatim message positions they must be
        re-estimated exactly as the scalar :meth:`_fallback_message`
        does (in-place, on the rare flagged subset only).
        """
        if flagged.any() and self.code.message_positions is None:
            for i in np.flatnonzero(flagged):
                messages[i] = self._fallback_message(words[i])

    def _check_received_batch(self, received: np.ndarray) -> np.ndarray:
        words = np.asarray(received, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != self.code.n:
            raise DimensionError(
                f"expected (batch, {self.code.n}) received words, got {words.shape}"
            )
        return words

    def __repr__(self) -> str:
        return f"<{type(self).__name__} for {self.code.name}>"
