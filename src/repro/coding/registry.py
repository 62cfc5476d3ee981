"""Name-based factory for the codes and decoders used in experiments.

The CLI and the experiment configs refer to coding schemes by the short
names used throughout the paper: ``hamming74``, ``hamming84``, ``rm13``
and ``none`` (the unencoded 4-bit baseline).

Composite codes compose registry codes by name:

* ``interleaved:<base>:<depth>`` — ``depth`` copies of ``<base>``
  block-interleaved into one word
  (:class:`~repro.coding.interleave.InterleavedCode`), e.g.
  ``interleaved:hamming74:8``;
* ``concatenated:<outer>:<inner>`` — serial concatenation
  (:class:`~repro.coding.interleave.ConcatenatedCode`), e.g.
  ``concatenated:hamming84:hamming74``.

Anywhere a code name is accepted — experiment configs, service session
configs, the CLI — a composite name works too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.backends import resolve_backend, use_backend
from repro.coding.decoders import (
    Decoder,
    ExtendedHammingDecoder,
    FhtDecoder,
    MaximumLikelihoodDecoder,
    ReedDecoder,
    SoftFhtDecoder,
    SyndromeDecoder,
    default_decoder_for,
)
from repro.coding.hamming import hamming74_paper, hamming84_paper
from repro.coding.interleave import (
    ConcatenatedCode,
    ConcatenatedDecoder,
    InterleavedCode,
    InterleavedDecoder,
)
from repro.coding.linear import LinearBlockCode
from repro.coding.reed_muller import rm13_paper

_CODE_FACTORIES: Dict[str, Callable[[], LinearBlockCode]] = {
    "hamming74": hamming74_paper,
    "hamming84": hamming84_paper,
    "rm13": rm13_paper,
}

#: Scheme names in the order the paper's Fig. 5 legend lists them.
PAPER_SCHEMES: List[str] = ["rm13", "hamming74", "hamming84", "none"]

#: Pretty names matching the paper's figures and tables.
DISPLAY_NAMES: Dict[str, str] = {
    "rm13": "RM(1,3)",
    "hamming74": "Hamming(7,4)",
    "hamming84": "Hamming(8,4)",
    "none": "No encoder",
}

_DECODER_FACTORIES: Dict[str, Callable[[LinearBlockCode], Decoder]] = {
    "syndrome": SyndromeDecoder,
    "sec-ded": ExtendedHammingDecoder,
    "fht": FhtDecoder,
    "soft-fht": SoftFhtDecoder,
    "reed-majority": ReedDecoder,
    "ml": MaximumLikelihoodDecoder,
    "interleaved": InterleavedDecoder,
    "concatenated": ConcatenatedDecoder,
}


def available_codes() -> List[str]:
    """Base code names accepted by :func:`get_code`.

    Composite spellings (``interleaved:<base>:<depth>``,
    ``concatenated:<outer>:<inner>``) are accepted on top of these.
    """
    return sorted(_CODE_FACTORIES)


#: Largest interleaving depth buildable *by name*.  Name-based
#: construction is the untrusted surface (service session configs come
#: from clients), and composite generator matrices grow superlinearly
#: with depth; direct InterleavedCode construction stays uncapped.
MAX_INTERLEAVE_DEPTH = 64


def _composite_code(name: str) -> LinearBlockCode:
    """Parse and build a composite code name (``kind:arg:arg``)."""
    parts = name.split(":")
    kind = parts[0].strip().lower()
    if kind == "interleaved":
        if len(parts) != 3:
            raise KeyError(
                f"interleaved code name must be 'interleaved:<base>:<depth>', "
                f"got {name!r}"
            )
        base = get_code(parts[1])
        try:
            depth = int(parts[2])
        except ValueError:
            raise KeyError(f"interleaving depth must be an integer, got {parts[2]!r}")
        if not 1 <= depth <= MAX_INTERLEAVE_DEPTH:
            raise KeyError(
                f"interleaving depth must lie in [1, {MAX_INTERLEAVE_DEPTH}], "
                f"got {depth}"
            )
        return InterleavedCode(base, depth)
    if kind == "concatenated":
        if len(parts) != 3:
            raise KeyError(
                f"concatenated code name must be 'concatenated:<outer>:<inner>', "
                f"got {name!r}"
            )
        return ConcatenatedCode(get_code(parts[1]), get_code(parts[2]))
    raise KeyError(
        f"unknown composite code kind {kind!r} in {name!r}; "
        "expected 'interleaved:<base>:<depth>' or 'concatenated:<outer>:<inner>'"
    )


def get_code(name: str) -> LinearBlockCode:
    """Build a code by short name (``hamming74``/``hamming84``/``rm13``).

    Composite names compose registry codes (see the module docstring):
    ``interleaved:<base>:<depth>`` builds an
    :class:`~repro.coding.interleave.InterleavedCode` and
    ``concatenated:<outer>:<inner>`` a
    :class:`~repro.coding.interleave.ConcatenatedCode`.
    """
    if ":" in name:
        return _composite_code(name)
    key = name.lower().replace("-", "").replace("_", "").replace("(", "").replace(")", "").replace(",", "")
    aliases = {
        "hamming74": "hamming74",
        "hamming84": "hamming84",
        "extendedhamming84": "hamming84",
        "rm13": "rm13",
        "reedmuller13": "rm13",
    }
    key = aliases.get(key, key)
    if key not in _CODE_FACTORIES:
        raise KeyError(f"unknown code {name!r}; available: {available_codes()}")
    return _CODE_FACTORIES[key]()


def available_decoders() -> List[str]:
    """Names accepted by :func:`get_decoder`."""
    return sorted(_DECODER_FACTORIES)


def get_decoder(
    code: LinearBlockCode,
    strategy: Optional[str] = None,
    backend: Optional[str] = None,
) -> Decoder:
    """Build a decoder for ``code``.

    ``strategy=None`` picks the paper's pairing via
    :func:`~repro.coding.decoders.default_decoder_for`.  ``backend``
    pins the decoder's batched kernels, and the kernel run that builds
    its response table, to a named compute backend (validated
    immediately — an unknown or unusable name raises the
    :mod:`repro.backends` errors here, not mid-decode); ``None`` keeps
    the ambient resolution.
    """
    if strategy is None:
        factory = default_decoder_for
    else:
        key = strategy.lower()
        if key not in _DECODER_FACTORIES:
            raise KeyError(
                f"unknown decoder {strategy!r}; available: {available_decoders()}"
            )
        factory = _DECODER_FACTORIES[key]
    if backend is not None:
        backend = resolve_backend(backend).name
    with use_backend(backend):
        decoder = factory(code)
    decoder.backend = backend
    return decoder
