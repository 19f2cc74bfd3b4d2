"""Application-level campaign metrics: faulty outputs vs the integer oracle.

The paper's headline benchmarks are *applications* — its mnist1–mnist4 MLPs
and the CRAFFT-style FFT are scored on what faults do to classification
accuracy and transform outputs, not on per-gate corruption rates alone.
This module promotes the functional netlists of :mod:`repro.workloads.mlp`
and :mod:`repro.workloads.fft` into campaign workloads with that
application view: every trial's (possibly faulty) output words are decoded
and compared against the workload's own integer oracle
(:func:`~repro.workloads.mlp.mlp_inference_reference` /
:func:`~repro.workloads.fft.fft_reference`), yielding

* ``argmax_flips`` — trials whose dominant output word (the predicted class
  for the MLP, the dominant spectral bin for the FFT) moved: the accuracy-
  degradation counter;
* ``output_bit_errors`` — Hamming distance between faulty and oracle output
  words, summed over the batch;
* ``output_error_magnitude`` — summed wrap-around distance
  ``min(d, 2^bits - d)`` between faulty and oracle words (two's-complement
  aware, so an off-by-one near the wrap point scores 1, not ``2^bits - 1``):
  the SNR proxy.

All three are plain integer sums over deterministic arithmetic on the
backends' bit-exact output matrices, so — like every campaign counter —
they merge order-free and are byte-identical across backends, worker counts
and resume histories.  The oracle consumes the very input matrix the trials
ran (sampled from the ``"inputs"`` stream), never re-drawing randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Tuple

import numpy as np

from repro.compiler.netlist import Netlist
from repro.errors import UnknownWorkloadError
from repro.workloads.fft import fft_netlist, fft_reference
from repro.workloads.matmul import accumulator_bits
from repro.workloads.mlp import (
    MlpConfig,
    generate_prototype_weights,
    mlp_inference_reference,
    mlp_netlist,
)

__all__ = [
    "APPLICATION_KEYS",
    "ApplicationWorkload",
    "APPLICATION_WORKLOADS",
    "available_application_workloads",
    "get_application_workload",
    "has_application_metrics",
    "application_counts",
    "mlp16_netlist",
    "fft4_netlist",
    "MLP16_CONFIG",
    "MLP16_SIDE",
    "FFT4_POINTS",
    "FFT4_BITS",
]

#: Integer application counters a shard may report (all sums — merge by
#: addition, like :data:`repro.campaign.aggregate.COUNT_KEYS`).  They ride
#: *alongside* the base counters, never inside them: the base counter
#: schema, its golden pins and the v1 store columns stay untouched.
APPLICATION_KEYS = (
    "app_trials",
    "argmax_flips",
    "output_bit_errors",
    "output_error_magnitude",
)

#: The ``mlp16`` campaign workload: a 16-4-4 perceptron with 2-bit weights
#: and activations — the smallest shape whose prototype weights and
#: synthetic dataset (``examples/mnist_inference.py``) classify end to end.
MLP16_CONFIG = MlpConfig(
    input_size=16, hidden_size=4, n_classes=4, weight_bits=2, activation_bits=2
)
MLP16_SIDE = 4

#: The ``fft4`` campaign workload: the functional 4-point FFT at its default
#: 4-bit sample precision (twiddles are ±1/±j, so it exercises the
#: subtractor path across two butterfly stages).
FFT4_POINTS = 4
FFT4_BITS = 4


@lru_cache(maxsize=1)
def _mlp16_tables() -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """The mlp16 weight matrices and per-layer accumulator widths (cached —
    the same constants the compiled netlist bakes in)."""
    w1, w2 = generate_prototype_weights(MLP16_CONFIG, side=MLP16_SIDE)
    hidden_acc = accumulator_bits(
        MLP16_CONFIG.input_size,
        max(MLP16_CONFIG.weight_bits, MLP16_CONFIG.activation_bits),
    )
    out_acc = accumulator_bits(
        MLP16_CONFIG.hidden_size, max(MLP16_CONFIG.weight_bits, hidden_acc)
    )
    return w1, w2, (hidden_acc, out_acc)


def mlp16_netlist() -> Netlist:
    """Compile-cache factory for the ``mlp16`` campaign workload."""
    w1, w2, _ = _mlp16_tables()
    return mlp_netlist(MLP16_CONFIG, w1, w2)


def fft4_netlist() -> Netlist:
    """Compile-cache factory for the ``fft4`` campaign workload."""
    return fft_netlist(FFT4_POINTS, FFT4_BITS)


def _mlp16_oracle(input_words: np.ndarray) -> np.ndarray:
    """Per-trial class scores from the canonical integer MLP oracle."""
    w1, w2, accs = _mlp16_tables()
    return np.stack(
        [mlp_inference_reference(row, w1, w2, accs) for row in input_words]
    )


def _fft4_oracle(input_words: np.ndarray) -> np.ndarray:
    """Per-trial interleaved (re, im) spectrum words from the FFT oracle."""
    spectra = np.empty((input_words.shape[0], 2 * FFT4_POINTS), dtype=np.int64)
    for trial, row in enumerate(input_words):
        pairs = fft_reference([int(value) for value in row], FFT4_BITS)
        spectra[trial] = [component for pair in pairs for component in pair]
    return spectra


@dataclass(frozen=True)
class ApplicationWorkload:
    """One application-scored workload: word widths plus its integer oracle.

    ``oracle`` maps the decoded ``(B, n_input_words)`` integer input matrix
    to the fault-free ``(B, n_output_words)`` output words; the workload's
    netlist marks its inputs/outputs as LSB-first words of ``input_bits`` /
    ``output_bits`` each, which is what lets :func:`application_counts`
    decode both sides with one generic word routine.
    """

    name: str
    input_bits: int
    output_bits: int
    oracle: Callable[[np.ndarray], np.ndarray]
    description: str


APPLICATION_WORKLOADS: Dict[str, ApplicationWorkload] = {
    workload.name: workload
    for workload in (
        ApplicationWorkload(
            name="mlp16",
            input_bits=MLP16_CONFIG.activation_bits,
            output_bits=_mlp16_tables()[2][1],
            oracle=_mlp16_oracle,
            description=(
                "argmax flip = predicted class changed vs the integer MLP oracle"
            ),
        ),
        ApplicationWorkload(
            name="fft4",
            input_bits=FFT4_BITS,
            output_bits=FFT4_BITS,
            oracle=_fft4_oracle,
            description=(
                "argmax flip = dominant spectral bin changed vs the integer FFT oracle"
            ),
        ),
    )
}


def available_application_workloads() -> Tuple[str, ...]:
    return tuple(sorted(APPLICATION_WORKLOADS))


def has_application_metrics(name: str) -> bool:
    return name.strip().lower() in APPLICATION_WORKLOADS


def get_application_workload(name: str) -> ApplicationWorkload:
    try:
        return APPLICATION_WORKLOADS[name.strip().lower()]
    except KeyError:
        raise UnknownWorkloadError(
            f"workload {name!r} carries no application metrics; "
            f"application campaigns support: {sorted(APPLICATION_WORKLOADS)}"
        ) from None


def _decode_words(bits: np.ndarray, word_bits: int, side: str) -> np.ndarray:
    """Decode a ``(B, n_words * word_bits)`` LSB-first bit matrix into
    ``(B, n_words)`` integer words."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] % word_bits != 0:
        raise UnknownWorkloadError(
            f"{side} bit matrix of shape {bits.shape} does not decompose "
            f"into whole {word_bits}-bit words"
        )
    batch, total = bits.shape
    stacked = bits.astype(np.int64).reshape(batch, total // word_bits, word_bits)
    weights = np.int64(1) << np.arange(word_bits, dtype=np.int64)
    return stacked @ weights


def application_counts(
    workload: ApplicationWorkload,
    input_bits: np.ndarray,
    output_bits: np.ndarray,
) -> Dict[str, int]:
    """Score one executed batch against the workload's integer oracle.

    ``input_bits`` is the ``(B, n_inputs)`` matrix the trials actually ran
    (the oracle input — no randomness is consumed here) and ``output_bits``
    the backend's captured ``(B, n_outputs)`` faulty output matrix.
    """
    faulty = _decode_words(output_bits, workload.output_bits, "output")
    reference = workload.oracle(
        _decode_words(input_bits, workload.input_bits, "input")
    )
    reference = np.asarray(reference, dtype=np.int64)
    if faulty.shape != reference.shape:
        raise UnknownWorkloadError(
            f"oracle produced {reference.shape} words but the netlist "
            f"yielded {faulty.shape}"
        )
    flips = int((np.argmax(faulty, axis=1) != np.argmax(reference, axis=1)).sum())
    hamming = faulty ^ reference
    bit_errors = sum(
        int(((hamming >> bit) & 1).sum()) for bit in range(workload.output_bits)
    )
    span = np.int64(1) << np.int64(workload.output_bits)
    delta = (faulty - reference) % span
    magnitude = int(np.minimum(delta, span - delta).sum())
    return {
        "app_trials": int(faulty.shape[0]),
        "argmax_flips": flips,
        "output_bit_errors": bit_errors,
        "output_error_magnitude": magnitude,
    }
