"""Counter-based randomness: the one stream discipline every fault source uses.

Every random draw a campaign, a coverage run or an experiment makes comes
from one vectorized Philox4x32-10 generator (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11).  A counter-based generator makes each
(trial, stream, draw) directly addressable, so a whole batch draws in a few
numpy passes with no generator object per trial, and a trial's draws never
depend on which batch, shard, round or worker ran it.

RNG contract, version 2 (:data:`RNG_CONTRACT`)
----------------------------------------------
* **Key.**  One 64-bit key per stream context, ``derive_seed(*context,
  "rng-v2")`` — ``(campaign seed, cell key)`` for a campaign cell,
  ``(seed, "coverage")`` for :func:`~repro.core.coverage.monte_carlo_coverage`,
  ``(seed, "burst")`` for the burst experiment.  Its low and high 32-bit
  halves are the two Philox key words.
* **Counter.**  ``(trial & 0xffffffff, trial >> 32, stream id, block)``.
  The stream ids are, in order: :data:`STREAM_INPUTS`; one per Bernoulli
  fault class (:data:`FAULT_CLASSES`: gate outputs, metadata-gate outputs,
  presets, memory reads); :data:`STREAM_BURST`; :data:`STREAM_PLAN` (k-flip
  sites and stratum tail draws).
* **Uniforms.**  Block ``b`` of a stream holds uniforms ``2b`` and
  ``2b + 1``, each a 53-bit double built from two 32-bit words as
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` (numpy's construction).
* **Inputs.**  Input bit ``j`` of a trial is bit ``j % 32`` of word
  ``j // 32`` of its inputs stream (four words per block), so inputs never
  depend on the fault model.
* **Bernoulli classes.**  Each class keeps its sites in execution order;
  the preset class merges the count-only presets of gate outputs with the
  preset-step cells in (step, lane) order.  Trial ``t``'s hits in a class
  at rate ``p`` are at the prefix sums of ``floor(log1p(-u_i) /
  log1p(-p)) + 1`` over that class's uniforms (one-based, so the first
  site is ordinal 1; :meth:`TrialStream.bernoulli_hits` returns them
  zero-based).  A rate of 0 draws nothing and a rate of 1 hits every site.
  Hit positions do not depend on the class size, which only says where to
  stop.
* **Bursts.**  The burst trigger is the same skip-sampling over the
  *draws* of :data:`STREAM_BURST`: a trial draws once per gate output it
  visits outside a burst, and a trigger flips its output plus up to
  ``length - 1`` following outputs within ``window`` operations without
  drawing.  Memory errors under the burst model are the memory class.
* **Plans.**  On :data:`STREAM_PLAN`, uniform 0 is a trial's fault-count
  draw (stratified tail strata) and uniforms 1.. drive Floyd's k-subset
  sampler, one draw per chosen site.

Hits are computed once per batch, with numpy, and every backend — scalar
included — consumes the same arrays (:class:`FaultSchedule`), which is what
makes every stochastic fault source byte-identical across backends.  Never
re-derive gaps with :func:`math.log1p`: numpy may evaluate ``log1p`` with
SIMD code that differs from libm in the last ulp.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProtectionError
from repro.pim.faults import FaultModel, FaultModelSpec

__all__ = [
    "RNG_CONTRACT",
    "STREAM_INPUTS",
    "STREAM_BURST",
    "STREAM_PLAN",
    "FAULT_CLASSES",
    "derive_seed",
    "stream_key",
    "philox4x32",
    "TrialStream",
    "FaultSites",
    "FaultSchedule",
    "fault_schedule",
]

#: The version of the contract above; campaign specs carry it.
RNG_CONTRACT = 2

#: Stream ids (the third counter word).
STREAM_INPUTS = 0
#: The four Bernoulli fault classes, stream ids 1-4 in this order.
FAULT_CLASSES = ("gate", "metadata", "preset", "memory")
STREAM_BURST = 5
STREAM_PLAN = 6

_CLASS_STREAMS = {name: 1 + index for index, name in enumerate(FAULT_CLASSES)}


def derive_seed(*components: object) -> int:
    """Deterministic 64-bit seed from named components, via SHA-256: stable
    across processes, platforms and ``PYTHONHASHSEED``, and independent
    between any two distinct component tuples."""
    payload = "|".join(str(component) for component in components).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def stream_key(*context: object) -> int:
    """The Philox key of one stream context (one SHA-256 per context)."""
    return derive_seed(*context, "rng-v2")


# ---------------------------------------------------------------------- #
# Philox4x32-10
# ---------------------------------------------------------------------- #
#: Philox4x32 multipliers of counter words 0 and 2, as a column.
_MULTIPLIERS = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


@lru_cache(maxsize=64)
def _round_keys(key: Tuple[int, int]) -> np.ndarray:
    """The ten round keys: the key bumped by the Weyl constants per round."""
    k0, k1 = key
    return np.array(
        [
            [[(k0 + r * 0x9E3779B9) & 0xFFFFFFFF], [(k1 + r * 0xBB67AE85) & 0xFFFFFFFF]]
            for r in range(10)
        ],
        dtype=np.uint64,
    )


def philox4x32(counters: Sequence[np.ndarray], key: Tuple[int, int]) -> np.ndarray:
    """Philox4x32-10 over N blocks at once.

    ``counters`` are the four 32-bit counter words, each a length-N array
    (held in uint64 lanes so a 32x32-bit product never overflows); ``key``
    the two 32-bit key words.  Returns the four output words as a
    ``(4, N)`` array.  Words 0 and 2 are multiplied together as one
    ``(2, N)`` block per round, which halves the numpy calls.
    """
    words = np.asarray(counters, dtype=np.uint64)
    even, odd = words[0::2], words[1::2]
    for round_key in _round_keys((int(key[0]) & 0xFFFFFFFF, int(key[1]) & 0xFFFFFFFF)):
        product = even * _MULTIPLIERS
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        even, odd = (product >> _32)[::-1] ^ odd ^ round_key, (product & _LOW32)[::-1]
    out = np.empty_like(words)
    out[0::2] = even
    out[1::2] = odd
    return out


_5, _6, _26 = np.uint64(5), np.uint64(6), np.uint64(26)


def _uniforms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """53-bit doubles in [0, 1) from two 32-bit words each."""
    return ((a >> _5) << _26 | (b >> _6)).astype(np.float64) * (1.0 / 9007199254740992.0)


# ---------------------------------------------------------------------- #
# Per-batch streams
# ---------------------------------------------------------------------- #
class TrialStream:
    """The randomness of one batch of trials: a key plus their trial indices.

    Row ``r`` of every array a stream returns belongs to trial
    ``trials[r]``; what a trial draws depends only on (key, trial index).
    """

    __slots__ = ("key", "trials")

    def __init__(self, key: int, trials: Sequence[int]) -> None:
        self.key = int(key) & 0xFFFFFFFFFFFFFFFF
        trials = np.asarray(trials, dtype=np.int64).reshape(-1)
        if trials.size and int(trials.min()) < 0:
            raise ProtectionError("trial indices must be non-negative")
        self.trials = trials.astype(np.uint64)

    @classmethod
    def keyed(cls, context: Tuple[object, ...], trials: Sequence[int]) -> "TrialStream":
        """The stream of ``trials`` under the key of ``context``."""
        return cls(stream_key(*context), trials)

    def __len__(self) -> int:
        return int(self.trials.shape[0])

    def __getitem__(self, rows) -> "TrialStream":
        """The same key over a subset of this batch's trials."""
        return TrialStream(self.key, self.trials[rows])

    def _words(
        self, stream: int, n_blocks: int, first_block: int = 0, rows: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, ...]:
        """The four output words of blocks ``first_block ..`` of ``stream``,
        each shaped ``(rows, n_blocks)``."""
        trials = self.trials if rows is None else self.trials[rows]
        n_rows = trials.shape[0]
        counters = np.empty((4, n_rows, n_blocks), dtype=np.uint64)
        counters[0] = (trials & _LOW32)[:, None]
        counters[1] = (trials >> _32)[:, None]
        counters[2] = stream
        counters[3] = np.arange(first_block, first_block + n_blocks, dtype=np.uint64)
        words = philox4x32(counters.reshape(4, -1), (self.key & 0xFFFFFFFF, self.key >> 32))
        return tuple(words.reshape(4, n_rows, n_blocks))

    def uniforms(
        self, stream: int, n_blocks: int, first_block: int = 0, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(rows, 2 * n_blocks)`` uniforms: block ``b`` holds uniforms
        ``2b`` and ``2b + 1`` of each trial's ``stream``."""
        w0, w1, w2, w3 = self._words(stream, n_blocks, first_block, rows)
        out = np.empty((w0.shape[0], 2 * n_blocks), dtype=np.float64)
        out[:, 0::2] = _uniforms(w0, w1)
        out[:, 1::2] = _uniforms(w2, w3)
        return out

    def input_bits(self, n_inputs: int) -> np.ndarray:
        """``(B, n_inputs)`` uint8 input assignments from the inputs stream."""
        n_words = -(-n_inputs // 32)
        words = self._words(STREAM_INPUTS, max(1, -(-n_words // 4)))
        stacked = np.stack(words, axis=2).reshape(len(self), -1)[:, :n_words]
        bits = (stacked[:, :, None] >> np.arange(32, dtype=np.uint64)) & np.uint64(1)
        return bits.reshape(len(self), -1)[:, :n_inputs].astype(np.uint8)

    def bernoulli_hits(self, stream: int, n_sites: int, rate: float) -> Tuple[np.ndarray, np.ndarray]:
        """Bernoulli(``rate``) hits among ``n_sites`` sites per trial, by
        geometric skip-sampling: ``(rows, positions)``, zero-based, sorted
        by row and then position.

        The gap matrix is ``(B, K)``; a row whose K gaps all land inside
        the class continues with the blocks that follow, and only that row.
        """
        batch = len(self)
        if n_sites <= 0 or rate <= 0.0 or batch == 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64)
        if rate >= 1.0:
            return (
                np.repeat(np.arange(batch, dtype=np.intp), n_sites),
                np.tile(np.arange(n_sites, dtype=np.int64), batch),
            )
        log_miss = np.log1p(-np.float64(rate))
        mean = n_sites * rate
        # Enough gaps for the mean plus four sigma; n_sites + 1 gaps always
        # overshoot the class, so no row ever needs more than that.
        n_blocks = min(math.ceil((mean + 4.0 * math.sqrt(mean) + 4.0) / 2.0), n_sites // 2 + 1)
        rows = np.arange(batch, dtype=np.intp)
        base = None
        first_block = 0
        hit_rows: List[np.ndarray] = []
        hit_ends: List[np.ndarray] = []
        while rows.size:
            # ends = base + cumsum(floor(log1p(-u) / log1p(-p)) + 1), in place
            ends = self.uniforms(stream, n_blocks, first_block, rows)
            np.negative(ends, out=ends)
            np.log1p(ends, out=ends)
            ends /= log_miss
            np.floor(ends, out=ends)
            ends += 1.0
            np.cumsum(ends, axis=1, out=ends)
            if base is not None:
                ends += base[:, None]
            inside = ends <= n_sites
            r, c = np.nonzero(inside)
            hit_rows.append(rows[r])
            hit_ends.append(ends[r, c])
            more = inside[:, -1]
            rows, base = rows[more], ends[more, -1]
            first_block += n_blocks
        if len(hit_rows) == 1:
            return hit_rows[0], hit_ends[0].astype(np.int64) - 1
        all_rows = np.concatenate(hit_rows)
        order = np.argsort(all_rows, kind="stable")
        return all_rows[order], np.concatenate(hit_ends)[order].astype(np.int64) - 1

    def count_draws(self) -> np.ndarray:
        """Uniform 0 of each trial's plan stream (its fault-count draw)."""
        return self.uniforms(STREAM_PLAN, 1)[:, 0]

    def subsets(self, n_sites: int, counts) -> np.ndarray:
        """A uniform ``counts[row]``-subset of ``range(n_sites)`` per trial
        (Floyd's algorithm on plan-stream uniforms 1..k): a ``(B, k_max)``
        int64 matrix, rows sorted, padded with ``n_sites``.

        Step ``i`` of a k-subset picks ``floor(u * (top + 1))`` with
        ``top = n_sites - k + i``; the bias of that map is below
        ``n_sites / 2**53``.
        """
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (len(self),))
        k_max = int(counts.max()) if counts.size else 0
        if k_max > n_sites:
            raise ProtectionError(f"cannot choose {k_max} of {n_sites} sites")
        chosen = np.full((len(self), k_max), n_sites, dtype=np.int64)
        if k_max == 0:
            return chosen
        draws = self.uniforms(STREAM_PLAN, (k_max + 2) // 2)
        for step in range(k_max):
            top = n_sites - counts + step
            site = np.floor(draws[:, step + 1] * (top + 1)).astype(np.int64)
            taken = (chosen[:, :step] == site[:, None]).any(axis=1)
            chosen[:, step] = np.where(counts > step, np.where(taken, top, site), n_sites)
        chosen.sort(axis=1)
        return chosen


# ---------------------------------------------------------------------- #
# Fault schedules
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultSites:
    """The stochastic fault sites of one execution: each Bernoulli class's
    size, and the operation index of every gate output in firing order
    (the burst model's sites, metadata included)."""

    gate: int
    metadata: int
    preset: int
    memory: int
    output_ops: np.ndarray

    def size(self, name: str) -> int:
        return getattr(self, name)


@dataclass(eq=False, frozen=True)
class FaultSchedule:
    """One batch's stochastic faults: per class, ``(rows, ordinals)`` of the
    hit sites, sorted by row and then ordinal, plus per-trial fault counts.

    The classes are :data:`FAULT_CLASSES` under the stochastic model, and
    ``output`` (every gate output, metadata included) plus ``memory`` under
    the burst model.
    """

    hits: Dict[str, Tuple[np.ndarray, np.ndarray]]
    faults: np.ndarray

    def by_trial(self) -> List[Dict[str, np.ndarray]]:
        """Each trial's hit ordinals per class (the scalar injectors' view)."""
        batch = self.faults.shape[0]
        edges = {
            name: np.searchsorted(rows, np.arange(batch + 1))
            for name, (rows, _) in self.hits.items()
        }
        return [
            {
                name: ordinals[edges[name][trial]:edges[name][trial + 1]]
                for name, (_, ordinals) in self.hits.items()
            }
            for trial in range(batch)
        ]


def _stochastic_schedule(stream: TrialStream, model: FaultModel, sites: FaultSites) -> FaultSchedule:
    rates = {
        "gate": model.gate_error_rate,
        "metadata": model.effective_metadata_error_rate,
        "preset": model.preset_error_rate,
        "memory": model.memory_error_rate,
    }
    hits = {}
    faults = np.zeros(len(stream), dtype=np.int64)
    for name in FAULT_CLASSES:
        rows, ordinals = stream.bernoulli_hits(_CLASS_STREAMS[name], sites.size(name), rates[name])
        if rows.size:
            hits[name] = (rows, ordinals)
            faults += np.bincount(rows, minlength=len(stream))
    return FaultSchedule(hits=hits, faults=faults)


def _burst_schedule(stream: TrialStream, spec: FaultModelSpec, sites: FaultSites) -> FaultSchedule:
    """Burst flips: triggers skip-sampled over each trial's draws, then
    walked trigger by trigger (vectorized over trials) to place each burst."""
    batch = len(stream)
    ops = sites.output_ops
    n_out = ops.shape[0]
    trigger_rows, trigger_draws = stream.bernoulli_hits(
        STREAM_BURST, n_out, spec.gate_error_rate or 0.0
    )
    # Outputs a burst triggered at site s flips without drawing: the next
    # ones within the correlation window, at most length - 1 of them.
    reach = np.searchsorted(ops, ops + spec.correlation_window, side="right")
    follow = np.minimum(spec.burst_length - 1, reach - np.arange(n_out) - 1)
    per_trial = np.bincount(trigger_rows, minlength=batch)
    first = np.concatenate(([0], np.cumsum(per_trial)[:-1]))
    next_site = np.zeros(batch, dtype=np.int64)
    drawn = np.zeros(batch, dtype=np.int64)
    flip_rows: List[np.ndarray] = []
    flip_sites: List[np.ndarray] = []
    for rank in range(int(per_trial.max()) if batch else 0):
        live = np.flatnonzero(per_trial > rank)
        draw = trigger_draws[first[live] + rank]
        site = next_site[live] + draw - drawn[live]
        inside = site < n_out
        live, draw, site = live[inside], draw[inside], site[inside]
        if not live.size:
            break
        span = follow[site] + 1
        starts = np.cumsum(span) - span
        flip_rows.append(np.repeat(live, span))
        flip_sites.append(np.repeat(site - starts, span) + np.arange(int(span.sum())))
        next_site[live] = site + span
        drawn[live] = draw + 1
    hits = {}
    faults = np.zeros(batch, dtype=np.int64)
    if flip_rows:
        rows = np.concatenate(flip_rows)
        order = np.argsort(rows, kind="stable")
        hits["output"] = (rows[order], np.concatenate(flip_sites)[order])
        faults += np.bincount(rows, minlength=batch)
    rows, ordinals = stream.bernoulli_hits(
        _CLASS_STREAMS["memory"], sites.memory, spec.memory_error_rate or 0.0
    )
    if rows.size:
        hits["memory"] = (rows, ordinals)
        faults += np.bincount(rows, minlength=batch)
    return FaultSchedule(hits=hits, faults=faults)


def fault_schedule(
    spec: Optional[FaultModelSpec],
    stream: Optional[TrialStream],
    sites: FaultSites,
    batch: int,
) -> Optional[FaultSchedule]:
    """The stochastic or burst schedule of ``spec`` for one batch, or None
    when the model draws nothing (no model, stuck-at, all rates zero)."""
    if spec is None or not spec.needs_stream:
        return None
    if stream is None or len(stream) != batch:
        raise ProtectionError(
            f"{spec.kind} fault injection needs a TrialStream over the batch's "
            f"trials (got {None if stream is None else len(stream)} for {batch} trials)"
        )
    if spec.kind == "burst":
        return _burst_schedule(stream, spec, sites)
    return _stochastic_schedule(stream, spec.rate_model(), sites)
