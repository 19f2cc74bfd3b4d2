"""Array-native deterministic fault plans and combination unranking.

The exhaustive multi-fault sweeps and ``faults_per_trial`` campaign cells
used to describe deterministic fault plans as one Python dict per trial
(``{operation index: output position(s)}``).  That shape is fine for a
handful of trials, but a (sites choose k) sweep materialises one dict per
combination and re-groups them trial by trial inside every backend — at
bit-packed interpreter speeds the plan plumbing, not the execution,
dominates wall time.

This module is the array-native replacement:

* :class:`FaultPlanArrays` — a CSR form of a whole batch of plans
  (``trial_ptr`` / ``op_index`` / ``position``), accepted directly by
  ``run_trials`` on every backend.  The batched engine lowers it to per-
  operation scatter indices with one ``argsort`` + ``np.split``; the
  bit-sliced engine lowers it to one XOR int per hit fault site in a
  handful of numpy passes; the scalar engine views one trial at a time through
  ``plan[trial]`` (a plain dict), so its bit-exact legacy path is
  untouched.  ``from_dicts`` / ``to_dicts`` bridge the historical form.
* :func:`unrank_combinations` — vectorized k-combination unranking via the
  combinatorial number system: materialise the ``(chunk, k)`` site-index
  matrix of any rank range directly, in exactly ``itertools.combinations``
  order.  This is what makes sweep shards *addressable* — a worker can
  claim ranks ``[start, start+count)`` without enumerating predecessors —
  and hence what makes ``--jobs N`` sharding placement-independent.

The module sits below :mod:`repro.core.batched` in the import graph (the
engines import it, never the reverse), so it speaks plain integers: sites
enter as parallel ``operation_index`` / ``output_position`` arrays, not as
:class:`~repro.core.backend.FaultSite` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ProtectionError
from repro.pim.faults import normalize_flip_positions

__all__ = [
    "FaultPlanArrays",
    "combination_count",
    "unrank_combinations",
]

#: Largest combination count the int64 unranking arithmetic is allowed to
#: touch (one bit of headroom under ``2**63 - 1`` for the searchsorted
#: comparisons).  Sweeps beyond this could not be enumerated anyway.
_MAX_RANK = 2 ** 62


def combination_count(n: int, k: int) -> int:
    """``C(n, k)`` with the sweep layer's validation: exact ``math.comb``,
    guarded against ranks that would overflow the int64 unranking path."""
    if k < 0 or n < 0:
        raise ProtectionError(f"combination_count needs n, k >= 0 (got n={n}, k={k})")
    total = math.comb(n, k)
    if total > _MAX_RANK:
        raise ProtectionError(
            f"C({n}, {k}) = {total} exceeds the int64 unranking range"
        )
    return total


@lru_cache(maxsize=64)
def _comb_table(n: int, k: int) -> np.ndarray:
    """``table[a, j] = C(a, j)`` for ``0 <= a <= n``, ``0 <= j <= k`` —
    column ``j`` is nondecreasing in ``a``, which is what the searchsorted
    unranking step relies on.  Built once per (n, k) and read-only, since
    every shard of a sweep unranks against the same table."""
    table = np.zeros((n + 1, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for a in range(1, n + 1):
        hi = min(a, k)
        table[a, 1:hi + 1] = table[a - 1, 1:hi + 1] + table[a - 1, 0:hi]
    table.setflags(write=False)
    return table


def unrank_combinations(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """The ``(len(ranks), k)`` index matrix of the given lexicographic ranks.

    Row ``i`` is the ``ranks[i]``-th element of
    ``itertools.combinations(range(n), k)`` — the combinatorial number
    system, vectorized: the lex rank ``r`` of a k-subset ``S`` of ``[0, n)``
    equals ``C(n, k) - 1`` minus the *colex* rank of its reflected
    complement ``{n-1-x : x in S}``, and colex unranking is k successive
    "largest ``a`` with ``C(a, j) <= r``" steps, each one
    ``np.searchsorted`` over a precomputed binomial column.
    """
    if k < 1:
        raise ProtectionError(f"k must be >= 1, got {k}")
    if k > n:
        raise ProtectionError(f"cannot unrank {k}-combinations of {n} items")
    total = combination_count(n, k)
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.ndim != 1:
        raise ProtectionError(f"ranks must be one-dimensional, got shape {ranks.shape}")
    if ranks.size and (int(ranks.min()) < 0 or int(ranks.max()) >= total):
        raise ProtectionError(
            f"ranks must lie in [0, C({n}, {k}) = {total}), "
            f"got range [{int(ranks.min())}, {int(ranks.max())}]"
        )
    table = _comb_table(n, k)
    remainder = np.int64(total - 1) - ranks
    out = np.empty((ranks.shape[0], k), dtype=np.int64)
    for j in range(k, 0, -1):
        column = table[:, j]
        chosen = np.searchsorted(column, remainder, side="right") - 1
        remainder = remainder - column[chosen]
        out[:, k - j] = np.int64(n - 1) - chosen
    return out


def _repeat_error(trial: int, op: int, position: int) -> ProtectionError:
    return ProtectionError(
        f"trial {trial} names operation {op}, output position {position} more than "
        "once; each trial may name an (operation, position) pair only once"
    )


@dataclass(eq=False)
class FaultPlanArrays:
    """A whole batch of deterministic fault plans in CSR form.

    Trial ``t`` flips output cell ``position[i]`` of gate operation
    ``op_index[i]`` for every ``i`` in ``[trial_ptr[t], trial_ptr[t+1])``.
    The ``(op_index, position)`` pairs of one trial are unique (the dict
    bridge dedups through
    :func:`~repro.pim.faults.normalize_flip_positions`;
    :meth:`from_site_matrix` inherits uniqueness from distinct sites) —
    the same one-flip-per-site semantics as the scalar injector.  Every
    engine rejects a trial that repeats a pair with
    :class:`~repro.errors.ProtectionError` when it runs the plan (see
    :meth:`check_unique_pairs`).

    Out-of-range operation indices inject nothing and out-of-range
    positions are dropped by the engines, exactly as for dict plans; only
    in-range flips count toward ``faults_injected``.
    """

    trial_ptr: np.ndarray  # (n_trials + 1,) intp, monotone, starts at 0
    op_index: np.ndarray   # (nnz,) int64
    position: np.ndarray   # (nnz,) int64
    _targets: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.trial_ptr = np.asarray(self.trial_ptr, dtype=np.intp)
        self.op_index = np.asarray(self.op_index, dtype=np.int64)
        self.position = np.asarray(self.position, dtype=np.int64)
        if self.trial_ptr.ndim != 1 or self.trial_ptr.shape[0] < 1:
            raise ProtectionError("trial_ptr must be a 1-d array of n_trials + 1 offsets")
        if int(self.trial_ptr[0]) != 0 or np.any(np.diff(self.trial_ptr) < 0):
            raise ProtectionError("trial_ptr must start at 0 and be nondecreasing")
        nnz = int(self.trial_ptr[-1])
        if self.op_index.shape != (nnz,) or self.position.shape != (nnz,):
            raise ProtectionError(
                f"op_index/position must hold trial_ptr[-1] = {nnz} entries "
                f"(got {self.op_index.shape[0]} and {self.position.shape[0]})"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dicts(cls, plans: Sequence[Mapping[int, object]]) -> "FaultPlanArrays":
        """Lower per-trial ``{op_index: position(s)}`` dicts (the historical
        plan form) into CSR arrays, deduplicating positions per (trial,
        operation) exactly as the engines always have."""
        ptr = np.zeros(len(plans) + 1, dtype=np.intp)
        ops: List[int] = []
        positions: List[int] = []
        for trial, plan in enumerate(plans):
            for op, entry in (plan or {}).items():
                for position in sorted(normalize_flip_positions(entry)):
                    ops.append(int(op))
                    positions.append(position)
            ptr[trial + 1] = len(ops)
        return cls(
            trial_ptr=ptr,
            op_index=np.asarray(ops, dtype=np.int64),
            position=np.asarray(positions, dtype=np.int64),
        )

    @classmethod
    def from_site_matrix(
        cls,
        matrix: np.ndarray,
        site_ops: np.ndarray,
        site_positions: np.ndarray,
    ) -> "FaultPlanArrays":
        """Lower a ``(n_trials, k)`` site-index matrix (one enumerated-site
        index per flip — rows with distinct sites, e.g. unranked
        combinations or without-replacement draws) against parallel
        per-site ``operation_index`` / ``output_position`` arrays."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ProtectionError(
                f"site matrix must be (n_trials, k), got shape {matrix.shape}"
            )
        n_trials, k = matrix.shape
        flat = matrix.reshape(-1)
        if k == 0:
            ptr = np.zeros(n_trials + 1, dtype=np.intp)
        else:
            ptr = np.arange(0, (n_trials + 1) * k, k, dtype=np.intp)
        return cls(
            trial_ptr=ptr,
            op_index=np.asarray(site_ops, dtype=np.int64)[flat],
            position=np.asarray(site_positions, dtype=np.int64)[flat],
        )

    @classmethod
    def coerce(cls, fault_plan: object) -> "FaultPlanArrays":
        """``fault_plan`` as arrays: pass-through when already lowered,
        :meth:`from_dicts` otherwise."""
        if isinstance(fault_plan, cls):
            return fault_plan
        return cls.from_dicts(fault_plan)

    # ------------------------------------------------------------------ #
    # Sequence-of-dicts compatibility (the scalar engine's view)
    # ------------------------------------------------------------------ #
    @property
    def n_trials(self) -> int:
        return int(self.trial_ptr.shape[0] - 1)

    def __len__(self) -> int:
        return self.n_trials

    def __getitem__(self, trial: int) -> Dict[int, Tuple[int, ...]]:
        """Trial ``trial``'s plan as the historical dict form."""
        if not 0 <= trial < self.n_trials:
            raise IndexError(f"trial {trial} out of range [0, {self.n_trials})")
        lo, hi = int(self.trial_ptr[trial]), int(self.trial_ptr[trial + 1])
        plan: Dict[int, List[int]] = {}
        for op, position in zip(self.op_index[lo:hi].tolist(), self.position[lo:hi].tolist()):
            positions = plan.setdefault(op, [])
            if position in positions:
                raise _repeat_error(trial, op, position)
            positions.append(position)
        return {op: tuple(sorted(positions)) for op, positions in plan.items()}

    def __iter__(self) -> Iterator[Dict[int, Tuple[int, ...]]]:
        return (self[trial] for trial in range(self.n_trials))

    def to_dicts(self) -> List[Dict[int, Tuple[int, ...]]]:
        """The whole batch as the historical one-dict-per-trial form."""
        return [self[trial] for trial in range(self.n_trials)]

    # ------------------------------------------------------------------ #
    # Engine lowering
    # ------------------------------------------------------------------ #
    def trial_of_entry(self) -> np.ndarray:
        """The owning trial of every (op, position) entry — CSR row ids."""
        return np.repeat(
            np.arange(self.n_trials, dtype=np.intp), np.diff(self.trial_ptr)
        )

    def check_unique_pairs(self) -> None:
        """Raise :class:`~repro.errors.ProtectionError` naming the first
        trial that repeats an ``(op_index, position)`` pair."""
        rows = self.trial_of_entry()
        order = np.lexsort((self.position, self.op_index, rows))
        rows, ops, positions = rows[order], self.op_index[order], self.position[order]
        repeats = np.flatnonzero(
            (rows[1:] == rows[:-1]) & (ops[1:] == ops[:-1]) & (positions[1:] == positions[:-1])
        )
        if repeats.size:
            first = int(repeats[0])
            raise _repeat_error(int(rows[first]), int(ops[first]), int(positions[first]))

    def targets_by_op(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """``{op_index: (trial rows, output positions)}`` scatter indices —
        the batched engine's per-operation grouping, computed once per plan
        with a stable argsort instead of a per-trial Python loop."""
        if self._targets is None:
            self.check_unique_pairs()
            rows = self.trial_of_entry()
            order = np.argsort(self.op_index, kind="stable")
            ops = self.op_index[order]
            boundaries = np.flatnonzero(np.diff(ops)) + 1
            self._targets = {
                int(group_ops[0]): (
                    group_rows.astype(np.intp, copy=False),
                    group_positions.astype(np.intp, copy=False),
                )
                for group_ops, group_rows, group_positions in zip(
                    np.split(ops, boundaries),
                    np.split(rows[order], boundaries),
                    np.split(self.position[order], boundaries),
                )
                if group_ops.size
            }
        return self._targets
