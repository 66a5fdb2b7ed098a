"""Counter-based uniform streams with per-replicate windows.

Every Monte Carlo consumer in this package draws its randomness through
`replicate_uniforms`, which assigns replicate ``r`` a fixed window of the
Philox counter space under a key derived from the experiment labels. The
value of a replicate therefore depends only on ``(key, r)`` (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC11): work can be chunked
or parallelised any way at all and the streams do not move.

`replicate_chunks` draws replicates in chunks of whole `CELL`-replicate
cells and `cell_sums` reduces a chunk per cell, so a total built from the
cells keeps its floating-point accumulation order under any chunking.

A window starts in the first 64-bit counter word, and a start past 2**64
wraps onto replicate 0's window, so a run may span at most `MAX_COUNTERS`
counters; a longer one is refused before any draw.
"""

from __future__ import annotations

import numpy as np

# Replicates per reduction cell, and per drawing chunk (a whole number of
# cells; only the run's last chunk and last cell may be short).
CELL = 512
CHUNK = 16 * CELL

_U64 = np.uint64
MAX_COUNTERS = 2 ** 63


def Philox(*args, **kwargs):
    """numpy's `Philox` bit generator, imported at the first draw, so a process
    that draws nothing does not load `numpy.random`."""
    from numpy.random import Philox as philox
    return philox(*args, **kwargs)


def stream_key(*parts) -> tuple[int, int]:
    """Derive a 128-bit Philox key from arbitrary labels.

    Labels are joined into a single string and hashed, so any mix of seed
    integers, distribution names, and sizes yields a well-separated key.
    """
    import hashlib  # here, so a process that draws nothing does not load it

    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    )


def _counters_per_replicate(replicates: int, draws: int) -> int:
    """Philox counters (4 words each) per window; refuses runs past `MAX_COUNTERS`."""
    counters = -(-draws // 4)
    if replicates * counters > MAX_COUNTERS:
        raise ValueError(f"{replicates} replicates of {draws} draws span more than "
                         "the 2**63 Philox counters of one stream")
    return counters


def replicate_uniforms(key: tuple[int, int], first: int, count: int,
                       draws: int) -> np.ndarray:
    """Uniform(0, 1) variates for replicates ``first .. first+count-1``.

    Each replicate owns a disjoint counter window wide enough for ``draws``
    values (padded to the 4-word Philox output granularity), so the row for
    replicate ``r`` is the same whether it is drawn alone or inside a block.

    Returns an array of shape ``(count, draws)`` with values in the open
    interval (0, 1).
    """
    if draws <= 0 or count <= 0:
        raise ValueError("count and draws must be positive")
    counters = _counters_per_replicate(first + count, draws)
    bg = Philox(counter=[first * counters, 0, 0, 0], key=list(key))
    raw = bg.random_raw(count * counters * 4).reshape(count, -1)
    return _words_to_uniforms(raw[:, :draws])


def _words_to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Map 64-bit words into the open interval (0, 1).

    The top 53 bits plus a half-ulp offset give (k + 1/2) 2^-53; for the
    largest k that sum, 1 - 2^-54, rounds to 1.0, so it is clamped to the
    largest double below 1. No other word changes.
    """
    u = (raw >> _U64(11)).astype(np.float64)
    u *= 2.0 ** -53
    u += 2.0 ** -54
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
    return u


def replicate_chunks(key: tuple[int, int], total: int, draws: int):
    """Yield ``(first, u)`` with the `replicate_uniforms` rows of replicates
    ``first ..`` for ``0 .. total-1``, `CHUNK` (a whole number of cells) at a time.
    """
    _counters_per_replicate(total, draws)
    for first in range(0, total, CHUNK):
        yield first, replicate_uniforms(key, first, min(CHUNK, total - first), draws)


def cell_sums(values: np.ndarray) -> np.ndarray:
    """Sums over axis 0 per `CELL` rows of one chunk; the last cell may be short.

    The result is always C-ordered, so sums over stacked cells run in one order.
    """
    full = len(values) // CELL * CELL
    sums = values[:full].reshape(-1, CELL, *values.shape[1:]).sum(axis=1)
    if full < len(values):
        sums = np.concatenate([sums, values[full:].sum(axis=0)[None]])
    return np.ascontiguousarray(sums)
