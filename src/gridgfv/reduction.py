"""Network reduction: generator internal nodes, Kron reduction, and the
frequency participation matrix.

Internal nodes couple to their terminal bus through the transient reactance
only, so the augmented admittance has one extra row/column per machine with a
single off-diagonal entry: the buses are rows 0 ... n_bus-1 in case order and
machine k's internal node is row n_bus+k.  Everything downstream
(participation matrix, nodal inertia susceptances, swing coupling) is a view
or Schur complement of this one matrix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .case_model import NetworkCase, bus_positions
from .errors import SingularMatrixError

# A block to invert is singular when its 1-norm condition number exceeds this.
_COND_LIMIT = 1e12


def augment_internal_nodes(ybus: np.ndarray, case: NetworkCase) -> np.ndarray:
    """Extend ybus with one internal node per generator behind 1/(j*xd_p),
    machine k's at row and column n_bus+k.

    A zero transient reactance would make the internal node electrically
    identical to its terminal and collapse the block partition, so it is
    rejected outright; floor tiny machines at >= 1e-4 pu in the case file
    instead.
    """
    n = case.n_bus
    ng = case.n_gen
    pos = bus_positions(case)
    aug = np.zeros((n + ng, n + ng), dtype=complex)
    aug[:n, :n] = ybus
    for k, gen in enumerate(case.generators):
        if gen.xd_p == 0.0:
            raise SingularMatrixError(
                f"generator[{k}] at bus {gen.bus} has xd_p = 0; internal node "
                "would coincide with its terminal (use xd_p >= 1e-4 pu)"
            )
        y = 1.0 / complex(0.0, gen.xd_p)
        t = pos[gen.bus]
        g = n + k
        aug[g, g] = y
        aug[t, t] += y
        aug[g, t] = -y
        aug[t, g] = -y
    return aug


@lru_cache(maxsize=None)
def _probes(n: int) -> np.ndarray:
    """Three fixed probe columns of unit 1-norm for the condition bound: all
    ones, Higham's alternating (-1)^i (1 + i/(n-1)), and the Thue-Morse
    signs."""
    i = np.arange(n)
    alternating = np.where(i % 2, -1.0, 1.0) * (1.0 + i / max(n - 1, 1))
    thue_morse = np.ones(1)
    while len(thue_morse) < n:
        thue_morse = np.concatenate([thue_morse, -thue_morse])
    probes = np.stack([np.ones(n), alternating, thue_morse[:n]], axis=1)
    return probes / np.abs(probes).sum(axis=0)


def _solve(a: np.ndarray, b: np.ndarray, message: str) -> np.ndarray:
    """a^{-1} b from one LU factorization of a; raises SingularMatrixError
    with message on a zero pivot, a non-finite result, or a 1-norm condition
    number beyond _COND_LIMIT.

    The same solve gives a^{-1} p for each probe column p, and since
    ||p||_1 = 1, ||a||_1 max_p ||a^{-1} p||_1 is a lower bound of the
    condition number (Hager 1984; Higham 1988).  Only when that bound comes
    within 1e4 of the limit is the exact ||a||_1 ||a^{-1}||_1 computed.
    """
    k = b.shape[1]
    try:
        x = np.linalg.solve(a, np.concatenate([b, _probes(len(a))], axis=1))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(message) from None
    with np.errstate(over="ignore"):
        column_norms = np.abs(x).sum(axis=0)
        if not np.isfinite(column_norms.sum()):
            raise SingularMatrixError(message)
        norm_a = np.linalg.norm(a, 1)
        if (norm_a * column_norms[k:].max() > 1e-4 * _COND_LIMIT
                and norm_a * np.linalg.norm(np.linalg.inv(a), 1) > _COND_LIMIT):
            raise SingularMatrixError(message)
    return x[:, :k]


def kron_reduce(y: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Schur complement onto the kept rows/columns (original order preserved).

    Equivalent terminal behavior: for any voltage vector on the kept nodes
    with zero injection at eliminated nodes, the kept-node currents agree
    with the full matrix.  Works for any square matrix whose eliminated
    block is nonsingular (complex admittance or real Laplacian alike).
    """
    n = y.shape[0]
    kept = np.zeros(n, dtype=bool)
    index = np.asarray(keep)
    if index.size and not (index.dtype.kind in "iu"
                           and index.min() >= 0 and index.max() < n):
        raise ValueError("keep contains indices outside the matrix")
    kept[index.astype(np.intp)] = True
    k = int(kept.sum())
    if k == n:
        return y.copy()
    # Kept rows first, then the eliminated ones, each in ascending order.
    order = np.concatenate([np.flatnonzero(kept), np.flatnonzero(~kept)])
    p = y.take(order, axis=0).take(order, axis=1)
    y_kk, y_ke = p[:k, :k], p[:k, k:]
    y_ek, y_ee = p[k:, :k], p[k:, k:]
    return y_kk - y_ke @ _solve(
        y_ee, y_ek,
        "eliminated block is singular; the eliminated nodes contain an "
        "isolated subnetwork",
    )


def frequency_participation(aug: np.ndarray, n_bus: int) -> np.ndarray:
    """Frequency-divider participation matrix D = -B_ext^{-1} B_g, mapping
    machine frequencies to bus frequencies: f_bus = D @ f_gen.  Rows follow
    the case bus order, columns the generator order; on shunt-free cases
    every row sums to 1.

    B_ext is the imaginary part of the bus-bus block of the augmented
    admittance (generator reactances already sit on its diagonal), B_g the
    imaginary part of the bus-to-internal-node coupling block.
    """
    b_ext = aug[:n_bus, :n_bus].imag
    b_g = aug[:n_bus, n_bus:].imag
    return -_solve(b_ext, b_g, "bus susceptance block B_ext is singular")
