"""Weighted Laplacian, Fiedler analysis, nodal inertia, and the generalized
eigenvalue problem whose second mode defines the inertia-weighted placement
metric.

The Laplacian weight of a coupling is |Ui||Uj| Im(Yij) cos(ai - aj): the
synchronizing power coefficient at the solved operating point, read off an
admittance matrix (conductances dropped).  Nodal inertia h_j aggregates,
per bus, how much machine inertia backs the local frequency, combining
equivalent susceptances to each internal node with the frequency
participation weights.  The pencil (L, diag(h)) then generalizes algebraic
connectivity: its second eigenvector, rescaled to unit maximum, scores every
bus between 0 (strongest) and 1 (weakest).
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
from dataclasses import dataclass

import numpy as np

from .case_model import NetworkCase
from .errors import DisconnectedNetworkError, GridGfvError, NumericalError, StabilityRegionError
from .powerflow import InternalEmfs, PowerFlowSolution
from .reduction import kron_reduce

# Eigenvalues below this fraction of the largest one count as zero, in the
# standard and the generalized problem alike.
ZERO_EIG_REL = 1e-9
# Relative gap under which the second and third modes are reported degenerate.
DEGENERATE_REL = 1e-6
FORK_MIN_SPAN = 32  # buses at least in each process (BENCH_inertia_fork.json, crossover)


@dataclass(frozen=True)
class GeneralizedDecomposition:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, N-orthonormal (orthonormal at N = I)
    zero_multiplicity: int


@dataclass(frozen=True)
class SecondMode:
    value: float  # second eigenvalue
    vector: np.ndarray  # |v2| / max|v2|, in [0, 1] with max entry exactly 1
    degenerate: bool


def _node(case: NetworkCase, row: int) -> str:
    """Row of an augmented admittance, named as validate_case names it."""
    if row < case.n_bus:
        return f"bus {case.buses[row].id}"
    return f"generator[{row - case.n_bus}] at bus {case.generators[row - case.n_bus].bus}"


def build_laplacian(case: NetworkCase, admittance: np.ndarray, vm: np.ndarray,
                    va: np.ndarray) -> np.ndarray:
    """Operating-point-weighted Laplacian of case's network from an
    admittance matrix (Ybus or the augmented one; its diagonal is not read)
    and the node voltage magnitudes vm and angles va in the same row order.

    Each coupling Im(Y_ij) != 0, i != j, weighs
    w_ij = vm_i vm_j Im(Y_ij) cos(va_i - va_j): -w_ij off the diagonal, the
    row sums of w on it.  An angle spread (modulo 360 degrees) of 90 degrees
    or more across a coupling would flip the sign of its synchronizing
    coefficient and is rejected as a stability-region violation.
    """
    i, j = np.nonzero(np.triu(admittance.imag, 1))
    spread = va[i] - va[j]
    spread -= 2 * math.pi * np.round(spread / (2 * math.pi))  # EMF angles are wrapped
    beyond = np.abs(spread) >= math.pi / 2
    if beyond.any():
        k = int(np.argmax(beyond))
        raise StabilityRegionError(
            f"angle spread {math.degrees(spread[k]):.1f} deg between "
            f"{_node(case, i[k])} and {_node(case, j[k])} reaches 90 deg at "
            "the operating point"
        )
    w = vm[i] * vm[j] * admittance.imag[i, j] * np.cos(spread)
    lap = np.zeros(admittance.shape)
    lap[i, j] = lap[j, i] = -w
    np.fill_diagonal(lap, np.bincount(np.concatenate([i, j]), np.concatenate([w, w]),
                                      len(lap)))
    return lap


def _eigh_pencil(l: np.ndarray, h: np.ndarray) -> GeneralizedDecomposition:
    """Eigenpairs of (L, diag(h)) through M = N^{-1/2} L N^{-1/2}: eigh(M)
    gives real ascending eigenvalues, and back-transformed vectors
    N^{-1/2} psi satisfy L v = lambda N v.  At h = 1 every scaling is exact.

    M is scaled and symmetrized, (M + M^T) / 2, in place in one n x n buffer
    (numpy buffers the transpose that `m += m.T` reads while it writes m), and
    the vectors are back-transformed in eigh's own output."""
    s = 1.0 / np.sqrt(h)
    m = s[:, None] * l
    m *= s
    m += m.T
    m *= 0.5
    vals, psi = np.linalg.eigh(m)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    return GeneralizedDecomposition(
        eigenvalues=vals,
        eigenvectors=np.multiply(s[:, None], psi, out=psi),
        zero_multiplicity=int(np.sum(np.abs(vals) <= ZERO_EIG_REL * scale)),
    )


def eigendecompose(lap: np.ndarray) -> GeneralizedDecomposition:
    """Full symmetric eigendecomposition of L: the pencil (L, I)."""
    return _eigh_pencil(lap, np.ones(len(lap)))


def _second_mode(decomp: GeneralizedDecomposition, what: str) -> SecondMode:
    """The second mode of a connected network's decomposition."""
    vals = decomp.eigenvalues
    if decomp.zero_multiplicity != 1:
        raise DisconnectedNetworkError(
            f"{what} requires a connected network: found "
            f"{decomp.zero_multiplicity} numerically zero eigenvalues"
        )
    if len(vals) < 2:
        raise GridGfvError(f"{what} needs at least two buses")
    degenerate = False
    if len(vals) >= 3:
        gap = vals[2] - vals[1]
        degenerate = bool(gap <= DEGENERATE_REL * max(abs(vals[2]), abs(vals[1])))
    vec = np.abs(decomp.eigenvectors[:, 1])
    return SecondMode(float(vals[1]), vec / vec.max(), degenerate)


def fiedler(decomp: GeneralizedDecomposition) -> SecondMode:
    """Second-smallest eigenpair of L: value is the algebraic connectivity
    lambda2, vector |phi2|/max|phi2|.

    A (near-)degenerate second/third pair is flagged rather than rejected:
    the vector is then one arbitrary member of the eigenspace.
    """
    return _second_mode(decomp, "Fiedler analysis")


def nodal_inertia(
    case: NetworkCase,
    sol: PowerFlowSolution,
    emfs: InternalEmfs,
    participation: np.ndarray,
    aug: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """Per-bus nodal inertia in seconds, in case bus order.

    For each bus j the network is Kron-reduced onto {bus j, all internal
    nodes}; the equivalent susceptances B_kj = Im(Y_red)_{kj} feed

        h_j = sum_k B_kj E_k cos(d_k0 - t_j0)
              / sum_i H_i^{-1} D_ji B_ij E_i cos(d_i0 - t_j0)

    which collapses to h = H for a single-machine system.  A bus whose h is
    undefined (its denominator within 1e-12 of its terms' summed magnitudes,
    which scale as 1/H) or not positive is a NumericalError: the pencil
    (L, diag(h)) needs h > 0.  Each process holds one bus's reduction at a time.
    """
    n, n_gen, children = case.n_bus, case.n_gen, []
    def fill(rows):  # row j: bus j's susceptances to each internal node, j kept first
        for j in rows:
            b[j] = kron_reduce(aug, [j, *range(n, n + n_gen)])[1:, 0].imag
    workers = max(1, min(workers, n // FORK_MIN_SPAN)) if n_gen and hasattr(os, "fork") else 1
    b = (np.frombuffer(mmap.mmap(-1, 8 * n * n_gen)).reshape(n, n_gen) if workers > 1
         else np.empty((n, n_gen)))  # children fill their spans of the zeroed mapping
    try:
        with contextlib.suppress(OSError):  # no process to be had: its rows stay 0
            for i in range(1, workers):
                if (pid := os.fork()) == 0:
                    try:
                        fill(range(n * i // workers, n * (i + 1) // workers))
                    finally:
                        os._exit(0)
                children.append(pid)
        fill(range(n // workers))
        while children:  # reaped one at a time: an exception leaves the rest below
            children.remove(os.waitpid(children[0], 0)[0])
    finally:  # kill and reap the children an exception left (the first may be reaped)
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    fill(np.flatnonzero(~b.all(axis=1)))  # a row with a 0: its child raised, died or never was
    terms = b * emfs.e_mag * np.cos(emfs.delta0 - sol.va[:, None])
    h_gen = np.array([g.h for g in case.generators])
    weighted = terms * participation / h_gen
    denom = np.sum(weighted, axis=1)
    zero = np.abs(denom) <= 1e-12 * np.sum(np.abs(weighted), axis=1)
    if zero.any():
        j = int(np.argmax(zero))
        raise NumericalError(
            f"nodal inertia undefined at bus {case.buses[j].id}: denominator "
            f"{denom[j]:.3e} (participation/angle cancellation)"
        )
    h_out = np.sum(terms, axis=1) / denom
    if not _positive(h_out):
        bad = [case.buses[i].id for i in np.nonzero(~(h_out > 0))[0]]
        raise NumericalError(f"non-positive nodal inertia at buses {bad}")
    return h_out


def _positive(h: np.ndarray) -> bool:
    return bool(np.all(h > 0) and np.all(np.isfinite(h)))


def solve_gep(lap: np.ndarray, h: np.ndarray) -> GeneralizedDecomposition:
    """Generalized eigenpairs of (L, N) with N = diag(h), h > 0."""
    if not _positive(h):
        raise GridGfvError("the pencil (L, diag(h)) needs h > 0: h has "
                           "non-positive or non-finite entries")
    return _eigh_pencil(lap, h)


def gfv(gep: GeneralizedDecomposition) -> SecondMode:
    """Second generalized eigenpair: value is the dynamic connectivity
    lambda2_bar (1/s), vector the per-bus placement metric |v2|/max|v2|.
    Low vector entries mark buses with high nodal frequency strength.
    """
    return _second_mode(gep, "the placement metric")
