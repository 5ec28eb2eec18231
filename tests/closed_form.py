"""Closed-form frequency response of a homogeneous network: the reference the
simulator is checked against."""

import math

import numpy as np


def _homogeneous(name: str, value) -> float:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(arr == arr.flat[0]):
        raise ValueError(f"{name} must be identical at every node, got {arr}")
    return float(arr.flat[0])


def closed_form_response(
    l_red: np.ndarray,
    m: float,
    d: float,
    disturbance_node: int,
    dp_magnitude: float,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Homogeneous-system frequency response to a power step, in closed form.

    For a network with identical inertia m and damping d at every node of
    l_red, a step dP applied at node b from rest gives, per mode alpha with
    gamma = d/m and s_a^2 = lambda_a/m - gamma^2/4:

        df_i(t) = (dP/m) e^{-gamma t/2} sum_a phi_ai phi_ab sin(s_a t)/s_a

    Overdamped modes continue with sinh; a zero discriminant uses the limit
    kernel t.  Returns (n_nodes, n_t); df is the angle rate in the same
    units the Laplacian/inertia pair implies.
    """
    m = _homogeneous("m", m)
    d = _homogeneous("d", d)
    if m <= 0:
        raise ValueError("m must be positive")
    if d < 0:
        raise ValueError("d must be non-negative")

    t = np.asarray(t_grid, dtype=float)
    lam, phi = np.linalg.eigh(np.asarray(l_red, dtype=float))
    gamma = d / m
    disc = lam / m - gamma * gamma / 4.0
    scale = max(float(np.max(np.abs(disc))), 1.0)
    kernels = np.empty((len(lam), len(t)))
    for a, da in enumerate(disc):
        if da > 1e-12 * scale:
            s = math.sqrt(da)
            kernels[a] = np.exp(-gamma * t / 2) * np.sin(s * t) / s
        elif da < -1e-12 * scale:
            s = math.sqrt(-da)  # s <= gamma/2 since lambda >= 0
            kernels[a] = (np.exp((s - gamma / 2) * t) - np.exp(-(s + gamma / 2) * t)) / (2 * s)
        else:
            kernels[a] = np.exp(-gamma * t / 2) * t
    weights = phi[disturbance_node, :]
    return (dp_magnitude / m) * (phi * weights[None, :]) @ kernels
