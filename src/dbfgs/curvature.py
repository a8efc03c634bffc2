"""Regularized neighborhood BFGS, one node at a time.

The engines run the stacked form in ``_kernel.py``; the per-node functions
here are its reference, and the tests compare the two.

Each node keeps a symmetric positive-definite approximation B of the
curvature its neighborhood variable block sees, updated from modified
variable/gradient variations so that accepted updates satisfy the raw
secant condition B+ v_tilde = delta_g while keeping lambda_min(B+) >= gamma.
Descent directions apply (B^{-1} + Gamma D) to the neighborhood gradient,
solved through a Cholesky factorization rather than by maintaining an
explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._kernel import SKIP_THRESHOLD
from .netgraph import Graph

__all__ = [
    "CurvatureState",
    "VariationPair",
    "modified_variations",
    "bfgs_update",
    "neighborhood_descent",
    "SKIP_THRESHOLD",
]


@dataclass
class CurvatureState:
    """Node-local curvature approximation over its closed neighborhood.

    Attributes
    ----------
    nodes : tuple of int
        Sorted closed neighborhood the blocks refer to.
    matrix : np.ndarray
        B, symmetric positive definite, (m_i p, m_i p).
    gamma, big_gamma : float
        Regularizers: gamma shifts every accepted update, big_gamma scales
        the diagonal normalizer term in the descent.
    d_diag : np.ndarray
        Diagonal of D restricted to the neighborhood, block j equal to
        1/m_j, flattened to length m_i p.
    """

    nodes: tuple
    matrix: np.ndarray
    gamma: float
    big_gamma: float
    d_diag: np.ndarray

    @classmethod
    def initial(cls, graph: Graph, i: int, p: int, gamma: float,
                big_gamma: float) -> "CurvatureState":
        if gamma <= 0 or big_gamma <= 0:
            raise ValueError("regularizers gamma and big_gamma must be positive")
        nodes = graph.neighborhoods[i]
        d_diag = np.repeat([1.0 / graph.m[j] for j in nodes], p)
        return cls(
            nodes=nodes,
            matrix=np.eye(len(nodes) * p),
            gamma=gamma,
            big_gamma=big_gamma,
            d_diag=d_diag,
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class VariationPair:
    """Modified variations (v_tilde, r_tilde) and the raw gradient difference.

    r_tilde == dg - gamma * v_tilde holds by construction.
    """

    v_mod: np.ndarray
    r_mod: np.ndarray
    dg: np.ndarray


def modified_variations(x_old: np.ndarray, x_new: np.ndarray,
                        g_old: np.ndarray, g_new: np.ndarray,
                        d_diag: np.ndarray, gamma: float) -> VariationPair:
    """v_tilde = D (x_new - x_old); r_tilde = (g_new - g_old) - gamma v_tilde.

    All arguments are flat neighborhood vectors of length m_i p.
    """
    x_old, x_new = np.ravel(x_old), np.ravel(x_new)
    g_old, g_new = np.ravel(g_old), np.ravel(g_new)
    if not (x_old.shape == x_new.shape == g_old.shape == g_new.shape == d_diag.shape):
        raise ValueError("variation inputs must share the neighborhood dimension")
    v = d_diag * (x_new - x_old)
    dg = g_new - g_old
    return VariationPair(v_mod=v, r_mod=dg - gamma * v, dg=dg)


def bfgs_update(state: CurvatureState, pair: VariationPair):
    """Regularized BFGS update; returns (new_state, accepted).

    Accepts only when v'r > SKIP_THRESHOLD * ||v|| ||r||; infeasible pairs
    keep B unchanged and never raise. Accepted updates are symmetrized and
    satisfy B+ v_tilde = dg exactly up to roundoff.
    """
    v, r = pair.v_mod, pair.r_mod
    ip = float(v @ r)
    if not ip > SKIP_THRESHOLD * np.linalg.norm(v) * np.linalg.norm(r):
        return state, False
    b = state.matrix
    bv = b @ v
    vbv = float(v @ bv)
    if vbv <= 0.0:
        # only reachable if B lost positive definiteness upstream
        return state, False
    new = b + np.outer(r, r) / ip - np.outer(bv, bv) / vbv
    new[np.diag_indices_from(new)] += state.gamma
    new = 0.5 * (new + new.T)
    return (
        CurvatureState(nodes=state.nodes, matrix=new, gamma=state.gamma,
                       big_gamma=state.big_gamma, d_diag=state.d_diag),
        True,
    )


def neighborhood_descent(state: CurvatureState, g_nbhd: np.ndarray) -> np.ndarray:
    """e = -(B^{-1} + Gamma D) g over the neighborhood, via Cholesky solve."""
    g = np.ravel(g_nbhd)
    if g.shape[0] != state.dim:
        raise ValueError(f"gradient length {g.shape[0]} does not match state "
                         f"dimension {state.dim}")
    try:
        c, low = sla.cho_factor(state.matrix, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - invariant breach
        raise RuntimeError("curvature matrix lost positive definiteness") from exc
    y = sla.cho_solve((c, low), g, check_finite=False)
    return -(y + state.big_gamma * state.d_diag * g)
