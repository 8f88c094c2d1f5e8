"""Convergence criteria, the angular measure, and trace recording."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .linalg import normalize_columns


@dataclass(frozen=True)
class MaxIterOnly:
    """Run for the configured number of iterations, never stopping early."""


@dataclass(frozen=True)
class FrobeniusTol:
    """Stop when ||A - W H||_F <= eps_f."""

    eps_f: float


@dataclass(frozen=True)
class AngularTol:
    """Stop when every successive-column angle is <= eps_deg degrees."""

    eps_deg: float = 1.0

    def __post_init__(self):
        if not 0 < self.eps_deg < 90:
            raise InvalidConfig(f"eps_deg must lie in (0, 90), got {self.eps_deg!r}")


Criterion = MaxIterOnly | FrobeniusTol | AngularTol


@dataclass(frozen=True)
class Checkpoint:
    iteration: int
    objective_sq: float
    theta_max_deg: float | None
    elapsed_s: float


@dataclass
class ConvergenceTrace:
    """Per-checkpoint objective / angle / wall-time records."""

    checkpoints: list[Checkpoint] = field(default_factory=list)

    def append(self, cp: Checkpoint) -> None:
        if self.checkpoints and cp.iteration <= self.checkpoints[-1].iteration:
            raise ValueError("checkpoint iterations must be strictly increasing")
        self.checkpoints.append(cp)

    def iterations(self) -> list[int]:
        return [cp.iteration for cp in self.checkpoints]

    def objective_at(self, iteration: int) -> float:
        for cp in self.checkpoints:
            if cp.iteration == iteration:
                return cp.objective_sq
        raise KeyError(f"no checkpoint at iteration {iteration}")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "objective_sq", "theta_max_deg", "elapsed_s"])
            for cp in self.checkpoints:
                theta = "" if cp.theta_max_deg is None else repr(cp.theta_max_deg)
                writer.writerow([cp.iteration, repr(cp.objective_sq), theta, repr(cp.elapsed_s)])


def match_columns(W: np.ndarray, W_ref: np.ndarray) -> np.ndarray:
    """Greedy permutation mapping columns of W onto their best cosine match in W_ref.

    Returns perm such that W[:, perm[j]] is the match for W_ref[:, j].
    """
    if W.shape != W_ref.shape:
        raise DimensionMismatch(f"shapes {W.shape} and {W_ref.shape} differ")
    k = W.shape[1]
    sims = normalize_columns(W_ref).T @ normalize_columns(W)  # sims[j, i] = cos(ref_j, W_i)
    perm = np.full(k, -1, dtype=int)
    taken_ref, taken_w = set(), set()
    flat = [(-sims[j, i], j, i) for j in range(k) for i in range(k)]
    for _, j, i in sorted(flat):
        if j in taken_ref or i in taken_w:
            continue
        perm[j] = i
        taken_ref.add(j)
        taken_w.add(i)
    return perm


def angular_measure(W_prev: np.ndarray, W_curr: np.ndarray) -> np.ndarray:
    """Per-column angles (degrees) between successive basis iterates.

    Columns are compared index-wise; to compare matched columns, permute
    W_curr by match_columns first. A zero column on either side yields 90
    degrees so the solver keeps iterating.
    """
    if W_prev.shape != W_curr.shape:
        raise DimensionMismatch(f"shapes {W_prev.shape} and {W_curr.shape} differ")
    np_prev = np.sqrt(np.einsum("ij,ij->j", W_prev, W_prev))
    np_curr = np.sqrt(np.einsum("ij,ij->j", W_curr, W_curr))
    dots = np.einsum("ij,ij->j", W_prev, W_curr)
    zero = (np_prev == 0) | (np_curr == 0)
    denom = np.where(zero, 1.0, np_prev * np_curr)
    cos = np.clip(dots / denom, -1.0, 1.0)
    theta = np.degrees(np.arccos(cos))
    theta[zero] = 90.0
    return theta


def should_stop(
    criterion: Criterion,
    trace: ConvergenceTrace,
    latest_thetas: np.ndarray | None,
) -> str | None:
    """Return a termination reason at the latest checkpoint, or None.

    Callers only invoke this on checkpoint iterations past burn-in.
    """
    if not trace.checkpoints:
        raise ValueError("should_stop requires at least one recorded checkpoint")
    if isinstance(criterion, MaxIterOnly):
        return None
    latest = trace.checkpoints[-1]
    if isinstance(criterion, FrobeniusTol):
        if np.sqrt(latest.objective_sq) <= criterion.eps_f:
            return "frobenius_tol"
        return None
    if latest_thetas is not None and float(np.max(latest_thetas)) <= criterion.eps_deg:
        return "angular_tol"
    return None
