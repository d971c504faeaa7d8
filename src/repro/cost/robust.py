"""Endure-style robust tuning: min-max over a workload neighborhood (§2.3.2).

Tuning for exactly the expected workload is brittle: "the advent of new
volatile applications and the increasing adoption of shared infrastructure
add a degree of uncertainty between the expected and the observed
workloads." Endure formulates tuning as a min-max problem:

    minimize over tunings   max over w with KL(w ‖ ρ) ≤ η   cost(tuning, w)

where ρ is the expected (nominal) workload mix and η bounds how far the
observed mix may drift. Because the cost is linear in w, the inner maximum
has the classic distributionally-robust dual

    max_w Σ w_i c_i  =  min_{λ>0}  λ·η + λ·ln Σ_i ρ_i · e^{c_i / λ},

a one-dimensional convex minimization solved here with scipy. The outer
minimization reuses the navigator's candidate grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .model import CostModel, SystemEnv, Tuning, WorkloadMix
from .navigator import Navigator, candidate_tunings


def kl_divergence(w: Sequence[float], rho: Sequence[float]) -> float:
    """KL(w ‖ rho) over the operation-mix simplex (natural log)."""
    if len(w) != len(rho):
        raise ValueError("distributions must have equal length")
    total = 0.0
    for wi, ri in zip(w, rho):
        if wi < 0 or ri < 0:
            raise ValueError("probabilities must be non-negative")
        if wi == 0:
            continue
        if ri == 0:
            return float("inf")
        total += wi * math.log(wi / ri)
    return total


def worst_case_cost(
    costs: Sequence[float], rho: Sequence[float], eta: float
) -> float:
    """max over ``KL(w ‖ rho) <= eta`` of ``Σ w_i costs_i`` (via the dual).

    ``eta = 0`` returns the nominal cost; large ``eta`` approaches
    ``max(costs)`` (the adversary puts all mass on the dearest operation).
    """
    if eta < 0:
        raise ValueError("eta must be non-negative")
    nominal = sum(w * c for w, c in zip(rho, costs))
    if eta == 0:
        return nominal
    # Operations with zero nominal probability stay at zero inside any KL
    # ball (their divergence would be infinite), so the adversary can only
    # shift mass among the supported coordinates.
    supported = [(r, c) for r, c in zip(rho, costs) if r > 0]
    if not supported:
        return nominal
    peak = max(c for _r, c in supported)
    if peak <= 0:
        return nominal

    def dual(log_lam: float) -> float:
        lam = math.exp(log_lam)
        # λ·η + λ·ln Σ ρ_i e^{c_i/λ}, computed with the max factored out
        # for numerical stability.
        log_sum = math.log(
            sum(r * math.exp((c - peak) / lam) for r, c in supported)
        )
        return lam * eta + peak + lam * log_sum

    # Imported by the one function that needs it: nothing else under
    # ``repro`` uses scipy or numpy, and loading them costs every process
    # that imports the package ~0.5 s and ~57 MB of resident memory.
    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        dual, bounds=(math.log(1e-6 * peak + 1e-12), math.log(1e6 * peak + 1e-6)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    # The dual upper-bounds the primal everywhere; take the tightest point
    # and never report below the nominal (w = ρ is always feasible).
    return max(nominal, min(float(result.fun), peak))


def worst_case_mix(
    costs: Sequence[float], rho: Sequence[float], eta: float
) -> List[float]:
    """The adversarial mix achieving (approximately) the worst case.

    From the dual's optimality condition the worst-case distribution is the
    exponential tilt ``w_i ∝ ρ_i · e^{c_i/λ*}``; the tilt λ* is found by
    bisection on the KL constraint.
    """
    if eta <= 0:
        return list(rho)
    supported_costs = [c for r, c in zip(rho, costs) if r > 0]
    if not supported_costs:
        return list(rho)
    peak = max(supported_costs)

    def tilt(lam: float) -> List[float]:
        weights = [
            r * math.exp((c - peak) / lam) if r > 0 else 0.0
            for r, c in zip(rho, costs)
        ]
        total = sum(weights)
        return [weight / total for weight in weights]

    lo, hi = 1e-6 * max(peak, 1e-9), 1e6 * max(peak, 1e-9)
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        if kl_divergence(tilt(mid), rho) > eta:
            lo = mid
        else:
            hi = mid
    return tilt(hi)


@dataclass(frozen=True)
class RobustResult:
    """Output of the robust tuner, with the nominal tuning for contrast."""

    robust_tuning: Tuning
    robust_worst_cost: float
    robust_nominal_cost: float
    nominal_tuning: Tuning
    nominal_worst_cost: float
    nominal_nominal_cost: float

    @property
    def protection(self) -> float:
        """How much worst-case cost the robust choice avoids (fraction)."""
        if self.nominal_worst_cost == 0:
            return 0.0
        return 1.0 - self.robust_worst_cost / self.nominal_worst_cost

    @property
    def premium(self) -> float:
        """Extra nominal cost paid for robustness (fraction)."""
        if self.nominal_nominal_cost == 0:
            return 0.0
        return (
            self.robust_nominal_cost / self.nominal_nominal_cost - 1.0
        )


class RobustTuner:
    """Min-max tuner over the navigator's candidate grid.

    Args:
        env: System environment for the cost model.
        candidates: Tuning grid; defaults to the navigator's.
    """

    def __init__(
        self,
        env: SystemEnv,
        candidates: Optional[Sequence[Tuning]] = None,
    ) -> None:
        self.env = env
        self.model = CostModel(env)
        self.candidates = (
            list(candidates)
            if candidates is not None
            else list(candidate_tunings())
        )

    def tune(self, nominal: WorkloadMix, eta: float) -> RobustResult:
        """Pick the tuning minimizing worst-case cost within the η-ball."""
        rho = nominal.as_vector()
        nominal_result = Navigator(self.env, self.candidates).tune(nominal)
        best_tuning = None
        best_worst = float("inf")
        for tuning in self.candidates:
            costs = self.model.cost_vector(tuning)
            worst = worst_case_cost(costs, rho, eta)
            if worst < best_worst:
                best_worst = worst
                best_tuning = tuning
        assert best_tuning is not None
        nominal_costs = self.model.cost_vector(nominal_result.tuning)
        return RobustResult(
            robust_tuning=best_tuning,
            robust_worst_cost=best_worst,
            robust_nominal_cost=self.model.workload_cost(best_tuning, nominal),
            nominal_tuning=nominal_result.tuning,
            nominal_worst_cost=worst_case_cost(nominal_costs, rho, eta),
            nominal_nominal_cost=nominal_result.cost,
        )

    def cost_under(self, tuning: Tuning, mix: WorkloadMix) -> float:
        """Convenience: evaluate any tuning at any mix."""
        return self.model.workload_cost(tuning, mix)
