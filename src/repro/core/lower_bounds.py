"""Adversarial instance generation: how tight are the worst-case bounds?

The theorems give *upper* bounds on the achieved ratio.  This module
searches for bad inputs -- structured draw sequences that push the
algorithms towards their bounds -- serving two purposes:

* **validation** of the reconstructed bound formulas (an upper bound that
  a real run exceeds is wrong; this is how the ⌈·⌉ variant of ``r_α`` was
  rejected, see :mod:`repro.core.bounds`), and
* **tightness reporting** for the bounds study (experiment E8): the gap
  between the empirical supremum and the theorem bound.

All strategies are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ba import ba_final_weights
from repro.core.bahf import bahf_final_weights
from repro.core.bounds import bound_for, normalize_algorithm
from repro.core.hf import hf_final_weights
from repro.core.problem import check_alpha

__all__ = [
    "ADVERSARY_STRATEGIES",
    "adversarial_draws",
    "WorstCaseReport",
    "worst_case_search",
]

#: Named draw-sequence strategies.  Each maps (alpha, size, rng) to an
#: array of shares in [alpha, 1/2].
ADVERSARY_STRATEGIES: Dict[str, Callable[[float, int, np.random.Generator], np.ndarray]] = {
    # every bisection as lopsided as the guarantee allows
    "all_alpha": lambda a, m, rng: np.full(m, a),
    # perfectly even splits (bad for N != 2^k)
    "all_half": lambda a, m, rng: np.full(m, 0.5),
    # coin-flip between the two extremes
    "alpha_or_half": lambda a, m, rng: np.where(rng.random(m) < 0.5, a, 0.5),
    # uniform over the allowed range (the paper's average case)
    "uniform": lambda a, m, rng: rng.uniform(a, 0.5, size=m),
    # mostly-lopsided with occasional even splits
    "mostly_alpha": lambda a, m, rng: np.where(rng.random(m) < 0.85, a, 0.5),
    # midpoint of the allowed range
    "midpoint": lambda a, m, rng: np.full(m, (a + 0.5) / 2.0),
}


def adversarial_draws(
    strategy: str,
    alpha: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draws for one named strategy (validated against the guarantee)."""
    check_alpha(alpha)
    if strategy not in ADVERSARY_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; known: {sorted(ADVERSARY_STRATEGIES)}"
        )
    draws = ADVERSARY_STRATEGIES[strategy](alpha, size, rng)
    return np.clip(draws, alpha, 0.5)


@dataclass(frozen=True)
class WorstCaseReport:
    """Result of an adversarial search for one (algorithm, alpha) pair."""

    algorithm: str
    alpha: float
    #: largest ratio any strategy/instance achieved
    empirical_sup: float
    #: the theorem bound at the N where the supremum was found
    bound_at_sup: float
    #: (n, strategy) achieving the supremum
    witness: Tuple[int, str]
    #: empirical_sup / bound -- 1.0 would mean the bound is tight
    tightness: float
    #: number of (n, strategy, repeat) instances evaluated
    n_instances: int


def _run(algorithm: str, alpha: float, n: int, draws: np.ndarray, lam: float) -> float:
    key = normalize_algorithm(algorithm)
    if key in ("hf", "phf"):
        weights = hf_final_weights(1.0, n, draws)
    elif key == "ba":
        it = iter(draws.tolist())
        weights = ba_final_weights(1.0, n, lambda: next(it))
    else:
        it = iter(draws.tolist())
        weights = bahf_final_weights(1.0, n, lambda: next(it), alpha=alpha, lam=lam)
    return float(weights.max() * n)


def worst_case_search(
    algorithm: str,
    alpha: float,
    *,
    n_values: Sequence[int] = (2, 3, 5, 7, 15, 16, 31, 33, 63, 100, 127, 128, 255),
    strategies: Optional[Sequence[str]] = None,
    repeats: int = 5,
    lam: float = 1.0,
    seed: int = 0,
    require_within_bound: bool = True,
) -> WorstCaseReport:
    """Search for the worst achieved ratio of ``algorithm`` at ``alpha``.

    Evaluates every (N, strategy) pair ``repeats`` times (randomized
    strategies differ per repeat) and reports the supremum, its witness
    and the tightness against the theorem bound.  With
    ``require_within_bound=True`` (default) a bound violation raises
    ``AssertionError`` -- the validation mode used by the test-suite.
    """
    check_alpha(alpha)
    strategies = list(strategies or ADVERSARY_STRATEGIES)
    rng = np.random.default_rng(seed)
    best_ratio = 1.0
    best_witness = (n_values[0], strategies[0])
    instances = 0
    for n in n_values:
        bound = bound_for(algorithm, alpha, n, lam)
        for strategy in strategies:
            for _ in range(repeats):
                draws = adversarial_draws(strategy, alpha, max(1, 4 * n), rng)
                ratio = _run(algorithm, alpha, n, draws, lam)
                instances += 1
                if require_within_bound and ratio > bound * (1 + 1e-9):
                    raise AssertionError(
                        f"{algorithm}: ratio {ratio:.6f} exceeds bound "
                        f"{bound:.6f} at n={n}, alpha={alpha}, "
                        f"strategy={strategy!r} -- the bound formula is wrong"
                    )
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_witness = (n, strategy)
    n_at, _ = best_witness
    bound_at = bound_for(algorithm, alpha, n_at, lam)
    return WorstCaseReport(
        algorithm=algorithm,
        alpha=alpha,
        empirical_sup=best_ratio,
        bound_at_sup=bound_at,
        witness=best_witness,
        tightness=best_ratio / bound_at,
        n_instances=instances,
    )
