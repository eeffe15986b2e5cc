"""Theoretical convergence bounds of the diffusion balancer (Lemma 2).

The paper bounds the rounds to γ-convergence by

    O( min( N² log(SN/γ) log N ,  S N log N / γ ) )

with N workers, total pipeline size S and convergence factor γ.  The
diffusion balancer caps its rounds with this bound.
"""

from __future__ import annotations

import math


def diffusion_rounds_bound(n: int, S: float, gamma: float) -> int:
    """min(N² log(SN/γ) log N, S N log N / γ) — Lemma 2's bound.

    Returned as an int >= 1 suitable as an iteration cap.
    """
    if n <= 1:
        return 1
    if S <= 0 or gamma <= 0:
        raise ValueError("S and gamma must be positive")
    log_n = math.log(n)
    arg = max(S * n / gamma, math.e)
    b1 = n * n * math.log(arg) * log_n
    b2 = S * n * log_n / gamma
    return max(1, int(math.ceil(min(b1, b2))))
