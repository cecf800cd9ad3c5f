"""Brute-force permutation oracles that only tests call.

They check the paper's optimality claim: no permutation of the basis
states puts more bias on one bit than the majority does.
"""

import math
from itertools import permutations

from hbcool.bias import prob_from_bias


def _check_odd(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need an odd positive bit count, got {n}")


def optimal_permutation_bias(n: int, b: float) -> float:
    """Bias of the n-bit majority, the best any permutation can put on one bit.

    Binomial closed form: 2 * sum_{k >= ceil(n/2)} C(n,k) p^k q^(n-k) - 1
    with p = (1 + b)/2.
    """
    _check_odd(n)
    if not (0.0 < b <= 1.0):
        raise ValueError("need bias in (0, 1]")
    p = prob_from_bias(b)
    q = 1.0 - p
    total = sum(math.comb(n, k) * p**k * q ** (n - k) for k in range((n + 1) // 2, n + 1))
    return 2.0 * total - 1.0


def best_bias_over_permutations(n: int, b: float) -> float:
    """Max first-bit bias over all basis-state permutations, by sorting.

    The optimum maps the 2^(n-1) most likely input strings onto the
    states whose first bit is 0, so it equals twice the sum of the top
    half of the sorted input probabilities, minus one. Kept to n <= 5.
    """
    _check_odd(n)
    if n > 5:
        raise ValueError("exhaustive variant limited to n <= 5")
    p = prob_from_bias(b)
    probs = sorted(
        (math.prod(p if (x >> i) & 1 == 0 else 1.0 - p for i in range(n))
         for x in range(1 << n)),
        reverse=True,
    )
    return 2.0 * math.fsum(probs[: 1 << (n - 1)]) - 1.0


def brute_force_best_permutation_bias(b: float) -> float:
    """Search all 8! permutations of the 3-bit basis states for the best
    achievable first-bit bias. Slow by construction; exists to verify that
    no permutation beats the majority."""
    p = prob_from_bias(b)
    probs = [math.prod(p if (x >> i) & 1 == 0 else 1.0 - p for i in range(3))
             for x in range(8)]
    best = 0.0
    for perm in permutations(range(8)):
        p0 = 0.0
        for x in range(8):
            if perm[x] & 1 == 0:
                p0 += probs[x]
        if p0 > best:
            best = p0
    return 2.0 * best - 1.0
