"""Closed-form minimax convergence rates for anisotropic deconvolution.

Given the smoothness of the target (an anisotropic Besov ball), the decay
of the blur transform, and the memory exponents of the noise, the L^p risk
of the thresholding estimator decays like

    C A^p [eps^(2 ab) / A^2]^e |ln eps|^x

as ``eps -> 0``, where the exponent ``e`` and the log exponent ``x`` are
piecewise algebraic in the parameters. This module classifies which regime
a parameter point falls in (dense in the second coordinate, intermediate,
or sparse), evaluates ``e`` and ``x`` for it, and tabulates the resulting
bound on a grid of noise levels.

Three regimes partition the covered parameter space by comparing ``s1``
against two cut-offs built from ``(s2 / a2)(2 nu + a1)`` and
``(2 nu + a1)(p / 2)(1 / pi - 1 / p)``; equalities are boundary cases and
are reported through the indicator counts ``xi1``/``xi2``, which add to
the log exponent of the upper bound. Parameter points where the side
condition ``s2 / a2 >= (p / 2)(1 / p' - 1 / p)`` fails are not covered by
the closed forms and come back labelled ``"uncovered"`` with NaN exponents
rather than a silent extrapolation.

For more than two dimensions the first coordinate keeps its special role
(it carries the blur) and the remaining ones compete through the smallest
ratio ``s_i / alpha_i``; ties among those ratios contribute extra log
factors. One classifier, :func:`classify`, covers every ``r``; at ``r = 2``
the smallest ratio is ``s2 / alpha2`` and there are no ties to count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import ParameterError

#: Regime labels, in the order the branch conditions are checked.
REGIME_DENSE = "dense-x"
REGIME_INTERMEDIATE = "intermediate"
REGIME_SPARSE = "sparse"
REGIME_UNCOVERED = "uncovered"


def _as_float_tuple(values, name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a sequence of numbers") from exc
    return out


@dataclass(frozen=True)
class RateQuery:
    """Parameter point for the rate calculator.

    ``s`` and ``alpha`` are vectors of equal length ``r >= 2``: smoothness
    per coordinate and noise memory exponent per coordinate. ``pi`` and
    ``q`` describe the Besov ball (``q`` only affects membership, never an
    exponent, and is carried unused), ``p`` is the risk exponent, ``nu``
    the blur decay, and ``A`` the ball radius. ``pi`` and ``q`` may be
    ``math.inf``; ``p`` must be finite.
    """

    s: tuple[float, ...]
    pi: float
    q: float
    p: float
    nu: float
    alpha: tuple[float, ...]
    A: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "s", _as_float_tuple(self.s, "s"))
        object.__setattr__(self, "alpha", _as_float_tuple(self.alpha, "alpha"))
        if len(self.s) < 2:
            raise ParameterError(f"need at least two coordinates, got {len(self.s)}")
        if len(self.alpha) != len(self.s):
            raise ParameterError(
                f"alpha has {len(self.alpha)} entries but s has {len(self.s)}"
            )
        if not self.pi >= 1.0:
            raise ParameterError(f"pi must satisfy pi >= 1, got {self.pi}")
        if not self.q >= 1.0:
            raise ParameterError(f"q must satisfy q >= 1, got {self.q}")
        if not 1.0 <= self.p < math.inf:
            raise ParameterError(f"p must satisfy 1 <= p < inf, got {self.p}")
        if not self.nu > 0.0:
            raise ParameterError(f"nu must be positive, got {self.nu}")
        for i, a in enumerate(self.alpha):
            if not 0.0 < a <= 1.0:
                raise ParameterError(f"alpha[{i}] must lie in (0, 1], got {a}")
        if not self.A > 0.0:
            raise ParameterError(f"A must be positive, got {self.A}")
        floor = max(1.0 / self.pi, 0.5)
        if min(self.s) < floor:
            raise ParameterError(
                f"min(s) = {min(self.s)} is below max(1/pi, 1/2) = {floor}"
            )

    @property
    def r(self) -> int:
        """Number of coordinates."""
        return len(self.s)

    @property
    def alpha_bar(self) -> float:
        """Mean memory exponent; the noise level enters as ``eps^(2 ab)``."""
        return sum(self.alpha) / len(self.alpha)

    @property
    def pi_prime(self) -> float:
        """``min(2, pi)``."""
        return min(2.0, self.pi)

    @property
    def p_prime(self) -> float:
        """``min(p, pi)``."""
        return min(self.p, self.pi)

    @property
    def s_star(self) -> tuple[float, ...]:
        """``s_i + 1/2 - 1/pi`` per coordinate."""
        return tuple(si + 0.5 - 1.0 / self.pi for si in self.s)

    def tail_minimizer(self) -> tuple[float, float, int]:
        """Smallest ``s_i / alpha_i`` over ``i >= 2`` as ``(s, alpha, i)``.

        ``i`` is the 1-based coordinate index; exact ties resolve to the
        smallest index (the choice never changes a reported value because
        tie counts are invariant under it).
        """
        ratios = [self.s[i] / self.alpha[i] for i in range(1, self.r)]
        pos = min(range(len(ratios)), key=ratios.__getitem__)
        return self.s[pos + 1], self.alpha[pos + 1], pos + 2


@dataclass(frozen=True)
class RateResult:
    """Regime label, rate exponent, and log-factor exponents.

    ``exponent`` is the power of ``eps^(2 ab) / A^2`` shared by the lower
    and upper bounds; the bounds differ only in their power of
    ``|ln eps|``, which is 0 below and ``exponent`` plus the applicable
    boundary count above. ``xi1``/``xi2`` hold the indicator sums exactly
    as the selected regime consumes them: ``xi1`` can be nonzero only in
    the dense regime, ``xi2`` only in the sparse one. Uncovered points
    carry NaN in all three exponent fields.
    """

    regime: str
    exponent: float
    log_exponent_lower: float
    log_exponent_upper: float
    xi1: int = 0
    xi2: int = 0

    @property
    def covered(self) -> bool:
        """Whether the closed forms apply at this parameter point."""
        return self.regime != REGIME_UNCOVERED

    @property
    def on_boundary(self) -> bool:
        """Whether a branch-defining equality held exactly."""
        return self.xi1 > 0 or self.xi2 > 0


def classify(query: RateQuery) -> RateResult:
    """Regime and rate exponent for a parameter point with ``r >= 2`` coordinates.

    The first coordinate keeps the blur; the others enter through the
    smallest ratio ``s_o / a_o`` over ``i >= 2`` (see
    :meth:`RateQuery.tail_minimizer`), which is ``s2 / a2`` when ``r = 2``.
    The three covered regimes, checked in order:

    - dense-x: ``s1 >= (s_o / a_o)(2 nu + a1)``; the rate is driven by the
      minimizing coordinate, ``exponent = p s_o / (2 s_o + a_o)``.
    - sparse: ``s1 <= (2 nu + a1)(p / 2)(1 / pi - 1 / p)``;
      ``exponent = p (s1 + 1/p - 1/pi) / (2 s1* + 2 nu + a1 - 1)``.
    - intermediate: strictly between the two cut-offs;
      ``exponent = p s1 / (2 s1 + 2 nu + a1)``.

    Both outer regimes additionally need the side condition
    ``s_o / a_o >= (p / 2)(1 / p' - 1 / p)``; when it fails no closed form
    applies and the result is the explicit uncovered marker. Equality in
    a branch condition sets the matching indicator, which the upper bound
    spends as an extra power of ``|ln eps|``. Exact ties among the trailing
    ratios add to the boundary count of the regime that consumes them:
    dense counts the other coordinates whose ratio ties the minimizing one,
    sparse counts every trailing coordinate whose ratio sits exactly on the
    side cut-off. With ``r = 2`` the dense tie sum is empty.
    """
    s1 = query.s[0]
    a1 = query.alpha[0]
    p, pi = query.p, query.pi
    s2o, a2o, io = query.tail_minimizer()
    ratios = {i: query.s[i - 1] / query.alpha[i - 1] for i in range(2, query.r + 1)}
    decay = 2.0 * query.nu + a1
    side = (p / 2.0) * (1.0 / query.p_prime - 1.0 / p)
    dense_cut = (s2o / a2o) * decay
    sparse_cut = decay * (p / 2.0) * (1.0 / pi - 1.0 / p)

    if s2o / a2o < side:
        return RateResult(
            regime=REGIME_UNCOVERED,
            exponent=math.nan,
            log_exponent_lower=math.nan,
            log_exponent_upper=math.nan,
        )
    if s1 >= dense_cut:
        xi1 = int(s1 == dense_cut) + sum(
            int(ratios[i] == s2o / a2o) for i in ratios if i != io
        )
        exponent = p * s2o / (2.0 * s2o + a2o)
        return RateResult(
            regime=REGIME_DENSE,
            exponent=exponent,
            log_exponent_lower=0.0,
            log_exponent_upper=exponent + xi1,
            xi1=xi1,
        )
    if s1 <= sparse_cut:
        xi2 = int(s1 == sparse_cut) + sum(int(ratios[i] == side) for i in ratios)
        s1_star = s1 + 0.5 - 1.0 / pi
        exponent = p * (s1 + 1.0 / p - 1.0 / pi) / (2.0 * s1_star + decay - 1.0)
        return RateResult(
            regime=REGIME_SPARSE,
            exponent=exponent,
            log_exponent_lower=0.0,
            log_exponent_upper=exponent + xi2,
            xi2=xi2,
        )
    exponent = p * s1 / (2.0 * s1 + decay)
    return RateResult(
        regime=REGIME_INTERMEDIATE,
        exponent=exponent,
        log_exponent_lower=0.0,
        log_exponent_upper=exponent,
    )


#: :func:`classify` under the name of its r-dimensional reading.
classify_rd = classify


def classify_2d(query: RateQuery) -> RateResult:
    """:func:`classify` restricted to two-coordinate queries."""
    if query.r != 2:
        raise ParameterError(f"classify_2d requires r = 2, got r = {query.r}")
    return classify(query)


@dataclass(frozen=True)
class RatePoint:
    """One row of a tabulated rate curve.

    ``bound`` is the power-law part ``(eps^(2 ab) / A^2)^exponent``
    normalized to 1 at the largest noise level in the grid; it is free of
    log factors, so it decreases monotonically as ``eps`` shrinks.
    ``log_factor`` carries ``|ln eps|`` raised to the upper bound's log
    exponent, unnormalized, for callers who want the full upper-bound
    shape ``bound * log_factor``.
    """

    epsilon: float
    bound: float
    log_factor: float
    regime: str
    exponent: float


def rate_curve(query: RateQuery, epsilons) -> tuple[RatePoint, ...]:
    """Tabulate the theoretical risk bound over a grid of noise levels.

    Constants are unknown, so the curve is normalized: the largest
    ``eps`` in the grid gets bound 1, and halving ``eps^(2 ab)`` scales
    the bound by ``2^(-exponent)``. An uncovered query propagates as rows
    labelled uncovered with NaN values instead of an extrapolated curve.
    """
    eps = _as_float_tuple(epsilons, "epsilons")
    for e in eps:
        if not 0.0 < e < 1.0:
            raise ParameterError(f"epsilon values must lie in (0, 1), got {e}")
    if not eps:
        return ()
    result = classify(query)
    if not result.covered:
        return tuple(
            RatePoint(
                epsilon=e,
                bound=math.nan,
                log_factor=math.nan,
                regime=result.regime,
                exponent=math.nan,
            )
            for e in eps
        )
    two_ab = 2.0 * query.alpha_bar
    eps_ref = max(eps)
    return tuple(
        RatePoint(
            epsilon=e,
            bound=(e / eps_ref) ** (two_ab * result.exponent),
            log_factor=abs(math.log(e)) ** result.log_exponent_upper,
            regime=result.regime,
            exponent=result.exponent,
        )
        for e in eps
    )


def write_rate_curve(points, file) -> None:
    """Write rate-curve rows as CSV with columns epsilon,bound,regime,exponent.

    ``file`` is an open text file; callers own opening and closing it.
    """
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(["epsilon", "bound", "regime", "exponent"])
    for pt in points:
        writer.writerow([repr(pt.epsilon), repr(pt.bound), pt.regime, repr(pt.exponent)])
