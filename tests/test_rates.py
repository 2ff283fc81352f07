"""Tests for the closed-form convergence-rate calculator."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdeconv.errors import ParameterError
from fdeconv.rates import (
    RatePoint,
    RateQuery,
    RateResult,
    classify,
    classify_2d,
    classify_rd,
    rate_curve,
    write_rate_curve,
)


def query_2d(s1, s2, pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0), A=1.0):
    return RateQuery(s=(s1, s2), pi=pi, q=q, p=p, nu=nu, alpha=alpha, A=A)


def assert_same_result(a, b):
    """Field-wise equality that treats NaN as equal to NaN."""
    assert a.regime == b.regime
    assert a.xi1 == b.xi1
    assert a.xi2 == b.xi2
    for field in ("exponent", "log_exponent_lower", "log_exponent_upper"):
        x, y = getattr(a, field), getattr(b, field)
        if math.isnan(x) or math.isnan(y):
            assert math.isnan(x) and math.isnan(y)
        else:
            assert x == y


class TestRateQuery:
    def test_derived_quantities(self):
        q = RateQuery(s=(2.0, 1.0), pi=4.0, q=1.0, p=3.0, nu=0.5, alpha=(0.8, 0.6))
        assert q.r == 2
        assert q.alpha_bar == pytest.approx(0.7, rel=1e-15)
        assert q.pi_prime == 2.0
        assert q.p_prime == 3.0
        assert q.s_star == pytest.approx((2.25, 1.25), rel=1e-15)

    def test_infinite_pi_means_zero_reciprocal(self):
        q = RateQuery(s=(1.0, 1.0), pi=math.inf, q=math.inf, p=2.0, nu=0.5, alpha=(1.0, 1.0))
        assert q.s_star == (1.5, 1.5)
        assert q.p_prime == 2.0
        assert q.pi_prime == 2.0

    def test_tail_minimizer_picks_smallest_ratio(self):
        q = RateQuery(s=(2.0, 1.5, 0.9), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 0.5, 0.9))
        s2o, a2o, io = q.tail_minimizer()
        # ratios are 3.0 (i=2) and 1.0 (i=3)
        assert (s2o, a2o, io) == (0.9, 0.9, 3)

    def test_tail_minimizer_tie_takes_first(self):
        q = RateQuery(s=(2.0, 1.0, 1.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        assert q.tail_minimizer() == (1.0, 1.0, 2)

    def test_accepts_smoothness_exactly_at_floor(self):
        RateQuery(s=(0.5, 0.5), pi=math.inf, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0))
        RateQuery(s=(1.0, 1.0), pi=1.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=(1.0,), alpha=(1.0,)),
            dict(s=(1.0, 1.0, 1.0)),
            dict(pi=0.5),
            dict(q=0.0),
            dict(p=0.5),
            dict(p=math.inf),
            dict(nu=0.0),
            dict(nu=-1.0),
            dict(alpha=(1.0, 0.0)),
            dict(alpha=(1.2, 1.0)),
            dict(A=0.0),
            dict(s=(0.4, 1.0)),
            dict(s=(1.0, 0.9), pi=1.0),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        base = dict(s=(1.0, 1.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0), A=1.0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            RateQuery(**base)

    def test_rejects_non_numeric_vectors(self):
        with pytest.raises(ParameterError):
            RateQuery(s=("a", "b"), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0))


class TestClassify2d:
    def test_dense_example_on_boundary(self):
        # s1 = 2 equals (s2 / a2)(2 nu + a1) = 1 * 2, so the dense branch
        # applies with its boundary indicator set: exponent 2 * 1 / (2 + 1)
        res = classify_2d(query_2d(2.0, 1.0))
        assert res.regime == "dense-x"
        assert res.exponent == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert res.xi1 == 1
        assert res.xi2 == 0
        assert res.log_exponent_lower == 0.0
        assert res.log_exponent_upper == pytest.approx(2.0 / 3.0 + 1.0, rel=1e-15)
        assert res.on_boundary
        assert res.covered

    def test_dense_example_interior(self):
        res = classify_2d(query_2d(3.0, 1.0))
        assert res.regime == "dense-x"
        assert res.exponent == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert res.xi1 == 0
        assert not res.on_boundary
        assert res.log_exponent_upper == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_intermediate_example(self):
        # cut-offs are 0 < s1 = 1 < 4: exponent 2 * 1 / (2 * 1 + 2) = 1/2,
        # and the intermediate branch spends no boundary indicator
        res = classify_2d(query_2d(1.0, 2.0))
        assert res.regime == "intermediate"
        assert res.exponent == pytest.approx(0.5, rel=1e-15)
        assert res.xi1 == 0
        assert res.xi2 == 0
        assert res.log_exponent_upper == pytest.approx(0.5, rel=1e-15)

    def test_sparse_example(self):
        # p = 4, pi = 1: sparse cut-off is 2 * 2 * 0.75 = 3 >= s1 = 1,
        # side condition 3 >= 1.5 holds, s1* = 0.5, so the exponent is
        # 4 (1 + 0.25 - 1) / (2 * 0.5 + 2 * 0.5 + 1 - 1) = 0.5
        res = classify_2d(query_2d(1.0, 3.0, pi=1.0, p=4.0))
        assert res.regime == "sparse"
        assert res.exponent == pytest.approx(0.5, rel=1e-15)
        assert res.xi2 == 0
        assert res.log_exponent_upper == pytest.approx(0.5, rel=1e-15)

    def test_uncovered_side_condition(self):
        # p = 4, pi = 1 puts the side cut-off at 1.5 but s2 / a2 = 1
        res = classify_2d(query_2d(1.0, 1.0, pi=1.0, p=4.0))
        assert res.regime == "uncovered"
        assert not res.covered
        assert math.isnan(res.exponent)
        assert math.isnan(res.log_exponent_lower)
        assert math.isnan(res.log_exponent_upper)
        assert res.xi1 == 0 and res.xi2 == 0

    def test_anisotropic_memory_dense(self):
        # alpha = (0.8, 0.6), nu = 0.5: decay = 1.8, s2 / a2 = 2.5, cut 4.5
        res = classify_2d(query_2d(5.0, 1.5, alpha=(0.8, 0.6)))
        assert res.regime == "dense-x"
        assert res.exponent == pytest.approx(2.0 * 1.5 / (2.0 * 1.5 + 0.6), rel=1e-15)

    def test_rejects_three_coordinates(self):
        q = RateQuery(s=(1.0, 1.0, 1.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        with pytest.raises(ParameterError, match="r = 3"):
            classify_2d(q)

    def test_white_noise_reduction(self):
        # with alpha = (1, 1) every exponent collapses to the classical
        # white-noise form in each regime
        nu = 0.75
        dense = classify_2d(query_2d(4.0, 1.0, nu=nu))
        assert dense.exponent == pytest.approx(2.0 * 1.0 / (2.0 * 1.0 + 1.0), rel=1e-15)
        inter = classify_2d(query_2d(1.0, 2.0, nu=nu))
        assert inter.exponent == pytest.approx(2.0 * 1.0 / (2.0 * 1.0 + 2.0 * nu + 1.0), rel=1e-15)
        sparse = classify_2d(query_2d(1.0, 4.0, pi=1.0, p=4.0, nu=nu))
        s1_star = 1.0 + 0.5 - 1.0
        expected = 4.0 * (1.0 + 0.25 - 1.0) / (2.0 * s1_star + 2.0 * nu)
        assert sparse.exponent == pytest.approx(expected, rel=1e-15)


class TestClassifyRd:
    def test_dense_boundary_three_coordinates(self):
        # trailing ratios are (1, 2); the minimum sits at i = 2 with no tie,
        # and s1 = 2 hits the dense cut 1 * 2 exactly
        q = RateQuery(s=(2.0, 1.0, 2.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        res = classify_rd(q)
        assert res.regime == "dense-x"
        assert res.exponent == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert res.xi1 == 1
        assert res.log_exponent_upper == pytest.approx(2.0 / 3.0 + 1.0, rel=1e-15)

    def test_intermediate_three_coordinates(self):
        # the trailing ratios tie at 2, but the intermediate branch spends
        # no indicator, so both counts come back zero
        q = RateQuery(s=(1.0, 2.0, 2.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        res = classify_rd(q)
        assert res.regime == "intermediate"
        assert res.exponent == pytest.approx(0.5, rel=1e-15)
        assert res.xi1 == 0
        assert res.xi2 == 0
        assert res.log_exponent_upper == pytest.approx(0.5, rel=1e-15)

    def test_dense_tie_adds_log_factor(self):
        # ratios tie at 1 for i = 2 and i = 3: the dense count picks up the
        # boundary hit s1 = 2 and one extra from the tie
        q = RateQuery(s=(2.0, 1.0, 1.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        res = classify_rd(q)
        assert res.regime == "dense-x"
        assert res.exponent == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert res.xi1 == 2
        assert res.log_exponent_upper == pytest.approx(2.0 / 3.0 + 2.0, rel=1e-15)

    def test_four_coordinates_minimizer_drives_rate(self):
        # ratios are (4, 0.9 / 0.6, 8): the minimum 1.5 at i = 3 drives the
        # dense exponent p s / (2 s + a) = 2 * 0.9 / (1.8 + 0.6)
        q = RateQuery(
            s=(6.0, 2.0, 0.9, 4.0),
            pi=2.0,
            q=2.0,
            p=2.0,
            nu=0.5,
            alpha=(1.0, 0.5, 0.6, 0.5),
        )
        assert q.tail_minimizer() == (0.9, 0.6, 3)
        res = classify_rd(q)
        assert res.regime == "dense-x"
        assert res.exponent == pytest.approx(2.0 * 0.9 / (2.0 * 0.9 + 0.6), rel=1e-15)
        assert res.xi1 == 0

    def test_sparse_three_coordinates(self):
        q = RateQuery(s=(1.0, 3.0, 4.0), pi=1.0, q=2.0, p=4.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        res = classify_rd(q)
        assert res.regime == "sparse"
        assert res.exponent == pytest.approx(0.5, rel=1e-15)
        assert res.xi2 == 0

    def test_uncovered_three_coordinates(self):
        q = RateQuery(s=(1.0, 1.0, 5.0), pi=1.0, q=2.0, p=4.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        res = classify_rd(q)
        assert res.regime == "uncovered"
        assert math.isnan(res.exponent)

    def test_classify_dispatches_on_dimension(self):
        q2 = query_2d(2.0, 1.0)
        q3 = RateQuery(s=(2.0, 1.0, 2.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        assert_same_result(classify(q2), classify_2d(q2))
        assert_same_result(classify(q3), classify_rd(q3))


class TestPlanarEquivalence:
    """The general classifier restricted to r = 2 matches the planar one."""

    def test_on_frozen_examples(self):
        for q in [
            query_2d(2.0, 1.0),
            query_2d(3.0, 1.0),
            query_2d(1.0, 2.0),
            query_2d(1.0, 3.0, pi=1.0, p=4.0),
            query_2d(1.0, 1.0, pi=1.0, p=4.0),
            query_2d(5.0, 1.5, alpha=(0.8, 0.6)),
        ]:
            assert_same_result(classify_2d(q), classify_rd(q))

    def test_random_queries_agree_exactly(self):
        import random

        rng = random.Random(20260817)
        checked = 0
        for _ in range(500):
            pi = rng.choice([1.0, 1.5, 2.0, 3.0, math.inf])
            p = rng.choice([1.0, 2.0, 4.0, 6.0])
            nu = rng.uniform(0.05, 2.0)
            alpha = (rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            floor = max(1.0 / pi, 0.5)
            s = (floor + rng.expovariate(0.7), floor + rng.expovariate(0.7))
            q = RateQuery(s=s, pi=pi, q=2.0, p=p, nu=nu, alpha=alpha)
            assert_same_result(classify_2d(q), classify_rd(q))
            checked += 1
        assert checked == 500

    def test_boundary_queries_agree_exactly(self):
        # construct exact dense boundaries so the indicator path is hit too
        import random

        rng = random.Random(7)
        for _ in range(200):
            alpha = (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
            nu = rng.uniform(0.1, 1.5)
            s2 = 0.5 + rng.expovariate(1.0)
            s1 = (s2 / alpha[1]) * (2.0 * nu + alpha[0])
            if s1 < 0.5:
                continue
            q = RateQuery(s=(s1, s2), pi=2.0, q=2.0, p=2.0, nu=nu, alpha=alpha)
            res2, resr = classify_2d(q), classify_rd(q)
            assert res2.xi1 == 1
            assert_same_result(res2, resr)


class TestBoundaryContinuity:
    def test_dense_meets_intermediate(self):
        # at s1 = (s2 / a2)(2 nu + a1) the two branch formulas coincide
        import random

        rng = random.Random(123)
        classified = 0
        for _ in range(1000):
            a1 = rng.uniform(0.05, 1.0)
            a2 = rng.uniform(0.05, 1.0)
            nu = rng.uniform(0.05, 2.0)
            p = rng.uniform(1.0, 6.0)
            s2 = 0.5 + rng.expovariate(0.8)
            decay = 2.0 * nu + a1
            s1 = (s2 / a2) * decay
            dense = p * s2 / (2.0 * s2 + a2)
            intermediate = p * s1 / (2.0 * s1 + decay)
            assert dense == pytest.approx(intermediate, abs=1e-12)
            side = (p / 2.0) * (1.0 / min(p, 2.0) - 1.0 / p)
            if s1 >= 0.5 and s2 / a2 >= side:
                res = classify_2d(
                    RateQuery(s=(s1, s2), pi=2.0, q=2.0, p=p, nu=nu, alpha=(a1, a2))
                )
                assert res.regime == "dense-x"
                assert res.exponent == pytest.approx(dense, abs=1e-12)
                classified += 1
        assert classified > 500

    def test_intermediate_meets_sparse(self):
        # at s1 = (2 nu + a1)(p / 2)(1/pi - 1/p) with pi < p the
        # intermediate and sparse formulas coincide
        import random

        rng = random.Random(456)
        checked = 0
        for _ in range(5000):
            if checked >= 1000:
                break
            pi = rng.uniform(1.0, 3.0)
            p = pi + rng.uniform(0.5, 5.0)
            a1 = rng.uniform(0.05, 1.0)
            a2 = rng.uniform(0.05, 1.0)
            nu = rng.uniform(0.05, 2.0)
            decay = 2.0 * nu + a1
            s1 = decay * (p / 2.0) * (1.0 / pi - 1.0 / p)
            floor = max(1.0 / pi, 0.5)
            if s1 < floor:
                continue
            intermediate = p * s1 / (2.0 * s1 + decay)
            s1_star = s1 + 0.5 - 1.0 / pi
            sparse = p * (s1 + 1.0 / p - 1.0 / pi) / (2.0 * s1_star + decay - 1.0)
            assert intermediate == pytest.approx(sparse, abs=1e-12)
            # a valid query on this boundary classifies sparse (<=) and
            # reports the first sparse indicator
            side = (p / 2.0) * (1.0 / min(p, pi) - 1.0 / p)
            s2 = max(floor, a2 * side) + rng.expovariate(1.0)
            res = classify_2d(
                RateQuery(s=(s1, s2), pi=pi, q=2.0, p=p, nu=nu, alpha=(a1, a2))
            )
            assert res.regime == "sparse"
            assert res.xi2 >= 1
            assert res.exponent == pytest.approx(sparse, abs=1e-12)
            checked += 1
        assert checked == 1000


class TestDegradation:
    """The power of eps in the risk improves with milder memory.

    The rate in eps is eps^(2 ab e): the branch exponent e couples with
    the mean memory exponent, so the meaningful monotone quantity is
    2 ab e, not e alone.
    """

    @staticmethod
    def eps_power(q):
        res = classify_2d(q)
        return 2.0 * q.alpha_bar * res.exponent, res.regime

    def test_dense_improves_with_either_alpha(self):
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        powers = []
        for a1 in grid:
            power, regime = self.eps_power(query_2d(8.0, 1.0, alpha=(a1, 0.6)))
            assert regime == "dense-x"
            powers.append(power)
        assert powers == sorted(powers)
        powers = []
        for a2 in grid:
            power, regime = self.eps_power(query_2d(8.0, 1.0, alpha=(0.6, a2)))
            assert regime == "dense-x"
            powers.append(power)
        assert powers == sorted(powers)

    def test_intermediate_improves_with_either_alpha(self):
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        for axis in (0, 1):
            powers = []
            for a in grid:
                alpha = (a, 0.6) if axis == 0 else (0.6, a)
                power, regime = self.eps_power(query_2d(1.0, 8.0, alpha=alpha))
                assert regime == "intermediate"
                powers.append(power)
            assert powers == sorted(powers)

    def test_sparse_improves_with_second_alpha(self):
        powers = []
        for a2 in [0.2, 0.4, 0.6, 0.8, 1.0]:
            power, regime = self.eps_power(
                query_2d(1.0, 20.0, pi=1.0, p=4.0, alpha=(1.0, a2))
            )
            assert regime == "sparse"
            powers.append(power)
        assert powers == sorted(powers)

    def test_sparse_first_alpha_can_go_the_other_way(self):
        # the blur couples with the first memory exponent: when the blur is
        # mild (small nu) a larger a1 deepens the effective ill-posedness
        # faster than it tames the noise, so the eps power drops
        lo, _ = self.eps_power(query_2d(1.0, 2.0, pi=1.0, p=4.0, nu=0.05, alpha=(0.9, 1.0)))
        hi, _ = self.eps_power(query_2d(1.0, 2.0, pi=1.0, p=4.0, nu=0.05, alpha=(1.0, 1.0)))
        assert lo == pytest.approx(1.9, rel=1e-12)
        assert hi == pytest.approx(2.0 / 1.1, rel=1e-12)
        assert hi < lo


class TestRateResultInvariants:
    @given(
        s1=st.floats(0.5, 12.0),
        s2=st.floats(0.5, 12.0),
        pi_idx=st.integers(0, 3),
        p=st.floats(1.0, 8.0),
        nu=st.floats(0.01, 3.0),
        a1=st.floats(0.01, 1.0),
        a2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_covered_exponents_lie_in_range(self, s1, s2, pi_idx, p, nu, a1, a2):
        pi = [1.0, 1.5, 2.0, math.inf][pi_idx]
        floor = max(1.0 / pi, 0.5)
        q = RateQuery(s=(max(s1, floor), max(s2, floor)), pi=pi, q=2.0, p=p, nu=nu, alpha=(a1, a2))
        res = classify_2d(q)
        if res.covered:
            assert 0.0 < res.exponent <= p / 2.0
            assert res.log_exponent_lower == 0.0
            assert res.log_exponent_upper >= res.exponent
            assert res.regime in {"dense-x", "intermediate", "sparse"}
        else:
            assert math.isnan(res.exponent)

    def test_uncovered_requires_small_side_ratio(self):
        # with pi >= p the side cut-off is zero, so everything is covered
        import random

        rng = random.Random(9)
        for _ in range(200):
            p = rng.uniform(1.0, 4.0)
            pi = p + rng.uniform(0.0, 4.0)
            floor = max(1.0 / pi, 0.5)
            q = RateQuery(
                s=(floor + rng.expovariate(1.0), floor + rng.expovariate(1.0)),
                pi=pi,
                q=2.0,
                p=p,
                nu=rng.uniform(0.05, 2.0),
                alpha=(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)),
            )
            assert classify_2d(q).covered


class TestRateCurve:
    def test_empty_grid(self):
        assert rate_curve(query_2d(2.0, 1.0), []) == ()

    def test_normalized_at_largest_epsilon(self):
        pts = rate_curve(query_2d(2.0, 1.0), [0.01, 0.2, 0.05])
        assert pts[1].epsilon == 0.2
        assert pts[1].bound == 1.0
        assert all(pt.regime == "dense-x" for pt in pts)
        assert all(pt.exponent == pts[0].exponent for pt in pts)

    def test_halving_scales_by_two_to_minus_exponent(self):
        q = query_2d(3.0, 1.0, alpha=(0.8, 0.6))
        res = classify_2d(q)
        two_ab = 2.0 * q.alpha_bar
        eps_hi = 0.2
        eps_lo = eps_hi * 2.0 ** (-1.0 / two_ab)  # halves eps^(2 ab)
        pts = rate_curve(q, [eps_hi, eps_lo])
        assert pts[1].bound == pytest.approx(2.0 ** (-res.exponent), rel=1e-12)

    def test_monotone_toward_small_epsilon(self):
        eps = [0.3, 0.1, 0.03, 0.01, 0.003]
        pts = rate_curve(query_2d(1.0, 2.0), eps)
        bounds = [pt.bound for pt in pts]
        assert bounds == sorted(bounds, reverse=True)

    def test_log_factor_uses_upper_exponent(self):
        q = query_2d(2.0, 1.0)  # boundary case: log exponent 2/3 + 1
        res = classify_2d(q)
        (pt,) = rate_curve(q, [0.1])
        assert pt.log_factor == pytest.approx(
            abs(math.log(0.1)) ** res.log_exponent_upper, rel=1e-12
        )

    def test_uncovered_propagates(self):
        pts = rate_curve(query_2d(1.0, 1.0, pi=1.0, p=4.0), [0.1, 0.01])
        assert [pt.regime for pt in pts] == ["uncovered", "uncovered"]
        assert all(math.isnan(pt.bound) for pt in pts)
        assert all(math.isnan(pt.exponent) for pt in pts)

    def test_rejects_epsilon_outside_unit_interval(self):
        with pytest.raises(ParameterError):
            rate_curve(query_2d(2.0, 1.0), [0.5, 1.0])
        with pytest.raises(ParameterError):
            rate_curve(query_2d(2.0, 1.0), [0.0])

    def test_three_coordinate_curve(self):
        q = RateQuery(s=(1.0, 2.0, 2.0), pi=2.0, q=2.0, p=2.0, nu=0.5, alpha=(1.0, 1.0, 1.0))
        pts = rate_curve(q, [0.1, 0.05])
        assert pts[0].regime == "intermediate"
        assert pts[0].exponent == pytest.approx(0.5, rel=1e-15)


class TestCsvEmitter:
    def test_round_trip(self):
        pts = rate_curve(query_2d(2.0, 1.0), [0.2, 0.1, 0.05])
        buf = io.StringIO()
        write_rate_curve(pts, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "epsilon,bound,regime,exponent"
        assert len(lines) == 4
        eps, bound, regime, exponent = lines[2].split(",")
        assert float(eps) == 0.1
        assert regime == "dense-x"
        assert float(exponent) == pts[1].exponent
        assert float(bound) == pts[1].bound

    def test_empty_curve_writes_header_only(self):
        buf = io.StringIO()
        write_rate_curve((), buf)
        assert buf.getvalue() == "epsilon,bound,regime,exponent\n"
