import math
from fractions import Fraction

import numpy as np
import pytest

from quantfunc import (Dataset, DomainError, StepQuantileProcess,
                       averaged_two_step_process, cvar, empirical_quantile_process,
                       gastwirth_j, linear_functional, lorenz, mean_excess,
                       staudte_r)
from quantfunc import functionals
from quantfunc.functionals import QUAD_NODES, quad


def proc_of(*values):
    return empirical_quantile_process(np.array(values, dtype=float))


def test_the_quadrature_constants_are_leggauss_on_the_unit_interval():
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    assert [float(t).hex() for t in (nodes + 1.0) / 2.0] == [t.hex() for t in functionals._NODES]
    assert [float(w).hex() for w in weights / 2.0] == [w.hex() for w in functionals._NODE_WEIGHTS]


class TestLinearFunctional:
    def test_unit_weight_is_mean(self):
        assert linear_functional(proc_of(1, 2, 3), lambda u: 1.0) == pytest.approx(2.0)

    def test_zero_weight(self):
        assert linear_functional(proc_of(1, 2, 3), lambda u: 0.0) == 0.0

    def test_upper_half_indicator(self):
        w = lambda u: (u > 0.5) / 0.5
        assert linear_functional(proc_of(1, 2, 3, 4), w) == pytest.approx(3.5)

    @pytest.mark.parametrize("w,big_w", [
        (lambda u: 6.0 * u * (1.0 - u), lambda u: 3.0 * u * u - 2.0 * u ** 3),
        (lambda u: (2 * QUAD_NODES) * u ** (2 * QUAD_NODES - 1),
         lambda u: u ** (2 * QUAD_NODES)),
        (np.exp, np.exp),
        (lambda u: np.cos(3.0 * u), lambda u: np.sin(3.0 * u) / 3.0),
    ], ids=["6u(1-u)", "top_degree", "exp", "cos"])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_equals_antiderivative_sum(self, w, big_w, n):
        values = np.sort(np.random.default_rng(n).uniform(0.5, 2.0, n))
        edges = np.arange(n + 1) / n
        exact = math.fsum(values * (big_w(edges[1:]) - big_w(edges[:-1])))
        got = linear_functional(empirical_quantile_process(values), w)
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_jump_on_a_cell_edge_is_exact(self):
        # 1{u > 0.3} on n = 10 cells: the top 7 cells have weight 1/10 each
        got = linear_functional(proc_of(*range(1, 11)), lambda u: 1.0 * (u > 0.3))
        assert got == pytest.approx(4.9, rel=1e-15)

    def test_quad_returns_every_cell_integral(self):
        assert quad(lambda u: 2.0 * u, 4) == pytest.approx([1 / 16, 3 / 16, 5 / 16, 7 / 16],
                                                          rel=1e-15)

    def test_nonfinite_weight(self):
        with pytest.raises(DomainError):
            linear_functional(proc_of(1, 2, 3), lambda u: np.inf)


class TestCvar:
    def test_hand_example(self):
        assert cvar(proc_of(1, 2, 3, 4, 5), 0.6).value == pytest.approx(4.5)

    def test_small_alpha_whole_mean(self):
        # for any alpha in (0, 1/n], ceil(n alpha) = 1: the mean of all but the minimum
        est = cvar(proc_of(1, 2, 3, 4), 1e-17)
        assert est.value == 3.0

    def test_tail_count_is_exact_at_decimal_levels(self):
        # 1 - 0.9 is below 0.1 in binary; the tail still holds 2000 values
        assert cvar(proc_of(*range(1, 20001)), 0.9).value == 19000.5

    def test_tail_too_small(self):
        with pytest.raises(DomainError):
            cvar(proc_of(1, 2, 3), 0.99)

    def test_tail_mean_at_least_overall_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            proc = empirical_quantile_process(rng.standard_normal(30))
            overall = linear_functional(proc, lambda u: 1.0)
            assert cvar(proc, 0.8).value >= overall - 1e-10

    def test_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(2)
        proc = empirical_quantile_process(rng.standard_normal(40))
        vals = [cvar(proc, a).value for a in np.linspace(0.05, 0.9, 18)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_matches_direct_tail_average(self):
        rng = np.random.default_rng(3)
        sample = rng.standard_normal(57)
        proc = empirical_quantile_process(sample)
        m = int(np.floor(57 * 0.25))
        direct = np.mean(np.sort(sample)[-m:])
        assert cvar(proc, 0.75).value == pytest.approx(direct, rel=1e-14)


class TestMeanExcess:
    def test_hand_example(self):
        assert mean_excess(proc_of(1, 2, 3, 4), 2.5).value == pytest.approx(1.0)

    def test_below_minimum_is_mean_minus_gamma(self):
        assert mean_excess(proc_of(1, 2, 3, 4), 0.0).value == pytest.approx(2.5)

    def test_at_maximum_is_zero(self):
        assert mean_excess(proc_of(1, 2, 3, 4), 4.0).value == 0.0

    def test_no_exceedance(self):
        with pytest.raises(DomainError):
            mean_excess(proc_of(1, 2, 3), 10.0)

    @pytest.mark.parametrize("gamma", [-math.inf, -1e308])
    def test_infinite_value_is_refused(self, gamma):
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="not finite"):
            mean_excess(proc_of(1, 2, 3), gamma)


class TestLorenz:
    def test_equal_values_diagonal(self):
        proc = proc_of(2, 2, 2, 2)
        for a in (0.25, 0.5, 0.75):
            assert lorenz(proc, a).value == pytest.approx(a)

    def test_concentrated_at_top(self):
        assert lorenz(proc_of(0, 0, 0, 10), 0.75).value == 0.0

    def test_hand_example(self):
        assert lorenz(proc_of(1, 2, 3, 4), 0.5).value == pytest.approx(0.3)

    def test_split_is_exact_at_decimal_levels(self):
        # 100 * 0.55 is 55.00000000000001 in binary, leaving a spurious fraction
        assert lorenz(proc_of(*[1.0] * 100), 0.55).value == 0.55

    def test_full_mass_is_one(self):
        rng = np.random.default_rng(4)
        proc = empirical_quantile_process(rng.uniform(0.1, 5.0, 23))
        assert lorenz(proc, 1.0).value == 1.0

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            lorenz(proc_of(-1, 2, 3), 0.5)

    def test_rejects_zero_mean(self):
        with pytest.raises(DomainError):
            lorenz(proc_of(0, 0, 0), 0.5)

    def test_nondecreasing_and_convex_on_grid(self):
        rng = np.random.default_rng(5)
        proc = empirical_quantile_process(rng.uniform(0.0, 3.0, 20))
        grid = np.arange(1, 21) / 20
        vals = np.array([lorenz(proc, a).value for a in grid])
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) >= -1e-12)


class TestGastwirthJ:
    def test_equal_values_at_half(self):
        assert gastwirth_j(proc_of(3, 3, 3, 3), 0.5).value == pytest.approx(1.0)

    def test_bottom_share_over_top_share(self):
        # L(0.5) = 0.3 and 1 - L(0.5) = 0.7 for values 1..4
        assert gastwirth_j(proc_of(1, 2, 3, 4), 0.5).value == pytest.approx(0.3 / 0.7)

    def test_zero_numerator(self):
        assert gastwirth_j(proc_of(0, 0, 0, 10), 0.25).value == 0.0

    def test_rejects_zero_mass(self):
        # for a sorted nonnegative process the denominator can only vanish
        # when the whole sample is zero, which already fails the mean check
        with pytest.raises(DomainError):
            gastwirth_j(proc_of(0, 0, 0, 0), 0.5)


class TestStaudteR:
    def test_equal_values(self):
        assert staudte_r(proc_of(2, 2, 2), 0.5).value == 1.0

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(6)
        sample = rng.uniform(1.0, 9.0, 21)
        p1 = empirical_quantile_process(sample)
        p2 = empirical_quantile_process(4.0 * sample)
        assert staudte_r(p2, 0.4).value == staudte_r(p1, 0.4).value

    def test_order_statistic_indices(self):
        # alpha = 0.4 on 10 values: Q(0.2) is the 2nd, Q(0.8) the 8th
        assert staudte_r(proc_of(*range(1, 11)), 0.4).value == pytest.approx(0.25)

    def test_nondecreasing_in_alpha_nonnegative_support(self):
        rng = np.random.default_rng(7)
        proc = empirical_quantile_process(rng.uniform(0.5, 4.0, 30))
        vals = [staudte_r(proc, a).value for a in np.linspace(0.1, 0.9, 9)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            staudte_r(proc_of(-2, -1, 0), 0.1)


@pytest.mark.parametrize("functional,alpha,message", [
    (lorenz, 1.5, "alpha must be in (0, 1], got 1.5"),
    (gastwirth_j, 0.0, "alpha must be in (0, 1), got 0.0"),
    (gastwirth_j, 1.0, "alpha must be in (0, 1), got 1.0"),
    (staudte_r, 0.0, "alpha must be in (0, 1), got 0.0"),
    (staudte_r, 1.0, "alpha must be in (0, 1), got 1.0"),
    # 1 - alpha and 1 - alpha / 2 round to 1 at these levels: the error
    # names the caller's level and the rounding, not a level of 1 or a
    # degenerate sample.
    (gastwirth_j, 1e-17, "alpha=1e-17 is too small: 1 - L(1 - alpha) rounds to 0"),
    (staudte_r, 1e-17, "alpha=1e-17 is too small: 1 - alpha/2 rounds to 1"),
    (staudte_r, 5e-324, "alpha=5e-324 is too small: 1 - alpha/2 rounds to 1"),
], ids=["lorenz-1.5", "gastwirth_j-0", "gastwirth_j-1", "staudte_r-0", "staudte_r-1",
        "gastwirth_j-1e-17", "staudte_r-1e-17", "staudte_r-5e-324"])
def test_a_level_outside_the_domain_is_refused(functional, alpha, message):
    with pytest.raises(DomainError) as info:
        functional(proc_of(*range(1, 11)), alpha)
    assert str(info.value) == message


class TestAgainstDirectSampleFormulas:
    """Functionals of the empirical process equal independent direct formulas."""

    def test_all_functionals(self):
        rng = np.random.default_rng(8)
        sample = rng.uniform(0.5, 10.0, 41)
        proc = empirical_quantile_process(sample)
        s = np.sort(sample)
        n = len(s)

        m = n - math.ceil(n * Fraction("0.7"))
        assert cvar(proc, 0.7).value == pytest.approx(s[-m:].mean(), rel=1e-14)

        gamma = float(np.median(sample))
        exceed = s[s >= gamma]
        assert mean_excess(proc, gamma).value == pytest.approx(
            (exceed - gamma).mean(), rel=1e-14)

        alpha = 0.4
        na = n * alpha
        k = int(np.floor(na))
        direct_l = (s[:k].sum() + (na - k) * s[k]) / s.sum()
        assert lorenz(proc, alpha).value == pytest.approx(direct_l, rel=1e-14)

        direct_j = direct_l / (1.0 - lorenz(proc, 1 - alpha).value)
        assert gastwirth_j(proc, alpha).value == pytest.approx(direct_j, rel=1e-14)

        lo = s[int(np.ceil(n * 0.2)) - 1]
        hi = s[int(np.ceil(n * 0.8)) - 1]
        assert staudte_r(proc, 0.4).value == pytest.approx(lo / hi, rel=1e-14)


class TestAveragedTwoStepInput:
    def test_reads_the_process_as_its_values_wrapped_anew(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, (60, 2))
        ds = Dataset(y=5.0 + x @ [1.0, -0.5] + rng.uniform(0.0, 1.0, 60), x=x)
        proc = averaged_two_step_process(ds, 0.5)
        rewrapped = StepQuantileProcess(values=proc.values.copy())
        for functional, level in [(cvar, 0.9), (lorenz, 0.3), (gastwirth_j, 0.2),
                                  (staudte_r, 0.4), (mean_excess, 5.5)]:
            got, want = functional(proc, level), functional(rewrapped, level)
            assert got.value.hex() == want.value.hex()
            assert got == want
