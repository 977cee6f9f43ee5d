import dataclasses
import math
from fractions import Fraction

import pytest

from hfree.patterns import parse_pattern
from hfree.theory import (Constants, as_fraction, closure_coefficient,
                          default_eps_mu, density_constants, edge_scale,
                          open_fraction, scaled_time, step_horizon,
                          validate_eps_mu)

C3 = parse_pattern("C3")
C4 = parse_pattern("C4")
K4 = parse_pattern("K4")


def test_as_fraction_decimal_literals():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(2) == 2


def test_validate_eps_mu_examples():
    ok, lines = validate_eps_mu(C3, "0.1", "0.01")
    assert ok, lines
    ok, _ = validate_eps_mu(C3, "0.3", "0.01")   # 0.3 >= 1/4
    assert not ok
    ok, _ = validate_eps_mu(K4, "0.15", "0.05")  # 12*(0.1)^5 = 1.2e-4 <= 0.15
    assert ok


def test_validate_is_exact_at_boundary():
    # strict inequality: eps = 1/4 fails for C3 exactly
    assert not validate_eps_mu(C3, Fraction(1, 4), "0.01")[0]
    assert validate_eps_mu(C3, Fraction(24, 100), "0.01")[0]
    with pytest.raises(ValueError):
        validate_eps_mu(C3, 0, "0.01")


def test_defaults():
    for p in (C3, C4, K4, parse_pattern("C5")):
        assert default_eps_mu(p) == (Fraction(1, 10), Fraction(1, 100))
    # K5 has e_H = 10, so eps must drop below 1/10; the fallback rule kicks in
    eps, mu = default_eps_mu(parse_pattern("K5"))
    assert eps == Fraction(9, 100)
    assert validate_eps_mu(parse_pattern("K5"), eps, mu)[0]
    assert mu.denominator <= 1000


def test_edge_scale():
    assert edge_scale(10**4, C3) == pytest.approx(0.01, abs=1e-15)
    assert edge_scale(64, C4) == pytest.approx(1 / 16, rel=1e-12)
    assert edge_scale(64, K4) == pytest.approx(64 ** (-2 / 5), rel=1e-12)
    with pytest.raises(ValueError):
        edge_scale(1, C3)


def test_step_horizon_values():
    assert step_horizon(10**4, C3, "0.01") == 30348
    assert step_horizon(100, C3, "0.01") == 21
    with pytest.raises(ValueError):
        step_horizon(10**4, C3, 0)
    with pytest.raises(ValueError):
        step_horizon(4, C3, "0.01")   # below the asymptotic regime


def test_step_horizon_scaling():
    # ratio at doubled n approaches 2^(3/2) (within 5% by n = 10^6)
    r = step_horizon(2 * 10**6, C3, "0.01") / step_horizon(10**6, C3, "0.01")
    assert abs(r - 2 ** 1.5) / 2 ** 1.5 < 0.05


def test_scaled_time_and_open_fraction():
    p = edge_scale(100, C3)
    assert scaled_time(0, 100, p) == 0
    assert scaled_time(round(100 * 100 * p), 100, p) == pytest.approx(1.0, rel=1e-9)
    assert open_fraction(0.0, C3) == 1.0
    # with e_H = 3 and aut = 6 the exponent is -(2t)^2
    for t in (0.3, 0.7, 1.0):
        assert open_fraction(t, C3) == pytest.approx(math.exp(-4 * t * t), rel=1e-12)
    vals = [open_fraction(t / 10, K4) for t in range(11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_closure_coefficient():
    assert closure_coefficient(C3) == 1
    assert closure_coefficient(K4) == Fraction(5, 4)
    assert closure_coefficient(C4) == Fraction(3, 2)


def test_density_constants_example():
    c, d = density_constants(C3, "0.1", "0.01")
    assert c == pytest.approx(4.16e6, rel=1e-12)
    assert d == pytest.approx(1 / 4.16e6, rel=1e-12)
    with pytest.raises(ValueError):
        density_constants(C3, "0.3", "0.01")


@pytest.mark.parametrize("pattern", [C3, C4, K4])
@pytest.mark.parametrize("eps,mu", [("0.1", "0.01"), ("0.05", "0.02"), ("0.12", "0.005")])
def test_density_constants_invariants(pattern, eps, mu):
    ok, _ = validate_eps_mu(pattern, eps, mu)
    if not ok:
        pytest.skip("pair not valid for this pattern")
    c, d = density_constants(pattern, eps, mu)
    assert d <= 1 / c <= float(as_fraction(eps)) / 16 + 1e-18
    assert c >= 16 / float(as_fraction(eps)) - 1e-9
    assert 0 < d <= 1


def test_constants_bundle():
    consts = Constants.for_run(C3, 10**4)
    assert consts.eps == Fraction(1, 10) and consts.mu == Fraction(1, 100)
    assert consts.m_steps == 30348
    assert consts.p == pytest.approx(0.01, abs=1e-15)
    assert consts.beta == 1
    assert consts.t(consts.n * consts.n * consts.p) == pytest.approx(1.0)
    assert consts.open_bound(0) == pytest.approx(10**8)
    d = consts.as_dict()
    assert d["log"] == "natural" and d["m_steps"] == 30348


def test_size_limit_is_vacuous_at_simulable_n():
    # floor(n^d) = 1: the density bound speaks only of singletons
    consts = Constants.for_run(C3, 800)
    assert consts.size_limit == 1
    assert "size_limit" not in consts.as_dict()
    assert dataclasses.replace(consts, d=0.5).size_limit == 28
