"""Process constants and scaling functions for a given (H, n, eps, mu).

Rational-valued quantities (the eps/mu constraints, 2-density, the closure
coefficient) are computed exactly with Fractions; only the real-power
quantities (p, the open-pair fraction, c, d) use double precision.  All
logarithms are natural logs; the convention is recorded in output metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .patterns import Pattern, count_automorphisms, two_density

LOG_CONVENTION = "natural"

Rational = Union[int, float, str, Fraction]


def as_fraction(x: Rational) -> Fraction:
    """Exact rational coercion; floats go through their decimal literal so
    that 0.1 means 1/10, not its binary approximation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} is not a rational: its denominator is 0") from None


def validate_eps_mu(p: Pattern, eps: Rational, mu: Rational,
                    ) -> tuple[bool, list[str]]:
    """Check the two explicit constraints on (eps, mu) in exact arithmetic.

    Returns (ok, diagnostics); each diagnostic line reports one constraint
    with its exact values.
    """
    e = as_fraction(eps)
    m = as_fraction(mu)
    if e <= 0 or m <= 0:
        raise ValueError("eps and mu must be positive")
    eh = p.edge_count
    d2 = two_density(p)
    bound = min(Fraction(1, eh), 1 / (2 * d2))
    lines = []
    ok1 = e < bound
    lines.append(f"eps < min(1/e_H, 1/(2*d2)): {e} < {bound}: {'ok' if ok1 else 'VIOLATED'}")
    lhs = 2 * eh * (2 * m) ** (eh - 1)
    ok2 = lhs <= e
    lines.append(f"2*e_H*(2*mu)^(e_H-1) <= eps: {lhs} <= {e}: {'ok' if ok2 else 'VIOLATED'}")
    return ok1 and ok2, lines


def default_eps_mu(p: Pattern) -> tuple[Fraction, Fraction]:
    """Shipped defaults: (1/10, 1/100) whenever those satisfy the explicit
    constraints (they do for every pattern exercised here); otherwise the
    largest eps of the form k/100, then the largest mu of the form k/1000,
    meeting the constraints."""
    cand = (Fraction(1, 10), Fraction(1, 100))
    ok, _ = validate_eps_mu(p, *cand)
    if ok:
        return cand
    eh = p.edge_count
    d2 = two_density(p)
    bound = min(Fraction(1, eh), 1 / (2 * d2))
    k = min(99, math.ceil(bound * 100) - 1)
    while k >= 1 and Fraction(k, 100) >= bound:
        k -= 1
    if k < 1:
        raise ValueError(f"{p.name}: no eps of the form k/100 fits the constraints")
    eps = Fraction(k, 100)
    j = 999
    while j >= 1 and 2 * eh * (2 * Fraction(j, 1000)) ** (eh - 1) > eps:
        j -= 1
    if j < 1:
        raise ValueError(f"{p.name}: no mu of the form k/1000 fits the constraints")
    return eps, Fraction(j, 1000)


def edge_scale(n: int, p: Pattern) -> float:
    """The process's natural edge-probability scale n^(-1/d2)."""
    if n < 2:
        raise ValueError("edge scale needs n >= 2")
    return float(n) ** (-1.0 / float(two_density(p)))


def edge_count_scale(n: int, p: Pattern) -> float:
    """n^2 * scale * (ln n)^(1/(e_H-1)), the order of the final edge count
    (Bohman and Keevash); for C3 it is n^(3/2) * sqrt(ln n)."""
    return n * n * edge_scale(n, p) * math.log(n) ** (1.0 / (p.edge_count - 1))


def step_horizon(n: int, p: Pattern, mu: Rational = None) -> int:
    """floor(mu * edge_count_scale(n, p)): the number of steps over which
    the tracked-phase estimates are formulated.  None means the default mu
    of ``default_eps_mu``."""
    m = default_eps_mu(p)[1] if mu is None else as_fraction(mu)
    if m <= 0:
        raise ValueError("mu must be positive")
    val = float(m) * edge_count_scale(n, p)
    steps = math.floor(val)
    if steps < 1:
        raise ValueError(f"step horizon {val:.3g} < 1: n={n} too small for this regime")
    return steps


def scaled_time(i: int, n: int, scale: float) -> float:
    """t = i / (n^2 * scale)."""
    if i < 0:
        raise ValueError("step index must be >= 0")
    return i / (n * n * scale)


def open_fraction(t: float, p: Pattern) -> float:
    """exp(-2 * e_H * aut^(-1) * (2t)^(e_H-1)): the predicted upper scaling
    of the open-pair count as a fraction of n^2."""
    eh = p.edge_count
    aut = count_automorphisms(p)
    return math.exp(-2.0 * eh / aut * (2.0 * t) ** (eh - 1))


def closure_coefficient(p: Pattern) -> Fraction:
    """e_H (e_H - 1) / aut(H); scales the co-closure lower bound."""
    eh = p.edge_count
    return Fraction(eh * (eh - 1), count_automorphisms(p))


def density_constants(p: Pattern, eps: Rational, mu: Rational,
                      ) -> tuple[float, float]:
    """The density-bound pair (c, d):

        c = max(16/eps, 13*2^5 / (beta * mu^(e_H-1)))
        d = min(1/c, 1/e_H - eps, 1/d2 - 2*eps, 1)
    """
    ok, lines = validate_eps_mu(p, eps, mu)
    if not ok:
        raise ValueError("invalid (eps, mu): " + "; ".join(lines))
    e = as_fraction(eps)
    m = as_fraction(mu)
    beta = closure_coefficient(p)
    eh = p.edge_count
    d2 = two_density(p)
    c_exact = max(16 / e, Fraction(13 * 32) / (beta * m ** (eh - 1)))
    c = float(c_exact)
    d = min(1.0 / c, float(Fraction(1, eh) - e), float(1 / d2 - 2 * e), 1.0)
    return c, d


@dataclass(frozen=True)
class Constants:
    """Bundle of all constants for one (pattern, n, eps, mu) choice."""

    pattern: Pattern
    n: int
    eps: Fraction
    mu: Fraction
    p: float              # edge scale n^(-1/d2)
    m_steps: int          # step horizon
    beta: Fraction        # closure coefficient
    c: float
    d: float

    @classmethod
    def for_run(cls, pattern: Pattern, n: int,
                eps: Rational = None, mu: Rational = None) -> "Constants":
        if eps is None or mu is None:
            de, dm = default_eps_mu(pattern)
            eps, mu = de if eps is None else eps, dm if mu is None else mu
        eps, mu = as_fraction(eps), as_fraction(mu)
        c, d = density_constants(pattern, eps, mu)  # validates (eps, mu)
        return cls(pattern=pattern, n=n, eps=eps, mu=mu,
                   p=edge_scale(n, pattern),
                   m_steps=step_horizon(n, pattern, mu),
                   beta=closure_coefficient(pattern), c=c, d=d)

    @property
    def size_limit(self) -> int:
        """floor(n^d), the largest |A| the density bound speaks of.  It is 1
        for n below 2^(1/d), so at every simulable n the bound is vacuous:
        singletons have no edges."""
        return math.floor(self.n ** self.d)

    def t(self, i: int) -> float:
        return scaled_time(i, self.n, self.p)

    def open_bound(self, i: int) -> float:
        """q(t(i)) * n^2: the reference bound on the open-pair count."""
        return open_fraction(self.t(i), self.pattern) * self.n * self.n

    def as_dict(self) -> dict:
        return {
            "pattern": self.pattern.name,
            "n": self.n,
            "eps": str(self.eps),
            "mu": str(self.mu),
            "p": self.p,
            "m_steps": self.m_steps,
            "beta": str(self.beta),
            "c": self.c,
            "d": self.d,
            "log": LOG_CONVENTION,
        }
