"""Exact generators for the named sequences used by the identity registry.

Covers the generalized harmonic family H_n^(p)(alpha), skew-harmonic numbers,
Stirling numbers of the second kind, Fibonacci/Lucas, Bernoulli numbers and
Laguerre polynomial values, plus a small text format ("harmonic:p=1,alpha=1/3")
for naming sequences on the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SeqSpecError
from .exact import RatLike, binom_int, parse_rat


def harmonic_table(n_max: int, p: int, alpha: RatLike) -> list[Fraction]:
    """[H_0^(p)(alpha), ..., H_n_max^(p)(alpha)] by one running sum.

    With alpha = r/q the sum is one integer numerator over q^n_max L^p, where
    L = lcm(1..n_max): term j adds r^j q^(n_max-j) (L/j)^p.
    """
    if n_max < 0:
        raise ValueError("n must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    a = Fraction(alpha)
    r, q = a.numerator, a.denominator
    lcm = math.lcm(*range(1, n_max + 1))
    den = q**n_max * lcm**p
    qpow = [1]
    for _ in range(n_max):
        qpow.append(qpow[-1] * q)
    out = [Fraction(0)]
    total = 0
    rpow = 1
    for j in range(1, n_max + 1):
        rpow *= r
        total += rpow * qpow[n_max - j] * (lcm // j) ** p
        out.append(Fraction(total, den))
    return out


def harmonic_p(n: int, p: int, alpha: RatLike) -> Fraction:
    """H_n^(p)(alpha) = sum_{j=1..n} alpha^j / j^p, with H_0 = 0."""
    return harmonic_table(n, p, alpha)[n]


def harmonic(n: int) -> Fraction:
    """Plain harmonic number H_n = 1 + 1/2 + ... + 1/n."""
    return harmonic_p(n, 1, 1)


def skew_harmonic(n: int) -> Fraction:
    """H_n^- = 1 - 1/2 + 1/3 - ...; equals -H_n(-1)."""
    return -harmonic_p(n, 1, -1)


_STIRLING_ROWS: list[list[int]] = [[1]]


def stirling2(p: int, j: int) -> int:
    """Stirling number of the second kind S(p, j).

    S(p, j) = j*S(p-1, j) + S(p-1, j-1) with S(0, 0) = 1; counts partitions
    of a p-set into j nonempty blocks.  Rows are cached as they are built.
    """
    if p < 0 or j < 0:
        raise ValueError("stirling2 requires p, j >= 0")
    if j > p:
        return 0
    while len(_STIRLING_ROWS) <= p:
        prev = _STIRLING_ROWS[-1]
        q = len(_STIRLING_ROWS)
        row = [0] * (q + 1)
        for i in range(1, q + 1):
            row[i] = i * (prev[i] if i < len(prev) else 0) + prev[i - 1]
        _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[p][j]


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """L_n with L_0 = 2, L_1 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n under the B_1 = -1/2 convention.

    Computed from sum_{k=0..n} C(n+1, k) B_k = 0 for n >= 1.  This is the
    unique convention under which the binomial transform of (B_k) equals
    ((-1)^n B_n); the other convention fails that check at n = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = sum(binom_int(m + 1, k) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def laguerre(n: int, x: RatLike) -> Fraction:
    """Laguerre polynomial value L_n(x) = sum_k C(n, k) (-x)^k / k!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    xf = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += binom_int(n, k) * (-xf) ** k / math.factorial(k)
    return total


# --- sequence specifications -------------------------------------------------

_ALIASES = {"harmonic": "harmonic_p"}

_KIND_PARAMS: dict[str, set[str]] = {
    "harmonic_p": {"p", "alpha"},
    "skew": set(),
    "fibonacci": {"doubled"},
    "lucas": {"doubled"},
    "bernoulli": set(),
    "laguerre": {"x"},
    "stirling_row": {"p"},
    "powers": {"base"},
}

_REQUIRED: dict[str, set[str]] = {
    "laguerre": {"x"},
    "stirling_row": {"p"},
    "powers": {"base"},
}

# Largest integer p per kind, so that no spec can request unbounded work:
# harmonic_table(180, 48, alpha) and stirling2(180, k) take milliseconds.
_P_CAP = {"harmonic_p": 48, "stirling_row": 180}


@dataclass(frozen=True)
class SeqSpec:
    """A named sequence plus its rational parameters."""

    kind: str
    params: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KIND_PARAMS:
            raise SeqSpecError(f"unknown sequence kind {self.kind!r}; known: {sorted(_KIND_PARAMS)}")
        extra = set(self.params) - _KIND_PARAMS[self.kind]
        if extra:
            raise SeqSpecError(f"{self.kind} does not take parameters {sorted(extra)}")
        missing = _REQUIRED.get(self.kind, set()) - set(self.params)
        if missing:
            raise SeqSpecError(f"{self.kind} requires parameters {sorted(missing)}")
        p = self.params.get("p")
        if self.kind == "harmonic_p" and p is not None and (p.denominator != 1 or p < 1):
            raise SeqSpecError("harmonic_p requires integer p >= 1")
        if self.kind == "stirling_row" and (p.denominator != 1 or p < 0):
            raise SeqSpecError("stirling_row requires integer p >= 0")
        if p is not None and self.kind in _P_CAP and p > _P_CAP[self.kind]:
            raise SeqSpecError(f"{self.kind} p={p} is out of range: must be at most {_P_CAP[self.kind]}")
        if self.params.get("doubled", 0) not in (0, 1):
            raise SeqSpecError(f"{self.kind} doubled must be 0 or 1 (false or true)")


def parse_seq_spec(text: str) -> SeqSpec:
    """Parse the canonical text form, e.g. "harmonic:p=1,alpha=1/3"."""
    kind, _, rest = text.strip().partition(":")
    kind = _ALIASES.get(kind, kind)
    params: dict[str, Fraction] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise SeqSpecError(f"expected key=value, got {item!r}")
            key = key.strip()
            if key in params:
                raise SeqSpecError(f"parameter {key!r} is given twice")
            value = value.strip()
            if key == "doubled":
                if value not in ("true", "false"):
                    raise SeqSpecError(f"doubled must be true or false, got {value!r}")
                params[key] = Fraction(value == "true")
            else:
                try:
                    params[key] = parse_rat(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise SeqSpecError(f"bad rational {value!r} for {key}: {exc}") from exc
    return SeqSpec(kind, params)


def seq_spec_text(spec: SeqSpec) -> str:
    """Canonical text form; inverse of parse_seq_spec."""
    kind = "harmonic" if spec.kind == "harmonic_p" else spec.kind
    if not spec.params:
        return kind
    order = {"p": 0, "alpha": 1}
    parts = []
    for key in sorted(spec.params, key=lambda k: (order.get(k, 9), k)):
        value = spec.params[key]
        if key == "doubled":
            parts.append(f"{key}={'true' if value else 'false'}")
        else:
            parts.append(f"{key}={value}")
    return f"{kind}:{','.join(parts)}"


def materialize(spec: SeqSpec, n_max: int) -> list[Fraction]:
    """Terms 0..n_max of the sequence, all as exact Fractions."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    kind, params = spec.kind, spec.params
    if kind == "harmonic_p":
        return harmonic_table(n_max, int(params.get("p", Fraction(1))), params.get("alpha", Fraction(1)))
    if kind == "skew":
        return [-h for h in harmonic_table(n_max, 1, -1)]
    if kind == "fibonacci":
        step = 2 if params.get("doubled") else 1
        return [Fraction(fibonacci(step * k)) for k in range(n_max + 1)]
    if kind == "lucas":
        step = 2 if params.get("doubled") else 1
        return [Fraction(lucas(step * k)) for k in range(n_max + 1)]
    if kind == "bernoulli":
        return [bernoulli(k) for k in range(n_max + 1)]
    if kind == "laguerre":
        return [laguerre(k, params["x"]) for k in range(n_max + 1)]
    if kind == "stirling_row":
        p = int(params["p"])
        return [Fraction(stirling2(p, j)) for j in range(n_max + 1)]
    if kind == "powers":
        base = params["base"]
        return [base**k if k else Fraction(1) for k in range(n_max + 1)]
    raise SeqSpecError(f"unknown sequence kind {kind!r}")
