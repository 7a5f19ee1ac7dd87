"""Exact generators for the named sequences used by the identity registry.

Covers the generalized harmonic family H_n^(p)(alpha), skew-harmonic numbers,
Stirling numbers of the second kind, Fibonacci/Lucas, Bernoulli numbers and
Laguerre polynomial values, plus a small text format ("harmonic:p=1,alpha=1/3")
for naming sequences on the command line.  Each kind of that format is one row
of the table _KINDS: the parameters it takes and requires, the range of its
integer p, and the function that returns its terms.  SeqSpec checks a spec
against its row and materialize calls the row's function.

The harmonic family has one integer kernel, _harmonic_num: the running sum as
integer numerators over one denominator.  harmonic_table is its Fraction view,
and harmonic_p builds one Fraction, for its last entry alone.  Stirling numbers
and Bernoulli numbers come as whole tables, stirling2_row(p) and
bernoulli_table(n), built afresh on each call, since nothing here is cached
(the cache rule is in exact); stirling2 and bernoulli are views of one entry,
so a caller that needs many values takes one table.  laguerre sums its
defining series in integers and builds one Fraction per value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import SeqSpecError
from .exact import RatLike, binom_int, parse_rat


def _harmonic_num(n_max: int, p: int, alpha: RatLike) -> tuple[list[int], int]:
    """H_0^(p)(alpha), ..., H_n_max^(p)(alpha) as integer numerators over one denominator.

    Returns (nums, den) with H_n^(p)(alpha) = Fraction(nums[n], den), by one
    running sum: with alpha = r/q, den = q^n_max L^p, where L = lcm(1..n_max),
    and term j adds r^j q^(n_max-j) (L/j)^p.  An int or a Fraction alpha is
    read as it is, any other scalar through Fraction().
    """
    if n_max < 0:
        raise ValueError("n must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    a = alpha if type(alpha) is Fraction or type(alpha) is int else Fraction(alpha)
    r, q = a.numerator, a.denominator
    lcm = math.lcm(*range(1, n_max + 1))
    qpow = [1]
    for _ in range(n_max):
        qpow.append(qpow[-1] * q)
    nums = [0]
    rpow = 1
    for j in range(1, n_max + 1):
        rpow *= r
        nums.append(nums[-1] + rpow * qpow[n_max - j] * (lcm // j) ** p)
    return nums, qpow[n_max] * lcm**p


def harmonic_table(n_max: int, p: int, alpha: RatLike) -> list[Fraction]:
    """[H_0^(p)(alpha), ..., H_n_max^(p)(alpha)]: the Fraction view of _harmonic_num."""
    nums, den = _harmonic_num(n_max, p, alpha)
    return [Fraction(num, den) for num in nums]


def harmonic_p(n: int, p: int, alpha: RatLike) -> Fraction:
    """H_n^(p)(alpha) = sum_{j=1..n} alpha^j / j^p, with H_0 = 0; one Fraction."""
    nums, den = _harmonic_num(n, p, alpha)
    return Fraction(nums[n], den)


def harmonic(n: int) -> Fraction:
    """Plain harmonic number H_n = 1 + 1/2 + ... + 1/n."""
    return harmonic_p(n, 1, 1)


def skew_harmonic(n: int) -> Fraction:
    """H_n^- = 1 - 1/2 + 1/3 - ...; equals -H_n(-1)."""
    return -harmonic_p(n, 1, -1)


def stirling2_row(p: int) -> list[int]:
    """[S(p, 0), ..., S(p, p)], the Stirling numbers of the second kind, built afresh on each call.

    S(p, j) = j S(p-1, j) + S(p-1, j-1) with S(0, 0) = 1; S(p, j) counts the
    partitions of a p-set into j nonempty blocks.
    """
    if p < 0:
        raise ValueError("stirling2 requires p, j >= 0")
    row = [1]
    for _ in range(p):
        row = [0, *[i * row[i] + row[i - 1] for i in range(1, len(row))], 1]
    return row


def stirling2(p: int, j: int) -> int:
    """S(p, j): one entry of stirling2_row(p), and 0 for j > p."""
    if j < 0:
        raise ValueError("stirling2 requires p, j >= 0")
    return (stirling2_row(p) + [0] * j)[j]


def _fibonacci_like(n: int, a: int, b: int) -> int:
    """Term n of x_(k+2) = x_(k+1) + x_k with x_0 = a and x_1 = b."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1."""
    return _fibonacci_like(n, 0, 1)


def lucas(n: int) -> int:
    """L_n with L_0 = 2, L_1 = 1."""
    return _fibonacci_like(n, 2, 1)


def bernoulli_table(n: int) -> list[Fraction]:
    """[B_0, ..., B_n], the Bernoulli numbers under the B_1 = -1/2 convention, built afresh on each call.

    Computed from sum_{k=0..m} C(m+1, k) B_k = 0 for m >= 1, in integers: the
    numerators of B_0..B_(m-1) over the lcm of their denominators.  This is the
    unique convention under which the binomial transform of (B_k) equals
    ((-1)^n B_n); the other convention fails that check at n = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    nums, den = [1], 1
    for m in range(1, n + 1):
        b = Fraction(-sum(binom_int(m + 1, k) * v for k, v in enumerate(nums)), den * (m + 1))
        scale = b.denominator // math.gcd(b.denominator, den)  # den * scale is the new lcm
        nums, den = [v * scale for v in nums], den * scale
        nums.append(b.numerator * (den // b.denominator))
    return [Fraction(v, den) for v in nums]


def bernoulli(n: int) -> Fraction:
    """B_n: the last entry of bernoulli_table(n)."""
    return bernoulli_table(n)[n]


def laguerre(n: int, x: RatLike) -> Fraction:
    """Laguerre polynomial value L_n(x) = sum_k C(n, k) (-x)^k / k!; one Fraction.

    The defining sum in integers: with x = p/q, over q^n n!, term k is
    C(n, k) (-p)^k q^(n-k) n!/k!.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    xf = Fraction(x)
    p, q = xf.numerator, xf.denominator
    n_fact = math.factorial(n)
    total, p_pow, q_pow = 0, 1, q**n  # (-p)^k and q^(n-k) at k = 0
    for k in range(n + 1):
        total += binom_int(n, k) * p_pow * q_pow * (n_fact // math.factorial(k))
        p_pow *= -p
        q_pow //= q
    return Fraction(total, q**n * n_fact)


# --- sequence specifications -------------------------------------------------

_ALIASES = {"harmonic": "harmonic_p"}


def _doubling(term, q: dict, n_max: int) -> list[Fraction]:
    """term(k) for k = 0..n_max as Fractions, or term(2k) under doubled."""
    step = 2 if q.get("doubled") else 1
    return [Fraction(term(step * k)) for k in range(n_max + 1)]


# kind -> (parameters it takes, parameters it requires, the range (lo, hi) of
# its integer p or None if it takes no p, and terms(q, n_max): the terms
# 0..n_max, as Fractions, of the spec with params q).  hi bounds the work a
# spec can request: harmonic_table(180, 48, alpha) and stirling2_row(180) take
# milliseconds.
_KINDS: dict[str, tuple[set[str], set[str], tuple[int, int] | None, Callable]] = {
    "harmonic_p": ({"p", "alpha"}, set(), (1, 48), lambda q, n_max: harmonic_table(n_max, int(q.get("p", 1)), q.get("alpha", 1))),
    "skew": (set(), set(), None, lambda q, n_max: [-h for h in harmonic_table(n_max, 1, -1)]),
    "fibonacci": ({"doubled"}, set(), None, lambda q, n_max: _doubling(fibonacci, q, n_max)),
    "lucas": ({"doubled"}, set(), None, lambda q, n_max: _doubling(lucas, q, n_max)),
    "bernoulli": (set(), set(), None, lambda q, n_max: bernoulli_table(n_max)),
    "laguerre": ({"x"}, {"x"}, None, lambda q, n_max: [laguerre(k, q["x"]) for k in range(n_max + 1)]),
    "stirling_row": ({"p"}, {"p"}, (0, 180), lambda q, n_max: [Fraction(s) for s in (stirling2_row(int(q["p"])) + [0] * n_max)[: n_max + 1]]),
    "powers": ({"base"}, {"base"}, None, lambda q, n_max: [q["base"] ** k if k else Fraction(1) for k in range(n_max + 1)]),
}


class SeqSpec:
    """A named sequence plus its rational parameters, checked against its row of _KINDS when made.

    Immutable, and equal to another spec of the same kind and params; it is
    unhashable, since its params are a dict.
    """

    def __init__(self, kind: str, params: dict[str, Fraction] | None = None):
        self.__dict__.update(kind=kind, params={} if params is None else params)
        if self.kind not in _KINDS:
            raise SeqSpecError(f"unknown sequence kind {self.kind!r}; known: {sorted(_KINDS)}")
        takes, requires, p_range, _ = _KINDS[self.kind]
        extra = set(self.params) - takes
        if extra:
            raise SeqSpecError(f"{self.kind} does not take parameters {sorted(extra)}")
        missing = requires - set(self.params)
        if missing:
            raise SeqSpecError(f"{self.kind} requires parameters {sorted(missing)}")
        p = self.params.get("p")
        if p is not None:  # only a kind with a p range takes p
            lo, hi = p_range
            if p.denominator != 1 or p < lo:
                raise SeqSpecError(f"{self.kind} requires integer p >= {lo}")
            if p > hi:
                raise SeqSpecError(f"{self.kind} p={p} is out of range: must be at most {hi}")
        if self.params.get("doubled", 0) not in (0, 1):
            raise SeqSpecError(f"{self.kind} doubled must be 0 or 1 (false or true)")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return (self.kind, self.params) == (other.kind, other.params) if other.__class__ is SeqSpec else NotImplemented

    def __repr__(self):
        return f"SeqSpec(kind={self.kind!r}, params={self.params!r})"


def _pairs(items: Iterable[str], error: type[Exception]) -> Iterator[tuple[str, str]]:
    """(name, value) of each "name=value" item, both stripped, one at a time.

    Raises error for an item with no "=" or a name given twice, when it
    reaches that item, so a caller that checks each value as it comes reports
    the first bad item first.  The one name=value reader: the items of a spec
    here, and cli's --param values.
    """
    seen = set()
    for item in items:
        name, eq, value = item.partition("=")
        if not eq:
            raise error(f"expected name=value, got {item!r}")
        name = name.strip()
        if name in seen:
            raise error(f"parameter {name!r} is given twice")
        seen.add(name)
        yield name, value.strip()


def parse_seq_spec(text: str) -> SeqSpec:
    """Parse the canonical text form, e.g. "harmonic:p=1,alpha=1/3"."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    kind = _ALIASES.get(kind, kind)
    params: dict[str, Fraction] = {}
    if rest:
        for key, value in _pairs(rest.split(","), SeqSpecError):
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


def materialize(spec: SeqSpec, n_max: int) -> list[Fraction]:
    """Terms 0..n_max of the sequence, all as exact Fractions."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _KINDS[spec.kind][3](spec.params, n_max)
