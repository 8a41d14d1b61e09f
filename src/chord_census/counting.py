"""Closed-form counts: totals, fixed-point formulas and orbit numbers.

All arithmetic is exact Python integers; (2n-1)!! outgrows 64 bits at
n = 17 and the table builder is expected to run past that.  Burnside sums
are divided only after an exact divisibility check - a remainder would mean
a broken formula, and raising beats silently rounding.

Function map (b = boundary of what each one counts):

* ``total_gluings`` / ``total_o_gluings`` - |B_2n| = (2n-1)!! and n!.
* ``colored_fixed(n, m)`` - color diagrams fixed by the even rotation 2m,
  for m | n: ``uncolored_fixed(n, 2m)``.
* ``uncolored_fixed(n, k)`` - uncolored diagrams fixed by rotation k, for
  k | 2n.  Splits on the parity of 2n/k.
* ``o_fixed(n, i)`` - O-diagrams fixed by rotation 2i: ``i! * (n/i)**i``.
* ``colored_classes`` / ``o_classes`` / ``n_classes`` / ``uncolored_classes``
  - orbit counts by Burnside averaging over the even rotation group
  (order n) or, for uncolored diagrams, the full rotation group (order 2n).
* ``colored_classes_prime`` / ``o_classes_prime`` - shortcut forms valid
  for odd primes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

from .errors import (
    DivisibilityError,
    EvenInputError,
    InvalidArgumentError,
    NonDivisorError,
    NotPrimeError,
    _integer,
    _shown,
)

__all__ = [
    "double_factorial",
    "euler_phi",
    "total_gluings",
    "total_o_gluings",
    "colored_fixed",
    "uncolored_fixed",
    "o_fixed",
    "colored_classes",
    "colored_classes_prime",
    "o_classes",
    "o_classes_prime",
    "n_classes",
    "uncolored_classes",
    "CountRow",
    "CountTable",
    "build_table",
]


def double_factorial(m: int) -> int:
    """m!! for odd m >= -1, with the empty-product convention (-1)!! = 1."""
    m = _integer(m, "double factorial argument")
    if m < -1 or m % 2 == 0:
        raise EvenInputError(f"double factorial needs an odd m >= -1, got {_shown(m)}")
    return math.prod(range(m, 1, -2))


def euler_phi(q: int) -> int:
    """Euler's totient by trial-division factorization; phi(1) = 1."""
    return _totient(_integer(q, "totient argument", 1))


@functools.lru_cache(maxsize=1024)
def _totient(q: int) -> int:
    out = q
    p = 2
    while p * p <= q:
        if q % p == 0:
            out -= out // p
            while q % p == 0:
                q //= p
        p += 1 if p == 2 else 2
    if q > 1:
        out -= out // q
    return out


def _is_odd_prime(p: int) -> bool:
    return p >= 3 and p % 2 == 1 and euler_phi(p) == p - 1


def total_gluings(n: int) -> int:
    """|B_2n| = (2n-1)!! = (2n)! / (2^n n!)."""
    n = _integer(n, "diagram order", 1)
    return double_factorial(2 * n - 1)


def total_o_gluings(n: int) -> int:
    """Number of O-gluings: n! (odd points matched to a permutation of evens)."""
    n = _integer(n, "diagram order", 1)
    return math.factorial(n)


def colored_fixed(n: int, m: int) -> int:
    """Color diagrams fixed by the even rotation 2m, for m dividing n: the
    uncolored count ``uncolored_fixed(n, 2m)``, the same formula at k = 2m."""
    n, m = _integer(n, "diagram order", 1), _integer(m, "divisor m")
    if m < 1 or n % m != 0:
        raise NonDivisorError(f"need m | n, got m={_shown(m)}, n={_shown(n)}")
    return uncolored_fixed(n, 2 * m)


def uncolored_fixed(n: int, k: int) -> int:
    """Uncolored diagrams fixed by rotation k, for k dividing 2n.

    Equals ``(k-1)!! * (2n/k)**(k/2)`` when 2n/k is odd (k is then even),
    otherwise ``sum_r C(k, 2r) * (2r-1)!! * (2n/k)**r`` for r = 0..k//2.
    """
    n, k = _integer(n, "diagram order", 1), _integer(k, "rotation k")
    if k < 1 or (2 * n) % k != 0:
        raise NonDivisorError(f"need k | 2n, got k={_shown(k)}, n={_shown(n)}")
    return next(itertools.islice(_fixed_series(2 * n // k), k, None))


def _fixed_series(q: int) -> Iterator[int]:
    """Matchings of k*q points fixed by rotation k, for k = 0, 1, 2, ...:
    ``uncolored_fixed(k*q // 2, k)`` where k*q is even, 0 where it is odd.

    Rotation by k splits the points into k classes of q.  A fixed matching
    joins point 0's class to itself by diameters (one way, for even q only)
    or to one of the k - 1 other classes (q ways), and the rest is a fixed
    matching of the classes left: a_k = [q even] a_(k-1) + (k-1) q a_(k-2),
    the closed forms in ``uncolored_fixed``'s docstring.
    """
    self_paired = 1 - q % 2
    before, last = 0, 1
    for k in itertools.count():
        yield last
        before, last = last, self_paired * last + k * q * before


def o_fixed(n: int, i: int) -> int:
    """O-gluings fixed by the even rotation 2i, for i dividing n: i!*(n/i)**i."""
    n, i = _integer(n, "diagram order", 1), _integer(i, "divisor i")
    if i < 1 or n % i != 0:
        raise NonDivisorError(f"need i | n, got i={_shown(i)}, n={_shown(n)}")
    return _o_fixed(n, i)


def _o_fixed(n: int, i: int) -> int:
    """``o_fixed`` for a checked order n and divisor i."""
    return math.factorial(i) * (n // i) ** i


def _burnside(total_with_weights: int, group_order: int, what: str) -> int:
    if total_with_weights % group_order != 0:
        raise DivisibilityError(
            f"Burnside sum {_shown(total_with_weights)} for {what} is not divisible "
            f"by group order {group_order}"
        )
    return total_with_weights // group_order


def _cyclic_orbits(order: int, fixed: Mapping[int, int], what: str) -> int:
    """Orbits under a cyclic group of this order, by Burnside's lemma.

    ``fixed`` maps each divisor d of ``order`` to what the d-th power of a
    generator fixes; the phi(order/d) elements of order order/d all fix
    that many."""
    acc = sum(_totient(order // d) * count for d, count in fixed.items())
    return _burnside(acc, order, what)


def colored_classes(n: int) -> int:
    """Non-isomorphic color diagrams: average of fixed counts over the
    even rotation group, grouped by divisor with totient weights.

    ``n = 1`` gives 1 (the formula already does; no special case needed).
    """
    n = _integer(n, "diagram order", 1)
    fixed = {m: colored_fixed(n, m) for m in _divisors(n)}
    return _cyclic_orbits(n, fixed, f"colored_classes({n})")


def colored_classes_prime(p: int) -> int:
    """Shortcut for odd primes: (2p-1)!!/p + p - 1."""
    p = _integer(p, "prime p")
    if not _is_odd_prime(p):
        raise NotPrimeError(f"needs an odd prime p >= 3, got {_shown(p)}")
    return double_factorial(2 * p - 1) // p + p - 1


def o_classes(n: int) -> int:
    """Non-isomorphic O-diagrams; also the number of topologically distinct
    one-critical-point functions on oriented bordered surfaces of this size."""
    n = _integer(n, "diagram order", 1)
    fixed = {i: _o_fixed(n, i) for i in _divisors(n)}
    return _cyclic_orbits(n, fixed, f"o_classes({n})")


def o_classes_prime(p: int) -> int:
    """Shortcut for odd primes: (p-1)! + (p-1)."""
    p = _integer(p, "prime p")
    if not _is_odd_prime(p):
        raise NotPrimeError(f"needs an odd prime p >= 3, got {_shown(p)}")
    return math.factorial(p - 1) + (p - 1)


def n_classes(n: int) -> int:
    """Non-isomorphic N-diagrams: colored_classes - o_classes (0 at n = 1)."""
    return colored_classes(n) - o_classes(n)


def uncolored_classes(n: int) -> int:
    """Non-isomorphic uncolored diagrams under the full rotation group."""
    n = _integer(n, "diagram order", 1)
    fixed = {k: uncolored_fixed(n, k) for k in _divisors(2 * n)}
    return _cyclic_orbits(2 * n, fixed, f"uncolored_classes({n})")


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divisor_sieve(limit: int) -> list[list[int]]:
    """``_divisors(m)`` for every m <= limit, ascending, from one sieve
    (index 0 holds an empty list)."""
    divisors: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            divisors[m].append(d)
    return divisors


@dataclass(frozen=True)
class CountRow:
    """One table row; field names double as the CSV column names."""

    n: int
    total: int
    o_total: int
    d_star: int
    d_double_star: int
    d_o: int
    d_n: int


@dataclass(frozen=True)
class CountTable:
    rows: tuple[CountRow, ...]

    def to_csv(self) -> str:
        """The header and one line per row; every cell is an int, so no
        cell ever needs quoting.  Cells follow the caller's int-to-str
        digit limit, which a library must not lift for the whole process."""
        names = [f.name for f in fields(CountRow)]
        cells = operator.attrgetter(*names)
        lines = [",".join(names), *(",".join(map(str, cells(row))) for row in self.rows)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        names = [f.name for f in fields(CountRow)]
        return {
            "rows": [{name: getattr(row, name) for name in names} for row in self.rows]
        }

    def to_json(self) -> str:
        """The rows as key-sorted JSON, under the caller's digit limit as in
        ``to_csv``."""
        return json.dumps(self.to_json_dict(), sort_keys=True)


def build_table(n_min: int, n_max: int) -> CountTable:
    """All counts for n in [n_min, n_max].  The N column is defined as
    d_n = d_double_star - d_o, so it checks nothing on its own."""
    n_min, n_max = _integer(n_min, "n_min"), _integer(n_max, "n_max")
    if n_min < 1 or n_min > n_max:
        raise InvalidArgumentError(
            f"need 1 <= n_min <= n_max, got {_shown(n_min)}..{_shown(n_max)}"
        )
    # q -> (its _fixed_series, the k of the term read last).  For one q,
    # k = 2n/q grows with n, so each series is walked once.
    walks: dict[int, tuple] = {}

    def fixed_count(n: int, k: int) -> int:
        q = 2 * n // k
        terms, at = walks.get(q) or (_fixed_series(q), -1)
        walks[q] = terms, k
        return next(itertools.islice(terms, k - at - 1, None))

    divisors = _divisor_sieve(2 * n_max)
    o_total = math.factorial(n_min - 1)
    rows = []
    for n in range(n_min, n_max + 1):
        o_total *= n
        # k = 2m gives colored_fixed(n, m), and k = 2n the class size; the
        # even divisors of 2n are the 2m for m dividing n
        fixed = {k: fixed_count(n, k) for k in divisors[2 * n]}
        even = {k // 2: c for k, c in fixed.items() if k % 2 == 0}
        dds = _cyclic_orbits(n, even, f"colored_classes({n})")
        do = _cyclic_orbits(n, {i: _o_fixed(n, i) for i in even}, f"o_classes({n})")
        rows.append(
            CountRow(
                n=n,
                total=fixed[2 * n],
                o_total=o_total,
                d_star=_cyclic_orbits(2 * n, fixed, f"uncolored_classes({n})"),
                d_double_star=dds,
                d_o=do,
                d_n=dds - do,
            )
        )
    return CountTable(tuple(rows))
