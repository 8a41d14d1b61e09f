"""Closed-form counting formulas and the count table."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest

from chord_census import (
    CountRow,
    DivisibilityError,
    EvenInputError,
    InvalidArgumentError,
    NonDivisorError,
    NotPrimeError,
    build_table,
    colored_classes,
    colored_classes_prime,
    colored_fixed,
    double_factorial,
    euler_phi,
    n_classes,
    o_classes,
    o_classes_prime,
    o_fixed,
    total_gluings,
    total_o_gluings,
    uncolored_classes,
    uncolored_fixed,
)
from chord_census import counting as counting_mod

from oracles import slow_totient, uncolored_fixed_sum

# reference class-count tables, n = 2..11
COLORED_TABLE = [3, 7, 35, 193, 1799, 19311, 254143, 3828921, 65486307, 1249937335]
O_TABLE = [2, 4, 10, 28, 136, 726, 5100, 40362, 363288, 3628810]


class TestDoubleFactorial:
    def test_empty_product_convention(self):
        assert double_factorial(-1) == 1

    def test_small_values(self):
        assert double_factorial(1) == 1
        assert double_factorial(3) == 3
        assert double_factorial(11) == 10395

    @pytest.mark.parametrize("m", range(-1, 30, 2))
    def test_matches_factorial_quotient(self, m):
        n = (m + 1) // 2
        assert double_factorial(m) == math.factorial(2 * n) // (2**n * math.factorial(n))

    @pytest.mark.parametrize("m", [-3, 0, 2, 10])
    def test_even_or_low_input_rejected(self, m):
        with pytest.raises(EvenInputError):
            double_factorial(m)


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    def test_twelve(self):
        assert euler_phi(12) == 4

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_primes(self, p):
        assert euler_phi(p) == p - 1

    @pytest.mark.parametrize("q", range(1, 200))
    def test_matches_gcd_count(self, q):
        assert euler_phi(q) == slow_totient(q)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestTotals:
    def test_gluing_totals(self):
        assert [total_gluings(n) for n in range(1, 7)] == [1, 3, 15, 105, 945, 10395]

    def test_o_totals(self):
        assert [total_o_gluings(n) for n in range(1, 6)] == [1, 2, 6, 24, 120]


class TestFixedPointFormulas:
    def test_identity_rotation_fixes_all_colored(self):
        for n in range(1, 8):
            assert colored_fixed(n, n) == total_gluings(n)

    def test_smallest_even_rotation_odd_order(self):
        # the odd branch collapses to n
        for n in (3, 5, 7, 9):
            assert colored_fixed(n, 1) == n

    def test_smallest_even_rotation_even_order(self):
        # even branch: 1 + C(2,2)*1!!*(n)^1 = n + 1
        assert colored_fixed(2, 1) == 3
        assert colored_fixed(4, 1) == 5
        assert colored_fixed(6, 1) == 7

    def test_half_turn_n4(self):
        # sum over r: 1 + C(4,2)*1!!*2 + C(4,4)*3!!*4 = 1 + 12 + 12
        assert colored_fixed(4, 2) == 25

    def test_non_divisor_rejected(self):
        with pytest.raises(NonDivisorError):
            colored_fixed(4, 3)

    def test_uncolored_identity(self):
        for n in range(1, 8):
            assert uncolored_fixed(n, 2 * n) == total_gluings(n)

    def test_uncolored_examples(self):
        assert uncolored_fixed(3, 3) == 7  # 1 + C(3,2)*1*2
        assert uncolored_fixed(3, 2) == 3  # odd branch: 1!! * 3
        assert uncolored_fixed(3, 1) == 1

    def test_uncolored_even_shift_agrees_with_colored(self):
        # the same formula through k = 2m
        for n in range(1, 9):
            for m in range(1, n + 1):
                if n % m == 0:
                    assert uncolored_fixed(n, 2 * m) == colored_fixed(n, m)

    def test_fixed_counts_match_term_by_term_sums(self):
        # Each term's (2r-1)!! and q**r computed afresh, for every divisor.
        def odd_product(m):
            return math.prod(range(m, 0, -2))

        def fixed(points, q):
            if q % 2 == 1:
                return odd_product(points - 1) * q ** (points // 2)
            return sum(
                math.comb(points, 2 * r) * odd_product(2 * r - 1) * q**r
                for r in range(points // 2 + 1)
            )

        for n in range(1, 201):
            for m in range(1, n + 1):
                if n % m == 0:
                    assert colored_fixed(n, m) == fixed(2 * m, n // m)
            for k in range(1, 2 * n + 1):
                if 2 * n % k == 0:
                    assert uncolored_fixed(n, k) == fixed(k, 2 * n // k)

    @pytest.mark.parametrize("n", range(1, 81))
    def test_uncolored_fixed_matches_explicit_sum(self, n):
        for k in range(1, 2 * n + 1):
            if 2 * n % k == 0:
                assert uncolored_fixed(n, k) == uncolored_fixed_sum(n, k)

    def test_uncolored_non_divisor_rejected(self):
        with pytest.raises(NonDivisorError):
            uncolored_fixed(4, 3)

    def test_o_fixed_bounds(self):
        for n in range(1, 9):
            assert o_fixed(n, 1) == n
            assert o_fixed(n, n) == math.factorial(n)

    def test_o_fixed_half_turn(self):
        assert o_fixed(4, 2) == 8  # 2! * 2**2

    def test_o_fixed_non_divisor_rejected(self):
        with pytest.raises(NonDivisorError):
            o_fixed(6, 4)


class TestClassCounts:
    def test_colored_table(self):
        assert [colored_classes(n) for n in range(2, 12)] == COLORED_TABLE

    def test_o_table(self):
        assert [o_classes(n) for n in range(2, 12)] == O_TABLE

    def test_n_is_difference(self):
        assert n_classes(2) == 1
        assert n_classes(3) == 3
        assert n_classes(11) == 1246308525

    def test_order_one(self):
        assert colored_classes(1) == 1
        assert o_classes(1) == 1
        assert n_classes(1) == 0

    def test_uncolored_small(self):
        # frozen from the full-rotation-group reference census
        assert [uncolored_classes(n) for n in range(1, 6)] == [1, 2, 5, 18, 105]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_prime_shortcuts(self, p):
        assert colored_classes_prime(p) == colored_classes(p)
        assert o_classes_prime(p) == o_classes(p)

    def test_prime_shortcut_values(self):
        assert colored_classes_prime(3) == 7
        assert colored_classes_prime(5) == 193
        assert colored_classes_prime(7) == 19311
        assert o_classes_prime(5) == 28
        assert o_classes_prime(7) == 726
        assert o_classes_prime(11) == 3628810

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_non_primes_rejected(self, p):
        with pytest.raises(NotPrimeError):
            colored_classes_prime(p)
        with pytest.raises(NotPrimeError):
            o_classes_prime(p)

    def test_counts_grow_past_word_size(self):
        # (2n-1)!! bursts 64 bits from n = 18 on; exactness must survive
        value = colored_classes(20)
        assert value == sum(
            euler_phi(20 // m) * colored_fixed(20, m)
            for m in (1, 2, 4, 5, 10, 20)
        ) // 20
        assert total_gluings(18) > 2**64 > total_gluings(17)


class TestBuildTable:
    def test_reproduces_reference_columns(self):
        table = build_table(2, 11)
        assert [r.d_double_star for r in table.rows] == COLORED_TABLE
        assert [r.d_o for r in table.rows] == O_TABLE

    def test_difference_identity(self):
        for row in build_table(1, 20).rows:
            assert row.d_n == row.d_double_star - row.d_o
            assert row.d_double_star >= row.d_o
            assert row.total == total_gluings(row.n)
            assert row.o_total == total_o_gluings(row.n)

    def test_late_start_matches_full_table(self):
        # A table not starting at n = 1 still reads each series from its start.
        full = build_table(1, 200).rows
        assert build_table(150, 160).rows == full[149:160]
        assert build_table(200, 200).rows == full[199:]

    def test_finds_divisors_by_one_sieve(self, monkeypatch):
        # the divisors of every 2n come from one sieve; those of n are its
        # even ones halved
        calls, sieves = [], []
        original, sieve = counting_mod._divisors, counting_mod._divisor_sieve
        monkeypatch.setattr(counting_mod, "_divisors", lambda n: calls.append(n) or original(n))
        monkeypatch.setattr(
            counting_mod, "_divisor_sieve", lambda m: sieves.append(m) or sieve(m)
        )
        build_table(2, 200)
        assert calls == []
        assert sieves == [400]

    def test_divisor_sieve_lists_every_divisor(self):
        sieve = counting_mod._divisor_sieve(1000)
        assert len(sieve) == 1001 and sieve[0] == []
        assert all(sieve[m] == counting_mod._divisors(m) for m in range(1, 1001))

    def test_reads_only_the_range_arguments(self, monkeypatch):
        # n_min and n_max; the rows compute n! and the O-orbit Burnside sum
        # inline, through no validating helper
        reads, o_fixed_calls = [], []
        original = counting_mod._integer
        monkeypatch.setattr(
            counting_mod, "_integer", lambda *args: reads.append(args) or original(*args)
        )
        monkeypatch.setattr(counting_mod, "o_fixed", lambda *args: o_fixed_calls.append(args))
        build_table(2, 200)
        assert reads == [(2, "n_min"), (200, "n_max")]
        assert o_fixed_calls == []

    def test_first_row(self):
        row = build_table(1, 1).rows[0]
        assert (row.total, row.o_total) == (1, 1)
        assert (row.d_star, row.d_double_star, row.d_o, row.d_n) == (1, 1, 1, 0)

    def test_csv_shape(self):
        csv_text = build_table(2, 3).to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,total,o_total,d_star,d_double_star,d_o,d_n"
        assert lines[1] == "2,3,2,2,3,2,1"
        assert lines[2] == "3,15,6,5,7,4,3"

    def test_csv_equals_the_csv_module(self):
        table = build_table(1, 400)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f.name for f in dataclasses.fields(CountRow)])
        writer.writerows(dataclasses.astuple(row) for row in table.rows)
        assert table.to_csv() == buf.getvalue()

    def test_json_round_trips(self):
        table = build_table(2, 4)
        parsed = json.loads(table.to_json())
        assert parsed == table.to_json_dict()
        assert parsed["rows"][2]["d_double_star"] == 35

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            build_table(3, 2)
        with pytest.raises(ValueError):
            build_table(0, 2)


class TestDivisibilityGuard:
    def test_burnside_sums_divide_exactly(self):
        # indirect: every class count up to 30 builds without raising
        for n in range(1, 31):
            colored_classes(n)
            o_classes(n)
            uncolored_classes(n)

    def test_guard_raises_on_corrupt_sum(self):
        from chord_census.counting import _burnside

        with pytest.raises(DivisibilityError):
            _burnside(7, 3, "synthetic")
        # a sum past the int-to-str digit limit is named by its bit length
        with pytest.raises(DivisibilityError) as exc:
            _burnside(10**5000 + 1, 2, "synthetic")
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            assert "<16610-bit integer>" in str(exc.value)


# every public counting entry that takes an order, called at order n
ORDER_ENTRIES = {
    "total_gluings": total_gluings,
    "total_o_gluings": total_o_gluings,
    "colored_fixed": lambda n: colored_fixed(n, 1),
    "uncolored_fixed": lambda n: uncolored_fixed(n, 2),
    "o_fixed": lambda n: o_fixed(n, 1),
    "colored_classes": colored_classes,
    "o_classes": o_classes,
    "n_classes": n_classes,
    "uncolored_classes": uncolored_classes,
    "build_table n_min": lambda n: build_table(n, 3),
    "build_table n_max": lambda n: build_table(1, n),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [2.0, "2", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("entry", ORDER_ENTRIES.values(), ids=ORDER_ENTRIES)
    def test_non_integer_order_rejected(self, entry, value):
        with pytest.raises(InvalidArgumentError, match="integer"):
            entry(value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: colored_fixed(4, 2.0),
            lambda: uncolored_fixed(3, 2.0),
            lambda: o_fixed(40, 20.0),
            lambda: double_factorial(41.0),
            lambda: euler_phi(6.0),
        ],
        ids=["colored_fixed m", "uncolored_fixed k", "o_fixed i", "double_factorial", "euler_phi"],
    )
    def test_non_integer_secondary_argument_rejected(self, call):
        with pytest.raises(InvalidArgumentError, match="integer"):
            call()

    @pytest.mark.parametrize("p", ["3", 3.0, None])
    def test_non_integer_primes_rejected(self, p):
        for shortcut in (colored_classes_prime, o_classes_prime):
            with pytest.raises(InvalidArgumentError, match="prime p"):
                shortcut(p)

    def test_whole_float_order_is_bad_input_not_a_broken_formula(self):
        # DivisibilityError flags a bug; a float order is the caller's error
        with pytest.raises(InvalidArgumentError):
            colored_classes(25.0)

    def test_numpy_integers_give_exact_python_ints(self):
        # int64 arithmetic would overflow: 39!! > 2**64
        assert total_gluings(np.int64(20)) == double_factorial(39) == total_gluings(20)
        assert type(total_gluings(np.int64(20))) is int
        assert colored_fixed(np.int64(20), np.int32(4)) == colored_fixed(20, 4)
        assert type(colored_classes(np.int64(20))) is int
        assert colored_classes_prime(np.int64(5)) == 193
        assert o_classes_prime(np.int32(7)) == 726
        table = build_table(np.int64(2), np.int8(3))
        assert table == build_table(2, 3)
        assert all(type(row.n) is int for row in table.rows)
