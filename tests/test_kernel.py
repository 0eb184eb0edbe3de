from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from polyillum import kernel
from polyillum.errors import InputError
from polyillum.kernel import (circuits, coordinates, dot, format_rational, inverse,
                              parse_rational, primitive_form, rank, simplex_dependence, vec)
from polyillum.lp import solve_eq_nonneg
from polyillum.position import separator
from tests import kernel_reference as reference
from tests.conftest import box, hexagon, set_n, sign_vectors_26, simplex, simplex_product
from tests.polytope_reference import zero_vec

F = Fraction


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=16)


def fraction_inverse(inv):
    """The rows of the inverse that `inverse` gives as (columns, D)."""
    if inv is None:
        return None
    columns, D = inv
    return tuple(tuple(F(q, D) for q in row) for row in zip(*columns))


class TestRationalLiterals:
    @pytest.mark.parametrize("text,value", [
        ("3/2", F(3, 2)),
        ("-7", F(-7)),
        ("0", F(0)),
        ("-10/4", F(-5, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1/0", "1.5", "a", "1/-2", "", "1 / 2"])
    def test_rejects(self, text):
        with pytest.raises(InputError):
            parse_rational(text)

    @pytest.mark.parametrize("value", [1, -2.5, None, ["1"]],
                             ids=["int", "float", "null", "list"])
    def test_rejects_non_strings(self, value):
        with pytest.raises(InputError, match="must be a string"):
            parse_rational(value)

    @pytest.mark.parametrize("value", [
        ["1"], reduce(lambda v, _: [v], range(950), "1"), 950 * [0],
        "x" * 5000, "1/" + "0" * 4000,
    ], ids=["list", "deep-list", "long-list", "long-string", "long-zero-denominator"])
    def test_error_messages_stay_short(self, value):
        with pytest.raises(InputError) as exc:
            parse_rational(value)
        assert len(str(exc.value)) < 200

    def test_short_literals_are_quoted(self):
        with pytest.raises(InputError, match="not a rational literal: '1.5'"):
            parse_rational("1.5")
        with pytest.raises(InputError, match="got list"):
            parse_rational(["1"])

    @pytest.mark.parametrize("text", ["9" * 4401, "1/" + "9" * 4401],
                             ids=["integer", "denominator"])
    def test_rejects_literals_beyond_the_int_conversion_limit(self, text):
        with pytest.raises(InputError, match="limit"):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    @pytest.mark.parametrize("x", [
        0, F(0), 7, -7, F(12), F(-3, 4), F(-1, 10**30), F(10**40 + 1, 3), -(10**50)])
    def test_format_is_the_literal_of_the_fraction(self, x):
        assert format_rational(x) == str(Fraction(x))

    @given(rationals, rationals)
    def test_results_are_normalized(self, a, b):
        # lowest terms with positive denominator is the Fraction contract
        for r in (a + b, a * b):
            assert r.denominator > 0
            from math import gcd, lcm
            assert gcd(abs(r.numerator), r.denominator) == 1


class TestExactEntries:
    def test_ints_and_fractions_are_taken(self):
        x = F(5, 7)
        assert vec(1, -2, x, 10 ** 40) == (F(1), F(-2), F(5, 7), F(10 ** 40))
        assert vec(x)[0] is x

    @pytest.mark.parametrize("entry, name", [(0.1, "float"), (True, "bool"), (False, "bool"),
                                             ("1/2", "str"), (None, "NoneType"),
                                             (1 + 0j, "complex")])
    def test_anything_else_is_refused(self, entry, name):
        # vec(0.1, True) once gave (3602879701896397/36028797018963968, 1)
        with pytest.raises(InputError, match=rf"^rational must be an int or a Fraction, "
                                             rf"got {name}$"):
            vec(1, entry)


class TestRowsAndKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_inverse(self, entries):
        # the columns of D times the inverse, as ints over the least D
        rows = [vec(*r) for r in entries]
        inv = inverse(rows)
        assert fraction_inverse(inv) == reference.inverse(rows)
        if inv is not None:
            columns, D = inv
            assert gcd(D, *(q for column in columns for q in column)) == 1

    def test_kernel_of_independent_set_is_none(self):
        assert simplex_dependence([]) is None
        assert simplex_dependence([vec(1, 0)]) is None
        assert simplex_dependence([vec(1, 0), vec(0, 1)]) is None

    def test_simplex_dependence_triangle(self):
        dep = simplex_dependence([vec(1, 0), vec(0, 1), vec(-1, -1)])
        assert dep is not None
        total = zero_vec(2)
        for c, p in zip(dep, [vec(1, 0), vec(0, 1), vec(-1, -1)]):
            total = tuple(x + c * y for x, y in zip(total, p))
        assert total == zero_vec(2)
        assert all(c != 0 for c in dep)

    def test_simplex_dependence_rejects_wrong_rank(self):
        # independent set: no dependence at all
        assert simplex_dependence([vec(1, 0), vec(0, 1)]) is None
        # rank deficit of two: the dependence is not unique
        assert simplex_dependence([vec(1, 0), vec(2, 0), vec(3, 0)]) is None

    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d + 2)))
    def test_simplex_dependence_is_kernel_vector_at_rank_one_short(self, rows):
        # a nonzero dependence of the points, or None exactly when their
        # rank is not one short of their number
        points = [vec(*r) for r in rows]
        mu = simplex_dependence(points)
        assert (mu is None) == (rank(points) != len(points) - 1)
        if mu is not None:
            assert any(c != 0 for c in mu)
            total = zero_vec(len(points[0]))
            for c, p in zip(mu, points):
                total = tuple(x + c * y for x, y in zip(total, p))
            assert total == zero_vec(len(points[0]))

    def test_simplex_dependence_row_reduces_once(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return row_reduce(matrix)

        row_reduce = kernel._row_reduce
        monkeypatch.setattr(kernel, "_row_reduce", counting)
        assert simplex_dependence([vec(1, 0), vec(0, 1), vec(-1, -1)]) is not None
        assert len(calls) == 1


@st.composite
def coordinate_questions(draw):
    """(generators, targets) in R^1 to R^4: up to n + 1 generators and up
    to 5 targets, with zero entries and fractions."""
    n = draw(st.integers(min_value=1, max_value=4))
    vector = st.tuples(*[st.one_of(st.just(F(0)), st.fractions(
        min_value=-4, max_value=4, max_denominator=3))] * n)
    return (draw(st.lists(vector, max_size=n + 1)), draw(st.lists(vector, max_size=5)))


class TestCoordinates:
    @settings(max_examples=120, deadline=None)
    @given(coordinate_questions())
    def test_coefficients_in_the_span_and_a_separating_row_outside(self, question):
        generators, targets = question
        found = coordinates(generators, targets)
        assert (found is None) == (rank(generators) < len(generators))
        if found is None:
            return
        assert len(found) == len(targets)
        for x, (mu, z) in zip(targets, found):
            if rank([*generators, x]) == len(generators):
                assert z is None
                assert all(sum((c * g[r] for c, g in zip(mu, generators)), F(0)) == x[r]
                           for r in range(len(x)))
            else:
                assert mu is None and all(isinstance(c, int) for c in z)
                assert all(dot(g, z) == 0 for g in generators) and dot(x, z) != 0

    def test_row_reduces_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "_row_reduce")
        assert coordinates([vec(1, 0, 1), vec(0, 1, 1)], [vec(1, 1, 2), vec(0, 0, 1)]) == [
            ((F(1), F(1)), None), (None, (-1, -1, 1))]
        assert len(calls) == 1

    def test_dependent_generators_give_none(self):
        assert coordinates([vec(1, 2), vec(2, 4)], [vec(1, 0)]) is None
        assert coordinates([vec(0, 0)], []) is None
        assert coordinates([], [vec(0, 0), vec(1, 0)]) == [((), None), (None, (1, 0))]
        assert coordinates([], []) == []


entries = st.one_of(
    st.just(0), st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.builds(F, st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              st.integers(min_value=1, max_value=10 ** 20)))


@st.composite
def matrices(draw, shape=st.tuples(st.integers(0, 5), st.integers(0, 5))):
    """Rows of rationals, small, fractional or with numerators and
    denominators of up to 30 digits, of any shape.

    A row or a column may be zeroed, a row may repeat another one scaled,
    negated or not, and a row's leading entry may be negated, so that
    pivots run negative and ranks fall short.
    """
    m, n = draw(shape)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    index = st.integers(min_value=0, max_value=max(m - 1, 0))
    if m and draw(st.booleans()):
        rows[draw(index)] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=n - 1))
        for row in rows:
            row[j] = 0
    if m > 1 and draw(st.booleans()):
        c = draw(st.sampled_from([1, -1, 3, F(-2, 7), F(10 ** 12, 3)]))
        rows[draw(index)] = [c * x for x in rows[draw(index)]]
    if m and n and draw(st.booleans()):
        row = rows[draw(index)]
        j = next((j for j, x in enumerate(row) if x), 0)
        row[j] = -abs(F(row[j])) or F(-1)
    return [tuple(F(x) for x in row) for row in rows]


square = st.integers(1, 4).map(lambda n: (n, n))


@st.composite
def pivot_steps(draw):
    """(M, D, r, c) for `kernel._pivot`: vectors of ints, small or of up to
    20 digits, over D > 0, and the pivot entry M[r][c], which is positive,
    negative (the vertex walk's case) or +-1 with zeros at c in some other
    vectors, which are then kept as they are. The vectors are lists, or
    tuples as the walk holds them."""
    ints = st.one_of(st.integers(-6, 6), st.integers(-10 ** 20, 10 ** 20))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    M = [draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(m)]
    D = draw(st.one_of(st.integers(1, 12), st.integers(1, 10 ** 20)))
    r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["positive", "negative", "unit"]))
    if kind == "unit":
        M[r][c] = draw(st.sampled_from([1, -1]))
        for i, v in enumerate(M):
            if i != r and draw(st.booleans()):
                v[c] = 0
    else:
        p = draw(st.one_of(st.integers(1, 6), ints.filter(bool).map(abs)))
        M[r][c] = p if kind == "positive" else -p
    return draw(st.sampled_from([M, [tuple(v) for v in M]])), D, r, c


class TestAgainstTheFractionElimination:
    """The integer elimination reduces to the matrix, pivots and answers of
    the `Fraction` elimination it replaced (kept in
    `tests/kernel_reference.py`), `None` for `None`."""

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_reduced_form_and_pivots(self, rows):
        M, D, pivots = kernel._row_reduce(rows)
        reduced, expected = reference._row_reduce([list(r) for r in rows])
        assert D > 0 and pivots == expected
        assert [[F(x, D) for x in row] for row in M] == reduced

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_rank_and_simplex_dependence(self, rows):
        assert rank(rows) == reference.rank(rows)
        assert simplex_dependence(rows) == reference.simplex_dependence(rows)

    @settings(max_examples=200, deadline=None)
    @given(matrices(square), st.data())
    def test_solve_rows_and_inverse(self, rows, data):
        # the square system's solution is sum(rhs_i Q_i) / D, as the walk's
        # start scan reads it off the inverse
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        inv = inverse(rows)
        assert fraction_inverse(inv) == reference.inverse(rows)
        x = None if inv is None else tuple(
            sum(F(h) * q for h, q in zip(rhs, row)) / inv[1] for row in zip(*inv[0]))
        assert x == reference.solve_rows(rows, rhs)

    @settings(max_examples=300, deadline=None)
    @given(pivot_steps())
    def test_pivot(self, step):
        # M' / D' is the Fraction pivot of M / D, no vector of M changes,
        # a vector with a zero at c is shared when p == 1 and no gcd is
        # divided out, and D' is least
        M, D, r, c = step
        before = [list(v) for v in M]
        after, E = kernel._pivot(M, D, r, c)
        assert [list(v) for v in M] == before
        assert E > 0 and [[F(x, E) for x in v] for v in after] == reference.pivot(
            [[F(x, D) for x in v] for v in M], r, c)
        if abs(M[r][c]) == 1 and E == D:
            assert all(after[i] is v for i, v in enumerate(M) if i != r and v[c] == 0)
        if E > 1:
            assert gcd(E, *(x for v in after for x in v)) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        *[st.lists(entries, min_size=n, max_size=n)] * 2)))
    def test_dot(self, pair):
        a, b = pair
        assert type(dot(a, b)) is F and dot(a, b) == reference.dot(a, b)


def count_calls(monkeypatch, name):
    """Patch the kernel function of that name; the returned list collects
    one entry per call."""
    calls = []
    function = getattr(kernel, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(kernel, name, counting)
    return calls


def minimal_dependent_subsets(vectors):
    """The reference: index sets, by size and then lexicographically, that
    are dependent while every subset one smaller is independent."""
    return [idx for size in range(1, len(vectors) + 1)
            for idx in combinations(range(len(vectors)), size)
            if rank([vectors[i] for i in idx]) < size
            and all(rank([vectors[i] for i in idx if i != j]) == size - 1 for j in idx)]


def vector_sets(dims, sizes, nonzero=False):
    """Lists of vectors with entries in -2..2, of a dimension from `dims`
    and a length from `sizes`."""
    def vectors(shape):
        d, m = shape
        vector = st.tuples(*[st.integers(-2, 2)] * d)
        return st.lists(vector.filter(any) if nonzero else vector, min_size=m, max_size=m)

    return st.tuples(dims, sizes).flatmap(vectors)


@st.composite
def direct_sums(draw, blocks, nonzero=False):
    """The vectors of `blocks` random blocks, each in coordinates of its own,
    in a shuffled order: a matroid of several components. A block of one
    or two dimensions and up to three vectors makes parallel pairs,
    coloops and components of corank 1 common."""
    parts = [draw(vector_sets(st.integers(1, 2), st.integers(1, 3), nonzero))
             for _ in range(draw(blocks))]
    dim = sum(len(part[0]) for part in parts)
    rows, offset = [], 0
    for part in parts:
        d = len(part[0])
        rows += [(0,) * offset + r + (0,) * (dim - offset - d) for r in part]
        offset += d
    return draw(st.permutations(rows))


@st.composite
def degenerate_sets(draw):
    """Vectors in R^2..R^4 that are small integer combinations of r < n
    random generators, so that their components have rank below n and hold
    many 3- and 4-circuits, with antiparallel pairs (2-circuits) and
    repeated directions among them, in a shuffled order."""
    n = draw(st.integers(2, 4))
    generators = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                               min_size=1, max_size=n - 1))
    coefficients = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(generators)),
                                  min_size=2, max_size=7))
    rows = [tuple(sum(c * g[i] for c, g in zip(combination, generators)) for i in range(n))
            for combination in coefficients]
    # negative scales make antiparallel pairs, positive ones repeated directions
    copies = draw(st.lists(st.tuples(st.sampled_from(rows),
                                     st.sampled_from([-2, -1, F(-1, 2), F(1, 3), 1, 3])),
                           max_size=4))
    return draw(st.permutations(rows + [tuple(c * x for x in row) for row, c in copies]))


@st.composite
def rational_direct_sums(draw):
    """`direct_sums` of two or three blocks with each entry scaled by one of
    +-1/2, +-2/3 and 3, so that the dependences have denominators."""
    scales = st.sampled_from([F(1, 2), F(-1, 2), F(2, 3), F(-2, 3), F(3)])
    return [tuple(x * draw(scales) for x in row)
            for row in draw(direct_sums(st.integers(2, 3), nonzero=True))]


@st.composite
def ranked_sets(draw):
    """Vectors of rank up to r in R^r..R^5, r in 1..5, with rational
    entries: integer combinations of r drawn generators, then up to three
    forced dependences a u + b v of two of them, a nonzero, which are
    multiples of u when b == 0 or v == u; and at least half of their
    indices, in order."""
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    generators = draw(st.lists(st.tuples(*[entry] * n), min_size=r, max_size=r))
    coefficients = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r),
                                 min_size=r, max_size=r + 3))
    vectors = [tuple(sum(c * g[i] for c, g in zip(combination, generators)) for i in range(n))
               for combination in coefficients]
    index = st.integers(0, len(vectors) - 1)
    for _ in range(draw(st.integers(0, 3))):
        u, v = vectors[draw(index)], vectors[draw(index)]
        a, b = draw(st.sampled_from([F(-2), F(-1, 2), F(1, 3), F(1), F(3, 2)])), draw(entry)
        vectors.append(tuple(a * x + b * y for x, y in zip(u, v)))
    vectors = [vec(*v) for v in vectors]
    left_out = draw(st.sets(st.integers(0, len(vectors) - 1), max_size=len(vectors) // 2))
    return vectors, [i for i in range(len(vectors)) if i not in left_out]


def coprime(found):
    """The reference's circuits with each dependence, 1 at its last
    element, times the lcm of its denominators: coprime ints."""
    return [(idx, tuple(int(c * k) for c in mu))
            for idx, mu in found for k in (lcm(*(c.denominator for c in mu)),)]


class TestCircuits:
    @settings(max_examples=150, deadline=None)
    @given(ranked_sets())
    def test_the_scan_agrees_with_the_full_prefix_tree(self, drawn):
        # the last level read off 2x2 minors finds the circuits, with their
        # dependences and in the order, that pivoting every prefix found
        vectors, elements = drawn
        found = kernel._scan_circuits(vectors, elements, rank([vectors[i] for i in elements]))
        assert found == coprime(reference.scan_circuits(vectors, elements))
        for idx, mu in found:
            total = zero_vec(len(vectors[0]))
            for c, i in zip(mu, idx):
                total = tuple(x + c * y for x, y in zip(total, vectors[i]))
            assert total == zero_vec(len(vectors[0])) and mu[-1] > 0 and gcd(*mu) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(vector_sets(st.integers(1, 3), st.integers(1, 6), nonzero=True),
                     direct_sums(st.just(2), nonzero=True)))
    def test_minimal_dependent_subsets_by_brute_force(self, rows):
        vectors = [vec(*r) for r in rows]
        found = circuits(vectors)
        assert [idx for idx, _ in found] == minimal_dependent_subsets(vectors)
        for idx, mu in found:
            assert all(c != 0 for c in mu)
            total = zero_vec(len(rows[0]))
            for c, i in zip(mu, idx):
                total = tuple(x + c * y for x, y in zip(total, vectors[i]))
            assert total == zero_vec(len(rows[0]))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(vector_sets(st.integers(1, 4), st.integers(0, 8)),
                     direct_sums(st.integers(2, 3))))
    def test_agrees_with_the_subset_scan(self, rows):
        # zero vectors included: they lie in no circuit of either
        vectors = [vec(*r) for r in rows]
        assert circuits(vectors) == coprime(reference.circuits(vectors))

    @settings(max_examples=150, deadline=None)
    @given(rational_direct_sums())
    def test_agrees_with_the_subset_scan_on_rational_entries(self, rows):
        # components of corank 1 are read off the first elimination, which
        # divides by its denominator
        vectors = [vec(*r) for r in rows]
        found = circuits(vectors)
        assert found == coprime(reference.circuits(vectors))
        assert all(type(c) is int for _, mu in found for c in mu)

    def test_reads_a_fractional_dependence_off_the_elimination(self, monkeypatch):
        # (2, 0), (0, 3) and (3, 2) are one circuit, whose coefficients
        # over the basis are -3/2 and -2/3: times 6, coprime ints
        dependences = count_calls(monkeypatch, "simplex_dependence")
        assert circuits([vec(2, 0), vec(0, 3), vec(3, 2)]) == [((0, 1, 2), (-9, -4, 6))]
        assert dependences == []

    @settings(max_examples=150, deadline=None)
    @given(degenerate_sets())
    def test_agrees_with_the_subset_scan_on_degenerate_sets(self, rows):
        vectors = [vec(*r) for r in rows]
        assert circuits(vectors) == coprime(reference.circuits(vectors))

    @pytest.mark.parametrize("P,count,reductions", [
        (box(6), 6, 1), (simplex(7), 1, 1), (simplex_product([3, 3]), 2, 1),
        (simplex_product([2, 2, 2, 1]), 4, 1), (hexagon(), 11, 1),
    ], ids=["box6", "simplex7", "sp33", "sp2221", "hexagon"])
    def test_row_reductions(self, monkeypatch, P, count, reductions):
        # One elimination splits the normals into components and reads the
        # dependence of each component of corank 1 off its pivot rows: the
        # 6 pairs of box6, the whole of simplex7, the 2 simplices of sp33
        # and the 4 of sp2221, which took one more reduction each by
        # `simplex_dependence`. The hexagon is connected, of corank 4, and
        # is searched by a prefix tree on one tableau, which reduces no
        # row; the scan of its subsets took 24. Scanning every subset took
        # 722, 247, 218, 1,021 and 23.
        calls = count_calls(monkeypatch, "_row_reduce")
        dependences = count_calls(monkeypatch, "simplex_dependence")
        assert len(circuits(P.normal_set.normals)) == count
        assert (len(calls), dependences) == (reductions, [])

    @pytest.mark.parametrize("P,count,pivots", [
        (hexagon(), 11, 8), (set_n(), 5, 18), (sign_vectors_26(), 5805, 341),
    ], ids=["hexagon", "N", "sign_vectors_26"])
    def test_pivots(self, monkeypatch, P, count, pivots):
        # The first elimination pivots 2, 3 and 3 times; the prefix tree
        # once per independent prefix short of the rank, whose last circuits
        # are read off 2x2 minors: the hexagon's 6 singletons; N's 5
        # singletons and 10 pairs; the 26 vectors' singletons and their 312
        # pairs that are not antiparallel. Pivoting the full-rank prefixes
        # too took 20, 28 and 2,309 pivots (12 pairs of the hexagon, 10
        # triples of N and 1,968 of the 26 vectors), and the scan of
        # subsets took 45, 68 and 23,600 in 24, 26 and 8,086 row reductions.
        reductions = count_calls(monkeypatch, "_row_reduce")
        calls = count_calls(monkeypatch, "_pivot")
        assert len(circuits(P.normal_set.normals)) == count
        assert (len(reductions), len(calls)) == (1, pivots)


class TestPrimitiveForm:
    def test_positive_multiples_share_form(self):
        assert primitive_form(vec(F(1, 2), F(3, 2))) == primitive_form(vec(2, 6))

    def test_negation_differs(self):
        assert primitive_form(vec(1, 1)) != primitive_form(vec(-1, -1))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            primitive_form(vec(0, 0))


def satisfies(rows, rhs, y) -> bool:
    """Is y a nonnegative solution of rows @ y == rhs, exactly?"""
    return (all(c >= 0 for c in y)
            and all(sum(a * c for a, c in zip(row, y)) == h for row, h in zip(rows, rhs)))


def certifies(rows, rhs, z) -> bool:
    """Is z a Farkas certificate: z @ rows <= 0 column by column and
    z @ rhs > 0, so that no y >= 0 solves rows @ y == rhs?"""
    return (all(sum(zi * row[j] for zi, row in zip(z, rows)) <= 0
                for j in range(len(rows[0])))
            and sum(zi * h for zi, h in zip(z, rhs)) > 0)


def grid_witness(rows, rhs, max_num=4, denominators=(1, 2, 3)):
    """Independent brute-force search for y >= 0 over small rationals; only
    usable in very low dimension."""
    values = sorted({F(p, q) for q in denominators for p in range(max_num * q + 1)})
    for candidate in product(values, repeat=len(rows[0])):
        if satisfies(rows, rhs, candidate):
            return candidate
    return None


small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def systems(draw, columns=st.integers(min_value=1, max_value=4)):
    """rows @ y == rhs with small entries; half of them built from a y >= 0
    on the grid, so that they are feasible."""
    n = draw(columns)
    rows = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        y = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
        rhs = [sum(a * c for a, c in zip(row, y)) for row in rows]
    else:
        rhs = draw(st.lists(small_ints, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


class TestFeasible:
    """`solve_eq_nonneg` proves its answer either way, and `separator`
    poses <p, v> >= 1 through it."""

    def test_quadrant(self):
        pts = [vec(1, 0), vec(0, 1)]
        v = separator(pts)
        assert v is not None and all(dot(p, v) >= 1 for p in pts)

    def test_contradictory_halfspaces(self):
        assert separator([vec(1, 0), vec(-1, 0)]) is None
        # the LP behind it: (0, 0, 1) is the lifted points' midpoint
        rows, rhs = [[1, -1], [0, 0], [1, 1]], [0, 0, 1]
        assert solve_eq_nonneg(rows, rhs) == ([F(1, 2), F(1, 2)], None)
        assert grid_witness(rows, rhs) == (F(1, 2), F(1, 2))

    def test_pyramid_slant_separator(self):
        pts = [vec(*n) for n in [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]]
        v = separator(pts)
        assert v is not None and all(dot(p, v) >= 1 for p in pts)

    def test_infeasible_system_returns_its_certificate(self):
        rows, rhs = [[1, 1], [2, 2]], [2, 5]
        y, z = solve_eq_nonneg(rows, rhs)
        assert y is None and certifies(rows, rhs, z)
        assert grid_witness(rows, rhs) is None

    def test_no_rows_is_feasible(self):
        assert solve_eq_nonneg([], []) == ([], None)

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_witnesses_substitute_exactly(self, system):
        rows, rhs = system
        y, z = solve_eq_nonneg(rows, rhs)
        assert (y is None) != (z is None)
        assert satisfies(rows, rhs, y) if y is not None else certifies(rows, rhs, z)

    @settings(max_examples=100, deadline=None)
    @given(systems(columns=st.just(2)))
    def test_agrees_with_the_grid_in_the_plane(self, system):
        rows, rhs = system
        y, z = solve_eq_nonneg(rows, rhs)
        if grid_witness(rows, rhs) is not None:
            assert y is not None
        if z is not None:
            assert grid_witness(rows, rhs) is None
