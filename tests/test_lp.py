"""`lp.solve_eq_nonneg` pivots on an integer tableau over one shared
denominator. It must return exactly what the `Fraction` tableau it replaced
returns (kept in `tests/lp_reference.py`), reject a right-hand side of the
wrong length, and keep both of its answer checks reachable."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from polyillum import lp, position
from polyillum.errors import InputError, InternalInvariantError
from polyillum.lp import solve_eq_nonneg
from tests.conftest import box, hexagon, simplex
from tests.lp_reference import solve_eq_nonneg as reference
from tests.oracle_reference import lifted_separator

F = Fraction

entries = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def lp_systems(draw):
    """rows @ y == rhs with up to 4 rows and columns of small rationals.

    A row or a column may be zeroed, and a row may repeat another one
    scaled, so that ratio tests tie. The right-hand side is either rows @ y
    for a y >= 0 with small integer entries, zeros among them, so that the
    system is feasible and often degenerate, or drawn freely, negative
    entries included, so that many systems are infeasible.
    """
    m = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4)) if m else 0
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    index = st.integers(min_value=0, max_value=max(m - 1, 0))
    if m and draw(st.booleans()):
        rows[draw(index)] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=n - 1))
        for row in rows:
            row[j] = 0
    if m > 1 and draw(st.booleans()):
        c = draw(st.sampled_from([1, 2, F(1, 2), -1]))
        rows[draw(index)] = [c * x for x in rows[draw(index)]]
    if draw(st.booleans()):
        y = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
        rhs = [sum(a * c for a, c in zip(row, y)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=m, max_size=m))
    return rows, rhs


class TestAgainstTheFractionTableau:
    @settings(max_examples=400, deadline=None)
    @given(lp_systems())
    def test_random_systems(self, system):
        rows, rhs = system
        assert solve_eq_nonneg(rows, rhs) == reference(rows, rhs)

    @pytest.mark.parametrize("rows,rhs,feasible", [
        ([[1, -1], [2, 1]], [-1, 4], True),
        ([[1, -1], [2, 1]], [-1, -4], False),
        ([[0, 0, 1], [0, 0, 0], [1, 0, 2]], [1, 0, 3], True),
        ([[1, 0], [0, 0]], [1, 1], False),
        ([[1, 0], [2, 1]], [1, 2], True),
        ([[1, 1, 0], [2, 2, 1], [1, 0, 1]], [0, 1, 1], True),
        ([[1, 1], [2, 2]], [2, 5], False),
        ([[F(1, 2), F(-1, 3)], [F(3, 4), 1]], [F(5, 6), F(-1, 6)], False),
        ([[F(1, 2), F(-1, 3)], [F(3, 4), 1]], [F(1, 6), F(7, 4)], True),
    ], ids=["negative-rhs", "negative-rhs-infeasible", "zero-row-and-column",
            "zero-row-infeasible", "ratio-tie", "degenerate", "infeasible",
            "fractions-infeasible", "fractions"])
    def test_fixed_systems(self, rows, rhs, feasible):
        y, z = solve_eq_nonneg(rows, rhs)
        assert (y is not None) == feasible
        assert (y, z) == reference(rows, rhs)

    @pytest.mark.parametrize("P", [box(3), hexagon(), simplex(4)],
                             ids=["box3", "hexagon", "simplex4"])
    def test_separator_systems(self, monkeypatch, P):
        # the LP the lifted separator poses for every sign vector, cell or not
        systems = []

        def recording(rows, rhs):
            systems.append((rows, rhs))
            return solve_eq_nonneg(rows, rhs)

        monkeypatch.setattr(position, "solve_eq_nonneg", recording)
        normals = P.normal_set.normals
        for signs in product((1, -1), repeat=len(normals)):
            lifted_separator([tuple(s * x for x in m) for s, m in zip(signs, normals)])
        assert len(systems) == 2 ** len(normals)
        assert {reference(*system)[0] is None for system in systems} == {True, False}
        for rows, rhs in systems:
            assert solve_eq_nonneg(rows, rhs) == reference(rows, rhs)


@pytest.mark.parametrize("rows,rhs", [([[1]], []), ([], [1])], ids=["short", "long"])
def test_rhs_must_have_one_entry_per_row(rows, rhs):
    with pytest.raises(InputError, match="right-hand sides for"):
        solve_eq_nonneg(rows, rhs)


def test_a_wrong_solution_fails_its_substitution_check(monkeypatch):
    phase_one = lp._phase_one

    def doubled_denominator(A, b, signs, D):
        M, D, basis = phase_one(A, b, signs, D)
        return M, 2 * D, basis

    monkeypatch.setattr(lp, "_phase_one", doubled_denominator)
    with pytest.raises(InternalInvariantError, match="substitution check"):
        solve_eq_nonneg([[1, 1]], [2])


def test_a_wrong_certificate_fails_the_farkas_check(monkeypatch):
    phase_one = lp._phase_one

    def zero_reduced_costs(A, b, signs, D):
        M, D, basis = phase_one(A, b, signs, D)
        M[-1] = [0] * len(M[-1])
        return M, D, basis

    monkeypatch.setattr(lp, "_phase_one", zero_reduced_costs)
    with pytest.raises(InternalInvariantError, match="Farkas certificate"):
        solve_eq_nonneg([[1, 1], [2, 2]], [2, 5])
