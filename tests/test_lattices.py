from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dreg.lattices import Laurent, PolarLattice
from dreg.linalg import gauss_solve, mat_mul

from conftest import (LocalLattice, den_of, from_coeffs, polar_contains, polar_generators,
                      polar_part, reference_determinant)


def rf(num, den=(1,)):
    return from_coeffs("x", num, den)


def polar_vector(row: dict, dim: int) -> tuple:
    """A polar dict {(exponent, component): c} written as a RatFun vector."""
    out = [rf([0])] * dim
    for (e, j), c in row.items():
        out[j] = out[j] + rf([c], [0] * -e + [1])
    return tuple(out)


class TestLocalLattice:
    def test_standard_contains_integral_vectors(self):
        lat = LocalLattice.standard(2)
        assert lat.contains((rf([1, 2]), rf([3])))
        assert not lat.contains((rf([1], [0, 1]), rf([0])))  # 1/x

    def test_extension_and_membership(self):
        lat = LocalLattice.standard(2)
        v = (rf([1], [0, 1]), rf([0]))  # (1/x, 0)
        bigger = lat.extended([v])
        assert bigger.contains(v)
        assert bigger.contains((rf([1]), rf([1])))
        assert not lat.contains(v)

    def test_same_module(self):
        lat = LocalLattice.standard(2)
        # a unimodular combination generates the same module
        cols = [(rf([1]), rf([1])), (rf([0]), rf([1]))]
        other = LocalLattice(2, cols)
        assert lat.same_module(other)

    def test_point_matters(self):
        v = rf([1], [-1, 1])  # 1/(x-1)
        lat = LocalLattice.standard(1)
        assert lat.contains((v,))               # unit at 0
        assert not lat.contains((v.shift(1),))  # pole at 1, moved to 0

    def test_deep_pole_chain(self):
        lat = LocalLattice(1, [(rf([1], [0, 0, 1]),)])  # x^-2 O
        assert lat.contains((rf([1], [0, 1]),))
        assert not lat.contains((rf([1], [0, 0, 0, 1]),))


# entries p / (x^k (x + c)): poles at 0 of order k or k + 1, and units
# of O that are not polynomials
ENTRIES = st.builds(lambda p, k, c: rf(p, [0] * k + [c, 1]),
                    st.lists(st.integers(-3, 3), max_size=3),
                    st.integers(0, 2), st.integers(-2, 2))


@st.composite
def column_lists(draw):
    dim = draw(st.integers(1, 3))
    cols = draw(st.lists(st.tuples(*[ENTRIES] * dim), min_size=1, max_size=4))
    return dim, cols


class TestInsertionWalk:
    @settings(max_examples=60, deadline=None)
    @given(data=column_lists(), order=st.randoms(use_true_random=False))
    def test_one_call_matches_column_by_column(self, data, order):
        dim, cols = data
        lat = LocalLattice(dim, cols)
        assert all(lat.contains(c) for c in cols)
        shuffled = list(cols)
        order.shuffle(shuffled)
        grown = LocalLattice(dim, [])
        for c in shuffled:
            grown = grown.extended([c])
        assert lat.same_module(grown)

        def shape(lattice):
            return [(row, col[row].ord_at(0)) for row, col in lattice.pivots]

        assert shape(lat) == shape(grown)


# a numerator, k and a unit u, u(0) != 0, for the denominator x^k u
LAURENT_INPUTS = st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
                           st.integers(0, 3), st.sampled_from([(1,), (2, 1), (1, 0, 1),
                                                               (-1, 2, 0, 1)]))

# polar vectors {(exponent, component): c} in rank <= 3, depth <= 4
POLAR = st.dictionaries(st.tuples(st.integers(-4, -1), st.integers(0, 2)),
                        st.fractions(min_value=-3, max_value=3, max_denominator=3)
                        .filter(bool), max_size=5)


class TestPolarLattice:
    @settings(max_examples=15, deadline=None)
    @given(LAURENT_INPUTS)
    def test_laurent_matches_sympy(self, data):
        sympy = pytest.importorskip("sympy")
        num, k, unit = data
        f = rf(num, [0] * k + list(unit))
        X = sympy.Symbol("x")
        expr = (sum(c * X ** i for i, c in enumerate(num))
                / (X ** k * sum(c * X ** i for i, c in enumerate(unit))))
        stop = 3
        series = Laurent.at_origin(f)
        expansion = sympy.series(expr, X, 0, stop).removeO()
        expected = [expansion.coeff(X, e) for e in range(series.start, stop)]
        assert series.start == min(0, f.ord_at(0))
        assert [sympy.Rational(c.numerator, c.denominator)
                for c in series.terms(stop)] == expected

    def test_polar_part_ignores_other_poles(self):
        v = (rf([1], [-1, 1]) + rf([2], [0, 0, 1]), rf([0]))  # 1/(x-1) + 2/x^2
        assert polar_part(v) == {(-2, 0): 2}
        lat = PolarLattice(2)
        assert polar_contains(lat, (rf([1], [-1, 1]), rf([3, 1])))
        assert not polar_contains(lat, v)
        lat.insert({(-2, 0): Fraction(1)})
        assert polar_contains(lat, v)
        assert polar_contains(lat, (rf([1], [0, 1]), rf([0])))  # the shift 1/x

    @settings(max_examples=60, deadline=None)
    @given(st.lists(POLAR, min_size=1, max_size=4))
    def test_insert_keeps_an_echelon_closed_under_the_shift(self, vectors):
        lat = PolarLattice(3)
        for v in vectors:
            lat.insert(v)
            assert not lat.reduce(v)
        for pivot, row in lat.rows.items():
            assert min(row) == pivot and row[pivot] == 1
            assert not lat.reduce({(e + 1, j): c for (e, j), c in row.items() if e < -1})
        gens = polar_generators(lat)
        assert len(gens) == 3
        assert all(polar_contains(lat, g) for g in gens)
        for i, g in enumerate(gens):
            # the pivots of component i run from -1 down to -d_i without gaps
            depth = sum(j == i for _, j in lat.rows)
            assert {(-k, i) for k in range(1, depth + 1)} == {p for p in lat.rows if p[1] == i}
            if depth:
                assert polar_part(g) == lat.rows[-depth, i]
            else:
                assert g == tuple(rf([int(j == i)]) for j in range(3))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(POLAR, min_size=1, max_size=4))
    def test_generators_are_an_m_vector_basis(self, vectors):
        lat = PolarLattice(3)
        for v in vectors:
            lat.insert(v)
        gens = polar_generators(lat)
        assert len(gens) == 3
        for g in gens:
            assert all(den_of(e).is_monomial() for e in g)
            assert polar_contains(lat, g)
        # the same module as e_1 .. e_m and the rows, by the reference lattice
        rows = LocalLattice.standard(3).extended(
            polar_vector(row, 3) for row in lat.rows.values())
        assert LocalLattice(3, gens).same_module(rows)


class TestLinalg:
    def test_gauss_solve(self):
        zero = rf([0])
        one = rf([1])
        x = rf([0, 1])
        matrix = [[one, x], [zero, one]]
        rhs = [x, one]
        det, sol = gauss_solve(matrix, rhs, zero, one)
        assert det == one
        assert sol is not None
        assert sol[0] + x * sol[1] == x
        assert sol[1] == one

    def test_gauss_inconsistent(self):
        # x + y = 1 and x + y = 0: singular, so no solution is returned
        zero = rf([0])
        one = rf([1])
        matrix = [[one, one], [one, one]]
        rhs = [one, zero]
        assert gauss_solve(matrix, rhs, zero, one) == (zero, None)

    def test_determinant(self):
        zero, one = rf([0]), rf([1])
        x = rf([0, 1])
        det, _ = gauss_solve([[x, one], [one, x]], [zero, zero], zero, one)
        assert det == x * x - one
        # a row swap flips the sign
        det, _ = gauss_solve([[zero, one], [one, x]], [zero, zero], zero, one)
        assert det == -one

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4), st.booleans(), st.booleans())
    def test_elimination_matches_reference_determinant(self, data, n, rational, singular):
        if rational:
            entries = st.builds(lambda a, b: rf(a, b), st.lists(st.integers(-3, 3), max_size=3),
                                st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(any))
            zero, one = rf([0]), rf([1])
        else:
            entries = st.fractions(-5, 5, max_denominator=4)
            zero, one = Fraction(0), Fraction(1)
        square = st.lists(entries, min_size=n, max_size=n)
        matrix = data.draw(st.lists(square, min_size=n, max_size=n))
        if singular:
            # the last row becomes a combination of the others (zero when n = 1)
            weights = data.draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
            last = [zero] * n
            for w, row in zip(weights, matrix):
                last = [a + w * b for a, b in zip(last, row)]
            matrix[-1] = last
        rhs = data.draw(square)
        det, x = gauss_solve(matrix, rhs, zero, one)
        assert det == reference_determinant(matrix, zero, one, lambda f: not f)
        if singular:
            assert not det
        if det:
            for row, b in zip(matrix, rhs):
                total = zero
                for a, v in zip(row, x):
                    total = total + a * v
                assert total == b
        else:
            assert x is None

    def test_mat_mul(self):
        a = [[1, 2], [3, 4]]
        b = [[0, 1], [1, 0]]
        assert mat_mul(a, b) == [[2, 1], [4, 3]]
