import contextlib
import hashlib
import io
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dreg.cli
import dreg.ideals
from dreg.dmod import OTHER, ZeroModuleError, decompose_symbol_ideal, dimension_report
from dreg.ideals import (EXPONENT_LIMIT, BudgetExceeded, DEGREVLEX, LEX, Ideal, NotMonomialIdeal,
                         Packing, TermOrder, _divides, _is_unit, buchberger_basis,
                         buchberger_loop, groebner_basis, is_radical_squarefree_monomial,
                         is_unit_ideal, leading_term, radical_membership, symbol_weight_order,
                         weighted_order)
from dreg.parser import parse_weyl_generators
from dreg.polynomials import MPoly
from dreg.weyl import WeylElement, characteristic_ideal, weyl_groebner

from conftest import (WORKLOADS, _exp_lcm, exact_coefficients, gkz_rational_normal_curve, krull_dimension,
                      normal_form, random_mpoly, reference_buchberger_basis,
                      reference_normal_form, reference_product, spy, started_basis,
                      univar_divmod)

CLIFF = WORKLOADS.CLIFF_WEYL


def ring(*names):
    return tuple(names)


def V(vars_, name):
    return MPoly.var(vars_, name)


class TestBuchberger:
    def test_principal_already_basis(self):
        vs = ring("x")
        I = Ideal(vs, [V(vs, "x")])
        gb = groebner_basis(I)
        assert gb == [V(vs, "x")]

    def test_monomial_ideal_is_its_own_basis(self):
        vs = ring("x", "y")
        x, y = V(vs, "x"), V(vs, "y")
        gb = groebner_basis(Ideal(vs, [x * x, x * y]))
        assert gb == [x * y, x * x] or gb == [x * x, x * y]

    def test_mixed_ideal_reduction(self):
        vs = ring("x", "y", "xi")
        x, y, xi = (V(vs, n) for n in vs)
        I = Ideal(vs, [x * xi, y * xi, x - y])
        gb = groebner_basis(I)
        # normal form of y*xi is 0 and the linear generator survives
        assert normal_form(y * xi, gb).is_zero()
        assert normal_form(x * xi, gb).is_zero()
        assert any(g == x - y or g == y - x for g in gb)

    def test_idempotence(self):
        vs = ring("x", "y", "xi")
        x, y, xi = (V(vs, n) for n in vs)
        I = Ideal(vs, [x * xi - y, y * xi + x, x * y - 1])
        gb1 = groebner_basis(I)
        gb2 = groebner_basis(Ideal(vs, gb1))
        assert gb1 == gb2

    def test_membership_matches_divisibility_on_principal_ideals(self):
        rng = random.Random(23)
        vs = ring("x",)
        for _ in range(30):
            g = random_mpoly(rng, vs, 3, 3)
            f = random_mpoly(rng, vs, 3, 3)
            if g.is_zero():
                continue
            I = Ideal(vs, [g])
            gb = groebner_basis(I)
            divisible = univar_divmod(f, g)[1].is_zero()
            assert normal_form(f, gb).is_zero() == divisible

    def test_budget_error(self):
        vs = ring("x", "y", "xi")
        x, y, xi = (V(vs, n) for n in vs)
        I = Ideal(vs, [x * xi - y, y * xi + x, x * y - 1])
        with pytest.raises(BudgetExceeded):
            groebner_basis(I, budget=1)

    def test_constant_generator_is_the_unit_ideal(self):
        vs = ring("x", "y")
        x, y = V(vs, "x"), V(vs, "y")
        gb = groebner_basis(Ideal(vs, [x * y - 1, x, MPoly.const(vs, 3)]), budget=0)
        assert gb == [MPoly.const(vs, 1)]

    def test_buchberger_returns_ideal(self):
        vs = ring("x", "xi")
        x, xi = V(vs, "x"), V(vs, "xi")
        out = Ideal(vs, groebner_basis(Ideal(vs, [x * xi, x * x * xi])))
        assert out.gens == (x * xi,)

    def test_weighted_symbol_order(self):
        order = symbol_weight_order(4)
        # xi-degree dominates total degree
        assert order.key((3, 0, 0, 0)) < order.key((0, 0, 1, 0))


def brute_force_monomial_dimension(gens_exps, n):
    """Largest coordinate subspace missing every generator's support."""
    best = -1
    for mask in range(1 << n):
        ok = True
        for e in gens_exps:
            if all(e[i] == 0 or (mask >> i) & 1 for i in range(n)):
                ok = False
                break
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


class TestKrullDimension:
    def test_examples(self):
        vs = ring("x", "xi")
        x, xi = V(vs, "x"), V(vs, "xi")
        assert krull_dimension(Ideal(vs, [xi])) == 1
        assert krull_dimension(Ideal(vs, [])) == 2
        assert krull_dimension(Ideal(vs, [x * xi])) == 1
        # both components of V(x xi) have dimension 1
        assert krull_dimension(Ideal(vs, [x])) == 1
        assert krull_dimension(Ideal(vs, [xi])) == 1

    def test_unit_ideal_convention(self):
        vs = ring("x",)
        assert krull_dimension(Ideal(vs, [MPoly.const(vs, 1)])) == -1

    def test_exhaustive_monomial_oracle(self):
        # every monomial ideal in <= 3 variables with <= 4 generators drawn
        # from the low-degree monomial pool
        vs = ring("x", "y", "z")
        pool = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
                (2, 0, 0), (1, 0, 1)]
        combos = itertools.chain.from_iterable(
            itertools.combinations(pool, k) for k in (1, 2, 3, 4))
        count = 0
        for exps in combos:
            gens = [MPoly.monomial(vs, e) for e in exps]
            expected = brute_force_monomial_dimension(exps, 3)
            assert krull_dimension(Ideal(vs, gens)) == expected
            count += 1
        assert count == 98


class TestRadicalMembership:
    def test_examples(self):
        vs = ring("x", "y")
        x, y = V(vs, "x"), V(vs, "y")
        assert radical_membership(x, Ideal(vs, [x * x]))
        assert not radical_membership(x, Ideal(vs, [y]))
        vs2 = ring("x", "xi")
        x2, xi2 = V(vs2, "x"), V(vs2, "xi")
        f = x2 * xi2
        I = Ideal(vs2, [f * f * f, xi2 * f])
        assert radical_membership(f, I)

    def test_zero_always_member(self):
        vs = ring("x",)
        assert radical_membership(MPoly.zero(vs), Ideal(vs, [V(vs, "x")]))


class TestSquarefreeMonomial:
    def test_examples(self):
        vs = ring("x", "xi", "eta")
        x, xi, eta = (V(vs, n) for n in vs)
        assert is_radical_squarefree_monomial(Ideal(vs, [x * xi, eta]))
        assert not is_radical_squarefree_monomial(Ideal(vs, [x * x * xi]))
        vs6 = ring("x1", "x2", "x3", "xi1", "xi2", "xi3")
        gens = [V(vs6, "x1") * V(vs6, "xi1"),
                V(vs6, "x2") * V(vs6, "xi2"), V(vs6, "xi3")]
        assert is_radical_squarefree_monomial(Ideal(vs6, gens))

    def test_redundant_generator_is_minimalized(self):
        vs = ring("x",)
        x = V(vs, "x")
        assert is_radical_squarefree_monomial(Ideal(vs, [x, x * x]))

    def test_non_monomial_error(self):
        vs = ring("x", "y")
        with pytest.raises(NotMonomialIdeal):
            is_radical_squarefree_monomial(
                Ideal(vs, [V(vs, "x") + V(vs, "y")]))


COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


def flat_terms(nvars, degree, max_terms):
    return st.dictionaries(st.tuples(*[st.integers(0, degree)] * nvars), COEFFS,
                           min_size=1, max_size=max_terms)


@st.composite
def polynomial_generators(draw):
    vs = ring("x", "y", "z")
    terms = draw(st.lists(flat_terms(3, 2, 3), min_size=1, max_size=3))
    return vs, [MPoly(vs, t) for t in terms]


@st.composite
def weyl_generators(draw):
    n = draw(st.integers(1, 2))
    terms = draw(st.lists(flat_terms(2 * n, 3 - n, 2), min_size=1, max_size=3))
    return [WeylElement(n, t) for t in terms]


@st.composite
def permuted_and_rescaled(draw, gens):
    perm = draw(st.permutations(gens))
    scales = draw(st.lists(COEFFS, min_size=len(gens), max_size=len(gens)))
    return [g.scale(c) for g, c in zip(perm, scales)]


PRIMES = (998244353, 999999929, 999999937, 1000000007, 1000000009, 2147483647, 4294967291)


def with_prime_ratios(rng, g):
    """g's support with coefficients +-p/q for 9-10 digit primes p, q."""
    return MPoly(g.vars, {e: rng.choice((-1, 1)) * Fraction(rng.choice(PRIMES), rng.choice(PRIMES))
                          for e in g.terms})


def to_sympy(g, symbols, sympy):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
               for exps, c in g.terms.items())


class TestSharedDriver:
    """The one Buchberger driver, checked on the polynomial and Weyl rings."""

    def test_s_polynomials_reduce_to_zero_post_hoc(self):
        rng = random.Random(59)
        vs = ring("x", "y", "z")
        pairs = 0
        for _ in range(6):
            gens = [random_mpoly(rng, vs, 2, 3) for _ in range(3)]
            gb = groebner_basis(Ideal(vs, gens), budget=20000)
            assert all(normal_form(g, gb).is_zero() for g in gens)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    fe, fc = leading_term(gb[i], DEGREVLEX)
                    ge, gc = leading_term(gb[j], DEGREVLEX)
                    lcm = tuple(max(p, q) for p, q in zip(fe, ge))
                    mi = MPoly(vs, {tuple(p - q for p, q in zip(lcm, fe)): Fraction(1) / fc})
                    mj = MPoly(vs, {tuple(p - q for p, q in zip(lcm, ge)): Fraction(1) / gc})
                    assert normal_form(mi * gb[i] - mj * gb[j], gb).is_zero()
                    pairs += 1
        assert pairs > 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_polynomial_basis_ignores_generator_order_and_scale(self, data):
        vs, gens = data.draw(polynomial_generators())
        again = data.draw(permuted_and_rescaled(gens))
        assert groebner_basis(Ideal(vs, again)) == groebner_basis(Ideal(vs, gens))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_weyl_basis_ignores_generator_order_and_scale(self, data):
        gens = data.draw(weyl_generators())
        again = data.draw(permuted_and_rescaled(gens))
        assert weyl_groebner(again) == weyl_groebner(gens)

    @pytest.mark.parametrize("order, name", [(DEGREVLEX, "grevlex"), (LEX, "lex")],
                             ids=["grevlex", "lex"])
    def test_matches_sympy(self, order, name):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        vs = ring("x", "y", "z")
        symbols = sympy.symbols(vs)
        samples = [[random_mpoly(rng, vs, 2, 4) for _ in range(3)] for _ in range(8)]
        # coefficient growth: ratios of 9-10 digit primes on the same supports
        samples += [[with_prime_ratios(rng, random_mpoly(rng, vs, 2, 3)) for _ in range(3)]
                    for _ in range(4)]
        for gens in samples:
            ours = groebner_basis(Ideal(vs, gens), order)
            theirs = sympy.groebner([to_sympy(g, symbols, sympy) for g in gens],
                                    *symbols, order=name)
            expected = [MPoly(vs, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})
                        for p in theirs.polys]
            assert sorted(ours, key=str) == sorted(expected, key=str)


def assert_buchberger_test(gens, gb, order, monomial):
    """Every generator and every S-element of gb reduces to 0 modulo gb."""
    assert all(normal_form(g, gb, order).is_zero() for g in gens)
    for f, g in itertools.combinations(gb, 2):
        (fe, fc), (ge, gc) = leading_term(f, order), leading_term(g, order)
        lcm = tuple(max(p, q) for p, q in zip(fe, ge))
        mf = monomial(tuple(p - q for p, q in zip(lcm, fe)), Fraction(1) / fc)
        mg = monomial(tuple(p - q for p, q in zip(lcm, ge)), Fraction(1) / gc)
        s = reference_product(mf, f) - reference_product(mg, g)
        assert normal_form(s, gb, order).is_zero()


class TestPairCriteria:
    """Bases built with the chain (and, in Q[vars], coprimality) criterion,
    checked afterwards by Buchberger's S-pair test, at sizes where the chain
    criterion drops pairs."""

    @settings(max_examples=40, deadline=None)
    @given(terms=st.lists(flat_terms(3, 2, 3), min_size=3, max_size=3))
    def test_polynomial_basis_passes_s_pair_test(self, terms):
        vs = ring("x", "y", "z")
        gens = [MPoly(vs, t) for t in terms]
        gb = groebner_basis(Ideal(vs, gens))
        assert_buchberger_test(gens, gb, DEGREVLEX,
                               lambda e, c: MPoly(vs, {tuple(e): c}))

    @settings(max_examples=40, deadline=None)
    @given(terms=st.lists(flat_terms(4, 2, 2), min_size=3, max_size=3))
    # -x*y^2*dx^2 + 7/2*dy^2 ; 7/2*x*y^2*dx^2*dy - 2*y^2*dx ; 7/2*dy^2 + 7/2*x^2
    # needs more than 400 pops with swelling coefficients
    @example(terms=[{(1, 2, 2, 0): Fraction(-1), (0, 0, 0, 2): Fraction(7, 2)},
                    {(1, 2, 2, 1): Fraction(7, 2), (0, 2, 1, 0): Fraction(-2)},
                    {(0, 0, 0, 2): Fraction(7, 2), (2, 0, 0, 0): Fraction(7, 2)}])
    def test_weyl_basis_passes_s_pair_test(self, terms):
        # bounded like TestIntegerDriver: a draw past POP_BOUND pops must be
        # past it for the Fraction driver too
        gens = [WeylElement(2, t) for t in terms]
        order = symbol_weight_order(4)
        gb = outcome(buchberger_basis, gens, order)
        if gb is None:
            assert outcome(reference_buchberger_basis, gens, order) is None
            return
        assert gb == weyl_groebner(gens)
        assert_buchberger_test(gens, gb, order, lambda e, c: WeylElement(2, {e: c}))


POP_BOUND = 100     # random sets that need more pops compare as "exceeded"
# SHA-256 of stdout, a NUL byte and stderr of the k = 5 GKZ `holonomic` report
GKZ5_HOLONOMIC_SHA256 = "958a1a408f7cf900dfccf15246040de188c1f873b929507495a5303f7183f295"
# SHA-256 of the `charvar --budget 2000000 --format json` stdout, a NUL byte
# and stderr, recorded when coverage still ran a radical test per product
GKZ_CHARVAR_SHA256 = {
    2: "4439a2129b22441ae640d81d5019dda627346c143a99941aa622c465af687fd4",
    3: "6da1c0fef0fd2c88433f1c5fe7252b60075b779d6d288c0dfe59fdc5928b7eec",
    4: "76b55ca48cd52470bf822a4fe063ff321dde75562ec07da4d48215072d48d50c",
}


def outcome(driver, gens, order, budget=POP_BOUND):
    """The driver's basis, or None when it needs more than `budget` pops."""
    try:
        return driver(gens, order, budget)
    except BudgetExceeded:
        return None


def smallest_budget(driver, gens, order, bound=POP_BOUND):
    """The least budget up to `bound` under which the driver returns, or None."""
    if outcome(driver, gens, order, bound) is None:
        return None
    lo, hi = -1, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outcome(driver, gens, order, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


SYMBOL_VARS = ring("x", "y", "xi", "eta")
ORACLE_ORDERS = [DEGREVLEX, LEX, symbol_weight_order(4)]


class TestLeadingMonomials:
    """Term orders are multiplicative: the leading exponent of a product is
    the sum of its factors' (the coverage refutation in `dmod._covers`
    reads products' leading monomials this way)."""

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=["degrevlex", "lex", "symbol"])
    @settings(max_examples=50, deadline=None)
    @given(f=flat_terms(4, 3, 4), g=flat_terms(4, 3, 4))
    def test_product_leads_with_the_sum(self, order, f, g):
        f, g = MPoly(SYMBOL_VARS, f), MPoly(SYMBOL_VARS, g)
        lead = tuple(map(operator.add, leading_term(f, order)[0], leading_term(g, order)[0]))
        assert leading_term(f * g, order)[0] == lead


@st.composite
def symbol_ring_generators(draw):
    terms = draw(st.lists(flat_terms(4, 2, 3), min_size=1, max_size=3))
    return [MPoly(SYMBOL_VARS, t) for t in terms]


@st.composite
def a1_a2_generators(draw):
    n = draw(st.integers(1, 2))
    terms = draw(st.lists(flat_terms(2 * n, 4 - n, 2), min_size=1, max_size=3))
    return [WeylElement(n, t) for t in terms]


class TestIntegerDriver:
    """The driver runs on primitive integer elements; its bases, remainders
    and pop counts equal those of the Fraction driver in conftest, and every
    coefficient that leaves it is in normal form: an int when integral, else
    a Fraction."""

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=["degrevlex", "lex", "symbol"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_polynomial_bases_and_remainders_match_the_oracle(self, order, data):
        gens = data.draw(symbol_ring_generators())
        f = MPoly(SYMBOL_VARS, data.draw(flat_terms(4, 3, 5)))
        gb = outcome(buchberger_basis, gens, order)
        assert gb == outcome(reference_buchberger_basis, gens, order)
        for basis in [gens] if gb is None else [gb, gens]:
            r = normal_form(f, basis, order)
            assert r == reference_normal_form(f, basis, order)
            assert exact_coefficients([r] + basis)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_weyl_bases_and_remainders_match_the_oracle(self, data):
        gens = data.draw(a1_a2_generators())
        n = gens[0].n
        terms = data.draw(flat_terms(2 * n, 3, 4))
        f = WeylElement(n, terms)
        order = symbol_weight_order(2 * n)
        gb = outcome(buchberger_basis, gens, order)
        assert gb == outcome(reference_buchberger_basis, gens, order)
        for basis in [gens] if gb is None else [gb, gens]:
            r = normal_form(f, basis, order)
            assert r == reference_normal_form(f, basis, order)
            assert exact_coefficients([r] + basis)

    @settings(max_examples=25, deadline=None)
    @given(gens=symbol_ring_generators())
    def test_polynomial_budget_counts_the_same_pops(self, gens):
        order = symbol_weight_order(4)
        assert (smallest_budget(buchberger_basis, gens, order)
                == smallest_budget(reference_buchberger_basis, gens, order))

    @settings(max_examples=25, deadline=None)
    @given(gens=a1_a2_generators())
    def test_weyl_budget_counts_the_same_pops(self, gens):
        order = symbol_weight_order(2 * gens[0].n)
        assert (smallest_budget(buchberger_basis, gens, order)
                == smallest_budget(reference_buchberger_basis, gens, order))

    def test_unit_ideal_cliff_pops(self):
        # the constant joins the basis at pop 220 in both drivers
        gens = parse_weyl_generators(CLIFF, ("x", "y"))
        order = symbol_weight_order(4)
        assert smallest_budget(buchberger_basis, gens, order, 300) == 220
        assert smallest_budget(reference_buchberger_basis, gens, order, 300) == 220

    @pytest.mark.parametrize("family", [f[0] for f in WORKLOADS.FAMILIES])
    def test_workload_families_match_the_oracle(self, family):
        _, build, nparams, variables = next(f for f in WORKLOADS.FAMILIES if f[0] == family)
        names = tuple(variables.split(","))
        n = len(names)
        rng = random.Random(71)
        for _ in range(2):
            gens = parse_weyl_generators(" ; ".join(build(*rng.sample(WORKLOADS.PARAMS, nparams))),
                                         names)
            gb = weyl_groebner(gens)
            assert gb == reference_buchberger_basis(gens, symbol_weight_order(2 * n))
            assert exact_coefficients(gb)
            symbols = characteristic_ideal(gens)
            for order in (DEGREVLEX, LEX):
                assert (groebner_basis(symbols, order)
                        == reference_buchberger_basis(symbols.gens, order))


# codes of four orders: the three the driver meets and radical_membership's
# extension of the symbol order by a variable of weight 0
PACKED_ORDERS = [(LEX, 4), (DEGREVLEX, 4), (symbol_weight_order(4), 4),
                 (weighted_order(symbol_weight_order(4).weights + (0,)), 5)]
PACKED_EXPONENTS = st.integers(0, 3) | st.integers(0, EXPONENT_LIMIT // 2 - 1)


def packing(order, nvars) -> Packing:
    return Packing(order, MPoly.zero(tuple(f"v{i}" for i in range(nvars))))


def code(pk, e) -> int:
    (c,) = pk.pack({e: 1})
    return c


class TestPacking:
    """The driver's monomial codes are ordered like TermOrder.key and add
    like exponents, their guard-bit divisibility and lcm are those of the
    tuples, and unpacking gives the tuples back."""

    @pytest.mark.parametrize("order, nvars", PACKED_ORDERS,
                             ids=["lex", "degrevlex", "symbol", "symbol-t"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_codes_agree_with_the_tuples(self, order, nvars, data):
        pk = packing(order, nvars)
        a, b = (data.draw(st.tuples(*[PACKED_EXPONENTS] * nvars)) for _ in range(2))
        ca, cb = code(pk, a), code(pk, b)
        assert (ca < cb) == (order.key(a) < order.key(b)) and (ca == cb) == (a == b)
        assert code(pk, tuple(map(operator.add, a, b))) == ca + cb
        assert pk.divides(ca, cb) == _divides(a, b)
        assert pk.lcm(ca, cb) == code(pk, _exp_lcm(a, b))
        assert (pk.lcm(ca, cb) == ca + cb) == (not any(map(min, a, b)))
        assert pk.unpack({ca: 3, cb: 5}).terms == ({a: 3, b: 5} if a != b else {a: 5})

    @pytest.mark.parametrize("weights", [(-1, 0), (0, EXPONENT_LIMIT), (0, 1, 0), (0, True)])
    def test_weights_outside_the_fields_are_refused(self, weights):
        with pytest.raises(ValueError):
            packing(weighted_order(weights), 2)
        x = MPoly.var(("x", "y"), "x")
        with pytest.raises(ValueError):
            buchberger_basis([x], weighted_order(weights))

    def test_an_input_exponent_at_the_limit_raises(self):
        f = MPoly(("x", "y"), {(EXPONENT_LIMIT, 0): 1, (0, 1): 1})
        for order in (LEX, DEGREVLEX, symbol_weight_order(2)):
            with pytest.raises(BudgetExceeded, match="exponent limit"):
                buchberger_basis([f], order)
        assert buchberger_basis([MPoly(("x", "y"), {(EXPONENT_LIMIT - 1, 0): 1})], LEX)

    @pytest.mark.parametrize("order", [LEX, DEGREVLEX, symbol_weight_order(2)],
                             ids=["lex", "degrevlex", "symbol"])
    def test_an_exponent_reaching_the_limit_inside_a_run_raises(self, order):
        # f and g are valid, but dividing f by g makes x^(2L-2) or y^(2L-2)
        top = EXPONENT_LIMIT - 1
        f = MPoly(("x", "y"), {(top, top): 1})
        g = MPoly(("x", "y"), {(top, 0): 1, (0, top): 1})
        with pytest.raises(BudgetExceeded, match="exponent limit"):
            normal_form(f, [g], order)


def characteristic_or_none(gens):
    """The characteristic ideal, or None when its Weyl basis needs more than
    POP_BOUND pops."""
    try:
        return characteristic_ideal(gens, budget=POP_BOUND)
    except BudgetExceeded:
        return None


def dimension_or_zero(ideal):
    try:
        return dimension_report(ideal)
    except ZeroModuleError:
        return "zero module"


def cover_products(cv) -> list:
    """The one-generator-per-component products the coverage test takes,
    and every component generator on its own."""
    comps = [c for c in cv.components if c.kind != OTHER]
    products = [MPoly.const(cv.ideal.vars, 1)]
    for comp in comps:
        products = [p * g for p in products for g in comp.ideal.gens]
    return products + [g for comp in comps for g in comp.ideal.gens]


class TestCharacteristicBasis:
    """A characteristic ideal carries its reduced basis: the dimension and
    the radical test start from it, and give what a basis from scratch
    gives."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gens=a1_a2_generators())
    def test_symbols_are_the_reduced_symbol_order_basis(self, gens):
        ideal = characteristic_or_none(gens)
        if ideal is None:
            return
        order = symbol_weight_order(len(ideal.vars))
        assert ideal.basis_order == order
        assert groebner_basis(Ideal(ideal.vars, ideal.gens), order) == list(ideal.gens)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gens=a1_a2_generators())
    def test_dimension_report_equals_the_degrevlex_report(self, gens):
        ideal = characteristic_or_none(gens)
        if ideal is None:
            return
        plain = Ideal(ideal.vars, ideal.gens)
        assert plain.basis_order is None
        assert dimension_or_zero(ideal) == dimension_or_zero(plain)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(gens=a1_a2_generators(), data=st.data())
    def test_radical_membership_equals_the_scratch_test(self, gens, data):
        ideal = characteristic_or_none(gens)
        if ideal is None:
            return
        plain = Ideal(ideal.vars, ideal.gens)
        n = gens[0].n
        fs = cover_products(decompose_symbol_ideal(plain))
        fs += [MPoly(ideal.vars, data.draw(flat_terms(2 * n, 2, 3))) for _ in range(2)]
        fs += [g * f for g, f in zip(ideal.gens, fs)]
        for f in fs:
            assert radical_membership(f, ideal) == radical_membership(f, plain)

    @pytest.mark.parametrize("family", [f[0] for f in WORKLOADS.FAMILIES])
    def test_workload_families_give_the_scratch_verdicts(self, family):
        _, build, nparams, variables = next(f for f in WORKLOADS.FAMILIES if f[0] == family)
        names = tuple(variables.split(","))
        rng = random.Random(73)
        gens = parse_weyl_generators(" ; ".join(build(*rng.sample(WORKLOADS.PARAMS, nparams))),
                                     names)
        ideal = characteristic_ideal(gens)
        plain = Ideal(ideal.vars, ideal.gens)
        cv = decompose_symbol_ideal(ideal)
        assert cv == decompose_symbol_ideal(plain)
        assert dimension_report(ideal) == dimension_report(plain)
        # the pool's varieties are not covered: the products alone read False
        fs = cover_products(cv)
        fs += [g * f for g, f in zip(ideal.gens, fs)]
        verdicts = [radical_membership(f, ideal) for f in fs]
        assert verdicts == [radical_membership(f, plain) for f in fs]
        assert set(verdicts) == {True, False}

    def test_hand_built_ideal_is_not_taken_for_a_basis(self):
        # (x^2 + xi, x*xi) is no Gröbner basis under any order (xi^2 joins
        # it): V is the origin, and its leading monomials x^2, x*xi would
        # leave xi independent and read dimension 1
        vs = ring("x", "xi")
        x, xi = V(vs, "x"), V(vs, "xi")
        ideal = Ideal(vs, [x * x + xi, x * xi])
        assert ideal.basis_order is None
        assert dimension_report(ideal) == (0, True, False)
        assert radical_membership(x, ideal) and radical_membership(xi, ideal)
        assert not radical_membership(x + MPoly.const(vs, 1), ideal)

    def test_known_pairs_are_not_popped(self):
        # a known basis alone comes back reduced under a budget of 0 pops; a
        # run from scratch takes its pairs off the queue
        gens = parse_weyl_generators(" ; ".join(WORKLOADS.FAMILIES[0][1](*WORKLOADS.PARAMS[:4])),
                                     ("x", "y"))
        symbols = characteristic_ideal(gens)
        order = symbols.basis_order
        assert len(symbols.gens) > 1
        assert started_basis([], order, 0, symbols.gens) == list(symbols.gens)
        with pytest.raises(BudgetExceeded):
            buchberger_basis(symbols.gens, order, 0)

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=["degrevlex", "lex", "symbol"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_known_start_gives_the_scratch_basis(self, order, data):
        # the pairs of a known basis count as processed; the reduced basis
        # of the whole ideal is the one a run from scratch finds
        gb = outcome(buchberger_basis, data.draw(symbol_ring_generators()), order)
        if gb is None:
            return
        extra = data.draw(symbol_ring_generators())
        whole = outcome(buchberger_basis, gb + extra, order)
        started = outcome(lambda g, o, b: started_basis(g, o, b, gb), extra, order)
        if whole is not None and started is not None:
            assert started == whole

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_known_start_in_the_weyl_algebra(self, data):
        gens = data.draw(a1_a2_generators())
        order = symbol_weight_order(2 * gens[0].n)
        gb = outcome(buchberger_basis, gens, order)
        if gb is None:
            return
        extra = [g for g in data.draw(a1_a2_generators()) if g.n == gens[0].n]
        whole = outcome(buchberger_basis, gb + extra, order)
        started = outcome(lambda g, o, b: started_basis(g, o, b, gb), extra, order)
        if whole is not None and started is not None:
            assert started == whole


def has_constant(gb) -> bool:
    return any(g.is_constant() and not g.is_zero() for g in gb)


@st.composite
def unit_or_not(draw, gens):
    """The generators, or, half the time, the generators and h * g + 1 for a
    generator g: an ideal that holds 1 = (h * g + 1) - h * g."""
    if not draw(st.booleans()):
        return gens
    g = gens[0]
    h = g._with(MPoly(g.vars, draw(flat_terms(len(g.vars), 1, 2))).terms)
    return gens + [reference_product(h, g) + 1]


@st.composite
def multilinear_generators(draw):
    """One to three generators of at most three terms, each variable to at
    most the first power: under POP_BOUND pops no draw swells for long.  A
    derandomized draw of symbol_ring_generators took 20 s of 100 pops in the
    Fraction reference; TestIntegerDriver keeps drawing those."""
    terms = draw(st.lists(flat_terms(4, 1, 3), min_size=1, max_size=3))
    return [MPoly(SYMBOL_VARS, t) for t in terms]


def rabinowitsch(f, ideal):
    """(generators of I in the ring with t, 1 - t*f) as radical_membership builds them."""
    bigvars = ideal.vars + ("_t",)
    t = MPoly.var(bigvars, "_t")
    return [g.extend(bigvars) for g in ideal.gens], MPoly.const(bigvars, 1) - t * f.extend(bigvars)


def extended(order):
    return weighted_order(order.weights + (0,)) if order.weights is not None else order


def bounded(call):
    """call(POP_BOUND), or None when that budget runs out."""
    try:
        return call(POP_BOUND)
    except BudgetExceeded:
        return None


class TestScaledWeylCliff:
    """GKZ of the rational normal curve (ROADMAP item 14): for k = 2..4 the
    Weyl bases and pop counts equal those of the Fraction reference, and
    the k = 5 `holonomic` report keeps its recorded bytes."""

    @pytest.mark.parametrize("k, pops", [(2, 15), (3, 91), (4, 465)])
    def test_bases_and_pops_match_the_oracle(self, k, pops):
        names, text = gkz_rational_normal_curve(k)
        gens = parse_weyl_generators(text, names)
        order = symbol_weight_order(2 * len(names))
        # the smallest budget of both drivers is `pops`: each returns under
        # it, the same basis, and runs out one pop earlier
        gb = outcome(buchberger_basis, gens, order, pops)
        assert gb is not None and gb == outcome(reference_buchberger_basis, gens, order, pops)
        for driver in (buchberger_basis, reference_buchberger_basis):
            assert outcome(driver, gens, order, pops - 1) is None

    def test_k5_holonomic_report_is_unchanged(self):
        names, text = gkz_rational_normal_curve(5)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = dreg.cli.main(["holonomic", "--vars", ",".join(names), "--budget", "2000000",
                                    text, "--format", "json"])
        digest = hashlib.sha256(out.getvalue().encode() + b"\0" + err.getvalue().encode())
        assert status == 0
        assert digest.hexdigest() == GKZ5_HOLONOMIC_SHA256

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_charvar_report_is_unchanged_with_no_coverage_basis(self, monkeypatch, k):
        # the coverage test is refuted by leading monomials: no driver run
        # on the ring extended by the Rabinowitsch variable
        names, text = gkz_rational_normal_curve(k)
        runs = spy(monkeypatch, dreg.ideals, "buchberger_loop")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = dreg.cli.main(["charvar", "--vars", ",".join(names), "--budget", "2000000",
                                    text, "--format", "json"])
        digest = hashlib.sha256(out.getvalue().encode() + b"\0" + err.getvalue().encode())
        assert status == 0
        assert digest.hexdigest() == GKZ_CHARVAR_SHA256[k]
        assert runs and not [pk for _, pk, *_ in runs if "_t" in pk.like.vars]


class TestLoopAndUnitTests:
    """The driver against the Fraction reference on random ideals of both
    rings, units included; and the unit-ideal tests, which stop at the
    S-pair loop, against the old answer: does the reduced basis hold a
    constant.  Every driver call is bounded by POP_BOUND pops."""

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=["degrevlex", "lex", "symbol"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_polynomial_ideals(self, order, data):
        gens = data.draw(unit_or_not(data.draw(multilinear_generators())))
        gb = outcome(buchberger_basis, gens, order)
        assert gb == outcome(reference_buchberger_basis, gens, order)
        loop = bounded(lambda b: _is_unit(buchberger_loop(gens, Packing(order, gens[0]), b)[1]))
        assert loop == (None if gb is None else has_constant(gb))
        if order is DEGREVLEX:
            assert bounded(lambda b: is_unit_ideal(Ideal(SYMBOL_VARS, gens), b)) == loop

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_weyl_ideals(self, data):
        gens = data.draw(unit_or_not(data.draw(a1_a2_generators())))
        order = symbol_weight_order(2 * gens[0].n)
        gb = outcome(buchberger_basis, gens, order)
        assert gb == outcome(reference_buchberger_basis, gens, order)
        loop = bounded(lambda b: _is_unit(buchberger_loop(gens, Packing(order, gens[0]), b)[1]))
        assert loop == (None if gb is None else has_constant(gb))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gens=multilinear_generators(), data=st.data())
    def test_radical_membership_from_scratch(self, gens, data):
        ideal = Ideal(SYMBOL_VARS, gens)
        fs = [MPoly(SYMBOL_VARS, data.draw(flat_terms(4, 2, 2))), gens[0] * gens[-1]]
        for f in fs:
            big, rab = rabinowitsch(f, ideal)
            verdict = bounded(lambda b: radical_membership(f, ideal, b))
            old = outcome(reference_buchberger_basis, big + [rab], DEGREVLEX)
            assert verdict == (None if old is None else has_constant(old))

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=["degrevlex", "lex", "symbol"])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(gens=multilinear_generators(), data=st.data())
    def test_radical_membership_from_a_known_basis(self, order, gens, data):
        gb = outcome(buchberger_basis, gens, order)
        if gb is None:
            return
        ideal = Ideal(SYMBOL_VARS, gb, basis_order=order)
        fs = [MPoly(SYMBOL_VARS, data.draw(flat_terms(4, 2, 2))), gens[0] * gens[-1],
              MPoly.const(SYMBOL_VARS, 3)]
        for f in fs:
            big, rab = rabinowitsch(f, ideal)
            verdict = bounded(lambda b: radical_membership(f, ideal, b))
            # the old test: the reduced basis from the known start holds a constant
            old = bounded(lambda b: started_basis([rab], extended(order), b, big))
            assert verdict == (None if old is None else has_constant(old))
            scratch = outcome(reference_buchberger_basis, big + [rab], extended(order))
            if verdict is not None and scratch is not None:
                assert verdict == has_constant(scratch)


class TestDriverWork:
    """Work counts of driver runs on the benchmark's Appell F1 pair and GKZ
    sample: a run never evaluates TermOrder.key (it compares packed codes),
    a radical test that answers False runs no interreduction, and the
    counts repeat from one run to the next."""

    @pytest.fixture
    def counters(self, monkeypatch):
        import dreg.ideals
        keys, reductions = Counter(), []
        real_key, real_reduce = TermOrder.key, dreg.ideals._reduce_basis

        def key(order, exps):
            keys[exps] += 1
            return real_key(order, exps)

        def reduce_basis(*args):
            reductions.append(len(args[0]))
            return real_reduce(*args)

        monkeypatch.setattr(TermOrder, "key", key)
        monkeypatch.setattr(dreg.ideals, "_reduce_basis", reduce_basis)
        return keys, reductions

    def work(self, counters, family, nparams) -> list:
        keys, reductions = counters
        _, build, _, variables = next(f for f in WORKLOADS.FAMILIES if f[0] == family)
        names = tuple(variables.split(","))
        gens = parse_weyl_generators(" ; ".join(build(*WORKLOADS.PARAMS[:nparams])), names)
        counts = []
        keys.clear()
        ideal = characteristic_ideal(gens)
        assert not keys
        counts.append(len(ideal.gens))
        cv = decompose_symbol_ideal(ideal)
        verdicts = []
        for f in cover_products(cv):
            keys.clear()
            reductions.clear()
            verdict = radical_membership(f, ideal)
            assert not keys
            if not verdict:
                assert reductions == []
            verdicts.append(verdict)
            counts.append((verdict, len(reductions)))
        assert False in verdicts
        return counts

    @pytest.mark.parametrize("family, nparams", [("appell-f1", 4), ("gkz", 2)])
    def test_counts_hold_and_repeat(self, counters, family, nparams):
        assert self.work(counters, family, nparams) == self.work(counters, family, nparams)
