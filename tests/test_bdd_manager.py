"""Unit tests for the ROBDD engine.

The hand-written cases pin canonicity and each operation on small
formulas; the hypothesis cases drive random formula DAGs through the
manager and compare every result with a brute-force truth-table oracle.
Both run on an unbounded manager and on one whose ``ite`` memo cache
holds a single entry, so clear-on-overflow happens on almost every
step and must never change a result.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import FALSE, TRUE, BddError, BddManager
from repro.obs import metrics


#: ``cache_limit`` settings every manager-level test runs under.
CACHE_LIMITS = {"params": [None, 1], "ids": ["unbounded", "bounded"]}


@pytest.fixture(**CACHE_LIMITS)
def manager(request):
    return BddManager(num_vars=4, cache_limit=request.param)


class TestBasics:
    def test_terminals(self, manager):
        assert FALSE == 0 and TRUE == 1
        assert manager.apply_not(TRUE) == FALSE
        assert manager.apply_not(FALSE) == TRUE

    def test_var_and_nvar_are_complements(self, manager):
        x = manager.var(0)
        assert manager.apply_not(x) == manager.nvar(0)
        assert manager.apply_or(x, manager.nvar(0)) == TRUE
        assert manager.apply_and(x, manager.nvar(0)) == FALSE

    def test_out_of_range_variable_rejected(self, manager):
        with pytest.raises(BddError):
            manager.var(99)
        with pytest.raises(BddError):
            manager.nvar(-1)

    def test_add_var_extends_order(self):
        manager = BddManager()
        index = manager.add_var("custom")
        assert manager.var_name(index) == "custom"
        assert manager.var_index("custom") == index
        with pytest.raises(BddError):
            manager.var_index("missing")


class TestCanonicity:
    def test_hash_consing_makes_equal_functions_identical(self, manager):
        a, b = manager.var(0), manager.var(1)
        left = manager.apply_or(manager.apply_and(a, b), manager.apply_and(a, manager.apply_not(b)))
        assert left == a  # (a and b) or (a and not b) == a

    def test_demorgan(self, manager):
        a, b = manager.var(0), manager.var(1)
        lhs = manager.apply_not(manager.apply_and(a, b))
        rhs = manager.apply_or(manager.apply_not(a), manager.apply_not(b))
        assert lhs == rhs

    def test_commutativity_gives_same_node(self, manager):
        a, b = manager.var(2), manager.var(3)
        assert manager.apply_and(a, b) == manager.apply_and(b, a)

    def test_xor_and_iff(self, manager):
        a, b = manager.var(0), manager.var(1)
        assert manager.apply_xor(a, a) == FALSE
        assert manager.apply_iff(a, a) == TRUE
        assert manager.apply_not(manager.apply_xor(a, b)) == manager.apply_iff(a, b)

    def test_implies(self, manager):
        a = manager.var(0)
        assert manager.apply_implies(FALSE, a) == TRUE
        assert manager.apply_implies(a, TRUE) == TRUE
        assert manager.apply_implies(a, FALSE) == manager.apply_not(a)


class TestOperations:
    def test_conjoin_disjoin(self, manager):
        vars_ = [manager.var(i) for i in range(3)]
        conj = manager.conjoin(vars_)
        assert manager.evaluate(conj, {0: True, 1: True, 2: True})
        assert not manager.evaluate(conj, {0: True, 1: False, 2: True})
        disj = manager.disjoin(vars_)
        assert manager.evaluate(disj, {0: False, 1: False, 2: True})
        assert manager.conjoin([]) == TRUE
        assert manager.disjoin([]) == FALSE

    def test_restrict(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, b)
        assert manager.restrict(f, {0: True}) == b
        assert manager.restrict(f, {0: False}) == FALSE
        assert manager.restrict(f, {0: True, 1: True}) == TRUE

    def test_exists_and_forall(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, b)
        assert manager.exists(f, [0]) == b
        assert manager.forall(f, [0]) == FALSE
        g = manager.apply_or(a, b)
        assert manager.forall(g, [0]) == b

    def test_support(self, manager):
        a, c = manager.var(0), manager.var(2)
        f = manager.apply_or(a, c)
        assert manager.support(f) == [0, 2]
        assert manager.support(TRUE) == []

    def test_evaluate_requires_assignment(self, manager):
        f = manager.var(1)
        with pytest.raises(BddError):
            manager.evaluate(f, {})

    def test_sat_count(self, manager):
        a, b = manager.var(0), manager.var(1)
        assert manager.sat_count(TRUE, num_vars=4) == 16
        assert manager.sat_count(FALSE, num_vars=4) == 0
        assert manager.sat_count(a, num_vars=4) == 8
        assert manager.sat_count(manager.apply_and(a, b), num_vars=4) == 4
        assert manager.sat_count(manager.apply_xor(a, b), num_vars=4) == 8

    def test_sat_count_rejects_num_vars_below_support(self, manager):
        """Regression: num_vars smaller than the support used to return a
        float (negative exponent) instead of raising."""
        a, c = manager.var(0), manager.var(2)
        f = manager.apply_and(a, c)
        with pytest.raises(BddError):
            manager.sat_count(f, num_vars=2)
        with pytest.raises(BddError):
            manager.sat_count(TRUE, num_vars=-1)
        # The support boundary itself is fine (variables 0..2 need 3).
        assert manager.sat_count(f, num_vars=3) == 2

    def test_satisfying_assignments(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, manager.apply_not(b))
        assignments = list(manager.satisfying_assignments(f))
        assert assignments == [{0: True, 1: False}]

    def test_size_and_expression(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, b)
        assert manager.size(f) == 2
        assert "x0" in manager.to_expression(f)
        assert manager.to_expression(TRUE) == "true"

    def test_cofactors_and_top_var(self, manager):
        a, b = manager.var(0), manager.var(1)
        f = manager.apply_and(a, b)
        assert manager.top_var(f) == 0
        low, high = manager.cofactors(f)
        assert low == FALSE and high == b
        with pytest.raises(BddError):
            manager.top_var(TRUE)


class TestCacheLimit:
    """The ite memo cache stays bounded when a limit is set."""

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            BddManager(num_vars=2, cache_limit=0)
        with pytest.raises(ValueError):
            BddManager(num_vars=2, cache_limit=-5)

    def test_unbounded_by_default(self):
        manager = BddManager(num_vars=8)
        assert manager.cache_limit is None

    def test_cache_cleared_on_overflow(self):
        limit = 50
        manager = BddManager(num_vars=12, cache_limit=limit)
        f = manager.conjoin(manager.var(i) for i in range(12))
        for i in range(12):
            f = manager.apply_or(f, manager.apply_xor(manager.var(i), manager.var((i + 1) % 12)))
        assert manager.ite_cache_size() <= limit

    def test_memory_bounded_across_many_restricts(self):
        """Many specializations (restrict + quantification) keep the memo
        cache bounded, not growing with the number of destinations."""
        limit = 200
        manager = BddManager(num_vars=16, cache_limit=limit)
        f = manager.disjoin(
            manager.apply_and(manager.var(i), manager.var(i + 1)) for i in range(15)
        )
        for round_ in range(100):
            restricted = manager.restrict(f, {round_ % 16: bool(round_ % 2)})
            manager.exists(restricted, [(round_ + 3) % 16, (round_ + 7) % 16])
            assert manager.ite_cache_size() <= limit

    def test_overflows_are_counted(self):
        def overflows(manager):
            before = metrics.snapshot_counters()
            f = manager.conjoin(manager.var(i) for i in range(6))
            manager.apply_or(f, manager.apply_xor(manager.var(0), manager.var(5)))
            return metrics.counters_delta(before).get("bdd.ite_cache.overflows", 0)

        assert overflows(BddManager(num_vars=6)) == 0
        assert overflows(BddManager(num_vars=6, cache_limit=2)) > 0

    def test_bounded_manager_computes_same_results(self):
        bounded = BddManager(num_vars=10, cache_limit=10)
        unbounded = BddManager(num_vars=10)
        for manager in (bounded, unbounded):
            acc = TRUE
            for i in range(9):
                acc = manager.apply_and(acc, manager.apply_or(manager.var(i), manager.var(i + 1)))
            manager._result = acc  # stash for comparison below
        assert bounded.sat_count(bounded._result, num_vars=10) == unbounded.sat_count(
            unbounded._result, num_vars=10
        )


# ----------------------------------------------------------------------
# Random formula DAGs against a brute-force truth-table oracle
# ----------------------------------------------------------------------
NUM_VARS = 8

#: Every total assignment over NUM_VARS; assignment ``a`` sets variable
#: ``v`` to bit ``v`` of ``a``.  A truth table is an int whose bit ``a``
#: is the function's value under assignment ``a``.
ALL_ASSIGNMENTS = [
    {v: bool((bits >> v) & 1) for v in range(NUM_VARS)} for bits in range(1 << NUM_VARS)
]
FULL = (1 << (1 << NUM_VARS)) - 1
VAR_MASKS = [
    sum(1 << bits for bits in range(1 << NUM_VARS) if (bits >> v) & 1)
    for v in range(NUM_VARS)
]

#: A deterministic spread of total assignments, for the per-step checks.
SAMPLE_POINTS = (0, (1 << NUM_VARS) - 1, 0b10101010, 0b01010101, 0b00110111)

#: One step of a random formula DAG: an operation plus operand indices
#: (taken modulo the number of formulas built so far).
_OPS = ("not", "and", "or", "xor", "iff", "implies", "ite")


class TruthTables:
    """The manager's boolean operations on truth tables (the oracle)."""

    def var(self, index):
        return VAR_MASKS[index]

    def nvar(self, index):
        return FULL ^ VAR_MASKS[index]

    def apply_not(self, a):
        return FULL ^ a

    def apply_and(self, a, b):
        return a & b

    def apply_or(self, a, b):
        return a | b

    def apply_xor(self, a, b):
        return a ^ b

    def apply_iff(self, a, b):
        return FULL ^ (a ^ b)

    def apply_implies(self, a, b):
        return (FULL ^ a) | b

    def ite(self, a, b, c):
        return (a & b) | ((FULL ^ a) & c)


def _cofactors(table, var):
    """``(f|var=0, f|var=1)`` as truth tables over all NUM_VARS."""
    shift = 1 << var
    high = table & VAR_MASKS[var]
    low = table & (FULL ^ VAR_MASKS[var])
    return low | (low << shift), high | (high >> shift)


def _popcount(table):
    return bin(table).count("1")


def _bdd_table(manager, node):
    """A BDD's truth table, by evaluating it under every assignment."""
    table = 0
    for bits, assignment in enumerate(ALL_ASSIGNMENTS):
        if manager.evaluate(node, assignment):
            table |= 1 << bits
    return table


@st.composite
def formula_programs(draw):
    """A straight-line program over _OPS, starting from vars/constants."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=40,
        )
    )


def _run_program(algebra, steps, false=FALSE, true=TRUE):
    """Execute a program on a manager (or the oracle); every intermediate."""
    pool = [false, true] + [algebra.var(i) for i in range(NUM_VARS)]
    pool += [algebra.nvar(i) for i in range(0, NUM_VARS, 2)]
    for op, i, j, k in steps:
        a = pool[i % len(pool)]
        b = pool[j % len(pool)]
        c = pool[k % len(pool)]
        if op == "not":
            pool.append(algebra.apply_not(a))
        elif op == "and":
            pool.append(algebra.apply_and(a, b))
        elif op == "or":
            pool.append(algebra.apply_or(a, b))
        elif op == "xor":
            pool.append(algebra.apply_xor(a, b))
        elif op == "iff":
            pool.append(algebra.apply_iff(a, b))
        elif op == "implies":
            pool.append(algebra.apply_implies(a, b))
        else:
            pool.append(algebra.ite(a, b, c))
    return pool


def _run_both(steps, cache_limit):
    """``(manager, bdds, tables)`` for one program."""
    manager = BddManager(num_vars=NUM_VARS, cache_limit=cache_limit)
    bdds = _run_program(manager, steps)
    tables = _run_program(TruthTables(), steps, false=0, true=FULL)
    return manager, bdds, tables


@pytest.mark.parametrize("cache_limit", CACHE_LIMITS["params"], ids=CACHE_LIMITS["ids"])
class TestRandomDagsAgainstTruthTables:
    @settings(max_examples=120, deadline=None)
    @given(formula_programs())
    def test_semantics_agree_on_random_dags(self, cache_limit, steps):
        manager, bdds, tables = _run_both(steps, cache_limit)
        assert len(bdds) == len(tables)
        for node, table in zip(bdds, tables):
            assert manager.sat_count(node) == _popcount(table)
            assert manager.support(node) == [
                v for v in range(NUM_VARS) if len(set(_cofactors(table, v))) == 2
            ]
            for bits in SAMPLE_POINTS:
                assert manager.evaluate(node, ALL_ASSIGNMENTS[bits]) == bool(
                    (table >> bits) & 1
                )
        assert _bdd_table(manager, bdds[-1]) == tables[-1]

    @settings(max_examples=60, deadline=None)
    @given(
        formula_programs(),
        st.integers(min_value=0, max_value=NUM_VARS - 1),
        st.booleans(),
    )
    def test_restrict_and_quantification_round_trips(
        self, cache_limit, steps, var, value
    ):
        manager, bdds, tables = _run_both(steps, cache_limit)
        f, table = bdds[-1], tables[-1]
        low, high = _cofactors(table, var)
        pairs = [
            (manager.restrict(f, {var: value}), high if value else low),
            (manager.exists(f, [var]), low | high),
            (manager.forall(f, [var]), low & high),
        ]
        for result, expected in pairs:
            assert manager.sat_count(result) == _popcount(expected)
            assert _bdd_table(manager, result) == expected
        # Shannon expansion: f == ite(x, f|x=1, f|x=0), node for node.
        high_node = manager.restrict(f, {var: True})
        low_node = manager.restrict(f, {var: False})
        assert manager.ite(manager.var(var), high_node, low_node) == f

    @settings(max_examples=60, deadline=None)
    @given(formula_programs())
    def test_model_enumeration_agrees(self, cache_limit, steps):
        """The satisfying paths are disjoint cubes over the support whose
        union is exactly the oracle's truth table."""
        manager, bdds, tables = _run_both(steps, cache_limit)
        f, table = bdds[-1], tables[-1]
        support = set(manager.support(f))
        covered = 0
        for cube in manager.satisfying_assignments(f):
            assert set(cube) <= support
            mask = FULL
            for v, bit in cube.items():
                mask &= VAR_MASKS[v] if bit else FULL ^ VAR_MASKS[v]
            assert mask & covered == 0
            covered |= mask
        assert covered == table

    @settings(max_examples=60, deadline=None)
    @given(formula_programs())
    def test_double_negation_and_idempotence(self, cache_limit, steps):
        """Canonicity: semantically equal results are the same node."""
        manager = BddManager(num_vars=NUM_VARS, cache_limit=cache_limit)
        f = _run_program(manager, steps)[-1]
        assert manager.apply_not(manager.apply_not(f)) == f
        assert manager.apply_and(f, f) == f
        assert manager.apply_or(f, f) == f
        assert manager.apply_xor(f, f) == FALSE
