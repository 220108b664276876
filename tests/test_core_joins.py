"""Unit tests for result-level join operators."""

import random

import pytest

from repro.core import hash_join, joins, left_outer_join, plan_join_order, union_all
from repro.core.optimizer import Relation, refine_with_bindings
from repro.endpoint import ExecutionContext, LOCAL_CLUSTER, MemoryLimitError, Region
from repro.rdf import IRI, Variable
from repro.sparql import ResultSet

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def iri(name):
    return IRI(f"http://ex/{name}")


def rs(variables, rows):
    return ResultSet(variables, rows)


class TestHashJoin:
    def test_inner_join_on_shared_variable(self):
        left = rs([X, Y], [(iri("a"), iri("b")), (iri("c"), iri("d"))])
        right = rs([Y, Z], [(iri("b"), iri("e")), (iri("q"), iri("f"))])
        result = hash_join(left, right)
        assert result.variables == (X, Y, Z)
        assert result.rows == [(iri("a"), iri("b"), iri("e"))]

    def test_join_is_symmetric(self):
        left = rs([X, Y], [(iri("a"), iri("b"))])
        right = rs([Y, Z], [(iri("b"), iri("e")), (iri("b"), iri("g"))])
        forward = hash_join(left, right)
        backward = hash_join(right, left)
        realign = [backward.variables.index(v) for v in forward.variables]
        backward_rows = {tuple(row[i] for i in realign) for row in backward.rows}
        assert {tuple(r) for r in forward.rows} == backward_rows

    def test_cross_product_when_disjoint(self):
        left = rs([X], [(iri("a"),), (iri("b"),)])
        right = rs([Z], [(iri("c"),)])
        result = hash_join(left, right)
        assert len(result) == 2
        assert result.variables == (X, Z)

    def test_multi_variable_join(self):
        left = rs([X, Y], [(iri("a"), iri("b")), (iri("a"), iri("c"))])
        right = rs([X, Y, Z], [(iri("a"), iri("b"), iri("e"))])
        result = hash_join(left, right)
        assert result.rows == [(iri("a"), iri("b"), iri("e"))]

    def test_unbound_cells_act_as_wildcards(self):
        left = rs([X, Y], [(iri("a"), None)])
        right = rs([Y, Z], [(iri("b"), iri("e"))])
        result = hash_join(left, right)
        # the unbound ?y joins with anything and gets filled in
        assert result.rows == [(iri("a"), iri("b"), iri("e"))]

    def test_empty_side_gives_empty(self):
        left = rs([X, Y], [])
        right = rs([Y, Z], [(iri("b"), iri("e"))])
        assert len(hash_join(left, right)) == 0

    def test_charges_context(self):
        ctx = ExecutionContext(LOCAL_CLUSTER, Region("c"))
        left = rs([X], [(iri("a"),)])
        right = rs([X], [(iri("a"),)])
        hash_join(left, right, ctx)
        assert ctx.metrics.virtual_seconds > 0

    def test_memory_budget_enforced(self):
        ctx = ExecutionContext(LOCAL_CLUSTER, Region("c"), max_intermediate_rows=3)
        left = rs([X], [(iri(f"a{i}"),) for i in range(4)])
        right = rs([Z], [(iri("z"),)])
        with pytest.raises(MemoryLimitError):
            hash_join(left, right, ctx)


class TestVectorizedJoins:
    """With numpy importable, joins of >= 32 rows whose (<= 2) key
    columns are fully bound run as one batch; the result is bit-identical
    (rows *and* order) to the per-row kernel a numpy-free interpreter
    runs, and wildcard keys fall back to it."""

    pytestmark = pytest.mark.skipif(
        joins._np is None, reason="numpy not installed: only the per-row kernel exists"
    )

    def _result_sets(self, seed, n_left, n_right, domain, none_prob=0.0):
        rng = random.Random(seed)

        def rows(n):
            return [
                tuple(
                    None
                    if none_prob and rng.random() < none_prob
                    else IRI(f"http://x/{rng.randrange(domain)}")
                    for _ in range(2)
                )
                for _ in range(n)
            ]

        return rs((X, Y), rows(n_left)), rs((Y, Z), rows(n_right))

    @staticmethod
    def _context():
        return ExecutionContext(LOCAL_CLUSTER, Region("local"))

    def _per_row(self, op, left, right, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(joins, "_np", None)
            context = self._context()
            result = op(left, right, context=context)
        assert context.metrics.join_vectorized_batches == 0
        return result

    @pytest.mark.parametrize("op", [hash_join, left_outer_join])
    @pytest.mark.parametrize("seed,n_left,n_right,domain", [
        (1, 200, 300, 40),
        (2, 500, 100, 8),    # heavy fan-out, build side = right
        (3, 40, 700, 25),    # build side = left
    ])
    def test_vectorized_matches_per_row(
        self, op, seed, n_left, n_right, domain, monkeypatch
    ):
        left, right = self._result_sets(seed, n_left, n_right, domain)
        context = self._context()
        vectorized = op(left, right, context=context)
        per_row = self._per_row(op, left, right, monkeypatch)
        assert vectorized.variables == per_row.variables
        assert vectorized.rows == per_row.rows
        assert context.metrics.join_vectorized_batches == 1

    @pytest.mark.parametrize("op", [hash_join, left_outer_join])
    def test_wildcard_keys_fall_back(self, op, monkeypatch):
        left, right = self._result_sets(5, 120, 120, 20, none_prob=0.15)
        context = self._context()
        result = op(left, right, context=context)
        assert result.rows == self._per_row(op, left, right, monkeypatch).rows
        assert context.metrics.join_vectorized_batches == 0


class TestLeftOuterJoin:
    def test_unmatched_left_rows_survive(self):
        left = rs([X], [(iri("a"),), (iri("b"),)])
        right = rs([X, Y], [(iri("a"), iri("y1"))])
        result = left_outer_join(left, right)
        rows = set(result.rows)
        assert (iri("a"), iri("y1")) in rows
        assert (iri("b"), None) in rows

    def test_multiple_matches_multiply(self):
        left = rs([X], [(iri("a"),)])
        right = rs([X, Y], [(iri("a"), iri("y1")), (iri("a"), iri("y2"))])
        assert len(left_outer_join(left, right)) == 2

    def test_no_shared_variables_is_cross(self):
        left = rs([X], [(iri("a"),)])
        right = rs([Y], [(iri("y1"),), (iri("y2"),)])
        assert len(left_outer_join(left, right)) == 2


class TestUnionAll:
    def test_aligns_headers(self):
        first = rs([X, Y], [(iri("a"), iri("b"))])
        second = rs([Y, Z], [(iri("b"), iri("c"))])
        result = union_all([first, second])
        assert result.variables == (X, Y, Z)
        assert (iri("a"), iri("b"), None) in result.rows
        assert (None, iri("b"), iri("c")) in result.rows

    def test_empty_input(self):
        assert len(union_all([])) == 0


class TestPlanJoinOrder:
    def test_single_relation(self):
        plan = plan_join_order([Relation("a", 10, frozenset([X]))])
        assert plan.order == ["a"]
        assert plan.cost == 0

    def test_small_intermediates_win(self):
        """Starting from the small pair keeps intermediates tiny: joining
        b last means the big relation is probed against a 10-row hash
        table instead of materializing a big intermediate first."""
        relations = [
            Relation("a", 10, frozenset([X])),
            Relation("ab", 100, frozenset([X, Y])),
            Relation("b", 100_000, frozenset([Y])),
        ]
        plan = plan_join_order(relations)
        assert plan.order[-1] == "b"
        assert plan.estimated_size <= 100

    def test_avoids_cross_products_when_possible(self):
        relations = [
            Relation("a", 10, frozenset([X])),
            Relation("b", 10, frozenset([Y])),
            Relation("ab", 10, frozenset([X, Y])),
        ]
        plan = plan_join_order(relations)
        # "ab" must come between or before: first two joined relations
        # must share a variable
        first_two = plan.order[:2]
        assert "ab" in first_two

    def test_disconnected_relations_still_planned(self):
        relations = [
            Relation("a", 10, frozenset([X])),
            Relation("b", 20, frozenset([Y])),
        ]
        plan = plan_join_order(relations)
        assert sorted(plan.order) == ["a", "b"]

    def test_deterministic(self):
        relations = [
            Relation("r1", 50, frozenset([X, Y])),
            Relation("r2", 5, frozenset([Y, Z])),
            Relation("r3", 500, frozenset([Z])),
        ]
        assert plan_join_order(relations).order == plan_join_order(relations).order


class TestRefineWithBindings:
    def test_bounded_by_binding_count(self):
        relation = Relation("r", 1_000_000, frozenset([X, Y]))
        assert refine_with_bindings(relation, {X: {1, 2, 3}}) == 3

    def test_unrelated_bindings_ignored(self):
        relation = Relation("r", 42, frozenset([X]))
        assert refine_with_bindings(relation, {Z: {1}}) == 42
