"""Exact integer linear algebra: Smith form, determinants, quotient groups."""

from __future__ import annotations

import random
import signal
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings
from hypothesis import strategies as st

from imqlink import abelian, quandle
from imqlink.abelian import (
    FgAbGroup,
    cokernel,
    int_det,
    left_kernel_basis,
    mat_mul,
    row_lattice_basis,
    smith_normal_form,
    solve_in_row_space,
    subgroup_contains,
    subgroup_type,
    vec_mat,
)
from imqlink.diagram import parse_diagram
from imqlink.fixtures import FIXTURE_NAMES
from imqlink.imq import compute_imq
from imqlink.linkmodule import build_link_module, relation_matrix
from conftest import FINITE
from oracles import (
    dense_mat_mul,
    group_relation_rows,
    identity_matrix,
    literal_group_from_quandle,
    literal_row_lattice_basis,
    literal_smith_normal_form,
    minor_gcds,
    quotient_by_subgroup,
    subgroups_equal,
)

DIAGRAMS = Path(__file__).with_name("diagrams")


def _assert_smith_witnesses(rows, n_cols):
    sf = smith_normal_form(rows, n_cols)
    m = len(rows)
    assert abs(int_det(sf.u)) == 1
    assert abs(int_det(sf.v)) == 1
    assert dense_mat_mul(sf.v, sf.v_inv, n_cols) == identity_matrix(n_cols)
    product = dense_mat_mul(dense_mat_mul(sf.u, rows, n_cols), sf.v, n_cols)
    for i in range(m):
        for j in range(n_cols):
            expected = sf.diag[i] if i == j and i < len(sf.diag) else 0
            assert product[i][j] == expected
    # divisibility chain, zeros trailing
    for i in range(1, len(sf.diag)):
        if sf.diag[i - 1] == 0:
            assert sf.diag[i] == 0
        else:
            assert sf.diag[i] % sf.diag[i - 1] == 0
    assert all(d >= 0 for d in sf.diag)
    return sf


def _random_matrix(rng, m, n, density, bound):
    """m x n, about a fifth of the rows all zero, the other entries nonzero
    with probability density and at most bound in absolute value."""
    rows = []
    for _ in range(m):
        if rng.random() < 0.2:
            rows.append([0] * n)
        else:
            rows.append(
                [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
            )
    return rows


def test_mat_mul_and_vec_mat_match_dense_oracle():
    rng = random.Random(3)
    for density in (0.0, 0.1, 0.3, 0.6, 1.0):
        for bound in (9, 1 << 80):
            for _ in range(12):
                m, k, n = (rng.randint(1, 7) for _ in range(3))
                a = _random_matrix(rng, m, k, density, bound)
                b = _random_matrix(rng, k, n, density, bound)
                want = dense_mat_mul(a, b)
                assert mat_mul(a, b) == want
                assert mat_mul(a, b, n) == want
                for row, want_row in zip(a, want):
                    assert vec_mat(row, b, n) == want_row
    assert mat_mul([], [[1, 2]]) == dense_mat_mul([], [[1, 2]]) == []
    assert mat_mul([[]], [], 3) == dense_mat_mul([[]], [], 3) == [[0, 0, 0]]
    assert vec_mat([], [], 2) == [0, 0]
    assert mat_mul([[5]], [[-7]]) == dense_mat_mul([[5]], [[-7]]) == [[-35]]
    assert vec_mat([1 << 80], [[3]]) == [3 << 80]


def test_mat_mul_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])  # a has two columns, b one row
    with pytest.raises(ValueError):
        vec_mat([1], [[1, 2]], 3)  # b narrower than n_cols_b
    with pytest.raises(ValueError):
        mat_mul([[1, 1]], [[1, 2], [3]])  # a short row of b
    with pytest.raises(ValueError):
        mat_mul([[1, 0]], [[1, 2], [3]])  # ... even under a zero of a


def _group_from_quandle_matrix():
    # the full relation matrix, before the reduction to a Hermite basis
    d = parse_diagram((DIAGRAMS / "t2_13.json").read_text())
    q = compute_imq(build_link_module(d)).quandle
    return group_relation_rows(q), q.n


def _pad30_matrix(with_unit_row):
    d = parse_diagram((DIAGRAMS / "chain_2_3_pad30.json").read_text())
    rows = relation_matrix(d)
    if with_unit_row:  # the weight-kernel presentation at arc 0
        rows.append([1] + [0] * (d.n_arcs - 1))
    return rows, d.n_arcs


def _pad30_weight_kernel_basis():
    # what weight_kernel hands to the Smith form
    rows, n = _pad30_matrix(True)
    return row_lattice_basis(rows, n), n


BENCH_SIZED = {
    "pad30-relations": lambda: _pad30_matrix(False),
    "pad30-weight-kernel": lambda: _pad30_matrix(True),
    "pad30-weight-kernel-basis": _pad30_weight_kernel_basis,
    "t2_13-group-from-quandle": _group_from_quandle_matrix,
}


def _assert_same_smith_form(rows, n_cols):
    sparse = smith_normal_form(rows, n_cols)
    dense = literal_smith_normal_form(rows, n_cols)
    for field in ("m", "n", "diag", "u", "v", "v_inv"):
        assert getattr(sparse, field) == getattr(dense, field), field


@pytest.mark.parametrize("name", sorted(BENCH_SIZED))
def test_smith_on_bench_sized_matrices_matches_dense_products(name):
    # the sparse-row form against the dense one, whose witness check is
    # the literal triple-loop product
    rows, n_cols = BENCH_SIZED[name]()
    assert len(rows) >= 30
    _assert_same_smith_form(rows, n_cols)


def test_smith_small_example():
    sf = _assert_smith_witnesses([[2, 4], [6, 8]], 2)
    assert sf.diag == [2, 4]


def test_smith_rank_deficient():
    sf = _assert_smith_witnesses([[1, 2, 3], [2, 4, 6]], 3)
    assert sf.diag == [1, 0]
    assert sf.rank == 1


def test_smith_empty_and_zero():
    assert smith_normal_form([], 3).diag == []
    assert smith_normal_form([[0, 0]], 2).diag == [0]


def test_smith_matches_sympy_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        sf = _assert_smith_witnesses(rows, n)
        sym = sympy.Matrix(rows)
        want = [abs(x) for x in sympy_snf(sym).diagonal()]
        want += [0] * (len(sf.diag) - len(want))
        # sympy may order zero entries differently; compare nonzero chains
        assert [d for d in sf.diag if d] == [d for d in want if d]


# One drawing of T(2,2) # T(2,21) with shuffled arc and crossing lists:
# (over, under, under') arc ids per crossing.  Its weight-kernel matrix, in
# this row order, made floor-quotient elimination grow its entries without
# bound; the reversed order always finished in milliseconds.
_REDRAWN_CROSSINGS = [
    (20, 5, 18), (1, 17, 21), (5, 0, 20), (7, 12, 13), (3, 14, 18),
    (0, 5, 22), (8, 10, 16), (9, 11, 15), (2, 15, 19), (6, 17, 22),
    (10, 8, 11), (16, 4, 8), (19, 2, 13), (15, 2, 9), (22, 0, 1),
    (21, 1, 12), (12, 7, 21), (4, 14, 16), (13, 7, 19), (14, 3, 4),
    (17, 6, 6), (18, 3, 20), (11, 9, 10),
]


def _redrawn_weight_kernel_rows():
    n = 23
    rows = []
    for over, u, v in _REDRAWN_CROSSINGS:
        row = [0] * n
        row[over] += 2
        row[u] -= 1
        row[v] -= 1
        rows.append(row)
    return rows + [[1] + [0] * (n - 1)], n


def _out_of_time(signum, frame):
    raise TimeoutError("smith_normal_form ran past its time limit")


def test_smith_entries_stay_small_in_every_row_order():
    rows, n = _redrawn_weight_kernel_rows()  # the unit row on arc 0 last
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    try:
        diags = []
        for order in (rows, rows[::-1]):
            signal.alarm(5)  # replaces the previous order's alarm
            diags.append(_assert_smith_witnesses(order, n).diag)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert diags[0] == diags[1]
    want = [abs(x) for x in sympy_snf(sympy.Matrix(rows)).diagonal()]
    assert [d for d in diags[0] if d] == [d for d in want if d] == [1] * 22 + [42]


@pytest.mark.parametrize("reverse", [False, True])
def test_smith_equals_literal_form_on_the_redrawn_drawing(reverse):
    rows, n = _redrawn_weight_kernel_rows()
    matrices = [rows, rows[:-1]]  # the weight kernel's rows, the module's
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    try:
        signal.alarm(10)
        for order in matrices:
            _assert_same_smith_form(order[::-1] if reverse else order, n)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


GATE_DIAGRAMS = ("t2_13", "chain_2_2_2", "chain_2_6", "chain_2_3_pad30")


@pytest.mark.parametrize("name", GATE_DIAGRAMS + FINITE)
def test_row_lattice_basis_spans_the_relation_lattice_in_every_row_order(
    name, modules, imq_results
):
    if name in GATE_DIAGRAMS:
        d = parse_diagram((DIAGRAMS / f"{name}.json").read_text())
        mod = build_link_module(d)
        q = compute_imq(mod).quandle
    else:
        mod, q = modules[name], imq_results[name].quandle
    rows = group_relation_rows(q)
    orders = [rows, rows[::-1]]
    for seed in (1, 2, 3):
        shuffled = rows[:]
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    try:
        signal.alarm(5)
        assert quandle.group_from_quandle(q) == literal_group_from_quandle(q) == mod.group
        bases = [row_lattice_basis(order, q.n) for order in orders]
        for basis in bases:
            assert len(basis) <= q.n
            assert all(abs(x) <= q.n**2 for row in basis for x in row)
        # a lattice has one Hermite basis, whatever the row order
        assert all(basis == bases[0] for basis in bases)
        basis = bases[0]
        assert basis == literal_row_lattice_basis(rows, q.n)
        assert cokernel(basis, q.n).group == mod.group
        assert all(solve_in_row_space(basis, q.n, row) is not None for row in rows)
        assert all(solve_in_row_space(rows, q.n, row) is not None for row in basis)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _diagram_matrices(name, modules):
    """A diagram's relation rows, its weight-kernel rows (a unit row at arc
    0 added) and their Hermite basis, with the arc count."""
    if name in GATE_DIAGRAMS:
        d = parse_diagram((DIAGRAMS / f"{name}.json").read_text())
    else:
        d = modules[name].diagram
    rows = relation_matrix(d)
    kernel_rows = rows + [[1] + [0] * (d.n_arcs - 1)]
    return rows, kernel_rows, row_lattice_basis(kernel_rows, d.n_arcs), d.n_arcs


@pytest.mark.parametrize("name", GATE_DIAGRAMS + FIXTURE_NAMES)
def test_smith_equals_literal_form_on_diagram_matrices(name, modules):
    *matrices, n = _diagram_matrices(name, modules)
    for rows in matrices:
        _assert_same_smith_form(rows, n)


@pytest.mark.parametrize("name", GATE_DIAGRAMS + FIXTURE_NAMES)
def test_row_lattice_basis_equals_literal_form_on_weight_kernel_rows(name, modules):
    _, rows, basis, n = _diagram_matrices(name, modules)
    assert basis == literal_row_lattice_basis(rows, n)
    assert row_lattice_basis(rows[::-1], n) == basis
    assert cokernel(basis, n).group == cokernel(rows, n).group


_SMALL_MATRICES = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=6
        ),
        st.just(n),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SMALL_MATRICES)
def test_sparse_forms_equal_literal_forms_on_small_matrices(case):
    rows, n = case
    _assert_same_smith_form(rows, n)
    assert row_lattice_basis(rows, n) == literal_row_lattice_basis(rows, n)


def test_row_lattice_basis_small_cases():
    assert row_lattice_basis([], 3) == []
    assert row_lattice_basis([[0, 0]], 2) == []
    # 4 and 6 meet in one pivot: the gcd step leaves 2 there and [0, -3]
    # in the new row; -1 above the pivot 3 is already reduced
    assert row_lattice_basis([[4, 1], [6, 0]], 2) == [[2, -1], [0, 3]]
    assert row_lattice_basis([[-3, 5, 0]], 3) == [[3, -5, 0]]
    with pytest.raises(ValueError):
        row_lattice_basis([[1, 2], [3]], 2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-20, 20), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_smith_divisor_chain_is_minor_gcd_chain(rows):
    sf = smith_normal_form(rows, 3)
    gcds = minor_gcds(rows, 3)
    prev = 1
    for k, g in enumerate(gcds):
        if prev == 0:
            assert sf.diag[k] == 0
        else:
            assert sf.diag[k] == (g // prev if g else 0)
        prev = g


def test_int_det_matches_sympy():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert int_det(rows) == int(sympy.Matrix(rows).det())


def test_group_canonical_form_and_order():
    g = cokernel([[2, 0], [0, 3]], 2).group
    assert g == FgAbGroup(0, (6,))
    assert g.order() == 6
    assert g.describe() == "Z/6"
    assert len(list(g.elements())) == 6

    h = cokernel([[2, 0, 0]], 3).group
    assert h == FgAbGroup(2, (2,))
    assert h.order() == 0
    assert h.describe() == "Z^2 x Z/2"


def test_group_rejects_bad_torsion():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))


def test_element_arithmetic_and_orders():
    g = FgAbGroup(1, (2, 4))
    x = g.element([3, 1, 2])
    y = g.element([-3, 1, 3])
    assert (x + y).coords == (0, 0, 1)
    assert (x - x).is_zero()
    assert x.smul(4).coords == (12, 0, 0)
    assert g.element([0, 1, 2]).order() == 2
    assert g.element([0, 0, 1]).order() == 4
    assert g.element([1, 0, 0]).order() == 0
    assert g.zero().order() == 1


def test_presentation_round_trip():
    pres = cokernel([[2, 1, 0], [0, 3, 1], [0, 0, 4]], 3)
    assert pres.group.order() == 24
    for target in pres.group.elements():
        vec = pres.lift(target)
        assert pres.to_canonical(vec) == target
    # to_canonical is additive on generator vectors
    total = [sum(col) for col in zip(*(pres.lift(e) for e in pres.group.elements()))]
    expected = pres.group.zero()
    for e in pres.group.elements():
        expected = expected + e
    assert pres.to_canonical(total) == expected


def test_solve_in_row_space_and_left_kernel():
    rows = [[2, 4, 0], [0, 6, 3], [2, 10, 3]]
    combo = solve_in_row_space(rows, 3, [4, 14, 3])
    assert combo is not None
    got = [sum(c * rows[i][j] for i, c in enumerate(combo)) for j in range(3)]
    assert got == [4, 14, 3]
    assert solve_in_row_space(rows, 3, [1, 0, 0]) is None
    for k in left_kernel_basis(rows, 3):
        assert all(
            sum(k[i] * rows[i][j] for i in range(3)) == 0 for j in range(3)
        )


def test_subgroup_operations():
    g = FgAbGroup(0, (4, 4))
    two = [g.element([2, 0]), g.element([0, 2])]
    assert subgroup_type(g, two) == FgAbGroup(0, (2, 2))
    assert quotient_by_subgroup(g, two) == FgAbGroup(0, (2, 2))
    assert subgroup_contains(g, two, g.element([2, 2]))
    assert not subgroup_contains(g, two, g.element([1, 0]))
    assert subgroups_equal(g, two, [g.element([2, 2]), g.element([0, 2])])
    assert not subgroups_equal(g, two, [g.element([2, 0])])


def test_subgroup_type_of_infinite_group():
    g = FgAbGroup(2, (2,))
    gens = [g.element([2, 0, 0]), g.element([0, 0, 1])]
    assert subgroup_type(g, gens) == FgAbGroup(1, (2,))


def test_gf2_eliminator_is_shared_and_exact():
    # one eliminator serves the coset quandle and the IMQ mesh; on random
    # bitmasks its rows span the inputs, its null vectors are exactly the
    # dependencies, and the residue it leaves is canonical and linear
    from imqlink import arcquandle, imq

    assert arcquandle._gf2_echelon is imq._gf2_echelon is abelian._gf2_echelon
    assert arcquandle._gf2_reduce is imq._gf2_reduce is abelian._gf2_reduce
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randint(1, 9)
        vectors = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
        rows, null = abelian._gf2_echelon(vectors)
        assert len(rows) + len(null) == len(vectors)
        for c in null:
            total = 0
            for i, v in enumerate(vectors):
                if c >> i & 1:
                    total ^= v
            assert c and total == 0
        pivots = [r & -r for r in rows]
        assert len(set(pivots)) == len(rows)
        for v in vectors:
            assert abelian._gf2_reduce(rows, v) == 0
        a, b = rng.getrandbits(width), rng.getrandbits(width)
        ra, rb = abelian._gf2_reduce(rows, a), abelian._gf2_reduce(rows, b)
        assert not any(ra & p for p in pivots)
        assert abelian._gf2_reduce(rows, a ^ b) == ra ^ rb
        # a vector and its shift by a row of the span reduce alike
        if rows:
            assert abelian._gf2_reduce(rows, a ^ rng.choice(rows)) == ra
