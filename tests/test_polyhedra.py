"""Projection correctness is checked against an independent one-variable
feasibility oracle: fix every kept coordinate at a sample point, reduce the
original system to interval bounds on the eliminated variable, and compare
emptiness.  Exact rational arithmetic throughout; zero tolerance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sparse_closure import polyhedra
from sparse_closure.polyhedra import (
    PAIR_LIMIT,
    RationalPolyhedron,
    RowCapExceeded,
    affine_image,
    contains,
    drop_redundant,
    eliminate_variable,
    from_json,
    polyhedron,
    project,
    to_json,
)
from sparse_closure.rational import matrix as rational_matrix


def interval_feasible(poly, idx, point):
    """Oracle: with all other variables fixed, does a feasible value of
    variable idx exist?  Reduces each row to a bound and intersects."""
    lo, hi = None, None
    others = [i for i in range(poly.num_vars) if i != idx]
    for row, b in zip(poly.rows, poly.rhs):
        rest = sum(row[i] * p for i, p in zip(others, point))
        coeff = row[idx]
        if coeff == 0:
            if rest > b:
                return False
        elif coeff > 0:
            bound = (b - rest) / coeff
            hi = bound if hi is None else min(hi, bound)
        else:
            bound = (b - rest) / coeff
            lo = bound if lo is None else max(lo, bound)
    return lo is None or hi is None or lo <= hi


def random_system(rng, num_vars, num_rows):
    rows = rng.integers(-3, 4, size=(num_rows, num_vars))
    rhs = rng.integers(-3, 4, size=num_rows)
    return polyhedron(num_vars, rows.tolist(), rhs.tolist())


def random_point(rng, dim):
    return tuple(
        Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 5))) for _ in range(dim)
    )


class TestEliminateVariable:
    def test_equality_chain_forces_interval(self):
        # {x <= 1, -x <= 0, t - x <= 0, x - t <= 0}: t = x in [0, 1]
        poly = polyhedron(2, [[1, 0], [-1, 0], [-1, 1], [1, -1]], [1, 0, 0, 0])
        projected = eliminate_variable(poly, 0)
        for t, expected in [(0, True), (1, True), (Fraction(1, 2), True), (2, False), (Fraction(-1, 7), False)]:
            assert contains(projected, [t]) is expected

    def test_unmentioned_variable_leaves_rows_alone(self):
        poly = polyhedron(2, [[0, 1], [0, -1]], [2, 0])
        projected = eliminate_variable(poly, 0)
        assert contains(projected, [1]) and not contains(projected, [3])
        assert projected.num_rows == 2

    def test_index_out_of_range(self):
        poly = polyhedron(2, [[1, 0]], [1])
        with pytest.raises(ValueError, match="out of range"):
            eliminate_variable(poly, 2)

    def test_projection_matches_interval_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 9))
            poly = random_system(rng, n, m)
            idx = int(rng.integers(0, n))
            projected = eliminate_variable(poly, idx)
            for _ in range(30):
                point = random_point(rng, n - 1)
                assert contains(projected, point) == interval_feasible(poly, idx, point)

    def test_three_var_grid_oracle(self):
        rng = np.random.default_rng(19)
        poly = random_system(rng, 3, 6)
        projected = eliminate_variable(poly, 1)
        grid = [Fraction(k, 10) for k in range(-10, 11)]
        for a in grid[::2]:
            for b in grid[::2]:
                assert contains(projected, (a, b)) == interval_feasible(poly, 1, (a, b))

    def test_elimination_order_is_irrelevant(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            poly = random_system(rng, 3, 6)
            first = eliminate_variable(eliminate_variable(poly, 2), 1)
            second = eliminate_variable(eliminate_variable(poly, 1), 1)
            for _ in range(40):
                point = random_point(rng, 1)
                assert contains(first, point) == contains(second, point)

    def test_all_entries_stay_rational(self):
        rng = np.random.default_rng(33)
        poly = random_system(rng, 4, 8)
        projected = eliminate_variable(poly, 0)
        for row, b in zip(projected.rows, projected.rhs):
            assert all(isinstance(x, Fraction) for x in row)
            assert isinstance(b, Fraction)
            assert isinstance(sum(row, start=Fraction(0)), Fraction)

    def test_row_cap_trips(self):
        rows = [[1] * 3 for _ in range(6)] + [[-1] * 3 for _ in range(6)]
        for i, row in enumerate(rows):
            row[1] = i + 1  # make rows distinct
        poly = polyhedron(3, rows, list(range(12)))
        with pytest.raises(RowCapExceeded):
            eliminate_variable(poly, 0, row_cap=4)


class TestProject:
    @pytest.mark.parametrize("keep", [[], [-1], [3], [0, 3]])
    def test_keep_must_name_variables_in_range(self, keep):
        poly = polyhedron(3, [[1, 0, 0]], [1])
        with pytest.raises(ValueError, match=r"within 1\.\.3 \(1-based\)"):
            project(poly, keep)

    def test_no_rows_is_the_whole_space_of_any_width(self):
        assert project(RationalPolyhedron(10**9, (), ()), [0, 5]) == RationalPolyhedron(2, (), ())

    def test_every_result_is_canonical(self):
        # keeping every variable eliminates nothing and must still prune
        rng = np.random.default_rng(43)
        for _ in range(30):
            poly = random_system(rng, 3, 7)
            keep = [k for k in range(3) if rng.random() < 0.6] or [0, 1, 2]
            projected = project(poly, keep)
            assert drop_redundant(projected) == projected

    def test_affine_image_agrees_with_eliminating_the_first_variable(self):
        # project eliminates the highest index first.  Pairwise pruning
        # depends on the order, so the rows may differ from eliminating index
        # 0 n times; the set they describe may not.
        rng = np.random.default_rng(44)
        for _ in range(240):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            base = random_system(rng, n, int(rng.integers(2, 7)))
            a = rng.integers(-2, 3, size=(p, n)).tolist()
            lifted = polyhedron(
                n + p,
                [list(row) + [0] * p for row in base.rows]
                + [[sign * v for v in arow] + [-sign * int(i == k) for i in range(p)]
                   for k, arow in enumerate(a) for sign in (1, -1)],
                list(base.rhs) + [0] * (2 * p),
            )
            reference = lifted
            for _ in range(n):
                reference = eliminate_variable(reference, 0)
            image = affine_image(a, base)
            for _ in range(25):
                point = random_point(rng, p)
                assert contains(image, point) == contains(reference, point)


class TestAffineImage:
    def test_identity_image_is_same_set(self):
        rng = np.random.default_rng(5)
        poly = random_system(rng, 2, 5)
        image = affine_image([[1, 0], [0, 1]], poly)
        for _ in range(60):
            point = random_point(rng, 2)
            assert contains(image, point) == contains(poly, point)

    @pytest.mark.parametrize("matrix, message", [
        ([], "at least one output coordinate"),
        ([[1, 1, 1]], "matrix width must equal the base dimension"),
    ])
    def test_malformed_matrix_rejected(self, matrix, message):
        square = polyhedron(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
        with pytest.raises(ValueError, match=message):
            affine_image(matrix, square)

    def test_sum_over_unit_square(self):
        square = polyhedron(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
        image = affine_image([[1, 1]], square)
        assert contains(image, [0]) and contains(image, [2]) and contains(image, [1])
        assert not contains(image, [Fraction(21, 10)]) and not contains(image, [Fraction(-1, 10)])

    def test_infeasible_base_propagates(self):
        bad = polyhedron(1, [[1], [-1]], [0, -1])
        image = affine_image([[1]], bad)
        assert any(
            all(c == 0 for c in row) and b < 0
            for row, b in zip(image.rows, image.rhs)
        )
        assert not contains(image, [0])

    def test_projection_of_cube_facet_counts(self):
        cube = polyhedron(
            3,
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            [1, 0, 1, 0, 1, 0],
        )
        image = affine_image([[1, 1, 1]], cube)
        assert contains(image, [3]) and contains(image, [0])
        assert not contains(image, [Fraction(31, 10)])


class TestContains:
    def test_boundary_included(self):
        poly = polyhedron(1, [[1], [-1]], [1, 0])
        assert contains(poly, [1]) is True
        assert contains(poly, [2]) is False

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coordinates"):
            contains(polyhedron(2, [[1, 0]], [1]), [1])


class TestDropRedundant:
    def test_duplicate_rows_merge(self):
        poly = polyhedron(2, [[1, 1], [2, 2], [1, 1]], [1, 2, 1])
        cleaned = drop_redundant(poly)
        assert cleaned.num_rows == 1

    def test_dominated_bound_removed(self):
        poly = polyhedron(1, [[1], [1]], [1, 2])
        cleaned = drop_redundant(poly)
        assert cleaned.num_rows == 1
        assert cleaned.rhs == (Fraction(1),)

    def test_two_row_combination_removed(self):
        # x + y <= 2 is the sum of x <= 1 and y <= 1
        poly = polyhedron(2, [[1, 0], [0, 1], [1, 1]], [1, 1, 2])
        cleaned = drop_redundant(poly)
        assert cleaned.num_rows == 2

    def test_single_row_implication_removed(self):
        # x <= 6 follows from 4x <= 11 scaled by 1/4; both are canonical rows
        cleaned = drop_redundant(polyhedron(1, [[1], [4], [-2]], [6, 11, 13]))
        assert cleaned.rows == ((-2,), (4,))
        assert cleaned.rhs == (13, 11)

    def test_implication_test_skipped_above_pair_limit(self):
        # tangents 2k x - y <= k^2 of y >= x^2 are all facets; -2y <= 1 is
        # implied by the k = 0 tangent -y <= 0 alone
        def system(tangents):
            rows = [[2 * k, -1] for k in range(tangents)] + [[0, -2]]
            return polyhedron(2, rows, [k * k for k in range(tangents)] + [1])

        implied = ((0, -2), 1)
        over = drop_redundant(system(PAIR_LIMIT))
        assert over.num_rows == PAIR_LIMIT + 1
        assert implied in zip(over.rows, over.rhs)
        at = drop_redundant(system(PAIR_LIMIT - 1))
        assert at.num_rows == PAIR_LIMIT - 1
        assert implied not in zip(at.rows, at.rhs)

    def test_set_unchanged_under_sampling(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            poly = random_system(rng, 3, 7)
            cleaned = drop_redundant(poly)
            for _ in range(40):
                point = random_point(rng, 3)
                assert contains(poly, point) == contains(cleaned, point)


def reference_prune(poly):
    """Reference pruning in Fraction arithmetic: drop a row when some
    (la, lb) >= 0 over two kept rows, a row paired with itself included,
    reproduces its coefficients with la*ya + lb*yb <= its rhs."""
    rows = list(zip(poly.rows, poly.rhs))
    m = len(rows)
    if m <= 2 or m > PAIR_LIMIT:
        return poly
    keep = [True] * m
    for r in range(m):
        target_row, target_b = rows[r]
        implied = False
        for a in range(m):
            if a == r or not keep[a]:
                continue
            for b_idx in range(a, m):
                if b_idx == r or not keep[b_idx]:
                    continue
                lam = reference_two_row_combination(rows[a], rows[b_idx], target_row)
                if lam is None:
                    continue
                la, lb = lam
                if la * rows[a][1] + lb * rows[b_idx][1] <= target_b:
                    implied = True
                    break
            if implied:
                break
        if implied:
            keep[r] = False
    kept = [i for i in range(m) if keep[i]]
    rows_kept, rhs_kept = tuple(poly.rows[i] for i in kept), tuple(poly.rhs[i] for i in kept)
    return RationalPolyhedron(poly.num_vars, rows_kept, rhs_kept)


def reference_two_row_combination(row_a, row_b, target):
    """Nonnegative (la, lb) with la*a + lb*b == target, or None: solve the
    first two independent coordinates and verify the rest; for proportional
    rows try scaling each row alone."""
    a, b = row_a[0], row_b[0]
    n = len(target)
    for i in range(n):
        for j in range(i + 1, n):
            det = a[i] * b[j] - a[j] * b[i]
            if det == 0:
                continue
            la = (target[i] * b[j] - target[j] * b[i]) / det
            lb = (a[i] * target[j] - a[j] * target[i]) / det
            if la < 0 or lb < 0:
                return None
            if all(la * a[k] + lb * b[k] == target[k] for k in range(n)):
                return la, lb
            return None
    for base in (a, b):
        nz = next((k for k in range(n) if base[k] != 0), None)
        if nz is None:
            continue
        lam = target[nz] / base[nz]
        if lam >= 0 and all(lam * base[k] == target[k] for k in range(n)):
            return (lam, Fraction(0)) if base is a else (Fraction(0), lam)
    return None


def random_fractional_system(rng):
    """1-4 variables with fractional entries, some zero; some rows repeat
    another's coefficients scaled with a different rhs; some systems carry
    the infeasible marker 0 <= -1."""
    def entry():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    n, m = int(rng.integers(1, 5)), int(rng.integers(2, 12))
    rows = [[entry() if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    for _ in range(int(rng.integers(0, 4))):
        scale = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        rows.append([scale * c for c in rows[int(rng.integers(0, m))]])
        rhs.append(entry())
    if rng.random() < 0.25:
        rows.append([0] * n)
        rhs.append(-1)
    return polyhedron(n, rows, rhs)


# the fixed system of the benchmark's exact workload that the default row cap
# refuses at its fourth elimination (keeping x1 and x2)
BLOWUP_SYSTEM = (
    [[-2, 0, 0, 0, 0, -1], [-2, 2, 0, 2, 0, 0], [2, 0, 0, 0, 0, -2], [-1, -2, -2, 0, -1, 1],
     [0, 0, 0, 2, 0, -1], [0, 2, 0, 0, 1, -1], [0, -1, 0, 0, 0, 0], [0, -2, 0, 0, 1, -2],
     [0, 0, 2, 2, 2, 0], [1, -1, 2, -1, 0, 2], [0, 1, -1, 0, 0, 2], [2, -2, 0, -2, 0, 0],
     [0, -2, -2, 1, 0, 0], [0, 0, 0, 0, 0, 2], [2, 0, 2, 0, 0, 0], [0, -1, 1, 1, 0, 2],
     [2, 0, 0, -2, 0, 1], [2, -1, -1, 0, -2, 1], [0, -1, -2, -2, 0, 0], [-2, -1, -2, 0, 0, 0]],
    [7, 6, 2, 1, 5, 6, 2, 2, 3, 3, 2, 4, 7, 2, 8, 2, 3, 9, 2, 6],
)


class TestReferencePruning:
    def test_same_rows_as_the_fraction_solver(self, monkeypatch):
        rng = np.random.default_rng(45)
        cases = []
        for _ in range(300):
            poly = random_fractional_system(rng)
            idx = int(rng.integers(0, poly.num_vars)) if poly.num_vars > 1 else None
            cases.append((poly, idx))

        def results():
            return [(drop_redundant(poly), None if idx is None else eliminate_variable(poly, idx))
                    for poly, idx in cases]

        integer = results()
        monkeypatch.setattr(polyhedra, "_prune", reference_prune)
        assert integer == results()

    def test_sign_filter_keeps_the_rows_of_the_fraction_solver(self):
        # 20-40 rows in 3-5 variables, mixed signs, zero entries and some
        # all-zero columns: the rows whose sign supports allow no implication
        # test must be the rows the Fraction solver keeps
        rng = np.random.default_rng(48)
        dropped = 0
        for _ in range(12):
            n, m = int(rng.integers(3, 6)), int(rng.integers(20, 41))
            rows = rng.integers(-4, 5, size=(m, n)) * (rng.random((m, n)) < 0.6)
            if rng.random() < 0.3:
                rows[:, int(rng.integers(0, n))] = 0
            poly = polyhedron(n, rows.tolist(), rng.integers(-3, 10, size=m).tolist())
            system = reference_normalize(n, zip(poly.rows, poly.rhs))
            expected = reference_prune(system)
            assert polyhedra._prune(system) == expected
            dropped += system.num_rows - expected.num_rows
        assert dropped > 50

    def test_blowup_first_step_keeps_the_rows_of_the_fraction_solver(self, monkeypatch):
        seen = []
        monkeypatch.setattr(polyhedra, "_prune", lambda poly: seen.append(poly) or poly)
        eliminate_variable(polyhedron(6, *BLOWUP_SYSTEM), 5)
        monkeypatch.undo()
        (system,) = seen
        assert system.num_rows == 42
        expected = reference_prune(system)
        assert expected.num_rows == 40
        assert polyhedra._prune(system) == expected

    @pytest.mark.parametrize("rows, rhs, kept", [
        # 2x + 2y <= 1 and x + y <= 1 are distinct canonical rows with
        # proportional coefficients: the partner filter skips pairs whose
        # combination would use one multiplier, which the scaled test covers
        ([[2, 2], [1, 1], [1, 0], [0, 1], [-1, 0], [3, 1]], [1, 1, 1, 1, 0, 2], 4),
        # the infeasible marker 0 <= -1 has no signs and is never implied; as a
        # partner it combines with nothing
        ([[0, 0], [1, 0], [-1, 0], [1, 1], [0, -1], [1, -1]], [-1, -1, 0, 3, 0, 2], 5),
    ], ids=["proportional", "infeasible-marker"])
    def test_partner_filter_keeps_the_rows_of_the_fraction_solver(self, rows, rhs, kept):
        poly = polyhedron(2, rows, rhs)
        system = reference_normalize(2, zip(poly.rows, poly.rhs))
        expected = reference_prune(system)
        assert polyhedra._prune(system) == expected
        assert expected.num_rows == kept


def reference_canonical_row(row, b):
    """Scale so coefficients and rhs become coprime integers, in Fraction
    arithmetic; None for rows 0 <= b with b >= 0, the marker 0 <= -1 for b < 0."""
    if all(c == 0 for c in row):
        if b >= 0:
            return None
        return row, Fraction(-1)
    scale = math.lcm(*(c.denominator for c in (*row, b)))
    ints = [int(c * scale) for c in (*row, b)]
    g = math.gcd(*ints)
    return tuple(Fraction(v // g) for v in ints[:-1]), Fraction(ints[-1] // g)


def reference_normalize(num_vars, raw_rows):
    """Canonicalize (row, rhs) pairs, keep the tightest rhs of each row, sort."""
    best = {}
    for row, b in raw_rows:
        canon = reference_canonical_row(row, b)
        if canon is None:
            continue
        crow, cb = canon
        if crow not in best or cb < best[crow]:
            best[crow] = cb
    ordered = sorted(best.items())
    return RationalPolyhedron(num_vars, tuple(r for r, _ in ordered), tuple(b for _, b in ordered))


def reference_eliminate(poly, idx, row_cap=polyhedra.DEFAULT_ROW_CAP):
    """One Fourier-Motzkin step in Fraction arithmetic on every row."""
    zero, pos, neg = [], [], []
    for row, b in zip(poly.rows, poly.rhs):
        coeff, rest = row[idx], row[:idx] + row[idx + 1:]
        (zero if coeff == 0 else pos if coeff > 0 else neg).append((coeff, rest, b))
    if len(zero) + len(pos) * len(neg) > row_cap:
        raise RowCapExceeded(
            f"elimination would produce {len(zero) + len(pos) * len(neg)} rows "
            f"(cap {row_cap}); raise the row cap to allow it"
        )
    combined = [(rest, b) for _, rest, b in zero]
    for cp, rp, bp in pos:
        for cn, rn, bn in neg:
            combined.append((tuple(cp * xn - cn * xp for xp, xn in zip(rp, rn)), cp * bn - cn * bp))
    return polyhedra._prune(reference_normalize(poly.num_vars - 1, combined))


def reference_drop_redundant(poly):
    return polyhedra._prune(reference_normalize(poly.num_vars, zip(poly.rows, poly.rhs)))


def reference_project(poly, keep, row_cap=polyhedra.DEFAULT_ROW_CAP):
    """Eliminate every variable not kept, highest index first, zero columns included."""
    keep = sorted(set(keep))
    if len(keep) == poly.num_vars:
        return reference_drop_redundant(poly)
    for idx in sorted(set(range(poly.num_vars)).difference(keep), reverse=True):
        poly = reference_eliminate(poly, idx, row_cap)
    return poly


def reference_affine_image(matrix, base, row_cap=polyhedra.DEFAULT_ROW_CAP):
    a = rational_matrix(matrix)
    n, p = base.num_vars, len(a)
    rows = [(row + (Fraction(0),) * p, b) for row, b in zip(base.rows, base.rhs)]
    for k, arow in enumerate(a):
        t_pos = tuple(Fraction(int(i == k)) for i in range(p))
        rows.append((tuple(-v for v in arow) + t_pos, Fraction(0)))
        rows.append((arow + tuple(-v for v in t_pos), Fraction(0)))
    return reference_project(reference_normalize(n + p, rows), range(n, n + p), row_cap)


def zero_padded(poly, rng):
    """poly with 0-3 all-zero columns inserted at random positions."""
    rows = [list(row) for row in poly.rows]
    for _ in range(int(rng.integers(0, 4))):
        at = int(rng.integers(0, len(rows[0]) + 1))
        rows = [row[:at] + [0] + row[at:] for row in rows]
    return polyhedron(len(rows[0]), rows, poly.rhs)


class TestReferenceElimination:
    """The integer engine against the Fraction engine it replaced: the same
    rows, the same refusals, the same serialized bytes."""

    @staticmethod
    def outcome(fn, *args):
        try:
            return to_json(fn(*args))
        except RowCapExceeded as exc:
            return f"refused: {exc}"

    def test_same_output_as_the_fraction_engine(self):
        rng = np.random.default_rng(46)
        refusals = 0
        for _ in range(300):
            poly = zero_padded(random_fractional_system(rng), rng)
            n = poly.num_vars
            keep = [k for k in range(n) if rng.random() < 0.4] or [int(rng.integers(0, n))]
            cap = int(rng.integers(1, 21)) if rng.random() < 0.5 else polyhedra.DEFAULT_ROW_CAP
            a = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(n)]
                 for _ in range(int(rng.integers(1, 3)))]
            pairs = [
                (self.outcome(project, poly, keep, cap), self.outcome(reference_project, poly, keep, cap)),
                (to_json(drop_redundant(poly)), to_json(reference_drop_redundant(poly))),
                (self.outcome(affine_image, a, poly, cap), self.outcome(reference_affine_image, a, poly, cap)),
            ]
            for integer, reference in pairs:
                assert integer == reference
                refusals += isinstance(reference, str)
        assert refusals > 30  # the small caps are exercised

    def test_wide_zero_columns_are_dropped_not_eliminated(self, monkeypatch):
        # x1 in [0, 1] padded with 1,999 zero columns: one elimination step
        n = 2000
        poly = polyhedron(n, [[1] + [0] * (n - 1), [-1] + [0] * (n - 1)], [1, 0])
        steps = []
        eliminate = polyhedra.eliminate_variable

        def counted(poly, idx, row_cap):
            steps.append(idx)
            return eliminate(poly, idx, row_cap)

        monkeypatch.setattr(polyhedra, "eliminate_variable", counted)
        assert to_json(project(poly, [0])) == {"num_vars": 1, "C": [["-1"], ["1"]], "y": ["0", "1"]}
        assert steps == [n - 1]

    def test_raw_input_above_the_cap_is_refused_at_a_zero_column(self):
        # the first variable eliminated, x3, is a zero column; the raw rows count
        poly = polyhedron(3, [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, -1, 0]], [1, 2, 1, 0])
        with pytest.raises(RowCapExceeded, match=r"^elimination would produce 4 rows \(cap 3\)"):
            project(poly, [0], row_cap=3)
        assert project(poly, [0], row_cap=4) == reference_project(poly, [0], row_cap=4)

    def test_cap_is_checked_before_any_row_is_converted(self, monkeypatch):
        rows = [[1, k, 0] for k in range(5)] + [[-1, 0, k] for k in range(5)]
        poly = polyhedron(3, rows, list(range(10)))

        def no_conversion(row, b):
            pytest.fail("a row was converted during a refused step")

        monkeypatch.setattr(polyhedra, "_integer_row", no_conversion)
        with pytest.raises(RowCapExceeded, match="would produce 25 rows"):
            eliminate_variable(poly, 0, row_cap=24)

    def test_integer_systems_project_without_fraction_arithmetic(self, monkeypatch):
        rng = np.random.default_rng(47)
        systems = [(random_system(rng, 5, 10), [0, 1]) for _ in range(4)]
        systems.append((zero_padded(random_system(rng, 3, 9), rng), [0]))
        expected = [to_json(reference_project(poly, keep)) for poly, keep in systems]
        square = polyhedron(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])

        def no_arithmetic(self, other):
            pytest.fail("a Fourier-Motzkin step did Fraction arithmetic")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__truediv__"):
            monkeypatch.setattr(Fraction, name, no_arithmetic)
        projected = [project(poly, keep) for poly, keep in systems]
        image = affine_image([[1, 1], [2, -1]], square)
        cleaned = drop_redundant(systems[0][0])
        monkeypatch.undo()
        assert [to_json(poly) for poly in projected] == expected
        assert image == reference_affine_image([[1, 1], [2, -1]], square)
        assert cleaned == reference_drop_redundant(systems[0][0])


class TestSignFilter:
    @pytest.mark.parametrize("floor", [False, True], ids=["chain", "chain-with-floor"])
    def test_no_implication_test_runs_where_signs_rule_it_out(self, monkeypatch, floor):
        # keep x1 of x1 + xi <= 1 (i = 2..40), optionally with -x1 <= 0: no
        # row's signs equal another's, and no pair covers a third row's xi
        n = 40
        rows = [[1] + [int(j == i) for j in range(1, n)] for i in range(1, n)]
        rows += [[-1] + [0] * (n - 1)] * floor
        poly = polyhedron(n, rows, [1] * (n - 1) + [0] * floor)
        expected = reference_project(poly, [0])

        def no_test(*rows):
            pytest.fail("an implication test ran that the sign supports rule out")

        monkeypatch.setattr(polyhedra, "_scales_to", no_test)
        monkeypatch.setattr(polyhedra, "_combines_to", no_test)
        assert project(poly, [0]) == expected
        assert expected.num_rows == floor


class TestCanonicalForm:
    def test_elimination_output_is_a_fixed_point_of_drop_redundant(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            poly = random_system(rng, 4, 8)
            projected = eliminate_variable(poly, int(rng.integers(0, 4)))
            assert drop_redundant(projected) == projected

    def test_drop_redundant_is_idempotent(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            cleaned = drop_redundant(random_system(rng, 3, 9))
            assert drop_redundant(cleaned) == cleaned


class TestSerialization:
    @pytest.mark.parametrize("num_vars", [2.5, 2.0, True, "2", None])
    def test_num_vars_must_be_an_integer(self, num_vars):
        with pytest.raises(TypeError, match="num_vars"):
            from_json({"num_vars": num_vars, "C": [[1, 0]], "y": [1]})

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        poly = random_system(rng, 3, 5)
        again = from_json(to_json(poly))
        assert again == poly

    def test_fraction_strings(self):
        poly = polyhedron(1, [[Fraction(1, 3)]], [Fraction(-2, 7)])
        data = to_json(poly)
        assert data["C"] == [["1/3"]] and data["y"] == ["-2/7"]
