"""Subspace splits, complements, projections, restricted inverses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsmith import Mat, Subspace, image, restrict_and_split
from localsmith.subspaces import (
    choose_complement,
    complement_coordinates,
    projection_matrix,
    restricted_inverse,
)

from conftest import ZERO3, cols, e, random_invertible, random_matrix
from reference import kernel_basis, same_space, spanned_by, transpose


def minor_rank_of_images(s: Mat, basis: Mat) -> int:
    """Dimension of s(span basis) by direct enumeration of basis images."""
    images = s @ basis
    return images.rank()


class TestKernelBasis:
    def test_golden_leading_coefficient(self):
        l0 = cols(e(1), ZERO3, ZERO3)
        ker = kernel_basis(l0)
        assert same_space(ker, spanned_by([e(2), e(3)], 3))

    def test_identity_has_zero_kernel(self):
        assert kernel_basis(Mat.identity(4)).dim == 0

    def test_zero_map_has_full_kernel(self):
        ker = kernel_basis(Mat.zeros(2, 3))
        assert same_space(ker, Subspace.full(3))


class TestValue:
    """Two subspaces are equal, and hash equal, exactly when their ambient
    dimensions and basis matrices are."""

    def test_equal_bases_compare_and_hash_equal(self):
        plane = Subspace(3, cols(e(1), e(2)))
        same = Subspace(3, cols(e(1), e(2)), trusted=True)
        assert plane == same and hash(plane) == hash(same)
        assert len({plane, same}) == 1
        # The same plane with its basis columns swapped is another basis.
        assert plane != Subspace(3, cols(e(2), e(1)))
        assert plane != plane.basis

    def test_a_dependent_basis_is_refused(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            Subspace(3, cols(e(1), e(2), (1, 1, 0)))
        with pytest.raises(ValueError, match="ambient dimension"):
            Subspace(2, cols(e(1)))


class TestContains:
    # K^3 subspaces: zero, a line, a plane holding it, the full space; and K^0.
    ZERO, LINE = Subspace.zero(3), spanned_by([e(1)], 3)
    PLANE, FULL = spanned_by([e(1), e(2)], 3), Subspace.full(3)

    @pytest.mark.parametrize(
        "space, other, expected",
        [
            (ZERO, ZERO, True),
            (ZERO, LINE, False),
            (ZERO, FULL, False),
            (LINE, ZERO, True),
            (LINE, LINE, True),
            (LINE, PLANE, False),
            (PLANE, LINE, True),
            (PLANE, FULL, False),
            (FULL, ZERO, True),
            (FULL, PLANE, True),
            (FULL, FULL, True),
            (Subspace.zero(0), Subspace.full(0), True),
            (Subspace.full(0), Subspace.zero(0), True),
        ],
    )
    def test_basis_containment(self, space, other, expected):
        """A subspace holds another exactly when it holds its basis columns,
        all at once or one by one; a basis with no columns always fits."""
        assert space.contains(other.basis) is expected
        basis = other.basis
        by_column = all(space.contains(basis.submatrix_columns([j])) for j in range(other.dim))
        assert by_column is expected

    def test_wrong_ambient_is_refused(self):
        with pytest.raises(ValueError):
            self.FULL.contains(Subspace.full(2).basis)


class TestRestrictAndSplit:
    def test_golden_second_stage(self):
        s2 = cols(ZERO3, ZERO3, e(2))
        domain = spanned_by([e(2), e(3)], 3)
        n, r, _ = restrict_and_split(s2, domain)
        assert same_space(n, spanned_by([e(2)], 3))
        assert same_space(r, spanned_by([e(2)], 3))

    def test_zero_map_keeps_domain(self):
        domain = spanned_by([e(1), e(3)], 3)
        n, r, nc = restrict_and_split(Mat.zeros(3, 3), domain)
        assert same_space(n, domain)
        assert r.dim == 0
        assert nc.dim == 0

    def test_dims_match_direct_enumeration(self):
        rng = random.Random(31)
        for _ in range(20):
            s = random_matrix(rng, 5, 5, density=0.5)
            raw = random_matrix(rng, 5, 3, density=0.8)
            if raw.rank() != 3:
                continue
            domain = Subspace(5, raw)
            n, r, _ = restrict_and_split(s, domain)
            assert r.dim == minor_rank_of_images(s, raw)
            assert n.dim + r.dim == domain.dim
            assert (s @ n.basis).is_zero()
            for j in range(n.dim):
                assert domain.contains(n.basis.submatrix_columns([j]))


    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["zero", "injective", "random"]),
        rows=st.integers(1, 5),
        ambient=st.integers(1, 5),
        dim=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_pivot_complement_is_the_default_complement(self, kind, rows, ambient, dim, seed):
        # Column c of the domain basis is independent modulo N and the
        # columns before it exactly when its image is independent of their
        # images, so the pivots of s @ basis(domain) pick the complement
        # choose_complement picks, and the range basis is s applied to it.
        rng = random.Random(seed)
        dim = min(dim, ambient)
        basis = random_matrix(rng, ambient, dim, density=0.8)
        while basis.rank() != dim:
            basis = random_matrix(rng, ambient, dim, density=0.8)
        if kind == "zero":
            s = Mat.zeros(rows, ambient)
        elif kind == "injective":
            s = Mat.vstack([Mat.identity(ambient), random_matrix(rng, rows, ambient)])
        else:
            s = random_matrix(rng, rows, ambient, density=0.5)
        domain = Subspace(ambient, basis)
        n, r, nc = restrict_and_split(s, domain)
        assert nc.basis == choose_complement(domain, n).basis
        assert r.basis == s @ nc.basis
        assert n.dim + r.dim == dim
        if kind == "injective":
            assert n.dim == 0 and nc.basis == basis


class TestChooseComplement:
    def test_golden_second_stage_complement(self):
        ambient = spanned_by([e(2), e(3)], 3)
        sub = spanned_by([e(2)], 3)
        comp = choose_complement(ambient, sub)
        assert same_space(comp, spanned_by([e(3)], 3))

    def test_full_sub_gives_zero(self):
        ambient = Subspace.full(3)
        assert choose_complement(ambient, ambient).dim == 0

    def test_zero_sub_gives_ambient(self):
        ambient = spanned_by([e(1), e(2)], 3)
        comp = choose_complement(ambient, Subspace.zero(3))
        assert same_space(comp, ambient)

    def test_direct_sum_property(self):
        rng = random.Random(32)
        for _ in range(20):
            raw = random_matrix(rng, 4, 3, density=0.8)
            if raw.rank() != 3:
                continue
            ambient = Subspace(4, raw)
            sub = Subspace(4, raw.submatrix_columns([0]))
            comp = choose_complement(ambient, sub)
            assert comp.dim == 2
            assert Mat.hstack([sub.basis, comp.basis]).rank() == 3

    def test_given_complement_validated(self):
        ambient = Subspace.full(2)
        sub = spanned_by([(1, 0)], 2)
        good = choose_complement(ambient, sub, given=Mat([[0], [1]]))
        assert same_space(good, spanned_by([(0, 1)], 2))
        with pytest.raises(ValueError):
            choose_complement(ambient, sub, given=Mat([[1], [0]]))
        with pytest.raises(ValueError):
            choose_complement(ambient, sub, given=Mat([[1, 0], [0, 1]]))


class TestProjectionMatrix:
    def test_golden_stage_two_projection(self):
        parts = [
            spanned_by([e(1)], 3),
            spanned_by([e(3)], 3),
            spanned_by([e(2)], 3),
        ]
        p2 = projection_matrix(parts, 1)
        assert p2 == cols(ZERO3, ZERO3, e(3))

    def test_single_part_is_identity(self):
        assert projection_matrix([Subspace.full(3)], 0) == Mat.identity(3)

    def test_orthogonal_split_matches_gram_oracle(self):
        rng = random.Random(33)
        for _ in range(15):
            raw = random_matrix(rng, 4, 2, density=0.8)
            if raw.rank() != 2:
                continue
            part = Subspace(4, raw)
            ortho = Subspace(4, transpose(raw).nullspace())
            p = projection_matrix([part, ortho], 0)
            # Orthogonal projection via normal equations: U (U^T U)^-1 U^T.
            gram = raw @ (transpose(raw) @ raw).inverse() @ transpose(raw)
            assert p == gram

    def test_idempotent_and_annihilating(self):
        rng = random.Random(34)
        for _ in range(15):
            full = random_matrix(rng, 4, 4)
            if full.det() == 0:
                continue
            parts = [
                Subspace(4, full.submatrix_columns([0])),
                Subspace(4, full.submatrix_columns([1, 2])),
                Subspace(4, full.submatrix_columns([3])),
            ]
            p = projection_matrix(parts, 1)
            assert p @ p == p
            assert (p @ parts[0].basis).is_zero()
            assert p @ parts[1].basis == parts[1].basis
            assert (p @ parts[2].basis).is_zero()

    def test_rejects_non_decomposition(self):
        with pytest.raises(ValueError):
            projection_matrix([spanned_by([e(1)], 3)], 0)


def random_split(rng: random.Random, n: int, dim: int, sub: int):
    """An invertible n x n matrix, the span of its first ``dim`` columns and
    a random ``sub``-dimensional subspace of that span."""
    full = random_invertible(rng, n)
    ambient = Subspace(n, full.submatrix_columns(range(dim)))
    part = image(ambient.basis @ random_matrix(rng, dim, sub))
    return full, ambient, part


class TestComplementCoordinates:
    """Rc and W = C q from one rref of [part | B | q], C the part coordinates
    on part ⊕ Rc, with B the ambient basis or a given complement basis."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.integers(0, 2**16))
    def test_part_rows_of_the_coordinates(self, n, split, width, seed):
        # q = [part | rest] X with X of full row rank, so W is X's part rows.
        rng = random.Random(seed)
        full = random_invertible(rng, n)
        a = min(split, n)
        part = Subspace(n, full.submatrix_columns(range(a)))
        rest = full.submatrix_columns(range(a, n))
        x = Mat.hstack([random_invertible(rng, n), random_matrix(rng, n, width, span=3)])
        comp, w = complement_coordinates(part, Subspace.full(n), full @ x, rest)
        assert comp.basis == rest and w == x.submatrix_rows(range(a))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**16))
    def test_column_outside_the_ambient_raises(self, n, split, at, seed):
        # The ambient space misses the last column of an invertible matrix.
        rng = random.Random(seed)
        full = random_invertible(rng, n)
        a = min(split, n - 1)
        ambient = Subspace(n, full.submatrix_columns(range(n - 1)))
        part = Subspace(n, full.submatrix_columns(range(a)))
        rest = full.submatrix_columns(range(a, n - 1))
        inside = ambient.basis @ Mat.hstack(
            [random_invertible(rng, n - 1), random_matrix(rng, n - 1, 2)]
        )
        columns = [inside.submatrix_columns([j]) for j in range(inside.cols)]
        columns.insert(at, inside.submatrix_columns([0]) + full.submatrix_columns([n - 1]))
        for given_rc in (None, rest):
            comp, w = complement_coordinates(part, ambient, inside, given_rc)
            assert comp.contains(inside - part.basis @ w)
            with pytest.raises(ValueError):
                complement_coordinates(part, ambient, Mat.hstack(columns), given_rc)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**16))
    def test_pivot_complement_is_choose_complement(self, n, dim, sub, seed):
        rng = random.Random(seed)
        dim = min(dim, n)
        full, ambient, part = random_split(rng, n, dim, min(sub, dim))
        q = ambient.basis @ Mat.hstack([random_invertible(rng, dim), random_matrix(rng, dim, 2)])
        comp, w = complement_coordinates(part, ambient, q)
        assert comp.basis == choose_complement(ambient, part).basis
        assert comp.contains(q - part.basis @ w)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 5), st.integers(0, 5), st.integers(0, 5), st.integers(-1, 1),
        st.booleans(), st.integers(0, 2**16),
    )
    def test_accepts_a_given_basis_exactly_when_choose_complement_does(
        self, n, dim, sub, extra, leave, seed
    ):
        # The candidate is ambient vectors, as many as the complement needs
        # give or take one, plus a vector outside the ambient space or not.
        rng = random.Random(seed)
        dim = min(dim, n)
        full, ambient, part = random_split(rng, n, dim, min(sub, dim))
        count = max(dim - part.dim + extra, 0)
        candidate = ambient.basis @ random_matrix(rng, dim, count, density=0.8)
        if leave and count and dim < n:
            candidate = candidate + full.submatrix_columns([n - 1]) @ random_matrix(rng, 1, count)
        q = ambient.basis @ random_invertible(rng, dim)
        try:
            reference = choose_complement(ambient, part, candidate)
        except ValueError:
            with pytest.raises(ValueError):
                complement_coordinates(part, ambient, q, candidate)
        else:
            comp, w = complement_coordinates(part, ambient, q, candidate)
            assert comp.basis == reference.basis == candidate
            assert comp.contains(q - part.basis @ w)


class TestRestrictedInverse:
    def test_golden_first_stage(self):
        s1 = cols(e(1), ZERO3, ZERO3)
        nc = spanned_by([e(1)], 3)
        r = spanned_by([e(1)], 3)
        rc = spanned_by([e(2), e(3)], 3)
        splus = restricted_inverse(s1, nc, projection_matrix([r, rc], 0))
        assert splus == cols(e(1), ZERO3, ZERO3)

    def test_invertible_full_space(self):
        rng = random.Random(35)
        m = random_matrix(rng, 3, 3)
        while m.det() == 0:
            m = random_matrix(rng, 3, 3)
        calp = projection_matrix([Subspace.full(3)], 0)
        splus = restricted_inverse(m, Subspace.full(3), calp)
        assert splus == m.inverse()

    def test_degenerate_zero_subspace(self):
        s3 = Mat.zeros(3, 3)
        nc = Subspace.zero(3)
        r = Subspace.zero(3)
        parts = [
            spanned_by([e(1)], 3),
            spanned_by([e(2)], 3),
            r,
            spanned_by([e(3)], 3),
        ]
        assert restricted_inverse(s3, nc, projection_matrix(parts, 2)) == Mat.zeros(3, 3)

    def test_inverse_property_on_random_splits(self):
        rng = random.Random(36)
        for _ in range(15):
            s = random_matrix(rng, 4, 4, density=0.6)
            nc_raw = random_matrix(rng, 4, 2, density=0.8)
            if nc_raw.rank() != 2 or (s @ nc_raw).rank() != 2:
                continue
            nc = Subspace(4, nc_raw)
            r = image(s @ nc_raw)
            rc = choose_complement(Subspace.full(4), r)
            splus = restricted_inverse(s, nc, projection_matrix([r, rc], 0))
            assert splus @ (s @ nc.basis) == nc.basis
            assert (splus @ rc.basis).is_zero()
            assert same_space(image(splus), nc)

    def test_rejects_non_injective(self):
        s = Mat.zeros(3, 3)
        nc = spanned_by([e(1)], 3)
        with pytest.raises(ValueError, match="not injective"):
            calp = projection_matrix([Subspace.zero(3), Subspace.full(3)], 0)
            restricted_inverse(s, nc, calp)

    def test_rejects_projection_onto_another_range(self):
        # s(nc) = sp(e1), but calp projects onto sp(e2).
        nc = spanned_by([e(1)], 3)
        parts = [spanned_by([v], 3) for v in (e(2), e(1), e(3))]
        with pytest.raises(ValueError, match="differs from the stated range"):
            restricted_inverse(Mat.identity(3), nc, projection_matrix(parts, 0))

    def test_rejects_zero_projection_for_nonzero_subspace(self):
        nc = spanned_by([e(1)], 3)
        with pytest.raises(ValueError, match="differs from the stated range"):
            restricted_inverse(Mat.identity(3), nc, Mat.zeros(3, 3))
