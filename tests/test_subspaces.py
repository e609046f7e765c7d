"""Subspace splits, complements, projections, restricted inverses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsmith import (
    Mat,
    Subspace,
    choose_complement,
    image,
    kernel_basis,
    projection_matrix,
    restrict_and_split,
    restricted_inverse,
)

from localsmith.subspaces import coordinate_rows

from conftest import ZERO3, cols, e, random_invertible, random_matrix


def minor_rank_of_images(s: Mat, basis: Mat) -> int:
    """Dimension of s(span basis) by direct enumeration of basis images."""
    images = s @ basis
    return images.rank()


class TestKernelBasis:
    def test_golden_leading_coefficient(self):
        l0 = cols(e(1), ZERO3, ZERO3)
        ker = kernel_basis(l0)
        assert ker.same_space(Subspace.spanned_by([e(2), e(3)], 3))

    def test_identity_has_zero_kernel(self):
        assert kernel_basis(Mat.identity(4)).dim == 0

    def test_zero_map_has_full_kernel(self):
        ker = kernel_basis(Mat.zeros(2, 3))
        assert ker.same_space(Subspace.full(3))


class TestRestrictAndSplit:
    def test_golden_second_stage(self):
        s2 = cols(ZERO3, ZERO3, e(2))
        domain = Subspace.spanned_by([e(2), e(3)], 3)
        n, r, _ = restrict_and_split(s2, domain)
        assert n.same_space(Subspace.spanned_by([e(2)], 3))
        assert r.same_space(Subspace.spanned_by([e(2)], 3))

    def test_zero_map_keeps_domain(self):
        domain = Subspace.spanned_by([e(1), e(3)], 3)
        n, r, nc = restrict_and_split(Mat.zeros(3, 3), domain)
        assert n.same_space(domain)
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
                assert domain.contains(n.basis.column(j))


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
        ambient = Subspace.spanned_by([e(2), e(3)], 3)
        sub = Subspace.spanned_by([e(2)], 3)
        comp = choose_complement(ambient, sub)
        assert comp.same_space(Subspace.spanned_by([e(3)], 3))

    def test_full_sub_gives_zero(self):
        ambient = Subspace.full(3)
        assert choose_complement(ambient, ambient).dim == 0

    def test_zero_sub_gives_ambient(self):
        ambient = Subspace.spanned_by([e(1), e(2)], 3)
        comp = choose_complement(ambient, Subspace.zero(3))
        assert comp.same_space(ambient)

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
        sub = Subspace.spanned_by([(1, 0)], 2)
        good = choose_complement(ambient, sub, given=Mat([[0], [1]]))
        assert good.same_space(Subspace.spanned_by([(0, 1)], 2))
        with pytest.raises(ValueError):
            choose_complement(ambient, sub, given=Mat([[1], [0]]))
        with pytest.raises(ValueError):
            choose_complement(ambient, sub, given=Mat([[1, 0], [0, 1]]))


class TestProjectionMatrix:
    def test_golden_stage_two_projection(self):
        parts = [
            Subspace.spanned_by([e(1)], 3),
            Subspace.spanned_by([e(3)], 3),
            Subspace.spanned_by([e(2)], 3),
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
            ortho = Subspace(4, raw.transpose().nullspace())
            p = projection_matrix([part, ortho], 0)
            # Orthogonal projection via normal equations: U (U^T U)^-1 U^T.
            gram = raw @ (raw.transpose() @ raw).inverse() @ raw.transpose()
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
            projection_matrix([Subspace.spanned_by([e(1)], 3)], 0)


class TestCoordinateRows:
    """W = C q from one rref of [part | rest | q], C the part coordinates."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.integers(0, 2**16))
    def test_part_rows_of_the_inverse_times_q(self, n, split, width, seed):
        rng = random.Random(seed)
        full = random_invertible(rng, n)
        a = min(split, n)
        part = Subspace(n, full.submatrix_columns(range(a)))
        rest = Subspace(n, full.submatrix_columns(range(a, n)))
        q = random_matrix(rng, n, width, span=3)
        assert coordinate_rows(part, rest, q) == full.inverse().submatrix_rows(range(a)) @ q

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**16))
    def test_column_outside_the_sum_raises(self, n, split, at, seed):
        # part ⊕ rest misses the last column of an invertible matrix.
        rng = random.Random(seed)
        full = random_invertible(rng, n)
        a = min(split, n - 1)
        part = Subspace(n, full.submatrix_columns(range(a)))
        rest = Subspace(n, full.submatrix_columns(range(a, n - 1)))
        inside = full.submatrix_columns(range(n - 1)) @ random_matrix(rng, n - 1, 2)
        w = coordinate_rows(part, rest, inside)
        assert rest.contains_subspace(image(inside - part.basis @ w))
        outside = inside.column(0) + full.column(n - 1)
        columns = [inside.column(0), inside.column(1)]
        columns.insert(at, outside)
        with pytest.raises(ValueError):
            coordinate_rows(part, rest, Mat.hstack(columns))


class TestRestrictedInverse:
    def test_golden_first_stage(self):
        s1 = cols(e(1), ZERO3, ZERO3)
        nc = Subspace.spanned_by([e(1)], 3)
        r = Subspace.spanned_by([e(1)], 3)
        rc = Subspace.spanned_by([e(2), e(3)], 3)
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
            Subspace.spanned_by([e(1)], 3),
            Subspace.spanned_by([e(2)], 3),
            r,
            Subspace.spanned_by([e(3)], 3),
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
            assert image(splus).same_space(nc)

    def test_rejects_non_injective(self):
        s = Mat.zeros(3, 3)
        nc = Subspace.spanned_by([e(1)], 3)
        with pytest.raises(ValueError, match="not injective"):
            calp = projection_matrix([Subspace.zero(3), Subspace.full(3)], 0)
            restricted_inverse(s, nc, calp)

    def test_rejects_projection_onto_another_range(self):
        # s(nc) = sp(e1), but calp projects onto sp(e2).
        nc = Subspace.spanned_by([e(1)], 3)
        parts = [Subspace.spanned_by([v], 3) for v in (e(2), e(1), e(3))]
        with pytest.raises(ValueError, match="differs from the stated range"):
            restricted_inverse(Mat.identity(3), nc, projection_matrix(parts, 0))

    def test_rejects_zero_projection_for_nonzero_subspace(self):
        nc = Subspace.spanned_by([e(1)], 3)
        with pytest.raises(ValueError, match="differs from the stated range"):
            restricted_inverse(Mat.identity(3), nc, Mat.zeros(3, 3))
