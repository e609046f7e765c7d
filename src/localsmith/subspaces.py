"""Subspaces as basis matrices, direct-sum splits and projections.

These are the building blocks the stage recursion consumes: splitting a
kernel chain under a map (``restrict_and_split``), and picking or checking
a codomain complement while reading the coordinates of a projector's
columns off the same rref (``complement_coordinates``). ``choose_complement``,
``projection_matrix`` and ``restricted_inverse`` are kept as the reference
formulas, by rank tests, a basis inverse and a solve, that the engine's
complements, calP and S^+, and the diagonalization's P, are tested
against. Zero-dimensional subspaces are first-class throughout; callers
never special-case them.

A ``Subspace`` tests its basis by a rank unless it is built ``trusted``:
the bases independent by construction are. They are the identity and
empty bases, rref pivot columns, an independent basis times nullspace
columns, and pivot subsets of an independent basis. Every basis a caller
passes in keeps the test, and every basis keeps its shape check.
"""

from __future__ import annotations

from typing import Sequence

from .matrix import Mat


class Subspace:
    """A subspace of K^n given by an independent-column basis matrix;
    ``trusted`` skips the rank test (see the module docstring). It is
    immutable, and two are equal when their bases are."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Mat, trusted: bool = False):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        # A method of its own: the benchmark's tracer wraps it by name.
        self.__post_init__(trusted)

    def __post_init__(self, trusted: bool):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis has the wrong ambient dimension")
        if not trusted and self.basis.cols and self.basis.rank() != self.basis.cols:
            raise ValueError("basis columns are linearly dependent")

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not Subspace:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Mat.zeros(ambient_dim, 0), trusted=True)

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Mat.identity(ambient_dim), trusted=True)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains(self, vectors: Mat) -> bool:
        """Whether every column of ``vectors`` lies in the subspace, for any
        number of columns, such as another subspace's basis."""
        if vectors.rows != self.ambient_dim:
            raise ValueError("vectors have the wrong ambient dimension")
        return vectors.is_zero() or Mat.hstack([self.basis, vectors]).rank() == self.dim

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


def image(m: Mat) -> Subspace:
    """The column space of m, spanned by its pivot columns (deterministic).

    The pivot columns are the greedy choice in index order: column j is kept
    exactly when it is independent of the columns before it.
    """
    _, pivots = m.rref()
    return Subspace(m.rows, m.submatrix_columns(pivots), trusted=True)


def restrict_and_split(s: Mat, domain: Subspace) -> tuple[Subspace, Subspace, Subspace]:
    """Kernel, range and pivot complement of ``s`` restricted to ``domain``.

    Returns (N, R, Nc): N = {x in domain : s x = 0} in ambient coordinates,
    R = s(domain), and Nc the domain basis columns at the pivots of
    s @ basis(domain), which is ``choose_complement(domain, N)``: a column
    is independent modulo N and the columns before it exactly when its image
    is independent of theirs. So basis(R) = s @ basis(Nc), column for column.
    """
    if s.cols != domain.ambient_dim:
        raise ValueError("map and domain ambient dimension differ")
    mapped = s @ domain.basis
    if mapped.is_zero():
        return domain, Subspace.zero(s.rows), Subspace.zero(domain.ambient_dim)
    _, pivots = mapped.rref()
    kernel = Subspace(domain.ambient_dim, domain.basis @ mapped.nullspace(), trusted=True)
    complement = Subspace(domain.ambient_dim, domain.basis.submatrix_columns(pivots), trusted=True)
    return kernel, image(mapped), complement


def choose_complement(
    ambient: Subspace, sub: Subspace, given: Mat | None = None
) -> Subspace:
    """A complement of ``sub`` inside ``ambient``: ambient = comp ⊕ sub.

    Default strategy extends sub's basis greedily by ambient basis columns in
    index order: the pivot columns of [sub | ambient] past sub's own, which
    makes every run reproducible. Passing ``given`` validates the supplied
    basis instead and uses it verbatim.
    """
    if ambient.ambient_dim != sub.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    # sub + ambient has ambient's dimension exactly when sub lies in ambient.
    _, pivots = Mat.hstack([sub.basis, ambient.basis]).rref()
    if len(pivots) != ambient.dim:
        raise ValueError("sub is not contained in ambient")
    want = ambient.dim - sub.dim
    if given is not None:
        comp = Subspace(ambient.ambient_dim, given)
        if comp.dim != want:
            raise ValueError(
                f"given complement has dimension {comp.dim}, need {want}"
            )
        if not ambient.contains(comp.basis):
            raise ValueError("given complement is not contained in ambient")
        if want and Mat.hstack([sub.basis, comp.basis]).rank() != ambient.dim:
            raise ValueError("given basis does not complement the subspace")
        return comp
    chosen = [p - sub.dim for p in pivots if p >= sub.dim]
    return Subspace(ambient.ambient_dim, ambient.basis.submatrix_columns(chosen))


def projection_matrix(parts: Sequence[Subspace], target: int) -> Mat:
    """The projection onto ``parts[target]`` along the remaining parts.

    The parts must decompose the full ambient space; the projection is
    basis(parts[target]) times the ``parts[target]`` rows of the inverse of
    [basis(part) for part in parts], a full ambient-space matrix.
    """
    try:
        inv = Mat.hstack([p.basis for p in parts]).inverse()
    except ValueError as exc:
        raise ValueError("parts do not decompose the ambient space") from exc
    offset = sum(p.dim for p in parts[:target])
    return parts[target].basis @ inv.submatrix_rows(range(offset, offset + parts[target].dim))


def complement_coordinates(
    part: Subspace, ambient: Subspace, q: Mat, given: Mat | None = None
) -> tuple[Subspace, Mat]:
    """A complement C of ``part`` in ``ambient``, and W, the ``part`` rows of
    the coordinates on part ⊕ C of q, whose columns must span ``ambient``.

    Both come from one rref of [basis(part) | B | q]. B is basis(ambient),
    and C its columns at the pivots past part's, which ``choose_complement``
    picks; or B is ``given``, valid exactly when the pivots are the
    part.dim + B.cols columns of part and B and number ambient.dim. No
    block is reduced twice: when q is B, [basis(part) | B] is reduced and W
    read off B's block; when part fills ambient and no B is given, B adds
    no pivot, C is zero and [basis(part) | q] is reduced. q's columns span
    ambient, so the test of the pivots is the same.
    """
    b = ambient.basis if given is None else given
    if given is None and part.dim == ambient.dim:
        b = Mat.zeros(ambient.ambient_dim, 0)
    lead = part.dim + b.cols
    blocks = [part.basis, b] if q is b else [part.basis, b, q]
    reduced, pivots = Mat.hstack(blocks).rref()
    valid = len(pivots) == ambient.dim and all(p < lead for p in pivots)
    if not valid or (given is not None and lead != ambient.dim):
        raise ValueError("the basis does not complement part in ambient")
    start = part.dim if q is b else lead
    w = reduced.submatrix_rows(range(part.dim)).submatrix_columns(range(start, start + q.cols))
    chosen = [p - part.dim for p in pivots[part.dim :]]
    return Subspace(ambient.ambient_dim, b.submatrix_columns(chosen), trusted=True), w


def restricted_inverse(s: Mat, nc: Subspace, calp: Mat) -> Mat:
    """Full-space matrix of the inverse of ``s`` restricted to nc -> R.

    ``calp`` is the projection onto R = s(nc) along the other codomain parts,
    so the result is S^+ = (s|nc)^{-1} calP: T (s x) = x for x in nc, T y = 0
    for y in every other part, range(T) = nc. With B = nc's basis and s B
    injective, T = B Y for the unique Y with (s B) Y = calp.

    Kept as the reference that the engine's S^+ = B W is tested against,
    with W from ``complement_coordinates`` the R coordinates of the codomain
    complement projector Qc, and for the benchmark's tracer, which wraps it.
    """
    if s.cols != nc.ambient_dim or calp.rows != s.rows or calp.cols != s.rows:
        raise ValueError("shape mismatch")
    mapped = s @ nc.basis
    if mapped.rank() != nc.dim:
        raise ValueError("map is not injective on the given subspace")
    y = mapped.solve(calp)
    if y is None or calp.rank() != nc.dim:
        raise ValueError("image of the subspace differs from the stated range")
    return nc.basis @ y
