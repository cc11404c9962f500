"""The exact simply supported spectrum on the uniform mesh, from its Fourier
symbol.  capacitance.py takes the clamped counts and eigenpairs from it.

On n cells per axis of the unit box, the simply supported Morley pencil
splits into one small pencil per sine wave vector p in {0..n}^dim (local
Fourier analysis; Brandt, Math. Comp. 31, 1977).  A DOF family is the
vertices, or the facets normal to one axis a; at doubled coordinate X its
amplitude is prod_b trig(p_b pi X_b / 2n), with cos on the family's own
normal axis and sin on the others.  The vertex family exists when every p_b
is in 1..n-1, the facets normal to a when every other p_b is in 1..n; these
(p, family) pairs number the free DOFs.  The span of one p's families is
invariant under the pencil, so its Galerkin pencil, of order at most dim+1,
holds that p's share of the spectrum, and its eigenvectors weight the
families of the global ones (modes).  Each mid-plane reflection maps a sine
of odd p_a onto itself, so p lies in the parity block whose letter on axis
a is 'e' exactly when p_a is odd.  An axis permutation maps the pencil of p
onto that of p sorted, its facet families permuted alike, so block_spectra
solves one pencil per orbit of the permutations, and the mirror copies of
an eigenvalue are bit-identical.

The Galerkin pencil is a sum over the cells, and each cell's share is the
element matrices applied to the family amplitudes at the cell's DOFs.
Split at the cell center phase phi_a, every amplitude is sin(phi_a) times
one local factor plus cos(phi_a) times another; the cell sums of the phase
products are closed forms (n/2 for a matched pair, 0 otherwise, apart from
p_a = 0 or n).  So the pencil is a sum over the 2^dim phase patterns of
small fixed matrices, read once from assembly.element_matrices, weighted by
products of sin and cos of theta_a = p_a pi / 2n.

Cancellation: the smallest eigenvalue of a small wave vector is about
theta^4 times the size of the stiffness entries, so the plain sum loses
about eps (n / pi)^4 relative to it.  The pencil is therefore written in the
basis whose first vector, the wave direction, is the vertex family plus
sin(theta_a) times each facet family (in reference DOF units).  On every
cell, each phase part of that vector is the DOFs of an affine function,
which the stiffness matrix annihilates, plus a remainder of order theta^2
made of products of sin(theta_a), cos(theta_a) and cos(theta_a) - 1 =
-2 sin^2(theta_a / 2), free of cancellation.  The stiffness entries of the
wave direction are taken from the remainder alone, so every entry keeps its
relative accuracy.  The smallest eigenvalue of each pencil is the Rayleigh
quotient of its computed eigenvector, as the reduced standard problem holds
it only to the size of its largest entries.  Nothing depends on extended
precision: at 2D n=1024 the eigenvalues agree with a 60-digit evaluation of
the same sums to 3e-15 relative.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .assembly import element_matrices
from .element import build_reference_element, reference_corners

# The method of a result whose pairs come from the symbol, with no solve.
METHOD_SYMBOL = "symbol"


def _single(dim: int, axis: int) -> int:
    """The index of the phase pattern with the cos part on `axis` alone."""
    return 1 << (dim - 1 - axis)


@lru_cache(maxsize=None)
def _phase_matrices(dim: int) -> np.ndarray:
    """Per phase pattern omega, the stiffness and the mass matrix on the
    local patterns of that part, shape (2, 2^dim, dim+1, dim+1), in
    reference DOF units (a cell of half-width 1), whose facet DOFs point
    along +axis as the global ones do.

    The patterns omega are the 2^dim bit tuples in C order; bit a set takes
    the cos(phi_a) part of axis a.  Pattern 0 is the vertex values, the
    product of the corner coordinates on the axes of omega.  Pattern 1+a is
    the facets normal to a: -side where omega is empty (the derivative of
    cos), 1 where omega is {a} (that of sin), absent otherwise.
    """
    element = build_reference_element(dim)
    corners = reference_corners(dim)
    patterns = np.zeros((2 ** dim, element.ndof, dim + 1))
    for index, omega in enumerate(itertools.product((0, 1), repeat=dim)):
        patterns[index, :2 ** dim, 0] = np.prod(np.where(omega, corners, 1.0), axis=1)
    for a in range(dim):
        facets = slice(2 ** dim + 2 * a, 2 ** dim + 2 * a + 2)
        patterns[0, facets, 1 + a] = (1.0, -1.0)
        patterns[_single(dim, a), facets, 1 + a] = 1.0
    out = np.einsum("wia,xij,wjb->xwab", patterns, element_matrices(element, 1.0), patterns)
    out.flags.writeable = False
    return out


def _pencils(dim: int, n: int, waves: np.ndarray):
    """The Galerkin pencils of the wave vectors `waves` (shape (N, dim), each
    p_a in 0..n) in the basis (wave direction, facet families): shape (2, N,
    dim+1, dim+1) for the stiffness and the mass; and the mask of existing
    families, shape (N, dim+1)."""
    count = len(waves)
    p = np.arange(n + 1)
    sin = np.sin(p * (np.pi / (2 * n)))
    cos = sin[::-1]  # sin(pi/2 - theta): exactly 0 at p = n
    cos_m1 = -2.0 * np.sin(p * (np.pi / (4 * n))) ** 2
    # The cell sums of sin^2(phi) and cos^2(phi), over n / 2.
    weight_s, weight_c = np.ones(n + 1), np.ones(n + 1)
    weight_s[[0, n]], weight_c[[0, n]] = (0.0, 2.0), (2.0, 0.0)
    tables = np.array([weight_s, weight_c, cos, sin,
                       cos, sin, cos_m1, sin * sin, sin * cos, sin * cos_m1])
    # Per axis a, the tables at the waves' p_a; the first four also on phase
    # axis a (weights, then vertex factors, for the sin and the cos part).
    chosen = [tables[:, numbers] for numbers in waves.T]
    phases = [rows[:4].reshape([2] + [2 if b == a else 1 for b in range(dim)] + [count])
              for a, rows in enumerate(chosen)]
    cos, sin, cos_m1, sin_sin, sin_cos, sin_cos_m1 = zip(*(rows[4:] for rows in chosen))

    def cos_product_minus_one(axes):
        """prod_{a in axes} cos(theta_a) - 1, term by term with one sign."""
        first, *rest = axes
        total, head = cos_m1[first], cos[first]
        for a in rest:
            total = total + head * cos_m1[a]
            head = head * cos[a]
        return total

    w, vertex = math.prod(phases).reshape(2, 2 ** dim, count)
    # Coefficients of the wave direction on each phase's patterns: the part
    # above the affine one (constant, or sin(theta_a) times the reference
    # coordinate), which the stiffness annihilates, for the stiffness; the
    # full values for the mass.
    coeff = np.zeros((2, 2 ** dim, dim + 1, count))
    coeff[:, :, 0] = vertex
    coeff[0, 0, 0] = cos_product_minus_one(range(dim))
    singles = [_single(dim, a) for a in range(dim)]
    for a, single in enumerate(singles):
        coeff[:, 0, 1 + a] = sin_sin[a]
        coeff[0, single, 1 + a] = sin_cos_m1[a]
        coeff[1, single, 1 + a] = sin_cos[a]
        coeff[0, single, 0] = sin[a] * cos_product_minus_one(
            [b for b in range(dim) if b != a])

    mats = _phase_matrices(dim)
    applied = mats @ coeff
    # The facet family of axis a has a part in phase 0, sin(theta_a), and
    # one in the phase of axis a alone, cos(theta_a).
    axes = np.arange(dim)
    sines, cosines = np.array(sin), np.array(cos)
    sin_w, cos_w = w[0] * sines, w[singles] * cosines
    # Stored wave vector first, written through a view with the entry first.
    stored = np.empty((2, count, dim + 1, dim + 1))
    pencils = stored.transpose(0, 2, 3, 1)
    pencils[:, 0, 0] = np.einsum("wp,xwip,xwip->xp", w, coeff, applied)
    pencils[:, 0, 1:] = sin_w * applied[:, 0, 1:] + cos_w * applied[:, singles, 1 + axes]
    pencils[:, 1:, 0] = pencils[:, 0, 1:]
    pencils[:, 1:, 1:] = sin_w[:, None] * sines * mats[:, 0, 1:, 1:, None]
    pencils[:, 1 + axes, 1 + axes] += cos_w * cosines * mats[:, singles, 1 + axes, 1 + axes, None]

    # The vertex family exists where every p_a is in 1..n-1, where both cell
    # sums are positive on every axis; the facets normal to a where every
    # other p_b > 0, and as w_s + w_c = 2 on each axis, w[0] + w[{a}] is
    # twice the product of the other axes' w_s.
    exists = np.empty((count, dim + 1), dtype=bool)
    exists[:, 0] = w[0] * w[-1] > 0
    exists[:, 1:] = (w[0] + w[singles] > 0).T
    return stored, exists


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """The inverses of a stack of lower triangular matrices, by forward
    substitution one row at a time."""
    inverse = np.zeros_like(lower)
    recip = 1.0 / np.diagonal(lower, axis1=-2, axis2=-1)
    inverse[:, 0, 0] = recip[:, 0]
    for i in range(1, lower.shape[-1]):
        inverse[:, i, :i] = -recip[:, i, None] * (lower[:, i, None, :i] @ inverse[:, :i, :i])[:, 0]
        inverse[:, i, i] = recip[:, i]
    return inverse


def _eigenpairs(pencils, exists):
    """Ascending eigenvalues of each pencil, shape (N, dim+1), with a
    negative value in the slot of each absent family, and their eigenvectors
    in the columns, orthonormal in the pencil's mass, shape (N, dim+1, dim+1)."""
    # An absent family's row and column become -1 on the diagonal of the
    # stiffness and 1 on that of the mass: a spurious eigenvalue -1.
    pencils *= exists[:, :, None] & exists[:, None, :]
    diag = np.arange(pencils.shape[-1])
    pencils[:, :, diag, diag] += np.array([[-1.0], [1.0]])[:, :, None] * ~exists
    a_mat, m_mat = pencils
    inv_chol = _lower_inverse(np.linalg.cholesky(m_mat))
    values, vectors = np.linalg.eigh(inv_chol @ a_mat @ np.swapaxes(inv_chol, -1, -2))
    vectors = np.einsum("pji,pjk->pik", inv_chol, vectors)
    # The smallest from the Rayleigh quotient of its eigenvector: the reduced
    # matrix holds it only to the size of its largest entries.
    x = vectors[:, :, 0]
    values[:, 0] = np.divide(*np.einsum("pi,xpij,pj->xp", x, pencils, x))
    return values, vectors


def _ascending(n: int, waves, values, vectors) -> tuple:
    """The eigenpairs of _eigenpairs of the pencils of `waves`, scaled to the
    unit box and ascending, past the negative values of the absent families."""
    # Reference units: eigenvalues scale with the cell half-width ** -4.
    values = values * (2.0 * n) ** 4
    ascending = np.argsort(values, axis=None, kind="stable")[np.count_nonzero(values < 0):]
    wave, slot = np.unravel_index(ascending, values.shape)
    return values[wave, slot], waves[wave], vectors[wave, :, slot]


def wave_spectra(dim: int, n: int, waves) -> tuple:
    """The discrete simply supported eigenpairs of the unit box with n cells
    per axis that belong to the wave vectors `waves` (dim-tuples of p in
    0..n), with no assembly: the ascending eigenvalues, shape (m,), each
    one's wave vector p, shape (m, dim), and its eigenvector of p's pencil
    in the basis (wave direction, facet families), shape (m, dim+1).
    """
    waves = np.asarray(waves).reshape(-1, dim)
    return _ascending(n, waves, *_eigenpairs(*_pencils(dim, n, waves)))


def block_spectra(dim: int, n: int, parities) -> dict:
    """wave_spectra of each parity block in `parities` (one letter per axis,
    'e' exactly when p_a is odd, else 'o'; None for the full box), from one
    batch of pencils, one per orbit of the axis permutations: only the
    sorted wave vectors are solved.  Each wave takes its orbit's eigenvalues,
    bit for bit, and its orbit's eigenvectors with the row of the facets
    normal to axis a taken from row 1 + the rank of p_a in p (ties in
    stable order)."""
    p = np.arange(n + 1)
    blocks = []
    for parity in parities:
        letters = parity or "*" * dim
        numbers = [p if letter == "*" else p[(letter == "e")::2] for letter in letters]
        blocks.append(np.stack(np.meshgrid(*numbers, indexing="ij"), axis=-1).reshape(-1, dim))
    waves = np.concatenate(blocks)
    order = np.argsort(waves, axis=1, kind="stable")
    rows = np.zeros((len(waves), dim + 1), dtype=np.intp)
    np.put_along_axis(rows[:, 1:], order, np.arange(1, dim + 1), axis=1)
    ordered = np.take_along_axis(waves, order, axis=1)
    _, first, orbit = np.unique(ordered @ (n + 1) ** np.arange(dim), return_index=True,
                                return_inverse=True)
    values, vectors = _eigenpairs(*_pencils(dim, n, ordered[first]))
    values, vectors = values[orbit], vectors[orbit[:, None], rows]
    bounds = np.cumsum([0] + [len(block) for block in blocks])
    return {parity: _ascending(n, block, values[start:stop], vectors[start:stop])
            for parity, block, start, stop in zip(parities, blocks, bounds, bounds[1:])}


def modes(coords: np.ndarray, n: int, waves: np.ndarray, vectors: np.ndarray,
          coefficients: np.ndarray) -> np.ndarray:
    """The sums over j of coefficients[j, i] times the eigenvector of the
    pair (waves[j], vectors[j]) of block_spectra, at the DOFs of doubled
    coordinates `coords` (assembly.dof_coordinates): shape (len(coords),
    coefficients.shape[1]).  With identity coefficients these are the
    eigenvectors themselves, M-orthonormal on the full box.

    On each DOF family an eigenvector is the family amplitude times a
    weight: z_0 (vertices) and 2n (z_0 sin(theta_a) + z_{1+a}) (facets
    normal to a, in physical units), times 2^dim, as the pencil's mass is
    4^dim times the box's (cell sums over n / 2, half-width 1).  The
    amplitude is a product of one trig factor per axis, so each family's
    sum is separable: the weighted coefficients are summed per wave vector
    on the grid {0..n}^dim, and one table of the factor (wave numbers by
    doubled coordinates) is contracted per axis.  When the modes in use
    times the DOFs are fewer than the grid's points, their amplitudes are
    evaluated at the DOFs instead, mode by mode.
    """
    dim = coords.shape[1]
    even = coords % 2 == 0
    family = np.where(even.all(axis=1), 0, 1 + np.argmax(even, axis=1))
    used = np.flatnonzero(np.any(coefficients, axis=1))
    waves, vectors, coefficients = waves[used], vectors[used], coefficients[used]
    sines = np.sin(waves * (np.pi / (2 * n)))
    weights = np.column_stack([vectors[:, 0], 2 * n * (vectors[:, :1] * sines + vectors[:, 1:])])
    # cos(x) = sin(x + pi / 2) on a facet's normal axis; the angles are
    # reduced in integers, to [0, 2 pi).
    if len(used) * len(coords) <= (n + 1) ** dim:
        normal = even & (family > 0)[:, None]
        angles = (coords[:, None, :] * waves + n * normal[:, None, :]) % (4 * n)
        amplitudes = np.sin(angles * (np.pi / (2 * n))).prod(axis=2)
        return 2 ** dim * (amplitudes * weights[:, family].T) @ coefficients
    grid = waves @ (n + 1) ** np.arange(dim - 1, -1, -1)
    angles = np.arange(n + 1)[:, None] * np.arange(coords.max(initial=0) + 1)
    tables = [np.sin((angles + n * cos) % (4 * n) * (np.pi / (2 * n))) for cos in (0, 1)]
    shape = (n + 1,) * dim + (coefficients.shape[1],)
    out = np.empty((len(coords), coefficients.shape[1]))
    for f in np.unique(family):
        mine = family == f
        total = np.zeros(((n + 1) ** dim, coefficients.shape[1]))
        np.add.at(total, grid, weights[:, f, None] * coefficients)
        total = total.reshape(shape)
        for b in range(dim):
            total = np.tensordot(total, tables[int(b == f - 1)], axes=(0, 0))
        out[mine] = total[(slice(None), *coords[mine].T)].T
    return 2 ** dim * out
