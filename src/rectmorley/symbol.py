"""The exact simply supported spectrum on the uniform mesh, from its Fourier
symbol, and the clamped counts and eigenpairs it gives.

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

Clamped counts (Capacitance.count): a clamped block is its simply
supported sibling (the same parity, or the full box) with the m facets of
its outer faces constrained, so its pencil is the principal submatrix
of the simply supported one on the other DOFs.  For tau off both spectra,
with F = A_ss - tau M_ss and E the columns of the identity on
those facets, Haynsworth's inertia additivity (the inverse of a Schur
complement is a block of F^-1) gives

    count_clamped(tau) = count_ss(tau) - neg(E^T F^-1 E),

the capacitance matrix of Buzbee, Dorr, George and Golub (SINUM 8, 1971).
The symbol gives count_ss, and F^-1 = sum_j v_j v_j^T / (lambda_j - tau)
over the M-orthonormal modes v_j.  On the facets of one face, a mode is its
facet weight z_0 sin(theta_a) + z_{1+a} times (-1)^{p_a} on an upper face,
times the product of the sines of its other wave numbers at the facets' odd
coordinates.  Per face, that sine matrix is square and invertible (one
transverse wave-number tuple per facet: a sine transform), so E^T F^-1 E is
congruent to the m x m matrix

    C(tau) = sum_j g_j g_j^T / (lambda_j - tau),

whose vector g_j holds mode j's facet weights at the rows of its own
transverse wave numbers, at most one per face, and the two have one
inertia.  On the full box the rows are the sum and the difference of the
lower and upper face's, which modes of even and odd p_a reach.  A row thus
fixes the parity of every wave number of the modes that reach it: C is
block diagonal, one block per parity class, 2^dim blocks of about m / 2^dim
rows on the full box and one on a parity block, and the inertia of each
block, and its rounding bound, are taken alone.

Clamped pairs (Capacitance.pairs): off the simply supported spectrum, tau
is a clamped eigenvalue exactly when C(tau) is singular, the Weinstein-
Aronszajn determinant of intermediate problems (Weinstein and Stenger,
Methods of Intermediate Problems for Eigenvalues, 1972; Golub, SIAM Rev.
15, 1973).  Its eigenvectors are x = sum_j v_j (g_j^T c) / (lambda_j - tau)
for c in the null space of C(tau): this x has no trace on the outer
facets, and the pencil maps it into the span of their constraints.  Each
class block is walked alone, in ascending order: through the zeros of its
block of C, between consecutive poles (the class's distinct eigenvalues,
its mirror copies bit-identical), or, for a class of at most DENSE_MODES
modes, through the dense eigenproblem of the modal pencil (diag(lambda), I)
on the null space of its facet weights, which gives the same pairs sooner.
A mode whose facet weights vanish to rounding is a clamped pair on its own
pole.  The pairs come as coefficients in the modes, which modes() sums at
the DOFs, one separable sum per DOF family.
"""

from __future__ import annotations

import functools
import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .assembly import element_matrices
from .eigensolve import tau_after
from .element import build_reference_element, reference_corners

# The method of a result whose pairs come from the symbol, with no solve.
METHOD_SYMBOL = "symbol"
# The relative rounding allowed in each term of a clamped count's
# capacitance matrix: the symbol's eigenvalues and weights hold about 3e-15.
ROUNDING = 64 * np.finfo(float).eps
# The relative distance from a pole at which its intervals are searched: a
# root closer to a pole than this is not bracketed.
POLE_MARGIN = 1e-10
# Roots of one class block closer than this, relative, are one root of
# higher multiplicity.
COINCIDENT = 1e-10
# Classes with at most this many modes take their clamped pairs from the
# dense modal pencil, not from the zeros of C.  2D full-box solve_problem,
# k=6, min of 15 in process, 2-vCPU host, dense against zeros: n=4 (12-13
# modes a class) 3.4 against 5.9 ms, n=8 (48-49) 5.3 against 7.5, n=10
# (75-76) 7.8 against 8.2; n=11 (85-97) 7.0 against 5.8, n=12 (108-109)
# 34 against 6.0.
DENSE_MODES = 80


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


def _eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a symmetric matrix, from LAPACK's dsyevr:
    on two OpenBLAS threads, numpy's eigvalsh takes up to 18 times as long
    at order 128."""
    return lapack.dsyevr(matrix, compute_v=0)[0]


@lru_cache(maxsize=None)
def _facet_rows(dim: int, n: int, parity) -> tuple:
    """The numbering of the capacitance rows of the block `parity` (None for
    the full box), class by class.  A class is keyed by its parity bits
    (bit dim-1-b set when p_b is odd); on axis b it has (n + 1) // 2
    transverse wave numbers if p_b is odd, n // 2 if even, and face a has a
    row per tuple of them on the other axes, in C order.

    Returns, per class key: the first row of each face within the class,
    shape (2^dim, dim); the strides of the transverse slots on each face,
    shape (2^dim, dim, dim); and the class's number of rows, shape
    (2^dim,).  Then the block's class keys, ascending (the full box has
    them all).
    """
    bits = (np.arange(2 ** dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    widths = np.where(bits, (n + 1) // 2, n // 2)
    faces = np.zeros((2 ** dim, dim), dtype=np.int64)
    strides = np.zeros((2 ** dim, dim, dim), dtype=np.int64)
    for a in range(dim):
        others = [b for b in range(dim) if b != a]
        faces[:, a] = widths[:, others].prod(axis=1)
        for i, b in enumerate(others):
            strides[:, a, b] = widths[:, others[i + 1:]].prod(axis=1)
    sizes = faces.sum(axis=1)
    keys = tuple(range(2 ** dim)) if parity is None else \
        (int("".join("1" if letter == "e" else "0" for letter in parity), 2),)
    shared = (np.cumsum(faces, axis=1) - faces, strides, sizes)
    for array in shared:
        array.flags.writeable = False
    return (*shared, keys)


class Capacitance:
    """The capacitance matrix C(tau) of the clamped block `parity` (None for
    the full box), of order `order`, from the spectrum of its simply
    supported sibling (block_spectra(dim, n, [parity])[parity]): see the
    module docstring.  Its rows, weights and pair indices are built once,
    so each evaluation at a tau is one division and one bincount per class
    block (classes: per class with rows, their number and the class's
    slice of the modes).  count gives the block's eigenvalue count below a
    tau, pairs its eigenpairs.

    Raises ValueError when order plus the number of outer-face facets is
    not the spectrum's length.
    """

    def __init__(self, dim: int, n: int, parity, spectrum, order: int):
        values, waves, vectors = spectrum
        firsts, strides, sizes, keys = _facet_rows(dim, n, parity)
        facets = int(sizes[list(keys)].sum())
        if order + facets != len(values):
            raise ValueError(f"no symbol count for a block of order {order}: its simply "
                             f"supported class has {len(values)} modes, not "
                             f"{order + facets}")

        # Per mode and face, its row within its class and its facet weight
        # there (the sum of the parts' magnitudes bounds the weight's
        # rounding).  The slot of p_b is its place among the wave numbers of
        # its parity whose sine does not vanish on the facets' odd
        # coordinates (1, 3, .. or 2, 4, .. up to n), -1 for p_b = 0; a mode
        # reaches the facets normal to a unless the sine of another axis
        # vanishes there.
        odd = waves % 2
        key = odd @ (1 << np.arange(dim - 1, -1, -1))
        slots = (waves + odd) // 2 - 1
        rows = firsts[key] + np.einsum("jb,jab->ja", slots, strides[key])
        vanishing = slots < 0
        on_face = vanishing.sum(axis=1, keepdims=True) == vanishing
        rows[~on_face] = 0
        sines = np.sin(waves * (np.pi / (2 * n)))
        weights = np.where(on_face, vectors[:, :1] * sines + vectors[:, 1:], 0.0)
        magnitudes = np.where(on_face, np.abs(vectors[:, :1]) * sines + np.abs(vectors[:, 1:]),
                              0.0)
        # A mode whose facet weights vanish to rounding is a clamped eigenpair
        # on its own pole: its exact term is zero, and it is left out.
        isolated = np.all(np.abs(weights) <= ROUNDING * magnitudes, axis=1)
        self.values, self.isolated = values, np.flatnonzero(isolated)
        # The other modes class by class, each class's in ascending order.
        reach = np.flatnonzero(~isolated)
        self.modes = reach[np.argsort(key[reach], kind="stable")]
        key, rows, self.weights, self.magnitudes = (
            part[self.modes] for part in (key, rows, weights, magnitudes))
        self.rows, self.poles = rows, values[self.modes]
        self.products = (self.weights[:, :, None] * self.weights[:, None, :]).reshape(
            len(key), dim * dim)
        self.entries = (rows[:, :, None] * sizes[key, None, None] + rows[:, None, :]).reshape(
            len(key), dim * dim)
        bounds = np.searchsorted(key, keys + (2 ** dim,))
        # Per class with rows: its order and its slice of the modes.
        self.classes = [(int(sizes[c]), lo, hi) for c, lo, hi in zip(keys, bounds, bounds[1:])
                        if sizes[c]]

    def matrix(self, size: int, lo: int, hi: int, tau: float) -> np.ndarray:
        """The block of C(tau) of the class of modes lo:hi, of order `size`
        (an entry of classes)."""
        terms = self.products[lo:hi] * (1.0 / (self.poles[lo:hi] - tau))[:, None]
        return np.bincount(self.entries[lo:hi].ravel(), terms.ravel(), size * size).reshape(
            size, size)

    def count(self, tau: float) -> int:
        """The number of eigenvalues below the finite tau of the clamped
        block, count_ss(tau) - neg(C(tau)).

        Raises ValueError when tau lies within rounding of a simply supported
        eigenvalue, or when an eigenvalue of C(tau) lies within its rounding
        bound of 0.
        """
        values = self.values
        if np.any(np.abs(values - tau) <= ROUNDING * np.abs(values)):
            raise ValueError(f"no symbol count at tau={tau}: it is within rounding of a "
                             "simply supported eigenvalue")
        negatives = 0
        for size, lo, hi in self.classes:
            eigenvalues = _eigenvalues(self.matrix(size, lo, hi, tau))
            # Each term's relative rounding, from its inputs and from the sums
            # and eigvalsh (a few eps times the order): the row sums of the
            # terms' magnitudes times it bound the 2-norm of the class
            # block's error.
            poles, magnitudes = self.poles[lo:hi], self.magnitudes[lo:hi]
            inverse = 1.0 / (poles - tau)
            spread = ROUNDING * (size + np.abs(poles * inverse)) * np.abs(inverse) \
                * magnitudes.sum(axis=1)
            bound = np.bincount(self.rows[lo:hi].ravel(), (magnitudes * spread[:, None]).ravel(),
                                size).max()
            if np.abs(eigenvalues).min() <= bound:
                raise ValueError(f"no symbol count at tau={tau}: the capacitance matrix is "
                                 "singular to rounding")
            negatives += int(np.count_nonzero(eigenvalues < 0))
        return int(np.searchsorted(values, tau)) - negatives

    def pairs(self, k: int = None, tau: float = None) -> tuple:
        """The block's k smallest eigenvalues, with every eigenvalue below
        lambda_k (1 + REL_GAP), or all of them below tau; and the
        coefficients of their eigenvectors in the spectrum's modes, shape
        (len(spectrum), count), for modes(..., coefficients).

        They are the isolated modes' and each class block's, merged in
        ascending order from one walk per class (_dense for a class of at
        most DENSE_MODES modes, else _roots): a walk is sent the current
        limit and answers with its next pair below it; it is asked again
        only when that pair is taken.
        """
        limit = np.inf if tau is None else tau
        walks = [self._dense(*block) if block[2] - block[1] <= DENSE_MODES
                 else self._roots(*block) for block in self.classes] + [self._isolated()]
        for walk in walks:
            next(walk)
        heads = [_answer(walk, limit) for walk in walks]
        found = []
        while any(head is not None for head in heads):
            first = min((index for index, head in enumerate(heads) if head is not None),
                        key=lambda index: heads[index][0])
            found.append(heads[first])
            if tau is None and len(found) == k:
                limit = tau_after(np.array([value for value, _, _ in found]), k)
                heads = [None if head is None or head[0] >= limit else head for head in heads]
            heads[first] = _answer(walks[first], limit)
        coefficients = np.zeros((len(self.values), len(found)))
        for i, (_, modes, coefficient) in enumerate(found):
            coefficients[modes, i] = coefficient
        return np.array([value for value, _, _ in found]), coefficients

    def _isolated(self):
        """The walk of the isolated modes: each is a pair on its own pole."""
        limit = yield
        for j in self.isolated:
            if self.values[j] >= limit:
                return
            limit = yield self.values[j], [j], 1.0

    def _dense(self, size: int, lo: int, hi: int):
        """The walk of the class of modes lo:hi, from the dense eigenproblem
        of its modal pencil (diag(lambda), I) on the null space of its facet
        weights (the rows of C it reaches, of which it has `size`)."""
        facets = np.zeros((size, hi - lo))
        np.add.at(facets, (self.rows[lo:hi], np.arange(hi - lo)[:, None]), self.weights[lo:hi])
        basis = np.linalg.qr(facets.T, mode="complete")[0][:, size:]
        values, vectors = lapack.dsyevr(basis.T @ (self.poles[lo:hi, None] * basis))[:2]
        limit = yield
        for value, coefficient in zip(values, (basis @ vectors).T):
            if value >= limit:
                return
            limit = yield value, self.modes[lo:hi], coefficient

    def _roots(self, size: int, lo: int, hi: int):
        """The walk of the class of modes lo:hi, from the zeros of its block
        of C (of order `size`).

        Between two poles every eigenvalue branch of C is nondecreasing in
        tau, as C'(tau) is semidefinite, and each of the pole's modes turns
        one branch from +inf to -inf.  So the number of negative eigenvalues
        just above a pole is the number just below it plus its modes, and
        it falls by one at each root of the interval above: the next root
        is the zero of the eigenvalue of C whose index is that count minus
        one (_brent, bracketed by the counts just inside the lower end, or
        just past the last root, and at the upper end or the limit).  Roots
        closer than COINCIDENT are one root of higher multiplicity, whose
        eigenvectors take the null space of C there from the eigenvalues
        nearest 0.  An eigenvector is x = sum_j v_j (g_j^T c) / (lambda_j -
        lambda), for c in that null space.
        """
        poles, ranks = np.unique(self.poles[lo:hi], return_counts=True)
        modes, weights, rows, gaps = (self.modes[lo:hi], self.weights[lo:hi], self.rows[lo:hi],
                                      self.poles[lo:hi])
        matrix = functools.partial(self.matrix, size, lo, hi)

        @functools.lru_cache(maxsize=None)
        def spectrum(tau):
            return _eigenvalues(matrix(tau))

        def negatives(tau):
            return int(np.count_nonzero(spectrum(tau) < 0))

        def branch(tau):
            return lapack.dsyevr(matrix(tau), compute_v=0, range="I", il=after, iu=after)[0][0]

        limit = yield
        below = 0
        for lower, upper, rank in zip(poles, poles[1:], ranks):
            after = below + rank
            start, stop = lower * (1 + POLE_MARGIN), upper * (1 - POLE_MARGIN)
            top = min(stop, limit)
            if start >= top:
                if start >= limit:
                    return
                below = after
                continue
            spectrum.cache_clear()
            if negatives(top) < after:
                after = negatives(start)
            while after > negatives(top):
                root = _brent(branch, start, top, spectrum(start)[after - 1],
                              spectrum(top)[after - 1])
                start = root * (1 + COINCIDENT)
                cluster = min(max(after - negatives(start), 1), after - negatives(top))
                after -= cluster
                # The eigenvectors of the branches that cross 0 at the root.
                null = lapack.dsyevr(matrix(root), range="I", il=after + 1,
                                     iu=after + cluster)[1]
                coefficients = np.einsum("ja,jac->jc", weights, null[rows]) / (gaps - root)[:, None]
                for coefficient in (coefficients / np.linalg.norm(coefficients, axis=0)).T:
                    limit = yield root, modes, coefficient
                top = min(stop, limit)
            if stop > limit:
                return
            below = negatives(stop)


def _brent(f, a, b, fa, fb):
    """The zero of f between a and b, given fa = f(a) and fb = f(b) of
    opposite signs, to 4 eps relative: Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 4), inverse quadratic or
    secant steps safeguarded by bisection.  (scipy.optimize.brentq is the
    same method, but importing scipy.optimize takes 0.14 s.)"""
    c, fc = b, fb
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2 * np.finfo(float).eps * abs(b)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2 * half * s, 1 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2 * half * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            q = -q if p > 0 else q
            p = abs(p)
            if 2 * p < min(3 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
    return b


def _answer(walk, limit):
    """The next pair of a walk (Capacitance.pairs) below limit, or None."""
    try:
        return walk.send(limit)
    except StopIteration:
        return None
