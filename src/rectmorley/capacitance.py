"""Clamped counts and eigenpairs on the uniform mesh, from the simply
supported spectrum of symbol.py through the capacitance matrix.

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
block, and its rounding bound, are taken alone.  The swap sigma of two axes
with one parity letter (x_0 <-> x_1 on ooe, eee and ooo, x_1 <-> x_2 on
oee, x_0 <-> x_2 on the full box's eoe and oeo; x_0 <-> x_1 on 2D ee and
oo) maps a class onto itself and its rows by a permutation Q, and mirror
modes have g_{sigma j} = Q g_j bit for bit, so Q C Q^T = C: a class
block of at least SWAP_MIN_ROWS rows is split into its
symmetric and antisymmetric halves C+- = U+-^T C U+-, each of about half
its order, built term by term (Capacitance._blocks), and neg(C) is
neg(C+) + neg(C-).

Clamped pairs (Capacitance.pairs): off the simply supported spectrum, tau
is a clamped eigenvalue exactly when C(tau) is singular, the Weinstein-
Aronszajn determinant of intermediate problems (Weinstein and Stenger,
Methods of Intermediate Problems for Eigenvalues, 1972; Golub, SIAM Rev.
15, 1973).  Its eigenvectors are x = sum_j v_j (g_j^T c) / (lambda_j - tau)
for c in the null space of C(tau): this x has no trace on the outer
facets, and the pencil maps it into the span of their constraints.  Each
block of C is walked alone, in ascending order: through its zeros, between
consecutive poles (the distinct eigenvalues of its terms, mirror copies
bit-identical), a swap half on its own, whose null vector c+- lifts to the
class's rows as c = U+- c+-; or, for a class of at most DENSE_MODES modes,
through the dense eigenproblem of the modal pencil (diag(lambda), I) on
the null space of its facet weights, which gives the same pairs sooner.
A mode whose facet weights vanish to rounding is a clamped pair on its own
pole.  The pairs come as coefficients in the modes, which symbol.modes
sums at the DOFs, one separable sum per DOF family, and their values are
the ones a solve reports: a zero of C, found to 4 eps, or from the dense
modal pencil the Rayleigh quotient sum_j lambda_j c_j^2 / sum_j c_j^2 of
the pair's coefficients c, a sum of positive terms.  Next to a pole, the
zero and its null vector are taken from C with that pole's terms kept out
of the sum as a border (_Block.bordered): there C's large term swamps both
with its rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .eigensolve import tau_after

# The relative rounding allowed in each term of a clamped count's
# capacitance matrix: the symbol's eigenvalues and weights hold about 3e-15.
ROUNDING = 64 * np.finfo(float).eps
# The relative distance from a pole at which its intervals are searched: a
# root closer to a pole than this is not bracketed.
POLE_MARGIN = 1e-10
# A root closer to an end pole of its interval than this fraction of the
# interval is found again, with its eigenvectors, on the bordered block
# (_Block.bordered).  2D n=23 clamped, every pair, against the dense
# solver: plain roots read up to 8.2e-11 relative below 1e-6 of the
# interval, 3.2e-13 below 1e-4 and 1.6e-13 below 1e-3; bordered ones 1.7e-15,
# 1.8e-15 and 3.5e-15.  Far from the poles the plain roots are the closer.
BORDERED = 1e-3
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
# Classes whose block of C has at least this many rows are split by an axis
# swap (_swap_halves): below it the second walk's brackets cost more than the
# smaller evaluations save.  Clamped solve_problem, k=6, min of 6 in process,
# 2-vCPU host, split against whole: 2D n=16 (16 rows a class) 7.3 against
# 7.0 ms, n=20 (20) 7.8 against 7.8, n=24 (24) 9.2 against 9.5, n=32 (32)
# 12.6 against 13.7, n=64 (64) 34 against 38; 3D n=6 (27) 8.0 against 7.5,
# n=8 (48) 10.0 against 11.7, n=16 (192) 42 against 86.
SWAP_MIN_ROWS = 32


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


@lru_cache(maxsize=None)
def _swap_halves(dim: int, n: int, key: int):
    """The halves of the rows of class `key` (numbered as in _facet_rows)
    under the swap sigma of its first two axes of one parity letter, or None
    if it has no such pair.  A third axis of that letter makes the pair
    adjacent, so no wave of the class ties with a swapped wave number across
    it.  The swap maps the row of face f with transverse slots s to the row
    of face sigma(f) with slots s o sigma: a row permutation Q, Q^2 = I.  The
    symmetric half U+ has a column (e_r + e_Qr) / sqrt 2 per orbit r < Qr
    and e_r per fixed row, the antisymmetric half U- a column (e_r - e_Qr) /
    sqrt 2 per orbit.

    Returns sigma, shape (dim,), and per half its order, each class row's
    column and its entry there (0 for a fixed row in U-), shape (size,).
    """
    bits = (key >> np.arange(dim - 1, -1, -1)) & 1
    pairs = [(a, b) for a, b in itertools.combinations(range(dim), 2) if bits[a] == bits[b]]
    if not pairs:
        return None
    perm = np.arange(dim)
    perm[list(pairs[0])] = pairs[0][::-1]
    firsts, strides, _, _ = _facet_rows(dim, n, None)
    widths = np.where(bits, (n + 1) // 2, n // 2)
    image = np.concatenate([
        firsts[key, perm[f]] + strides[key, perm[f]]
        @ np.indices(np.where(np.arange(dim) == f, 1, widths)).reshape(dim, -1)[perm]
        for f in range(dim)])
    rows = np.arange(len(image))
    low, half = np.minimum(rows, image), math.sqrt(0.5)
    out = (perm,) + tuple(
        (int(chosen.sum()), np.maximum(np.cumsum(chosen)[low] - 1, 0), entry)
        for chosen, entry in ((rows <= image, np.where(rows == image, 1.0, half)),
                              (rows < image, np.sign(image - rows) * half)))
    for array in (perm, *out[1][1:], *out[2][1:]):
        array.flags.writeable = False
    return out


class _Block:
    """A block of C(tau), of order `size`: the sum over its terms of
    h h^T / (pole - tau), each h given by the rows and values of its
    entries, shape (terms, e), with magnitudes that bound their rounding.
    Row r of its class is scale[r] times its row index[r]."""

    def __init__(self, size: int, poles, rows, values, magnitudes, index, scale):
        self.size, self.poles, self.rows, self.values = size, poles, rows, values
        self.magnitudes, self.index, self.scale = magnitudes, index, scale
        self.products = (values[:, :, None] * values[:, None, :]).reshape(-1, rows.shape[1] ** 2)
        self.entries = (rows[:, :, None] * size + rows[:, None, :]).reshape(-1, rows.shape[1] ** 2)

    def matrix(self, tau: float, skip=False) -> np.ndarray:
        """The block at tau, without the terms where the mask `skip` is set."""
        terms = self.products * np.where(skip, 0.0, 1.0 / (self.poles - tau))[:, None]
        return np.bincount(self.entries.ravel(), terms.ravel(), self.size ** 2).reshape(
            self.size, self.size)

    def bordered(self, lower: float, upper: float) -> tuple:
        """The block between two consecutive poles as a function of tau, with
        the terms on both poles kept out of the sum, as a border:

            B(tau) = [[C_rest(tau), H S], [S H^T, S^2 (tau - poles)]],

        H the columns of those terms and S their magnitudes' norms over
        upper - lower.  C(tau) is the Schur complement of the corner, so B is
        singular where C is, and it has C's negative eigenvalues plus one per
        term on the upper pole (Haynsworth).  Next to a pole, a term of C of
        order 1/(pole - tau) swamps with its rounding the branch that crosses
        zero there; B has no such entry.  A null vector (y, w) of B(tau) has
        C(tau) y = 0, and the coefficients h_t^T y / (pole_t - tau) of its
        clamped pair are S w on the border, free of cancellation.

        Returns the function B, the number of terms on the upper pole, the
        border's terms (a mask) and S."""
        ends = (self.poles == lower) | (self.poles == upper)
        size, order = self.size, self.size + np.count_nonzero(ends)
        scale = np.linalg.norm(self.magnitudes[ends], axis=1) / (upper - lower)
        border = np.zeros((size, order - size))
        np.add.at(border, (self.rows[ends], np.arange(order - size)[:, None]),
                  self.values[ends] * scale[:, None])
        corner = np.arange(size, order)

        def matrix(tau: float) -> np.ndarray:
            out = np.zeros((order, order))
            out[:size, :size] = self.matrix(tau, ends)
            out[:size, size:], out[size:, :size] = border, border.T
            out[corner, corner] = scale * scale * (tau - self.poles[ends])
            return out

        return matrix, int(np.count_nonzero(self.poles[ends] == upper)), ends, scale

    def null_coefficients(self, tau: float, lower: float, upper: float, count: int):
        """Per term, the coefficients h_t^T y / (pole_t - tau) of the `count`
        null vectors y of the block at its zero tau between the poles lower
        and upper, shape (terms, count): from the null vectors of the
        bordered matrix (bordered), those of its eigenvalues nearest 0."""
        matrix, _, ends, scale = self.bordered(lower, upper)
        values, vectors = lapack.dsyevr(matrix(tau))[:2]
        null = vectors[:, np.argsort(np.abs(values), kind="stable")[:count]]
        coefficients = _coefficients(self.values, self.rows, self.poles, null, tau)
        coefficients[ends] = scale[:, None] * null[self.size:]
        return coefficients

    def negatives(self, tau: float) -> int:
        """The number of negative eigenvalues of the block at tau.

        Raises ValueError when one lies within the block's rounding bound
        of 0.
        """
        eigenvalues = _eigenvalues(self.matrix(tau))
        # Each term's relative rounding, from its inputs and from the sums and
        # the eigensolver (a few eps times the order): the row sums of the
        # terms' magnitudes times it bound the 2-norm of the block's error.
        inverse = 1.0 / (self.poles - tau)
        spread = ROUNDING * (self.size + np.abs(self.poles * inverse)) * np.abs(inverse) \
            * self.magnitudes.sum(axis=1)
        bound = np.bincount(self.rows.ravel(), (self.magnitudes * spread[:, None]).ravel(),
                            self.size).max()
        if np.abs(eigenvalues).min() <= bound:
            raise ValueError(f"no symbol count at tau={tau}: the capacitance matrix is "
                             "singular to rounding")
        return int(np.count_nonzero(eigenvalues < 0))


class Capacitance:
    """The capacitance matrix C(tau) of the clamped block `parity` (None for
    the full box), of order `order`, from the spectrum of its simply
    supported sibling (symbol.block_spectra(dim, n, [parity])[parity]):
    see the module docstring.  Its blocks' rows, weights and pair indices
    are built once, so each evaluation at a tau is one division and one
    bincount per block (classes: per class with rows, their number, the
    class's slice of the modes and its blocks: itself, or its two swap
    halves).  count gives the block's eigenvalue count below a tau, pairs
    its eigenpairs.

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
        key, waves, self.rows, self.weights, self.magnitudes = (
            part[self.modes] for part in (key, waves, rows, weights, magnitudes))
        self.poles = values[self.modes]
        bounds = np.searchsorted(key, keys + (2 ** dim,))
        self.classes = [(int(sizes[c]), lo, hi, self._blocks(dim, n, c, int(sizes[c]), lo, hi,
                                                       waves[lo:hi]))
                        for c, lo, hi in zip(keys, bounds, bounds[1:]) if sizes[c]]

    def _blocks(self, dim: int, n: int, key: int, size: int, lo: int, hi: int, waves) -> list:
        """The blocks of C of the class of modes lo:hi: the class block, or,
        for a class of at least SWAP_MIN_ROWS rows that has a swap
        (_swap_halves), its halves C+- = U+-^T C U+-.

        symbol.block_spectra makes mirror modes bit-identical, so g_{sigma
        p} = Q g_p and Q C Q^T = C with no rounding: the halves are C's
        blocks.  An orbit {p, sigma p} (p_a < p_b) gives each half one term,
        sqrt 2 U^T g_p.  The pencil of a wave that the swap fixes has one
        antisymmetric family (facets a minus facets b), so its modes' parts
        in U- (one number h a mode) span at most one dimension.  Where h is
        not 0 to rounding, the wave's modes are reflected (Householder, the
        largest |h| first) so that the first carries all of h, as an
        antisymmetric mode to C-, and the others none; every other mode
        goes to C+.  The reflection turns only the copies of a multiple
        eigenvalue (the full axis group acts on p_0 = p_1 = p_2) by more
        than rounding."""
        poles, rows, weights, magnitudes = (
            part[lo:hi] for part in (self.poles, self.rows, self.weights, self.magnitudes))
        halves = _swap_halves(dim, n, key) if size >= SWAP_MIN_ROWS else None
        if halves is None:
            return [_Block(size, poles, rows, weights, magnitudes, np.arange(size),
                           np.ones(size))]
        perm, plus, minus = halves
        a, b = np.flatnonzero(perm != np.arange(dim))
        orbits = np.flatnonzero(waves[:, a] < waves[:, b])
        fixed = np.flatnonzero(waves[:, a] == waves[:, b])
        h = np.einsum("ja,ja->j", minus[2][rows[fixed]], weights[fixed])
        codes = waves[fixed] @ (n + 1) ** np.arange(dim)
        order = np.lexsort((-np.abs(h), codes))
        fixed, h, codes = fixed[order], h[order], codes[order]
        new = np.diff(codes, prepend=-1) != 0
        starts, wave = np.flatnonzero(new), np.cumsum(new) - 1
        norms = np.sqrt(np.add.reduceat(h * h, starts))
        totals = np.add.reduceat(magnitudes[fixed], starts)
        turning = norms > ROUNDING * totals.sum(axis=1)
        # v = h + sign(h_0) |h| e_0 per turned wave, 0 elsewhere.
        v = np.where(turning[wave], h, 0.0)
        v[starts] += np.where(turning, np.copysign(norms, h[starts]), 0.0)
        reflect = 2 * v / np.where(turning, np.add.reduceat(v * v, starts), 1.0)[wave]
        fixed_weights = weights[fixed] - reflect[:, None] * np.add.reduceat(
            v[:, None] * weights[fixed], starts)[wave]
        fixed_magnitudes = np.where(turning[wave, None], totals[wave], magnitudes[fixed])
        antisymmetric = np.zeros(len(fixed), dtype=bool)
        antisymmetric[starts[turning]] = True
        blocks = []
        for (order, index, scale), mine in zip((plus, minus), (~antisymmetric, antisymmetric)):
            term_rows = np.concatenate([rows[orbits], rows[fixed[mine]]])
            entry = scale[term_rows] * np.repeat([math.sqrt(2.0), 1.0],
                                                 [len(orbits), np.count_nonzero(mine)])[:, None]
            blocks.append(_Block(
                int(order), np.concatenate([poles[orbits], poles[fixed[mine]]]),
                index[term_rows], entry * np.concatenate([weights[orbits], fixed_weights[mine]]),
                np.abs(entry) * np.concatenate([magnitudes[orbits], fixed_magnitudes[mine]]),
                index, scale))
        return [block for block in blocks if block.size]

    def count(self, tau: float) -> int:
        """The number of eigenvalues below the finite tau of the clamped
        block, count_ss(tau) - neg(C(tau)), neg(C) summed over its blocks.

        Raises ValueError when tau lies within rounding of a simply supported
        eigenvalue, or when an eigenvalue of a block of C(tau) lies within
        its rounding bound of 0.
        """
        values = self.values
        if np.any(np.abs(values - tau) <= ROUNDING * np.abs(values)):
            raise ValueError(f"no symbol count at tau={tau}: it is within rounding of a "
                             "simply supported eigenvalue")
        negatives = sum(block.negatives(tau) for *_, blocks in self.classes for block in blocks)
        return int(np.searchsorted(values, tau)) - negatives

    def pairs(self, k: int = None, tau: float = None) -> tuple:
        """The block's k smallest eigenvalues, with every eigenvalue below
        lambda_k (1 + REL_GAP), or all of them below tau; and the
        coefficients of their eigenvectors in the spectrum's modes, shape
        (len(spectrum), count), for symbol.modes(..., coefficients).

        They are the isolated modes' and each class's, merged in ascending
        order from one walk per class of at most DENSE_MODES modes (_dense)
        and per block of a larger class (_roots): a walk is sent the
        current limit and answers with its next pair below it; it is asked
        again only when that pair is taken.  Each walk is ascending.  An
        isolated mode's value is its pole, a _roots walk's the zero of its
        block, and a _dense walk's the modal Rayleigh quotient of its
        coefficients.
        """
        limit = np.inf if tau is None else tau
        walks = [walk for size, lo, hi, blocks in self.classes
                 for walk in ([self._dense(size, lo, hi)] if hi - lo <= DENSE_MODES else
                              [self._roots(block, lo, hi) for block in blocks])]
        walks.append(self._isolated())
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
        weights (the rows of C it reaches, of which it has `size`).  Each
        pair's value is the Rayleigh quotient sum_j lambda_j c_j^2 / sum_j
        c_j^2 of its coefficients c, in ascending order: the eigenvalue of
        the projected pencil carries about eps lambda_max."""
        facets = np.zeros((size, hi - lo))
        np.add.at(facets, (self.rows[lo:hi], np.arange(hi - lo)[:, None]), self.weights[lo:hi])
        basis = np.linalg.qr(facets.T, mode="complete")[0][:, size:]
        coefficients = basis @ lapack.dsyevr(basis.T @ (self.poles[lo:hi, None] * basis))[1]
        squares = coefficients * coefficients
        values = self.poles[lo:hi] @ squares / squares.sum(axis=0)
        order = np.argsort(values, kind="stable")
        limit = yield
        for value, coefficient in zip(values[order], coefficients[:, order].T):
            if value >= limit:
                return
            limit = yield value, self.modes[lo:hi], coefficient

    def _roots(self, block: _Block, lo: int, hi: int):
        """The walk of `block` of C, of the class of modes lo:hi, from its
        zeros.

        Between two poles every eigenvalue branch of the block is
        nondecreasing in tau, as its derivative is semidefinite, and each of
        the pole's terms turns one branch from +inf to -inf.  So the number
        of negative eigenvalues just above a pole is the number just below
        it plus its terms, and it falls by one at each root of the interval
        above: the next root is the zero of the eigenvalue whose index is
        that count minus one (_brent, bracketed by the counts just inside
        the lower end, or just past the last root, and at the upper end or
        the limit).  Roots closer than COINCIDENT are one root of higher
        multiplicity, whose eigenvectors take the null space there from the
        eigenvalues nearest 0.  An eigenvector is x = sum_j v_j (g_j^T c) /
        (lambda_j - lambda) over the class's modes, for c in that null
        space lifted to the class's rows.  A root within BORDERED of its
        interval from an end pole is found again on the bordered block, and
        its eigenvectors come from the bordered class block
        (_Block.null_coefficients).
        """
        poles, ranks = np.unique(block.poles, return_counts=True)
        # The class block, for the near roots: the block itself unless it is
        # a swap half, whose class block is built at its first near root.
        whole = block if len(block.index) == block.size else None
        modes, weights, rows, gaps, magnitudes = (
            part[lo:hi] for part in (self.modes, self.weights, self.rows, self.poles,
                                     self.magnitudes))

        @functools.lru_cache(maxsize=None)
        def spectrum(tau):
            return _eigenvalues(block.matrix(tau))

        def negatives(tau):
            return int(np.count_nonzero(spectrum(tau) < 0))

        def branch(tau):
            return lapack.dsyevr(matrix(tau), compute_v=0, range="I", il=after + shift,
                                 iu=after + shift)[0][0]

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
                matrix, shift = block.matrix, 0
                root = _brent(branch, start, top, spectrum(start)[after - 1],
                              spectrum(top)[after - 1])
                near = min(root - lower, upper - root) < BORDERED * (upper - lower)
                if near:
                    matrix, shift, *_ = block.bordered(lower, upper)
                    root = _brent(branch, start, top, branch(start), branch(top))
                start = root * (1 + COINCIDENT)
                cluster = min(max(after - negatives(start), 1), after - negatives(top))
                after -= cluster
                if near:
                    # From the class block, whose terms are the class's modes:
                    # a swap half's zero is one of its class block too.
                    whole = whole or _Block(len(block.index), gaps, rows, weights, magnitudes,
                                            np.arange(len(block.index)), np.ones(len(block.index)))
                    coefficients = whole.null_coefficients(root, lower, upper, cluster)
                else:
                    # The eigenvectors of the branches that cross 0 at the root.
                    null = lapack.dsyevr(block.matrix(root), range="I", il=after + 1,
                                         iu=after + cluster)[1]
                    coefficients = _coefficients(weights, rows, gaps,
                                                 block.scale[:, None] * null[block.index], root)
                for coefficient in (coefficients / np.linalg.norm(coefficients, axis=0)).T:
                    limit = yield root, modes, coefficient
                top = min(stop, limit)
            if stop > limit:
                return
            below = negatives(stop)


def _coefficients(values, rows, poles, null, tau):
    """Per term, h^T c / (pole - tau) for each column c of null: the
    coefficients in the terms of the clamped pairs at tau whose null
    vectors are those columns, h the term's `values` at its `rows`."""
    return np.einsum("ja,jac->jc", values, null[rows]) / (poles - tau)[:, None]


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
