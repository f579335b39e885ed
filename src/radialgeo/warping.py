"""Warping functions of rotationally symmetric metrics.

The warping function m solves m'' + k(t) m = 0 with m(0) = 0, m'(0) = 1.
It is the Jacobian of the exponential map along meridians, so everything
downstream (volumes, geodesics, total curvature) reduces to integrals of m
and m'. ``solve_warping`` computes (m, m') at the nodes of a fine grid (the
1/64 lattice, every curvature breakpoint a node) with one 2x2 transfer matrix
per cell, except past the anchor of a zero or constant tail and for a
constant model (see below). Each matrix comes from the Taylor series of the
two basis solutions about the cell midpoint, for a degree-8 Chebyshev
interpolant of k sampled in one array call per block of cells (high-order
Taylor methods for linear ODEs: Jorba and Zou, *Experimental Mathematics*
14, 2005). The fixed relative accuracy ``DEFAULT_REL_TOL`` sets the number
of Taylor terms, each one array product and one sum; a cell where
the interpolant misses k (a kink or jump that is not a knot) or where |k| is
large is bisected into pieces with their own matrices; a conjugate point is
the root of the series of the piece where m first reaches zero. From the
node data the solution is rebuilt as a piecewise quintic (values, slopes,
and the exact second derivative -k*m at every node), which keeps
interpolation error far below the solver tolerance.

The quintic of each cell is written in power form about its left node.
With cell width h, Delta = m1 - m0 and (m, m', m'') at its left (0) and
right (1) nodes, the Hermite conditions at both ends give the coefficients
of the powers of s = t - t0 in closed form:

    a0 = m0        a1 = m0'        a2 = m0'' / 2
    a3 = (20 Delta - (8 m1' + 12 m0') h - (3 m0'' - m1'') h^2) / (2 h^3)
    a4 = (-30 Delta + (14 m1' + 16 m0') h + (3 m0'' - 2 m1'') h^2) / (2 h^4)
    a5 = (12 Delta - 6 (m0' + m1') h - (m0'' - m1'') h^2) / (2 h^5)

They are computed for all cells at once into one coefficient array of shape
(6, cells, 3), with those of m' and m'' beside them (the products
``PPoly.derivative`` forms, so a read is bit for bit the derivative's): one
scipy ``PPoly``, the jet of the solution, reads all three in one call. One
more cell past the last node holds that node's Taylor data (m, m', m''/2 and
zeros), so m, m' and m'' at t_max, like at every other node, are the node
values exactly: a read at a node falls in the cell the node starts, at
s = 0. The coefficients are not converted from the Bernstein form of the
same quintic (``PPoly.from_bernstein_basis``): that conversion cancels at
the right end of a cell, and put m'(16) of a bump surface 2.8e-11 off.
The same builder gives the inverse t(mu) of an increasing m, on the nodes
mu_i = m_i with dt/dmu = 1/m' and d2t/dmu2 = -m''/m'^3; the geodesic code
inverts radii with it.

Past the first node at or past the anchor of a zero or constant tail, the
tail's ``carry`` gives the nodes from that node's state in closed form; a
``PowerLawTail`` keeps the matrices. A constant model, a spline core whose
every value is its zero or constant tail's c (``RadialCurvature.constant``
and ``zero`` build no other), needs no matrix: the carry starts at the pole,
from (0, 1), so m = t or sinh(r t) / r exactly. A solve is a carry from the
pole, and a read past the last node, up to t = 4096, carries on from there
alike, appending cells to the interpolant: either stops at the first node
of the 1/64 lattice at or past the t asked for, with the numbers of a direct
solve.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import PPoly
from scipy.optimize import brentq

from .curvature import (_CHEB, _FIT_DEGREE, _MAX_HORIZON, _NODES_PER_UNIT, RadialCurvature,
                        _cell_samples, _node_grid)
from .errors import ConjugatePointError, DomainError, UnboundedError

# the solver's relative accuracy, the same for every solve
DEFAULT_REL_TOL = 1e-12
# the bound of the Taylor series and the fits of k (see solve_warping)
_TAYLOR_TOL = DEFAULT_REL_TOL * 1e-3
# _FIT takes the samples at _CHEB to the monomial coefficients of their
# degree-8 interpolant. On [-1, 1] its Vandermonde condition number is about
# 6e2; on [0, 1] it is about 7e5.
_FIT = np.linalg.inv(np.vander(_CHEB, increasing=True))
# _CHECK takes the same samples to the two highest Chebyshev coefficients of
# the interpolant and to its values at s = -1 and s = +1. A jump or kink of
# k inside the piece shows in the former, or, beyond the outer sample
# points, in the latter: over all positions of a unit jump or kink either
# is at least 0.8 of the error the fit makes in the integral of k.
_CHECK = np.concatenate([
    np.linalg.inv(np.polynomial.chebyshev.chebvander(_CHEB, _FIT_DEGREE))[-2:],
    np.vander([-1.0, 1.0], _FIT_DEGREE + 1, increasing=True) @ _FIT])
# i of the monomials s**i of a fit: sum i |kappa_i| bounds |d kappa / ds| on [-1, 1]
_DEGREES = np.arange(_FIT_DEGREE + 1.0)
# pieces in a cell at most before the curvature counts as too rough or too
# large for the node grid; bounds the memory of a block
_MAX_PIECES_PER_CELL = 128
# cells solved together; bounds the memory of a solve whatever its horizon
_BLOCK_CELLS = 2048
# Taylor terms per piece at most; every piece has sum |kappa_i| <= 1, so the
# series meet the tightest tolerance well before this
_MAX_TERMS = 64


def _top_powers(h, delta, d0, d1, s0, s1):
    """Rows a5, a4, a3 of the module docstring for cells of width h."""
    hh = h * h
    return ((12.0 * delta - 6.0 * (d0 + d1) * h - (s0 - s1) * hh) / (2.0 * hh * hh * h),
            ((-30.0 * delta + (14.0 * d1 + 16.0 * d0) * h + (3.0 * s0 - 2.0 * s1) * hh)
             / (2.0 * hh * hh)),
            (20.0 * delta - (8.0 * d1 + 12.0 * d0) * h - (3.0 * s0 - s1) * hh) / (2.0 * hh * h))


def _quintic(x, y, dy, d2y, derivatives=0) -> PPoly:
    """Piecewise quintic through (y, y', y'') at the strictly increasing
    nodes x, with the power-form coefficients of the module docstring and
    one more cell, as wide as the last, holding the Taylor data of x[-1];
    its first ``derivatives`` derivatives sit beside it as further columns.
    Cells that overflow are formed again from their data over 2^e, e the
    largest's exponent; one that still does, raises DomainError."""
    h = np.diff(x)
    data = (y[1:] - y[:-1], dy[:-1], dy[1:], d2y[:-1], d2y[1:])
    jet = np.zeros((6, x.size, derivatives + 1))
    c = jet[..., 0]  # rows a5 .. a0: PPoly keeps the highest power first
    c[3], c[4], c[5] = 0.5 * d2y, dy, y
    with np.errstate(over="ignore", invalid="ignore"):
        c[0, :-1], c[1, :-1], c[2, :-1] = _top_powers(h, *data)
        for rescaled in (False, True):
            for j in range(1, derivatives + 1):  # the products PPoly.derivative forms
                jet[j:, :, j] = jet[j - 1:-1, :, j - 1] * np.arange(6 - j, 0, -1)[:, None]
            if np.isfinite(jet[:5]).all():  # rows a0 are the finite node data
                break
            bad = ~np.isfinite(jet[:5, :-1]).all(axis=(0, 2))
            if rescaled:
                raise DomainError(f"the warping interpolant overflows at t = {x[bad.argmax()]:.6g}")
            e = np.frexp(np.max(np.abs([v[bad] for v in data]), axis=0))[1]
            c[:3, :-1][:, bad] = np.ldexp(
                _top_powers(h[bad], *(np.ldexp(v[bad], -e) for v in data)), e)
    return PPoly.construct_fast(jet if derivatives else c, np.append(x, x[-1] + h[-1]))


def _by_columns(a, b):
    """a @ b for a 2-d b, each column of it rounded as in a product with any
    other columns: BLAS takes a one-column product to gemv, which rounds
    otherwise than gemm, so that one is formed as one of two equal columns."""
    return a @ b if b.shape[1] > 1 else (a @ np.repeat(b, 2, axis=1))[:, :1]


@lru_cache(maxsize=None)
def _gauss_rule(n: int):
    """n-point Gauss-Legendre rule: nodes and weights on [-1, 1], and the
    (n, 6) matrix of the monomials u**j, j = 0..5, at those nodes mapped to
    u in [0, 1]."""
    nodes, weights = leggauss(n)
    u = 0.5 * (nodes[:, None] + 1.0)
    return nodes, weights, u ** np.arange(6)


class WarpingSolution:
    """Dense solution of m'' + k m = 0, m(0) = 0, m'(0) = 1.

    Attributes
    ----------
    k : RadialCurvature
    t_max : float
    grid : ndarray
        Fine node grid (strictly increasing, grid[0] = 0, grid[-1] = t_max).
    m_values, m_prime_values : ndarray
        Node values; m_values[0] == 0 and m_prime_values[0] == 1 exactly.

    Every read goes through one interpolant, the jet of (m, m', m''):
    ``m``, ``m_prime`` and ``m_second`` read one column each, anywhere in
    [0, 4096], vectorized, and return the node values exactly at every node;
    a t past t_max first carries the solution on to the first lattice node
    at or past it, which moves t_max (always grid[-1]) and appends the new
    cells to the interpolant. ``power_integral(q, t)`` and
    ``km_integral(t)`` are the integrals of m^q and k*m over [0, t], read
    from a cumulative table over the cells that is kept with the solution
    for each integrand and grows to the cell of the largest t read so far.
    """

    def __init__(self, k, grid, state):
        self.k = k
        self._tables = {}
        self._take_nodes(grid, state, 0)

    def _take_nodes(self, grid, state, j):
        """Adopt node data (m, m', M, M') that is this solution's up to node j:
        m'' = -k m and the cells from node j on are made, those before kept (a
        cell depends on its two nodes alone), and the inverse and the
        breakpoint values, which end at the last node, dropped."""
        self.t_max = float(grid[-1])
        self.grid, self._state, (self.m_values, self.m_prime_values) = grid, state, state[:2]
        # quintic pieces: value, slope, and curvature-exact second derivative
        m2 = -np.asarray(self.k(grid[j:])) * state[0][j:]
        jet = _quintic(grid[j:], state[0][j:], state[1][j:], m2, 2)
        if j:
            m2 = np.concatenate([self._m_second_values[:j], m2])
            jet = PPoly.construct_fast(np.concatenate([self._jet.c[:, :j], jet.c], axis=1),
                                       np.concatenate([grid[:j], jet.x]))
        self._m_second_values, self._jet = m2, jet
        self._t_of_mu = self._breakpoint_values = None

    def _reach(self, t):
        """t as a float array clipped to [0, t_max], after carrying the solution
        on, as ``solve_warping`` grows it from the pole, to the first lattice
        node at or past its largest entry (NaN aside). That raises as a solve
        so far would, past t = 4096 or at a zero of m, and changes nothing."""
        arr = np.asarray(t, dtype=float)
        hi = float(np.fmax.reduce(arr, axis=None)) if arr.size else 0.0
        if hi > self.t_max * (1.0 + 1e-12) + 1e-12:
            if not hi <= _MAX_HORIZON:
                raise DomainError(
                    f"warping functions are solved up to t = {_MAX_HORIZON:g}, got t = {hi:.6g}")
            self._take_nodes(*_grow(self.k, self.grid, self._state, hi), self.grid.size - 1)
        return np.clip(arr, 0.0, self.t_max)

    def _read(self, order, t):
        """Column ``order`` (an index or a slice) of the jet (m, m', m'') at
        t; a float for one column at a scalar t."""
        if np.any(np.asarray(t) < -1e-12):
            raise DomainError("warping functions are defined for t >= 0")
        arr = self._reach(t)  # before the lookup: a carry appends cells to the interpolant
        out = self._jet(arr)[..., order]
        return out if np.ndim(out) else float(out)

    def m(self, t):
        return self._read(0, t)

    def m_prime(self, t):
        return self._read(1, t)

    def m_and_prime(self, t):
        """(m, m') at t from one read, along a last axis of length 2."""
        return self._read(slice(0, 2), t)

    def m_second(self, t):
        """Second derivative of the interpolated profile (equals -k*m at the
        grid nodes exactly, and to interpolation accuracy in between)."""
        return self._read(2, t)

    def anchor_state(self):
        """(m, m') at the tail anchor of k from the node values, which the
        interpolant returns there too, at the cost of a read. An anchor
        within the sliver distance of a node is no node; there the
        interpolant is read."""
        a = self.k.t_tail
        self._reach(a)
        i = int(np.searchsorted(self.grid, a))
        if i < self.grid.size and self.grid[i] == a:
            return float(self.m_values[i]), float(self.m_prime_values[i])
        return tuple(self._jet(a)[:2].tolist())

    @cached_property
    def tail_limit(self) -> tuple[float, float]:
        """(L, e) from the tail's ``continuation`` (read only here) of the
        anchor state (m, m'): L = lim (m' + r m) e^(-r (t - a)), r the tail's
        ``order`` (lim m' but for a constant tail's growing-mode amplitude),
        at least 0 within its error e. (m, m') is taken within 10
        DEFAULT_REL_TOL (M, M') at the anchor's node, the first at or past a:
        the majorant of a solve's propagated error that ``_carry_block``
        carries beside m, m itself for k <= 0. L below -e raises
        ConjugatePointError."""
        k = self.k
        m_a, mp_a = self.anchor_state()
        i = min(int(np.searchsorted(self.grid, k.t_tail)), self.grid.size - 1)
        limit, err = k.tail.continuation(k.t_tail, m_a, mp_a, *(
            10.0 * DEFAULT_REL_TOL * float(v[i]) for v in self._state[2:]))
        return max(limit, 0.0), err

    def breakpoint_values(self):
        """m at the curvature breakpoints, those past t_max read at t_max;
        computed on the first call and kept. The geodesic integrands have
        their kinks there."""
        if self._breakpoint_values is None:
            self._breakpoint_values = self._jet(np.minimum(self.k.breakpoints, self.t_max))[:, 0]
        return self._breakpoint_values

    def _cell_values(self, powers, first, last):
        """m at the points u of the cells first .. last - 1 (t = grid[i] +
        u h_i), given the matrix powers[p, j] = u_p**j: its product with the
        power-form coefficients of the cells, the j-th scaled by h**j."""
        c = self._jet.c[::-1, first:last, 0].copy()
        h = np.diff(self.grid[first:last + 1])
        scale = h
        for row in c[1:]:
            row *= scale
            scale = scale * h
        return _by_columns(powers, c)

    def _integral(self, key, t):
        """Integral over [0, t] (t clipped at 0, the solution carried on to
        t) of m^key for an integer key >= 1, or of k*m for key "km";
        vectorized in t.

        A key's table holds the integral up to nodes 0 .. j. A call whose last
        node i with grid[i] <= t lies past j sums onto it an n-point
        Gauss-Legendre rule over the cells j .. i - 1, with m at its nodes
        from ``_cell_values`` (n = floor(5q/2) + 1 is exact on m^q, of degree
        5q on a cell; k*m takes n = 8), summed node by node in a fixed order,
        so bit for bit as a table built at once.
        It adds to the entry at node i one panel of the rule over [grid[i],
        t]; where every panel is empty (t at nodes) it returns table entries.
        """
        t = self._reach(t)
        if key == "km":
            n, integrand = 8, lambda x, m: np.asarray(self.k(x.ravel())).reshape(x.shape) * m
        else:
            n, integrand = 5 * key // 2 + 1, lambda x, m: m ** key
        nodes, weights, powers = _gauss_rule(n)
        table = self._tables.get(key, np.zeros(1))
        i = np.searchsorted(self.grid, t, side="right") - 1
        if table.size < self.grid.size and (last := int(i.max(initial=0))) >= table.size:
            first = table.size - 1
            half = 0.5 * np.diff(self.grid[first:last + 1])
            x = (self.grid[first:last] + half) + half * nodes[:, None]
            values = integrand(x, self._cell_values(powers, first, last))
            cells = half * np.add.reduce(weights[:, None] * values, axis=0)
            table = self._tables[key] = np.concatenate(
                [table[:-1], np.cumsum(np.append(table[-1], cells))])
        half = 0.5 * (t - self.grid[i])
        out = table[i]
        if np.any(half):
            x = (self.grid[i] + half)[..., None] + half[..., None] * nodes
            out = out + half * (integrand(x, self._jet(x)[..., 0]) @ weights)
        return float(out) if np.ndim(t) == 0 else out

    def power_integral(self, q: int, t: float) -> float:
        """Integral of m^q over [0, t] for an integer q >= 1."""
        # m^q overflows at large q (0 * inf in an empty panel): the caller rejects the volume
        with np.errstate(over="ignore", invalid="ignore"):
            return self._integral(q, t)

    def km_integral(self, t):
        """Integral of k*m over [0, t], vectorized.

        It reads k and m, never m', so it checks 1 - m'(t) independently.
        """
        return self._integral("km", t)

    def invert(self, mu):
        """t with m(t) = mu, m'(t) and m''(t), elementwise for an increasing m.

        No range check runs: mu is clipped to [0, m(t_max)], t to [0, t_max].
        The quintic t(mu) through t_i, 1/m'_i and -m''_i/m'_i^3 at the nodes
        mu_i = m_i is built on the first call, in the same power form as m
        and with the same end cell, so mu = m(t_max) gives t_max exactly, and
        so is the jet of (m, m', m''): a call reads t0 = t(mu), then all
        three at t0. One Newton step on m takes the error of t0 (about
        1e-11 next to a curvature kink) to roundoff, and over that step
        m'(t) = m'(t0) + m''(t0) (t - t0) is exact to rounding; m'' is m''(t0).
        """
        if self._t_of_mu is None:
            mp = self.m_prime_values
            self._t_of_mu = _quintic(self.m_values, self.grid, 1.0 / mp,
                                     -self._m_second_values / mp ** 3)
        mu = np.minimum(np.maximum(mu, 0.0), self.m_values[-1])
        t0 = self._t_of_mu(mu)
        m, mp, mpp = np.rollaxis(self._jet(t0), -1)
        t = np.minimum(np.maximum(t0 - (m - mu) / mp, 0.0), self.t_max)
        return t, mp + mpp * (t - t0), mpp

    def __repr__(self):
        return f"WarpingSolution(t_max={self.t_max!r}, nodes={len(self.grid)})"


def solve_warping(k: RadialCurvature, t_max: float | None = None) -> WarpingSolution:
    """Solve the warping ODE from the pole to the first node of the 1/64
    lattice at or past t_max (the tail anchor of k without one), by transfer
    matrices and tail closed forms; reads further out carry it on the same
    way. t_max sets where the solve stops and changes no number: carried on
    to any node, the solution has the grid and node values of a direct solve
    to it, bit for bit, except past a curvature breakpoint within the sliver
    distance (1/64000) of the node where it stopped, which a longer direct
    solve puts in that node's place.

    The node grid is the 1/64 lattice with every curvature breakpoint
    merged in. In the local variable s in [-1, 1] of a cell with midpoint c
    and half-width r the ODE reads d2m/ds2 = -kappa(s) m with
    kappa(s) = r^2 k(c + r s). kappa is replaced by its degree-8 interpolant
    at the Chebyshev points (exact for spline cores), and the Taylor
    coefficients of the two solutions with (m, dm/ds) = (1, 0) and (0, 1) at
    s = 0 follow from the recurrence

        (j + 2)(j + 1) a_{j+2} = -sum_i kappa_i a_{j-i},

    vectorized over cells. Summed at s = -1 and s = +1 they give each
    cell's 2x2 transfer matrix, and (m, m') is carried cell by cell from the
    exact (0, 1) at t = 0. Cells are solved in blocks of 2048 (t = 32), each
    sampling k in one array call, so the memory of a solve does not grow
    with its horizon. For a tail with p = 0 they stop at the first node at
    or past the tail anchor, and the tail's ``carry`` gives the nodes
    beyond; for a constant model (``_split``) they never start, and the
    carry gives every node from the pole; a ``PowerLawTail`` keeps the
    matrices.

    k need not be smooth inside a cell: a core may have kinks or jumps
    that are not breakpoints. Each fit is checked through its two
    highest Chebyshev coefficients and against k next to both ends of the
    cell. A cell where it misses, or whose kappa coefficients sum to more
    than 1 in absolute value ((h/2)^2 |k| > 1 for constant k, which keeps
    the series short), is bisected into pieces, each with its own fit and
    matrix, until neither holds or the piece is a few ulps wide. Each round
    of bisection is one more array call of k. A cell that needs more than
    128 pieces (a constant |k| above about 2.7e8), or a piece at the ulp
    floor whose kappa is still large, raises DomainError.

    Every solve has the relative accuracy ``DEFAULT_REL_TOL``. It sets the
    number of Taylor terms: the series of a piece stop once its newest two
    coefficients fall below DEFAULT_REL_TOL * 1e-3 of the leading ones, so
    a piece's matrix does not depend on the cells solved with it. The fit
    check uses the same bound times the piece's half-width.

    Raises ConjugatePointError when m vanishes at some t > 0, which happens
    for strongly positive curvature; the crossing is the root of the series
    of the piece in which m first reaches zero, or the closed-form zero of
    the tail's solution. Raises DomainError when the solution overflows, and
    when t_max exceeds 4096.
    """
    t_max = k.t_tail if t_max is None else t_max
    if not 0 < t_max <= _MAX_HORIZON:  # also rejects NaN
        raise DomainError(f"t_max must lie in (0, {_MAX_HORIZON:g}], got {t_max}")
    return WarpingSolution(k, *_grow(k, np.zeros(1), [np.zeros(1), np.ones(1)] * 2, t_max))


def _split(k: RadialCurvature, grid: np.ndarray) -> int:
    """Index of the last node of grid the transfer matrices reach: the last
    for a power-law tail; for a tail with p = 0 the first at or past the
    tail anchor, or node 0 for a constant model, a spline core whose every
    value is the tail's c (its knot slopes solve to 0, so its cubics are
    exactly c)."""
    if k.tail.p:
        return grid.size - 1
    if k.core.kind == "spline" and np.all(k.core.values == k.tail.c):
        return 0
    return min(int(np.searchsorted(grid, k.t_tail)), grid.size - 1)


def _grow(k: RadialCurvature, grid, state, t: float):
    """(grid, node state (m, m', M, M')) carried on from the last node, a
    lattice node, to the first one at or past t > grid[-1], from node
    ``_split(k, grid)``: past it the tail's closed form reaches each new
    node from that one, so no old node is carried again."""
    nodes = _node_grid(k.breakpoints, round(grid[-1] * _NODES_PER_UNIT),
                       math.ceil(t * _NODES_PER_UNIT))
    i = _split(k, grid)
    new = _carry(k, np.concatenate([grid[i:i + 1], nodes[1:]]), [float(v[i]) for v in state])
    return (np.concatenate([grid, nodes[1:]]),
            [np.concatenate([old, v]) for old, v in zip(state, new)])


def _carry(k: RadialCurvature, grid: np.ndarray, state: list):
    """(m, m', M, M') at grid[1:] from ``state`` at grid[0]: by transfer
    matrices, in blocks of 2048 cells, up to node ``_split(k, grid)``, and
    past it by the tail's ``carry``, with M = m (M is read at the anchor)."""
    split = _split(k, grid)
    ends = sorted({*range(0, split, _BLOCK_CELLS), split, grid.size - 1})
    blocks = []
    for first, last in zip(ends, ends[1:]):
        nodes = grid[first:last + 1]
        block = (_carry_block(k, nodes, state) if first < split
                 else k.tail.carry(nodes, *state[:2]) * 2)
        state = [float(v[-1]) for v in block]
        if not all(map(math.isfinite, state)):
            raise DomainError(f"the warping function overflows before t = {grid[-1]:g}")
        blocks.append(block)
    return blocks[0] if len(blocks) == 1 else [np.concatenate(v) for v in zip(*blocks)]


def _product(rows, m: float, mp: float):
    """(m, m') at the start and after each matrix [[a, b], [c, d]] of rows (a, b, c, d)."""
    m_steps, mp_steps = [m], [mp]
    for a, b, c, d in zip(*(row.tolist() for row in rows)):
        m, mp = a * m + b * mp, c * m + d * mp
        m_steps.append(m)
        mp_steps.append(mp)
    return np.asarray(m_steps), np.asarray(mp_steps)


def _carry_block(k: RadialCurvature, nodes: np.ndarray, state: list):
    """(m, m', M, M') at nodes[1:] from ``state`` at nodes[0], by the transfer
    matrices T of the pieces of the cells between the nodes; (M, M') by |T|,
    entry by entry, which bounds how an error in (m, m') grows (comparison
    theorem: Hairer, Norsett and Wanner, Solving ODEs I, I.10). M is read at
    the anchor's node, the first at or past the tail anchor, so |T| runs only
    up to it and M = m past it. From M = m, a block with no entry below 0
    (k <= 0) up to there gives M = m with no product."""
    mid, half, cell, kappa = _fitted_pieces(k, nodes)
    coef = _taylor_coefficients(kappa)
    # basis values and s-derivatives at s = +1 (p) and s = -1 (q)
    ends = (_ends(coef.shape[0]) @ coef.reshape(coef.shape[0], -1)).reshape(4, 2, -1)
    p, (q0, q1) = ends[:2], ends[2:]
    # transfer matrix P Q^-1 in s; the Wronskian makes det Q = 1
    t00, t10 = p[:, 0] * q1[1] - p[:, 1] * q1[0]
    t01, t11 = p[:, 1] * q0[0] - p[:, 0] * q0[1]
    rows = t00, t01 * half, t10 / half, t11
    m_steps, mp_steps = _product(rows, *state[:2])

    vanished = np.flatnonzero(m_steps[1:] <= 0.0)
    if vanished.size:
        i = vanished[0]
        # the piece's series from its midpoint state (m, dm/ds) = Q^-1 (m, r m')
        m0, ds0 = m_steps[i], half[i] * mp_steps[i]
        series = ((q1[1, i] * m0 - q0[1, i] * ds0) * coef[:, 0, i]
                  + (q0[0, i] * ds0 - q1[0, i] * m0) * coef[:, 1, i])
        s_root = 1.0
        if np.polynomial.polynomial.polyval(1.0, series) < 0.0:
            s_root = brentq(np.polynomial.polynomial.polyval, -1.0, 1.0,
                            args=(series,), xtol=1e-15)
        raise ConjugatePointError(float(mid[i] + half[i] * s_root))

    last = np.cumsum(np.bincount(cell, minlength=nodes.size - 1))
    out = [m_steps[last], mp_steps[last]]
    reach = min(int(np.searchsorted(nodes, k.t_tail)), nodes.size - 1)
    rows = [row[:last[reach - 1] if reach else 0] for row in rows]
    if not reach or state[2:] == state[:2] and min(row.min() for row in rows) >= 0.0:
        return out * 2
    majorant = _product([np.abs(row) for row in rows], *state[2:])
    return out + [np.concatenate([v[last[:reach]], w[reach:]]) for v, w in zip(majorant, out)]


@lru_cache(maxsize=None)
def _ends(terms: int) -> np.ndarray:
    """The (4, terms) matrix taking Taylor coefficients a_j to the value and
    the s-derivative at s = +1, then at s = -1; read-only, as it is shared."""
    j = np.arange(terms)
    sign = (-1.0) ** j
    ends = np.stack([np.ones_like(sign), j, sign, -j * sign])
    ends.flags.writeable = False
    return ends


def _fitted_pieces(k: RadialCurvature, grid: np.ndarray):
    """The cells of grid cut into pieces on which the degree-8 fit of k holds
    and is small, as (midpoint, half-width, cell index, kappa) in the order
    of t; kappa holds the monomial coefficients (9, pieces) of the fitted
    r^2 k(c + r s).

    Besides the Chebyshev points k is sampled one ulp inside either end of a
    piece. The fit misses by the sum of its two highest Chebyshev
    coefficients, or by its distance to those end samples if larger. A piece
    where the miss exceeds _TAYLOR_TOL * r, beyond rounding, is bisected: a
    miss d in kappa moves m' by about d / r relative to m over the piece.
    Rounding is 64 ulps of r^2 |k| at its largest over the piece or over the
    first samples of its cell, whose noise a piece next to a root of k
    keeps, plus 64 eps |c| / r times sum i |kappa_i|: the argument c + r s
    of k rounds by about |c| eps, which moves s by |c| eps / r, and the
    fit's |d kappa / ds| is at most that sum. A piece with sum |kappa_i| > 1
    is bisected too; a bisection cuts that sum to about a quarter or less.
    Bisection stops at a half-width of 64 ulps, where a piece that is still
    too large for its series raises DomainError, as does a cell cut into
    more than _MAX_PIECES_PER_CELL pieces.
    """
    eps = np.finfo(float).eps
    lo, hi, cell = grid[:-1], grid[1:], np.arange(grid.size - 1)
    count = np.ones(cell.size, dtype=int)  # pieces per cell, kept or pending
    pieces, scale = [], None  # scale: per cell, max |k| of its first samples
    while lo.size:
        mid, half, t = _cell_samples(lo, hi)
        samples = np.asarray(k(t.ravel()), dtype=float).reshape(t.shape)
        if not np.all(np.isfinite(samples)):
            raise DomainError(f"curvature is not finite on [0, {grid[-1]:g}]")
        kappa, size = half ** 2 * samples, np.max(np.abs(samples), axis=0)
        scale = size if scale is None else scale
        fit = kappa[:_CHEB.size]
        coef, check = _by_columns(_FIT, fit), _by_columns(_CHECK, fit)
        miss = np.maximum(np.abs(check[0]) + np.abs(check[1]),
                          np.max(np.abs(check[2:] - kappa[_CHEB.size:]), axis=0))
        magnitude = np.abs(coef)
        # summed row by row, so a piece's sum is the same in a block of any size
        rounding = 64 * eps * (half ** 2 * np.maximum(scale[cell], size) + np.abs(mid) / half
                               * np.add.reduce(_DEGREES[:, None] * magnitude, axis=0))
        large = np.sum(magnitude, axis=0) > 1.0
        floor = half <= 64 * eps * np.maximum(1.0, np.abs(mid))
        split = ((miss > _TAYLOR_TOL * half + rounding) | large) & ~floor
        if not pieces and not np.any(split | large):  # the cells, none split or stuck
            return mid, half, cell, coef
        keep = ~split
        pieces.append((mid[keep], half[keep], cell[keep], coef[:, keep]))
        count += np.bincount(cell[split], minlength=count.size)
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        cell = np.tile(cell[split], 2)
        stuck = np.concatenate([mid[large & floor], lo[count[cell] > _MAX_PIECES_PER_CELL]])
        if stuck.size:
            raise DomainError(
                "curvature is too large to solve or varies too fast for the node grid "
                f"near t = {float(np.min(stuck)):.6g}")
    mid, half, cell, kappa = (np.concatenate(part, axis=-1) for part in zip(*pieces))
    order = np.argsort(mid, kind="stable")
    return mid[order], half[order], cell[order], kappa[:, order]


def _taylor_coefficients(kappa: np.ndarray) -> np.ndarray:
    """Taylor coefficients a_j of the solutions of m'' = -kappa(s) m with
    (m, m') = (1, 0) and (0, 1) at s = 0, as an array (terms, 2, pieces).

    kappa holds the monomial coefficients (9, pieces). The series of a
    piece stops, its further coefficients zero, once its newest two
    coefficients are below _TAYLOR_TOL, or after _MAX_TERMS terms. Each
    term is one product kappa_i a_{j-i} over i and one sum over i: a
    reduce over the first axis of a C-contiguous array adds its rows in
    order of i, so the terms are those of adding the products one by one.
    """
    a = np.empty((_MAX_TERMS, 2, kappa.shape[1]))
    a[:2] = np.eye(2)[:, :, None]
    live = big = True  # live: a piece's newest two terms are not both below the bound
    for j in range(_MAX_TERMS - 2):
        nxt = a[j + 2]
        n = min(j, _FIT_DEGREE) + 1
        np.add.reduce(kappa[:n, None] * a[j::-1][:n], axis=0, out=nxt)
        nxt /= -(j + 2) * (j + 1)
        nxt *= live
        live = big | (big := np.abs(nxt).max(axis=0) >= _TAYLOR_TOL)
        if not live.any():
            return a[:j + 3]
    return a


# ---------------------------------------------------------------------------
# Slope limit and total curvature
# ---------------------------------------------------------------------------


def slope_limit(w: WarpingSolution, *, with_bound: bool = False):
    """Limit of m'(t) as t -> infinity for nonpositive curvature, from
    ``tail_limit``: its bound is 10 * DEFAULT_REL_TOL * L up to rounding. A
    negative constant tail has a growing mode and raises UnboundedError.

    With ``with_bound=True`` returns (value, error_bound).
    """
    k = w.k
    if not k.is_nonpositive():
        raise DomainError("slope_limit requires nonpositive curvature")
    if k.tail.order:
        raise UnboundedError("m' grows without bound: constant negative tail has a growing mode")
    return w.tail_limit if with_bound else w.tail_limit[0]


def total_curvature_direct(w: WarpingSolution) -> float:
    """Total curvature of the surface of revolution: 2*pi * integral of k*m.

    Quadrature runs to the tail anchor a. Past it m'' = -k m integrates once
    in closed form, so the tail contributes m'(a) - lim m', the limit from
    ``tail_limit`` (0 for a pure decaying mode). A growing mode raises
    UnboundedError.
    """
    k = w.k
    limit, err = w.tail_limit
    if k.tail.order:
        if limit > err:
            raise UnboundedError("total curvature diverges: constant negative tail")
        limit = 0.0
    return 2.0 * math.pi * (w.km_integral(k.t_tail) + w.anchor_state()[1] - limit)


# ---------------------------------------------------------------------------
# Model surface
# ---------------------------------------------------------------------------


class ModelSurface:
    """Surface of revolution dt^2 + m(t)^2 dtheta^2 with nonpositive radial
    curvature (the Cartan-Hadamard setting every triangle operation needs).
    Its curvature, horizon and warping function are read through ``warping``.
    """

    def __init__(self, warping: WarpingSolution):
        if not warping.k.is_nonpositive():
            raise DomainError(
                "model surfaces are restricted to nonpositive radial curvature")
        self.warping = warping

    @classmethod
    def from_curvature(cls, k: RadialCurvature, t_max: float | None = None) -> "ModelSurface":
        return cls(solve_warping(k, t_max))

    def __repr__(self):
        return f"ModelSurface({self.warping!r})"
