"""Oracles and builders that only the tests use.

The pair integral ``oscillatory_pair_integral`` sums both factors term by
term at any real frequencies and pairs them by the package's regularized
quadrature.  Through it, the quadrature route of the phase-space calculus
checks the exact termwise laws of the involution (``_dagger_terms``, here) and of the
composition (``deformation._compose_terms``), the shifted symbol checks
the conjugation ``heisenberg.adu_conjugate``, sampled operators
(pointwise and Fourier multipliers) exercise the operator and adjoint
machinery beyond lattice symbols, and the mesh evaluation of the pi
functional checks its folded route, and the whole-mesh form of the
regularized quadrature, with its weights evaluated on the whole inner and
outer meshes, checks its streamed pairing and the half-mesh weights.  No command of the
package runs any of them.
"""

from functools import lru_cache
from itertools import groupby, product as _iproduct

import numpy as np

from deformkit import deformation
from deformkit.deformation import (
    _DU,
    _H,
    _INNER,
    _OUTER,
    OSC_PAD,
    OSC_Q,
    _compose_terms,
    _reg_pairs,
    _weight_derivative,
)
from deformkit.errors import ConvergenceError
from deformkit.pseudodiff import DiscretizedOperator
from deformkit.symbols import (
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    _rowdot,
    _sample_norms,
    _wave_sum,
    centered_dft,
    centered_idft,
    derivative,
)

# ---------------------------------------------------------------------------
# Grids and symbols


def grid_points(data) -> np.ndarray:
    """All points of a grid symbol or module vector, shape (N,)*n + (n,)."""
    return np.stack(np.meshgrid(*([data.axis] * data.n), indexing="ij"), axis=-1)


def dual_axis_points(N: int, L: float) -> np.ndarray:
    """Dual (angular frequency) grid (pi/L) * {-N/2, ..., N/2 - 1}."""
    return (np.arange(N) - N // 2) * (np.pi / L)


def symbol_star(f):
    """Pointwise adjoint f*(x) = f(x)^H of a plane-wave or grid symbol.

    Plane-wave terms map to conj-transposed coefficients at -m.
    """
    if isinstance(f, PlaneWaveSymbol):
        t = f.terms.copy()
        t["m"], t["c"] = -t["m"], np.conj(np.swapaxes(t["c"], -1, -2))
        return PlaneWaveSymbol(f.n, f.L, f.k, t)
    if isinstance(f, GridSymbol):
        return f.with_values(np.conj(np.swapaxes(f.values, -1, -2)))
    raise TypeError(f"cannot star {type(f).__name__}")


def shifted_symbol(sym: PlaneWavePhaseSymbol, a, b) -> PlaneWavePhaseSymbol:
    """sigma(. - a, . - b), the symbol of AdU(a, b) Op(sigma): each term picks up
    exp(-i(omega.a + w.b))."""
    om, w = sym.omega(sym.terms["m"]), sym.terms["w"]
    return sym.scale_terms(np.exp(-1j * (_rowdot(om, np.asarray(a, dtype=float))
                                         + _rowdot(w, np.asarray(b, dtype=float)))))


# ---------------------------------------------------------------------------
# Sampled operators


def right_multiply(g: ModuleVector, c) -> ModuleVector:
    """Right module action g . c with c a k x k matrix."""
    c = np.asarray(c, dtype=np.complex128)
    return g.with_values(np.einsum("...ab,bc->...ac", g.values, c))


def _sampled_operator(geometry: tuple, samples: np.ndarray, axes=()) -> DiscretizedOperator:
    """Left multiplication by k x k samples: pointwise, or per frequency over axes.

    The adjoint multiplies by the conjugate transposed samples.
    """

    def by(s):
        def apply(values):
            if not axes:
                return np.einsum("...ab,...bc->...ac", s, values)
            ghat = np.einsum("...ab,...bc->...ac", s, centered_dft(values, axes))
            return centered_idft(ghat, axes) / float(geometry[1]) ** len(axes)

        return apply

    return DiscretizedOperator(
        geometry, geometry, by(samples), by(np.conj(np.swapaxes(samples, -1, -2)))
    )


def multiplier_operator(phi, n: int, N: int, L: float, k: int = 1) -> DiscretizedOperator:
    """Operator of a frequency-only symbol phi(xi): diagonal after Fourier.

    phi is a callable taking arrays of angular frequencies per axis (as
    a mesh) and returning scalar or k x k samples.
    """
    xi = dual_axis_points(N, L)
    mesh = np.meshgrid(*([xi] * n), indexing="ij") if n > 1 else [xi]
    vals = np.asarray(phi(*mesh), dtype=np.complex128)
    if vals.shape == (N,) * n:
        vals = vals[..., None, None] * np.eye(k)
    return _sampled_operator((n, N, L, k), vals, tuple(range(n)))


def multiplication_operator(psi: GridSymbol) -> DiscretizedOperator:
    """Pointwise left multiplication by a sampled symbol."""
    return _sampled_operator(psi.geometry(), psi.values)


# ---------------------------------------------------------------------------
# Quadrature route of the phase-space calculus


def oscillatory_pair_integral(fq, fc, gq, gc) -> np.ndarray:
    """Regularized evaluation of int int F(u) G(v) exp(2 pi i u.v) dv du.

    F(u) = sum_t fc[t] exp(2 pi i fq[t].u), G(v) = sum_t gc[t]
    exp(2 pi i gq[t].v) with real cycle frequencies fq, gq of shape
    (T, n) and k x k coefficients fc, gc of shape (T, k, k); the result
    keeps F on the left.  Both factors are summed term by term on the
    quadrature's meshes (any real frequencies, moderate term counts) and
    paired by deformation._regularized_quadrature, looked up at each call.
    """
    fq, gq = np.asarray(fq, dtype=float), np.asarray(gq, dtype=float)
    fc, gc = np.asarray(fc, dtype=np.complex128), np.asarray(gc, dtype=np.complex128)
    n = fq.shape[1]
    order = n // 2 + 1
    vmesh = np.stack(np.meshgrid(*([_INNER] * n), indexing="ij"), axis=-1)
    umesh = np.stack(np.meshgrid(*([_OUTER] * n), indexing="ij"), axis=-1)
    fc = fc * ((1.0 + np.sum(fq ** 2, axis=1)) ** order)[:, None, None]

    def g_derivative(sigma_g):
        mult = np.prod((2j * np.pi * gq) ** np.asarray(sigma_g), axis=1)
        return _wave_sum(gc * mult[:, None, None], 2j * np.pi, (vmesh,), (gq,))

    def f_rows(rows):
        return _wave_sum(fc, 2j * np.pi, (umesh[rows],), (fq,))

    return deformation._regularized_quadrature(n, order, g_derivative, f_rows, fc.shape[-1])


def _kernel_value_oracle(omega, w) -> complex:
    """Quadrature value of (2pi)^{-n} int int e^{-iz.eta} e^{i omega.z} e^{i w.eta}.

    Separable per axis; the analytic value is exp(i omega.w).  Evaluated
    with the generic pair integral in cycle variables.
    """
    val = 1.0 + 0.0j
    one = np.ones((1, 1, 1))
    for om_ax, w_ax in zip(omega, w):
        # eta-side factor exp(i w eta) -> F(u) = exp(2 pi i (w/2pi) u);
        # z-side exp(i omega z), z = -2 pi v -> G(v) = exp(2 pi i (-omega) v).
        pair = oscillatory_pair_integral([[w_ax / (2.0 * np.pi)]], one, [[-om_ax]], one)
        val *= complex(pair[0, 0])
    return val


def _dagger_terms(a: PlaneWavePhaseSymbol) -> PlaneWavePhaseSymbol:
    """The involution, Op(dagger(a)) = Op(a)*, by its exact termwise law.

    c e^{i(omega.x + w.xi)} maps to conj(c)^T e^{i omega.w} e^{-i(omega.x + w.xi)}.
    """
    t = a.terms.copy()
    phase = np.exp(1j * _rowdot(a.omega(t["m"]), t["w"]))
    t["m"], t["w"] = -t["m"], -t["w"]
    t["c"] = phase[:, None, None] * np.conj(np.swapaxes(t["c"], -1, -2))
    return PlaneWavePhaseSymbol(a.n, a.L, a.k, t)


def symbol_dagger(a: PlaneWavePhaseSymbol, check: bool = True):
    """Involution of a lattice phase-space symbol: Op(dagger(a)) = Op(a)*.

    The exact termwise law of _dagger_terms, with the defining
    twisted-kernel integral re-evaluated, when check, at the first
    deformation.CHECK_POINTS frequencies by the quadrature oracle;
    ConvergenceError beyond deformation.ROUTE_TOL.
    """
    result = _dagger_terms(a)
    if check and len(a.terms):
        worst = 0.0
        for m, w, _ in a.terms[: deformation.CHECK_POINTS]:
            omega = a.omega(m)
            exact = np.exp(1j * float(omega @ np.asarray(w)))
            oracle = _kernel_value_oracle(omega, w)
            worst = max(worst, abs(oracle - exact))
        if worst > deformation.ROUTE_TOL:
            raise ConvergenceError(f"involution kernel quadrature off by {worst:.3e}")
    return result


def symbol_compose(a: PlaneWavePhaseSymbol, b: PlaneWavePhaseSymbol, check: bool = True):
    """Composition of lattice phase-space symbols: Op(compose(a, b)) = Op(a) Op(b).

    The exact termwise law of _compose_terms, with the defining integral
    (2pi)^{-n} int int e^{-iz.eta} a(x, xi-eta) b(x-z, xi) dz deta
    re-evaluated, when check, at four phase points by the quadrature
    oracle; ConvergenceError beyond deformation.ROUTE_TOL.
    """
    result = _compose_terms(a, b)
    if check and len(a.terms) and len(b.terms):
        n = a.n
        xs, xis = np.linspace(-a.L / 2.0, a.L / 2.0, 4), np.linspace(-1.0, 1.0, 4)
        worst = 0.0
        scale = max(float(np.abs(result.evaluate(np.zeros(n), np.zeros(n))).max()), 1.0)
        sa, sb = a.terms, b.terms
        om_a, om_b = a.omega(sa["m"]), b.omega(sb["m"])

        def at(t, om, xv, xiv):
            """The coefficients of the terms t times their phase at (x, xi)."""
            return (t["c"] * np.exp(1j * _rowdot(om, xv))[:, None, None]
                    * np.exp(1j * _rowdot(t["w"], xiv))[:, None, None])

        for x, xi in zip(xs, xis):
            xv = np.full(n, x)
            xiv = np.full(n, xi)
            # F(u) = a(x, xi - u): cycles -w/2pi; G(v) = b(x + 2 pi v, xi).
            oracle = oscillatory_pair_integral(-sa["w"] / (2.0 * np.pi), at(sa, om_a, xv, xiv),
                                               om_b, at(sb, om_b, xv, xiv))
            exact = result.evaluate(xv, xiv)
            worst = max(worst, float(np.abs(oracle - exact).max()) / scale)
        if worst > deformation.ROUTE_TOL:
            raise ConvergenceError(f"composition routes disagree: {worst:.3e}")
    return result


# ---------------------------------------------------------------------------
# The regularized quadrature with the outer mesh held whole


@lru_cache(maxsize=None)
def whole_mesh_weight_groups(n: int, order: int) -> tuple:
    """((sigma_g, W), ...) as deformation._weight_groups gives them, each W evaluated on the
    whole inner mesh rather than unfolded from its half (cached, read-only)."""
    mesh = np.meshgrid(*([_INNER] * n), indexing="ij", sparse=True)
    r2 = sum(v * v for v in mesh)
    pairs = _reg_pairs(n, order)
    terms = {sw: _weight_derivative(n, order, sw) for sw, _, _ in pairs}
    decay = {q: (1.0 + r2) ** float(-q) for q in {q for t in terms.values() for _, q, _ in t}}

    def derivative(sigma_w):  # d^sigma_w (1+|v|^2)^{-order}
        out = np.zeros_like(r2)
        for mono, q, c in terms[sigma_w]:
            term = c * decay[q]
            for ax, power in enumerate(mono):
                if power:
                    term = term * mesh[ax] ** power
            out += term
        return out

    groups: dict[tuple, np.ndarray] = {}
    for sigma_w, run in groupby(pairs, key=lambda pair: pair[0]):
        d_w = derivative(sigma_w)
        for _, sigma_g, coef in run:
            groups[sigma_g] = groups[sigma_g] + coef * d_w if sigma_g in groups else coef * d_w
    for w in groups.values():
        w.flags.writeable = False
    return tuple(sorted(groups.items()))


def whole_mesh_outer_weight(n: int, order: int) -> np.ndarray:
    """W_N(u) = (1+|u|^2)^{-order} evaluated on the whole outer mesh, which
    deformation._outer_weight holds on its indices 0..PAD Q/2 per axis."""
    umesh = np.meshgrid(*([_OUTER] * n), indexing="ij", sparse=True)
    return (1.0 + sum(u * u for u in umesh)) ** float(-order)


def whole_mesh_gcheck(n: int, order: int, g_derivative, k: int) -> np.ndarray:
    """Gcheck on the whole outer mesh: Psi, summed in deformation._gcheck_rows's order from
    the whole-mesh weights, zero-padded along every axis, one centered IDFT over all of
    them, times h^n.  The arrays g_derivative returns are left as they are."""
    Q, Qp = OSC_Q, OSC_PAD * OSC_Q
    psi = np.zeros((Q,) * n + (k, k), dtype=np.complex128)
    for sigma_g, weight in whole_mesh_weight_groups(n, order):
        psi += weight[..., None, None] * g_derivative(sigma_g)
    off = (Qp - Q) // 2
    padded = np.zeros((Qp,) * n + (k, k), dtype=np.complex128)
    padded[(slice(off, off + Q),) * n] = psi
    centered_idft(padded, tuple(range(n)), overwrite=True)
    padded *= _H ** n
    return padded


def whole_mesh_quadrature(n: int, order: int, g_derivative, f_rows, k: int):
    """deformation._regularized_quadrature's integral, with the same arguments, as one
    pairing einsum over the whole outer mesh: F_M is f_rows(slice(None))."""
    gcheck = whole_mesh_gcheck(n, order, g_derivative, k)
    pairing = "q,qab,qbc->ac" if n == 1 else "qr,qrab,qrbc->ac"
    fvals = f_rows(slice(None))
    return np.einsum(pairing, whole_mesh_outer_weight(n, order), fvals, gcheck) * _DU ** n


# ---------------------------------------------------------------------------
# The pi functional on the full mesh


def cv_functional_mesh(sym: PlaneWavePhaseSymbol, x_axis, xi_axis) -> float:
    """pi(a) = max_{beta, gamma in {0,1}^n} sup |d_x^beta d_xi^gamma a| over the
    mesh x_axis^n x xi_axis^n, each derivative (symbols.derivative) evaluated
    term by term at every mesh point (PlaneWavePhaseSymbol.evaluate); any x axis."""
    n = sym.n
    x_pts = np.stack(np.meshgrid(*([x_axis] * n), indexing="ij"), axis=-1)
    xi_pts = np.stack(np.meshgrid(*([xi_axis] * n), indexing="ij"), axis=-1)
    x_pts = x_pts.reshape(x_pts.shape[:-1] + (1,) * n + (n,))
    xi_pts = xi_pts.reshape((1,) * n + xi_pts.shape)
    best = 0.0
    for alpha in _iproduct((0, 1), repeat=2 * n):
        d = derivative(sym, alpha) if any(alpha) else sym
        best = max(best, float(_sample_norms(d.evaluate(x_pts, xi_pts)).max()))
    return best
