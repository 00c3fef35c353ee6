"""One-way classical correlations, quantum discord, concurrence and
entanglement of formation for two-qubit states, and the residual of the
Koashi-Winter identity on pure three-qubit states, from one split of each
into single-qubit entropies and pair marginals that the scenario shares.

J and D of a (state, measured qubit) share one Bloch form and one
conditional-entropy minimization, memoized on the DensityMatrix object per
measured qubit, so a later J or D on the same object reuses both. One
plain-float kernel prices each measurement direction from that form in
a few flops, as the objective of a Newton minimization on the sphere with
closed-form derivatives, from the pole (0, 0, 1) and from the best
eigenvector of T^T T, T the correlation tensor. A start that stops on a
saddle point, as an X state's pole can be, escapes along the Hessian's
negative curvature. The axis start runs first. Only projective pairs are
searched, but on a rank <= 2 state a minimum within CERTIFY_TOL of the
Koashi-Winter floor, the POVM minimum, is certified and skips the pole start.
J and D read the two qubit entropies off the form, other entropies the
spectrum a DensityMatrix kept, and concurrence its kept eigenvectors through
Wootters' tau matrix. discord has one decomposition, and D = I_q - J, with
I_q from partial traces, is a tested property.
discord_oracle_grid re-derives everything through a separate brute-force
route (embedded Paulis, index-by-index partial traces, each grid effect's
block their linear combination) so the two can certify each other.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
from math import pi
from types import SimpleNamespace

import numpy as np

from .entropy import binary_entropy, entropy_of_spectrum, von_neumann_entropy
from .exceptions import (
    BadPermutationError,
    BadSubsystemError,
    ConsistencyError,
    DimMismatchError,
    OutOfRangeError,
)
from .linalg import kron
from .measurement import PROB_FLOOR, SIGMA_X, SIGMA_Y, SIGMA_Z, BlochAngles
from .states import (
    DensityMatrix,
    PureState,
    _integer,
    density_from_pure,
    partial_trace,
    sample_pure_state,
)

_I2 = np.eye(2, dtype=complex)
_PAULI = np.stack([_I2, SIGMA_X, SIGMA_Y, SIGMA_Z])
_YY = kron(SIGMA_Y, SIGMA_Y)

# identity-audit residuals must land in this window
RESIDUAL_LOW = -1e-6
RESIDUAL_HIGH = 2e-3

# a Newton start stops after NEWTON_MAXITER iterations, once its predicted
# decrease -g.d is below rounding, NEWTON_STOP * max(1, |f|), or once
# LINE_HALVINGS halvings of a step, at most STEP_CAP long, all fail to lower f
NEWTON_MAXITER = 200
NEWTON_STOP = 1e-15
LINE_HALVINGS = 30
STEP_CAP = 0.5
# a start that would stop where the unshifted Hessian has an eigenvalue below
# -ESCAPE_CURVATURE steps ESCAPE_STEP along its eigenvector instead, halved
# like a Newton step until f falls, and goes on from there
ESCAPE_CURVATURE = 1e-9
ESCAPE_STEP = 0.05
# g' and g'' diverge as r = |v| / a -> 1, so r is capped at RADIUS_CAP; below
# SPREAD_FLOOR, g'/|v| takes its limit -1/(a ln 2)
RADIUS_CAP = 1.0 - 1e-15
SPREAD_FLOOR = 1e-12
_LN2 = math.log(2.0)

# a state whose two lowest eigenvalues sum to at most RANK2_MASS in magnitude
# counts as rank <= 2; a minimum within CERTIFY_TOL of its Koashi-Winter floor
# is optimal
RANK2_MASS = 1e-12
CERTIFY_TOL = 1e-12

# float noise may push a directional measure, or any reported measure, this far below zero
MEASURE_FLOOR = -1e-9

_CYCLIC_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class DirectionalMeasure:
    """An optimized directional quantity plus how it was obtained.

    direction is "leftward" when the second subsystem was measured and
    "rightward" when the first was.
    """

    value: float
    direction: str
    optimal_angles: BlochAngles
    optimizer_evals: int

    def __post_init__(self):
        if self.value < MEASURE_FLOOR:
            raise ConsistencyError(f"directional measure {self.value:.3e} < {MEASURE_FLOOR}")
        if self.direction not in ("leftward", "rightward"):
            raise ConsistencyError(f"unknown direction {self.direction!r}")


def _binary_h_vec(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -(xi * np.log2(xi) + (1.0 - xi) * np.log2(1.0 - xi))
    return out


def _bloch_form(rho4: np.ndarray, measured: int) -> tuple:
    """Rows of the correlation matrix R_ij = Tr[rho sigma_i x sigma_j] as
    floats, arranged so row 0 is (Tr rho, m) and row 1 + i is (u_i, T_i0,
    T_i1, T_i2), with the measured qubit's Pauli index second."""
    r = np.einsum('iba,jdc,acbd->ij', _PAULI, _PAULI, rho4.reshape(2, 2, 2, 2)).real
    if measured == 0:
        r = r.T
    return tuple(map(tuple, r.tolist()))


def _effect_entropy(form: tuple, n0: float, n1: float, n2: float, weight: float) -> float:
    """Probability times conditional entropy for the effect weight (1 + n.sigma).

    The unmeasured qubit is left with weight p = weight (Tr rho + m.n) and
    eigenvalues (p +- weight |u + T n|) / 2, where m and u are the measured
    and unmeasured Bloch vectors; an outcome with p <= 0 adds 0.
    """
    (r00, m0, m1, m2), (u0, t00, t01, t02), (u1, t10, t11, t12), (u2, t20, t21, t22) = form
    p = weight * (r00 + m0 * n0 + m1 * n1 + m2 * n2)
    if not p > 0.0:
        return 0.0
    v0 = u0 + t00 * n0 + t01 * n1 + t02 * n2
    v1 = u1 + t10 * n0 + t11 * n1 + t12 * n2
    v2 = u2 + t20 * n0 + t21 * n1 + t22 * n2
    spread = weight * math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    lam = min((p + spread) / (2.0 * p), 1.0)
    q = 1.0 - lam  # q log2 q is taken as 0 at q = 0
    return p * -(lam * math.log2(lam) + (q * math.log2(q) if q > 0.0 else 0.0))


def _pair_entropy(form: tuple, n0: float, n1: float, n2: float) -> float:
    """Conditional entropy of the projective pair along the unit vector n."""
    return (_effect_entropy(form, n0, n1, n2, 0.5)
            + _effect_entropy(form, -n0, -n1, -n2, 0.5))


def _unit(x) -> tuple:
    norm = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    return (x[0] / norm, x[1] / norm, x[2] / norm)


def _tangent_derivatives(form: tuple, n, e1, e2) -> tuple:
    """Gradient (g1, g2) and Hessian (h11, h12, h22) of the pair entropy on the
    sphere at unit n, in the orthonormal tangent basis e1, e2. With s = +-1,
    a = Tr rho + s m.n, v = u + s T n, r = |v| / a, w = T^T v / |v| and
    g(x) = h((1 + x) / 2): f = 1/2 sum_s a g(r), grad f = 1/2 sum_s s [(g - r g') m
    + g' w], hess f = 1/2 sum_s [g''/a (w - r m)(w - r m)^T + g'/|v| T^T (I - v^ v^T) T],
    and the sphere's Hessian is P (hess f) P - (n.grad f) P, with P = I - n n^T."""
    (r00, m0, m1, m2), (u0, t00, t01, t02), (u1, t10, t11, t12), (u2, t20, t21, t22) = form
    (n0, n1, n2), (a0, a1, a2), (b0, b1, b2) = n, e1, e2
    tnx, tny, tnz = (t00 * n0 + t01 * n1 + t02 * n2, t10 * n0 + t11 * n1 + t12 * n2,
                     t20 * n0 + t21 * n1 + t22 * n2)
    t1x, t1y, t1z = (t00 * a0 + t01 * a1 + t02 * a2, t10 * a0 + t11 * a1 + t12 * a2,
                     t20 * a0 + t21 * a1 + t22 * a2)
    t2x, t2y, t2z = (t00 * b0 + t01 * b1 + t02 * b2, t10 * b0 + t11 * b1 + t12 * b2,
                     t20 * b0 + t21 * b1 + t22 * b2)
    mn, me1 = m0 * n0 + m1 * n1 + m2 * n2, m0 * a0 + m1 * a1 + m2 * a2
    me2 = m0 * b0 + m1 * b1 + m2 * b2
    gram11, gram12 = t1x * t1x + t1y * t1y + t1z * t1z, t1x * t2x + t1y * t2y + t1z * t2z
    gram22 = t2x * t2x + t2y * t2y + t2z * t2z  # T e1, T e2 Gram sums, shared by both outcomes
    gn = g1 = g2 = h11 = h12 = h22 = 0.0
    for s in (1.0, -1.0):
        a = r00 + s * mn
        if a <= 0.0:  # an outcome that cannot occur adds nothing
            continue
        v0, v1, v2 = u0 + s * tnx, u1 + s * tny, u2 + s * tnz
        spread = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
        r = min(spread / a, RADIUS_CAP)
        lam = 0.5 + 0.5 * r
        g = -(lam * math.log2(lam) + (1.0 - lam) * math.log2(1.0 - lam))
        dg, ca = -math.atanh(r) / _LN2, -1.0 / ((1.0 - r * r) * _LN2 * a)
        if spread < SPREAD_FLOOR:  # g'/|v| -> -1/(a ln 2); v's direction drops out
            k, wn, w1, w2 = -1.0 / (a * _LN2), 0.0, 0.0, 0.0
        else:
            k, wn = dg / spread, (v0 * tnx + v1 * tny + v2 * tnz) / spread
            w1 = (v0 * t1x + v1 * t1y + v2 * t1z) / spread
            w2 = (v0 * t2x + v1 * t2y + v2 * t2z) / spread
        c, q1, q2 = g - r * dg, w1 - r * me1, w2 - r * me2
        gn += s * (c * mn + dg * wn)
        g1 += s * (c * me1 + dg * w1)
        g2 += s * (c * me2 + dg * w2)
        h11 += ca * q1 * q1 + k * (gram11 - w1 * w1)
        h12 += ca * q1 * q2 + k * (gram12 - w1 * w2)
        h22 += ca * q2 * q2 + k * (gram22 - w2 * w2)
    return 0.5 * g1, 0.5 * g2, 0.5 * (h11 - gn), 0.5 * h12, 0.5 * (h22 - gn)


def minimize(fun, x0, *, alternatives, derivatives, maxiter: int, floor=None) -> SimpleNamespace:
    """Riemannian Newton on the unit sphere from x0 and from the lowest of the
    alternatives; the lower end point is returned as .x and .fun.

    fun(n) is the objective at a unit 3-tuple, first called at x0, and
    derivatives(n, e1, e2) its tangent gradient and Hessian in the
    orthonormal basis e1, e2, as _tangent_derivatives gives them. A Hessian
    that is not positive definite is shifted until it is, and steps are
    retracted by normalizing. Where the shifted step predicts no decrease but
    the Hessian curves down, as at a saddle point, the step goes along its
    downward eigenvector instead. The alternative runs first; given a floor no
    value can go below, no start runs once the best value is within CERTIFY_TOL
    of it. nfev counts calls of both functions, nit Newton iterations, and
    success is whether every start that ran stopped within maxiter."""
    starts = [(fun(x0), x0)] + sorted((fun(x), x) for x in alternatives)[:1]
    nfev, nit, success, ends = 1 + len(alternatives), 0, True, list(starts)
    for i in reversed(range(len(starts))):
        f, n = starts[i]
        for _ in range(maxiter):
            e1 = _unit((n[1], -n[0], 0.0) if abs(n[2]) < 0.5 else (0.0, n[2], -n[1]))
            e2 = (n[1] * e1[2] - n[2] * e1[1], n[2] * e1[0] - n[0] * e1[2],
                  n[0] * e1[1] - n[1] * e1[0])
            g1, g2, h11, h12, h22 = derivatives(n, e1, e2)
            mid, rad = 0.5 * (h11 + h22), math.hypot(0.5 * (h11 - h22), h12)
            shift = max(0.0, rad - mid) * 2.0
            s11, s22 = h11 + shift, h22 + shift
            det = s11 * s22 - h12 * h12
            d1, d2 = ((h12 * g2 - s22 * g1) / det, (h12 * g1 - s11 * g2) / det) if det > 0.0 \
                else (-g1, -g2)
            scale = min(1.0, STEP_CAP / (math.hypot(d1, d2) or 1.0))
            nfev, nit, d1, d2 = nfev + 1, nit + 1, scale * d1, scale * d2
            if -(g1 * d1 + g2 * d2) <= NEWTON_STOP * max(1.0, abs(f)):
                if mid - rad >= -ESCAPE_CURVATURE:
                    break
                a = 0.5 * math.atan2(h12, 0.5 * (h11 - h22))  # the greater eigenvalue's axis
                d1, d2 = -ESCAPE_STEP * math.sin(a), ESCAPE_STEP * math.cos(a)
            for _ in range(LINE_HALVINGS):
                x = _unit((n[0] + (d1 * e1[0] + d2 * e2[0]), n[1] + (d1 * e1[1] + d2 * e2[1]),
                           n[2] + (d1 * e1[2] + d2 * e2[2])))
                fx, nfev = fun(x), nfev + 1
                if fx < f:
                    break
                d1, d2 = 0.5 * d1, 0.5 * d2
            else:
                break
            f, n = fx, x
        else:
            success = False
        ends[i] = (f, n)
        if floor is not None and min(e[0] for e in ends) <= floor + CERTIFY_TOL:
            break
    best = min(ends, key=lambda e: e[0])  # the earlier start on a tie, x0 first
    return SimpleNamespace(x=best[1], fun=best[0], nfev=nfev, nit=nit, success=success)


def _min_conditional_entropy(form: tuple, floor=None) -> tuple[float, BlochAngles, int]:
    """Newton from the pole (0, 0, 1) and from the best of the state's own
    axes, the eigenvectors of T^T T, for the Bloch form of one measured side;
    with a floor (_kw_floor), the axis start, which runs first, may certify alone."""
    t = np.array(form)[1:, 1:]
    res = minimize(lambda x: _pair_entropy(form, *x), (0.0, 0.0, 1.0),
                   alternatives=[_unit(x) for x in np.linalg.eigh(t.T @ t)[1].T.tolist()],
                   derivatives=lambda *a: _tangent_derivatives(form, *a), maxiter=NEWTON_MAXITER,
                   floor=floor)
    x, y, z = res.x if res.x[2] >= 0.0 else (-res.x[0], -res.x[1], -res.x[2])
    phi = (math.atan2(y, x) + 2.0 * pi) % (2.0 * pi)  # never 2 pi: fmod is exact
    return res.fun, BlochAngles(math.acos(min(z, 1.0)), phi), res.nfev


def _require_two_qubits(rho: DensityMatrix):
    if rho.dims != (2, 2):
        raise DimMismatchError(f"two-qubit state required, got dims {rho.dims}")


def _direction_name(measured: int) -> str:
    if _integer(measured) not in (0, 1):
        raise BadSubsystemError(f"measured index must be 0 or 1, got {measured}")
    return "leftward" if measured == 1 else "rightward"


def _qubit_entropy(t: float, v0: float, v1: float, v2: float) -> float:
    """S of a qubit block with trace t and Bloch vector v: eigenvalues (t +- |v|) / 2."""
    r = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    return entropy_of_spectrum([0.5 * (t - r), 0.5 * (t + r)])


def _kw_floor(rho: DensityMatrix, measured: int):
    """E_F(rho_uP) for a rank <= 2 pair, P its qubit purification, else None.

    By Koashi and Winter (PRA 69, 022309, 2004), the minimum conditional
    entropy over all POVMs on M. psi = sum_i sqrt(lam_i) |v_i>|i> over the two
    kept eigenpairs, as a 4x2 W with rows (u, P) and columns M, is an ensemble
    of rho_uP, so C = s1 - s2 over tau = W^T (Y x Y) W, and
    C^2 = |tau|_F^2 - 2 |det tau|."""
    if abs(rho.spectrum[0]) + abs(rho.spectrum[1]) > RANK2_MASS:
        return None
    w = (rho.eigenvectors[:, 2:] * np.sqrt(np.clip(rho.spectrum[2:], 0.0, None))).reshape(2, 2, 2)
    w = w.transpose((1, 2, 0) if measured == 0 else (0, 2, 1)).reshape(4, 2)
    (a, b), (c, d) = (w.T @ _YY @ w).tolist()
    c2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2 - 2.0 * abs(a * d - b * c)
    x = 0.5 + 0.5 * math.sqrt(max(1.0 - c2, 0.0))
    # plain floats: _binary_h_vec's numpy round trip costs ~80x more per scalar
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)) if x < 1.0 else 0.0


def _minimize_side(rho: DensityMatrix, measured: int) -> tuple:
    """(direction, *rho._minima[measured]), the memo holding (Bloch form,
    S(unmeasured), min conditional entropy, angles, evals), computed once per
    (rho object, measured)."""
    _require_two_qubits(rho)
    direction = _direction_name(measured)
    found = rho._minima.get(measured)
    if found is None:
        form = _bloch_form(rho.mat, measured)
        s_u = _qubit_entropy(form[0][0], *(row[0] for row in form[1:]))
        best = _min_conditional_entropy(form, _kw_floor(rho, measured))
        found = rho._minima[measured] = (form, s_u, *best)
    return (direction, *found)


def classical_correlation(rho: DensityMatrix, measured: int) -> DirectionalMeasure:
    """J: entropy of the unmeasured qubit minus the best conditional entropy
    achievable with a projective pair on the measured one."""
    direction, _, s_u, best, angles, evals = _minimize_side(rho, measured)
    return DirectionalMeasure(s_u - best, direction, angles, evals)


def discord(rho: DensityMatrix, measured: int) -> DirectionalMeasure:
    """Quantum discord D = S(measured) - S(full) + min conditional entropy.

    One decomposition, sharing the Bloch form and the minimum with
    classical_correlation. That D = I_q - J holds is a property the tests
    check, not a runtime check; it compares the form's entropies with I_q's.
    """
    direction, form, _, best, angles, evals = _minimize_side(rho, measured)
    s_m = _qubit_entropy(*form[0])  # row 0 is (Tr rho, m)
    return DirectionalMeasure(s_m - von_neumann_entropy(rho) + best, direction, angles, evals)


def discord_oracle_grid(rho: DensityMatrix, measured: int, resolution: int) -> float:
    """Brute-force discord: exhaustive projective grid, no refinement.

    Independent of the optimizer kernel on purpose: the four Paulis are
    embedded into the full space and their conditional blocks B_k traced out
    index-by-index; the effect (1 +- n.sigma) / 2 leaves (B_0 +- n.B) / 2,
    and 2x2 spectra come from the Bloch vector. Upper-bounds discord().
    """
    _require_two_qubits(rho)
    _direction_name(measured)
    _integer(resolution, "resolution", OutOfRangeError, low=1)
    # B_k = Tr_m[(sigma_k on the measured qubit) rho]; an effect's block is linear in it
    embed, trace = (('kbd,ac->kabcd', 'kabcb->kac') if measured == 1
                    else ('kac,bd->kabcd', 'kabad->kbd'))
    big = np.einsum(embed, _PAULI, _I2).reshape(4, 4, 4)
    blocks = np.einsum(trace, (big @ rho.mat).reshape(4, 2, 2, 2, 2))
    th = np.linspace(0.0, pi / 2.0, resolution)
    ph = np.linspace(0.0, 2.0 * pi, 2 * resolution, endpoint=False)
    T, P = (x.ravel() for x in np.meshgrid(th, ph, indexing='ij'))
    best = np.inf
    chunk = 4096
    for lo in range(0, len(T), chunk):
        t, p = T[lo:lo + chunk], P[lo:lo + chunk]
        n = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
        tilt = np.tensordot(n, blocks[1:], axes=1)
        total = np.zeros(len(t))
        for sig in (0.5 * (blocks[0] + tilt), 0.5 * (blocks[0] - tilt)):
            tr = np.real(sig[:, 0, 0] + sig[:, 1, 1])
            vx = 2.0 * np.real(sig[:, 0, 1])
            vy = -2.0 * np.imag(sig[:, 0, 1])
            vz = np.real(sig[:, 0, 0] - sig[:, 1, 1])
            radius = np.sqrt(vx * vx + vy * vy + vz * vz)
            safe = np.where(tr > PROB_FLOOR, tr, 1.0)
            lam = np.where(tr > PROB_FLOOR, 0.5 * (1.0 + radius / safe), 0.5)
            total += np.where(tr > PROB_FLOOR, tr * _binary_h_vec(lam), 0.0)
        best = min(best, float(total.min()))
    s_m = von_neumann_entropy(partial_trace(rho, [1 - measured]))
    s_full = von_neumann_entropy(rho)
    return s_m - s_full + best


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence by Wootters' tau route (PRL 80, 2245, 1998).

    With Psi the kept eigenvectors scaled by sqrt(eigenvalue), the singular
    values of tau = Psi^T (Y x Y) Psi are the usual lambdas. No matrix
    square root is taken, so the ~1e-16 noise eigenvalues of a
    rank-deficient state move the lambdas by about 1e-16, not by its
    square root.
    """
    _require_two_qubits(rho)
    psi = rho.eigenvectors * np.sqrt(np.clip(rho.spectrum, 0.0, None))
    s = np.linalg.svd(psi.T @ _YY @ psi, compute_uv=False)
    c = s[0] - s[1] - s[2] - s[3]
    return float(min(max(c, 0.0), 1.0))


def eof_two_qubits(rho: DensityMatrix) -> float:
    """Entanglement of formation from the concurrence closed form."""
    c = concurrence(rho)
    return binary_entropy((1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0)


def koashi_winter_residual(psi: PureState, a: int, b: int, c: int) -> float:
    """S(rho_a) - E_F(rho_ab) - J(rho_ac, measuring c), from the split that
    kw_audit and the scenario share, with J minimized for this labeling only.

    Exactly zero for pure three-qubit states when J is maximized over all
    POVMs. A projective-only J can only fall short of that, which can only
    raise the residual; but rho_ac has rank 2, so its minimum is certified
    against the floor E_F(rho_ab), and the residual is that minimum minus
    the floor, to rounding: at most 1.19e-14 over kw_audit(100, 7) on any of
    five OpenBLAS kernels (Prescott's figure; SkylakeX reads 8.99e-15).
    """
    if psi.dims != (2, 2, 2):
        raise DimMismatchError(f"three-qubit pure state required, got dims {psi.dims}")
    if sorted((a, b, c)) != [0, 1, 2]:
        raise BadPermutationError(f"indices ({a}, {b}, {c}) are not a permutation of 0, 1, 2")
    return _kw_residual(_triple_terms(density_from_pure(psi)), a, b, c)


def _triple_terms(rho: DensityMatrix) -> tuple[list, list, list]:
    """Split a three-qubit rho once: S of each single qubit, the pair
    marginals, pairs[k] being rho with qubit k traced out in factor order,
    and their E_F."""
    singles = [von_neumann_entropy(partial_trace(rho, {0, 1, 2} - {k})) for k in range(3)]
    pairs = [partial_trace(rho, [k]) for k in range(3)]
    return singles, pairs, [eof_two_qubits(pair) for pair in pairs]


def _kw_residual(terms: tuple, a: int, b: int, c: int) -> float:
    """S(a) - E_F(ab) - J(ac, measuring c) from _triple_terms' split: the
    pair ac is pairs[b], and c is its second factor when a < c."""
    singles, pairs, eofs = terms
    return singles[a] - eofs[c] - classical_correlation(pairs[b], int(a < c)).value


@dataclass(frozen=True)
class AuditSummary:
    """Result of a randomized identity audit over sampled pure states."""

    count: int
    seed: int
    min_residual: float
    max_residual: float
    mean_residual: float
    within_bounds: bool


def kw_audit(count: int, seed: int) -> AuditSummary:
    """Sample pure three-qubit states and collect the identity residual over
    all three cyclic permutations of each, from one _triple_terms split each."""
    _integer(count, "count", OutOfRangeError, low=1)
    _integer(seed, "seed", OutOfRangeError, low=0)
    rng = np.random.default_rng(seed)
    triples = (_triple_terms(density_from_pure(sample_pure_state((2, 2, 2), rng)))
               for _ in range(count))
    arr = np.array([_kw_residual(terms, *perm) for terms in triples for perm in _CYCLIC_PERMS])
    ok = bool((arr >= RESIDUAL_LOW).all() and (arr <= RESIDUAL_HIGH).all())
    return AuditSummary(count, seed, float(arr.min()), float(arr.max()),
                        float(arr.mean()), ok)
