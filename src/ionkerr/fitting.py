"""Least-squares reconstruction of phonon distributions from sideband spectra.

The model is the multi-peak curve p(w) = g + eta B p, with the response basis
B[i, n] = f(w_i - w_n) built once per fit from peak centers w_n supplied from
theory or a calibration pass (never free per-peak parameters).  Parametric
fits vary the family parameters of p_n; the free fit varies the p_n
themselves under simplex constraints, as one exact linear least-squares
problem with inequalities (LSI), reduced to least distance programming (LDP)
and solved by one NNLS (Lawson & Hanson, *Solving Least Squares Problems*,
1974, ch. 23).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares, nnls

from .spectra import DriveParams, Spectrum, lineshape, lineshape_fwhm, response_basis
from .states import PhononDistribution, StateSpec, distribution
from .trap import TWO_PI

WEIGHT_FLOOR = 1e-4
MAX_ITER = 500
SINGULAR_TOL = 1e-8


class FitError(ValueError):
    pass


@dataclass
class FitResult:
    family: str
    params: dict
    p_hat: PhononDistribution
    eta_hat: float
    g_hat: float
    residual_rms: float
    param_sigma: dict
    converged: bool
    iterations: int
    residuals: np.ndarray = field(repr=False, default=None)
    degenerate: bool = False
    degenerate_direction: dict | None = None
    warnings: list = field(default_factory=list)

    def to_json(self, path: str) -> None:
        payload = {
            "family": self.family,
            "params": self.params,
            "p_hat": list(self.p_hat.p),
            "eta_hat": self.eta_hat,
            "g_hat": self.g_hat,
            "residual_rms": self.residual_rms,
            # JSON has no infinity: an unbounded 1-sigma is written as null
            "param_sigma": {k: v if np.isfinite(v) else None for k, v in self.param_sigma.items()},
            "converged": self.converged,
            "iterations": self.iterations,
            "degenerate": self.degenerate,
            "degenerate_direction": self.degenerate_direction,
            "warnings": self.warnings,
            "residuals": [] if self.residuals is None else list(self.residuals),
        }
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")


def point_sigmas(spec: Spectrum) -> np.ndarray:
    """Binomial standard deviations with a floor, or unit weights when shot
    counts are unknown."""
    if spec.shots_per_point is None:
        return np.ones_like(spec.p_up)
    var = np.maximum(spec.p_up * (1 - spec.p_up) / spec.shots_per_point, WEIGHT_FLOOR)
    return np.sqrt(var)


def _sigma_from_jacobian(
    J: np.ndarray,
    resid: np.ndarray,
    n_params: int,
    known_noise: bool,
    param_scales: np.ndarray | None = None,
    transform: np.ndarray | None = None,
):
    """1-sigma uncertainties and degeneracy info from the weighted Jacobian.

    A fit is flagged degenerate either when the Jacobian is numerically rank
    deficient or when some parameter's 1-sigma exceeds its physically
    identifiable range (``param_scales``): the data then carry no information
    about that direction.  A Jacobian with fewer rows than parameters is rank
    deficient by construction.  A parameter with weight along a singular
    direction gets an infinite 1-sigma.  ``transform``, the derivative of the
    reported parameters by the fitted ones, maps the covariance onto the former.
    """
    # A wide J has no singular values for the directions it cannot see: the full
    # V^T holds them, and they count as singular.
    _, s, Vt = np.linalg.svd(J, full_matrices=len(J) < J.shape[1])
    s = np.append(s, np.zeros(len(Vt) - len(s)))
    singular = s < SINGULAR_TOL * s[0]
    degenerate = bool(singular.any())
    V = Vt.T if transform is None else transform @ Vt.T
    var = V[:, ~singular] ** 2 @ s[~singular] ** -2.0
    if not known_noise:
        dof = max(len(resid) - n_params, 1)
        var = var * (resid @ resid) / dof
    var[(np.abs(V[:, singular]) > SINGULAR_TOL).any(axis=1)] = np.inf
    sigma = np.sqrt(var)
    if param_scales is not None and np.any(sigma > np.asarray(param_scales)):
        degenerate = True
    direction = V[:, -1] if degenerate else None
    return sigma, degenerate, direction


def fit_peak_center(
    spec: Spectrum, drive: DriveParams, window: tuple[float, float]
) -> tuple[float, float, bool]:
    """Fit g + eta f(w - c) over a window; returns (center, 1-sigma, converged).

    ``converged`` is False when the window evidently missed the peak: the data
    maximum or the fitted center sits on the window edge, or the fitted contrast
    stays below 0.05 (the level of sidelobe ripples from out-of-window peaks).
    """
    lo, hi = window
    mask = (spec.detuning >= lo) & (spec.detuning <= hi)
    if mask.sum() < 7:
        raise FitError(f"window contains {int(mask.sum())} points; need >= 7")
    w = spec.detuning[mask]
    y = spec.p_up[mask]
    sig = point_sigmas(spec)[mask]
    if np.ptp(y) < 4 * np.median(sig) * 1e-3 or np.ptp(y) == 0:
        raise FitError("window data is flat; no peak to fit")

    c0 = w[np.argmax(y)]
    eta0 = min(max(np.ptp(y), 0.05), 1.0)
    g0 = float(np.min(y))

    def resid(theta):
        c, eta, g = theta
        return (g + eta * lineshape(w - c, drive) - y) / sig

    res = least_squares(
        resid,
        x0=[c0, eta0, g0],
        bounds=([lo, 0.0, 0.0], [hi, 1.0, 0.5]),
        xtol=1e-12,
        ftol=1e-12,
        max_nfev=MAX_ITER * 4,
    )
    sigma, _, _ = _sigma_from_jacobian(
        res.jac, res.fun, 3, known_noise=spec.shots_per_point is not None
    )
    center = float(res.x[0])
    # A peak whose maximum sits on the window edge, or a fitted center pushed to
    # the boundary, means the window missed the peak.
    interior_center = lo + 0.02 * (hi - lo) < center < hi - 0.02 * (hi - lo)
    interior_max = 0 < int(np.argmax(y)) < len(y) - 1
    significant = res.x[1] >= 0.05
    converged = bool(res.success) and interior_center and interior_max and significant
    return center, float(sigma[0]), converged


_FAMILY_PARAMS = {
    "coherent": ["alpha"],
    "thermal": ["nbar"],
    "squeezed_vacuum": ["r"],
    "squeezed_thermal": ["nbar", "r"],
    "squeezed_fock": ["r"],  # the Fock index n stays fixed at its initial value
}

_FAMILY_BOUNDS = {
    "alpha": (0.0, np.inf),
    "nbar": (0.0, np.inf),
    "r": (0.0, 1.5),
}

# Start value for a family parameter that the caller leaves out.
_FAMILY_START = {"alpha": 1.0, "nbar": 1.0, "r": 0.5}

# Identifiable scale per parameter: a 1-sigma beyond this means the data do not
# constrain the parameter within its physically meaningful range.
_PARAM_SCALES = {"alpha": 10.0, "nbar": 10.0, "r": 1.5, "eta": 1.0, "g": 0.5}


def fit_parametric(
    spec: Spectrum,
    family: str,
    params0: dict,
    known_centers: np.ndarray,
    drive: DriveParams,
    eta0: float = 0.7,
    g0: float = 0.02,
) -> FitResult:
    """Nonlinear least squares over (family params, eta, g).

    The population model p_n(params) comes from the closed-form state families;
    bounds are 0 <= eta <= 1, 0 <= g <= 0.5, family parameters in their
    validity domain; a family parameter missing from ``params0`` starts at
    ``_FAMILY_START``.  Each residual costs one population vector and one
    product with B.  1-sigma uncertainties come from the Jacobian at the
    optimum (damped-least-squares trust region via scipy).
    """
    if family not in _FAMILY_PARAMS:
        raise FitError(
            f"family {family!r} not fittable; expected one of {sorted(_FAMILY_PARAMS)}"
        )
    names = _FAMILY_PARAMS[family]
    n_fixed = params0.get("n") if family == "squeezed_fock" else None
    if family == "squeezed_fock" and n_fixed is None:
        raise FitError("family 'squeezed_fock' needs its fixed Fock index n (e.g. n=1)")
    known_centers = np.asarray(known_centers, dtype=float)
    n_max = len(known_centers) - 1
    B = response_basis(spec.detuning, known_centers, drive)
    sig = point_sigmas(spec)

    x0 = [float(params0.get(k, _FAMILY_START[k])) for k in names] + [eta0, g0]
    lo = [_FAMILY_BOUNDS[k][0] for k in names] + [0.0, 0.0]
    hi = [_FAMILY_BOUNDS[k][1] for k in names] + [1.0, 0.5]

    def unpack(theta):
        values = dict(zip(names, theta[: len(names)]))
        if n_fixed is not None:
            values["n"] = n_fixed
        return StateSpec(family, values), theta[-2], theta[-1]

    def curve(theta):
        state, eta, g = unpack(theta)
        return g + eta * (B @ distribution(state, n_max).p)

    def solve(start, sig_vec):
        return least_squares(
            lambda theta: (curve(theta) - spec.p_up) / sig_vec, x0=start, bounds=(lo, hi),
            xtol=1e-12, ftol=1e-14, gtol=1e-12, max_nfev=MAX_ITER * 8,
        )

    res = solve(x0, sig)
    if spec.shots_per_point is not None:
        # One reweighting pass: binomial variances from the fitted curve rather
        # than the raw data, which calibrates the 1-sigma intervals.
        fitted = curve(res.x)
        sig = np.sqrt(np.maximum(fitted * (1 - fitted) / spec.shots_per_point, WEIGHT_FLOOR))
        res = solve(res.x, sig)
    state, eta_hat, g_hat = unpack(res.x)
    param_names = names + ["eta", "g"]
    sigma, degenerate, direction = _sigma_from_jacobian(
        res.jac, res.fun, len(res.x), known_noise=spec.shots_per_point is not None,
        param_scales=np.array([_PARAM_SCALES[k] for k in param_names]),
    )
    p_hat = distribution(state, n_max).p
    return FitResult(
        family=family,
        params=dict(state.params),
        p_hat=PhononDistribution(p_hat, truncation_tail=max(0.0, 1 - p_hat.sum())),
        eta_hat=float(eta_hat),
        g_hat=float(g_hat),
        residual_rms=float(np.sqrt(np.mean(((res.fun * sig)) ** 2))),
        param_sigma=dict(zip(param_names, map(float, sigma))),
        converged=bool(res.success),
        iterations=int(res.nfev),
        residuals=res.fun * sig,
        degenerate=degenerate,
        degenerate_direction=None
        if direction is None
        else dict(zip(param_names, map(float, direction))),
    )


def _lsi(E: np.ndarray, f: np.ndarray, G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """argmin ||E x - f|| subject to G x >= h (Lawson & Hanson, 1974, ch. 23).

    With E = U S V^T, y = V^T x splits into y1, along the singular values
    above SINGULAR_TOL s_max, and y2, along the numerically null rest.  Then
    z = S1 y1 - U1^T f and w = (z, y2) turn the problem into the least
    distance program min ||w|| subject to G [V1 S1^-1, V2] w >= h - G V1 S1^-1 U1^T f,
    whose solution is the normalised residual of one NNLS.  Along the null
    directions, which the data do not see, this picks the shortest solution.
    """
    U, sv, Vt = np.linalg.svd(E, full_matrices=False)
    seen = sv >= SINGULAR_TOL * sv[0]
    f1 = U[:, seen].T @ f
    # x = K w + x0, with K = [V1 S1^-1, V2] and x0 = V1 S1^-1 f1
    K = np.hstack([Vt[seen].T / sv[seen], Vt[~seen].T])
    x0 = Vt[seen].T @ (f1 / sv[seen])
    A = np.vstack([(G @ K).T, h - G @ x0])
    b = np.zeros(len(A))
    b[-1] = 1.0
    try:
        u, _ = nnls(A, b, maxiter=MAX_ITER)
    except RuntimeError as exc:
        raise FitError(f"free fit: {exc}") from exc
    r = A @ u - b
    return x0 - K @ (r[:-1] / r[-1])


def _onto_simplex(p: np.ndarray) -> np.ndarray:
    """p >= 0 with sum(p) <= 1 exactly in float: scale by 1/sum(p), then step
    every entry down one ulp at a time until the sum holds."""
    p = np.maximum(p, 0.0)
    total = p.sum()
    if total > 1:
        p = p / total
        while p.sum() > 1:
            p = np.nextafter(p, 0.0)
    return p


def fit_free_distribution(
    spec: Spectrum,
    known_centers: np.ndarray,
    drive: DriveParams,
    n_max: int,
    eta: float | None = 0.7,
) -> FitResult:
    """Constrained least squares over the populations {p_n} themselves.

    eta given -> held fixed; eta=None -> fitted.  g is always free in
    [0, 0.5].  The constraints are p_n >= 0 and sum(p) <= 1 (the remainder is
    attributed to n > n_max), and they hold exactly in float.  With eta fixed
    the model g + eta B p is linear, so each pass is one exact LSI solve
    (LSI -> LDP -> NNLS); ``iterations`` counts the passes (a second one
    reweights with binomial variances from the fitted curve).  With eta free
    the data fix only q = eta p: the fit solves for q >= 0 with
    sum(q) + g <= 1 and reports eta as its lower bound sum(q), so p = q / eta
    sums to 1.  No smoothing regularizer is applied: peaks are resolved by
    design.
    """
    if eta is not None and not 0 <= eta <= 1:
        raise FitError(f"need 0 <= eta <= 1, got eta={eta}")
    known_centers = np.asarray(known_centers, dtype=float)[: n_max + 1]
    if len(known_centers) != n_max + 1:
        raise FitError(f"need {n_max + 1} known centers, got {len(known_centers)}")
    warnings = []
    spacing = np.abs(np.diff(known_centers))
    fwhm = lineshape_fwhm(drive)
    if spacing.size and spacing.min() < fwhm:
        warnings.append(
            f"adjacent peak spacing {spacing.min() / TWO_PI:.1f} Hz below the lineshape "
            f"FWHM {fwhm / TWO_PI:.1f} Hz; populations may be unresolvable"
        )
    B = response_basis(spec.detuning, known_centers, drive)
    fit_eta = eta is None
    k = n_max + 1

    # Unknowns x = (p or q, g) under G x >= h: x_n >= 0, sum + g (eta free) <= 1, 0 <= g <= 0.5.
    G = np.zeros((k + 3, k + 1))
    G[:k, :k] = np.eye(k)
    G[k, :k] = -1.0
    G[k, k] = -1.0 if fit_eta else 0.0
    G[k + 1, k] = 1.0
    G[k + 2, k] = -1.0
    h = np.zeros(k + 3)
    h[k], h[k + 2] = -1.0, -0.5
    E = np.column_stack([B if fit_eta else eta * B, np.ones(len(B))])

    def solve(sig):
        x = _lsi(E / sig[:, None], spec.p_up / sig, G, h)
        g = float(np.clip(x[k], 0.0, 0.5))
        if not fit_eta:
            return _onto_simplex(x[:k]), g, eta
        q = np.maximum(x[:k], 0.0)
        e = min(float(q.sum()), 1.0)
        return _onto_simplex(q / e if e > 0 else q), g, e

    sig = point_sigmas(spec)
    p_hat, g_hat, eta_hat = solve(sig)
    iterations = 1
    if spec.shots_per_point is not None:
        fitted = g_hat + eta_hat * (B @ p_hat)
        sig = np.sqrt(np.maximum(fitted * (1 - fitted) / spec.shots_per_point, WEIGHT_FLOOR))
        p_hat, g_hat, eta_hat = solve(sig)
        iterations += 1

    # Gauss-Newton Jacobian of the model by the fitted (p or q, g) at the solution.
    J = E / sig[:, None]
    resid = (g_hat + eta_hat * (B @ p_hat) - spec.p_up) / sig
    names = [f"p_{n}" for n in range(k)] + ["g"]
    transform = None
    if fit_eta:
        # p = q / sum(q) has dp/dq = (1 - p 1^T) / eta
        transform = np.eye(k + 1)
        transform[:k, :k] = (np.eye(k) - p_hat[:, None]) / (eta_hat or 1.0)
    sigma, degenerate, direction = _sigma_from_jacobian(
        J, resid, k + 1, known_noise=spec.shots_per_point is not None,
        param_scales=np.array([1.0] * k + [0.5]), transform=transform,
    )
    if fit_eta:
        # eta * p is all the data fix: eta is only bounded below by sum(q), so it
        # is unidentifiable along (dp, deta) = (p, -eta)
        names.append("eta")
        sigma = np.append(sigma, np.inf)
        if eta_hat == 0:  # no excitation seen, so no population either
            sigma[:k] = np.inf
        degenerate = True
        direction = np.append(np.append(p_hat, 0.0), -eta_hat)
        direction /= np.linalg.norm(direction) or 1.0
    return FitResult(
        family="free",
        params={},
        p_hat=PhononDistribution(p_hat, truncation_tail=max(0.0, 1 - p_hat.sum())),
        eta_hat=float(eta_hat),
        g_hat=g_hat,
        residual_rms=float(np.sqrt(np.mean((resid * sig) ** 2))),
        param_sigma=dict(zip(names, map(float, sigma))),
        converged=True,
        iterations=iterations,
        residuals=resid * sig,
        degenerate=degenerate,
        degenerate_direction=None if direction is None else dict(zip(names, map(float, direction))),
        warnings=warnings,
    )
