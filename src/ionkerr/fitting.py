"""Least-squares reconstruction of phonon distributions from sideband spectra.

The model is the multi-peak curve p(w) = g + eta sum_n p_n f(w - w_n) with peak
centers w_n supplied from theory or a calibration pass (never free per-peak
parameters).  Parametric fits vary the family parameters of p_n; the free fit
varies the p_n themselves under simplex constraints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares, minimize

from .spectra import DriveParams, Spectrum, lineshape, lineshape_fwhm, model_curve
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
            "param_sigma": self.param_sigma,
            "converged": self.converged,
            "iterations": self.iterations,
            "degenerate": self.degenerate,
            "degenerate_direction": self.degenerate_direction,
            "warnings": self.warnings,
            "residuals": [] if self.residuals is None else list(self.residuals),
        }
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
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
):
    """1-sigma uncertainties and degeneracy info from the weighted Jacobian.

    A fit is flagged degenerate either when the Jacobian is numerically rank
    deficient or when some parameter's 1-sigma exceeds its physically
    identifiable range (``param_scales``): the data then carry no information
    about that direction.
    """
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    degenerate = bool(s[-1] < SINGULAR_TOL * s[0])
    s_safe = np.where(s < SINGULAR_TOL * s[0], np.inf, s)
    cov = (Vt.T / s_safe**2) @ Vt
    if not known_noise:
        dof = max(len(resid) - n_params, 1)
        cov = cov * (resid @ resid) / dof
    sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if param_scales is not None and np.any(sigma > np.asarray(param_scales)):
        degenerate = True
    direction = Vt[-1] if degenerate else None
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


def _family_pops(family: str, values: dict, n_fixed: int | None, n_max: int) -> np.ndarray:
    params = dict(values) if n_fixed is None else dict(values, n=n_fixed)
    return distribution(StateSpec(family, params), n_max).p


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
    ``_FAMILY_START``.  1-sigma uncertainties come from the Jacobian at the
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
    sig = point_sigmas(spec)

    x0 = [float(params0.get(k, _FAMILY_START[k])) for k in names] + [eta0, g0]
    lo = [_FAMILY_BOUNDS[k][0] for k in names] + [0.0, 0.0]
    hi = [_FAMILY_BOUNDS[k][1] for k in names] + [1.0, 0.5]

    def unpack(theta):
        vals = dict(zip(names, theta[: len(names)]))
        return vals, theta[-2], theta[-1]

    def make_resid(sig_vec):
        def resid(theta):
            vals, eta, g = unpack(theta)
            p = _family_pops(family, vals, n_fixed, n_max)
            curve = model_curve(spec.detuning, p, known_centers, drive, eta, g)
            return (curve - spec.p_up) / sig_vec

        return resid

    res = least_squares(
        make_resid(sig), x0=x0, bounds=(lo, hi), xtol=1e-12, ftol=1e-14, gtol=1e-12,
        max_nfev=MAX_ITER * 8,
    )
    if spec.shots_per_point is not None:
        # One reweighting pass: binomial variances from the fitted curve rather
        # than the raw data, which calibrates the 1-sigma intervals.
        vals, eta_1, g_1 = unpack(res.x)
        curve = model_curve(
            spec.detuning, _family_pops(family, vals, n_fixed, n_max), known_centers, drive, eta_1, g_1
        )
        sig = np.sqrt(np.maximum(curve * (1 - curve) / spec.shots_per_point, WEIGHT_FLOOR))
        res = least_squares(
            make_resid(sig), x0=res.x, bounds=(lo, hi), xtol=1e-12, ftol=1e-14, gtol=1e-12,
            max_nfev=MAX_ITER * 8,
        )
    vals, eta_hat, g_hat = unpack(res.x)
    param_names = names + ["eta", "g"]
    sigma, degenerate, direction = _sigma_from_jacobian(
        res.jac, res.fun, len(res.x), known_noise=spec.shots_per_point is not None,
        param_scales=np.array([_PARAM_SCALES[k] for k in param_names]),
    )
    p_hat = _family_pops(family, vals, n_fixed, n_max)
    out_params = dict(vals)
    if n_fixed is not None:
        out_params["n"] = n_fixed
    return FitResult(
        family=family,
        params=out_params,
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


def fit_free_distribution(
    spec: Spectrum,
    known_centers: np.ndarray,
    drive: DriveParams,
    n_max: int,
    eta: float | None = 0.7,
    g0: float = 0.02,
) -> FitResult:
    """Constrained least squares over the populations {p_n} themselves.

    eta given -> held fixed; eta=None -> fitted.  g is always free.  Each p_n is
    bounded to [0, 1] and sum(p) <= 1 (remainder attributed to n > n_max); the
    simplex constraint is enforced by SLSQP.  No smoothing regularizer is
    applied: peaks are resolved by design.
    """
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
    sig = point_sigmas(spec)
    fit_eta = eta is None

    # Precompute the peak basis: column n is f(w - w_n).
    basis = np.stack([lineshape(spec.detuning - c, drive) for c in known_centers], axis=1)

    def split(theta):
        p = theta[: n_max + 1]
        g = theta[n_max + 1]
        e = theta[n_max + 2] if fit_eta else eta
        return p, g, e

    def curve(theta):
        p, g, e = split(theta)
        return g + e * basis @ p

    def objective(theta):
        r = (curve(theta) - spec.p_up) / sig
        return float(r @ r)

    def gradient(theta):
        p, g, e = split(theta)
        r = (curve(theta) - spec.p_up) / sig
        wr = r / sig
        grad = np.empty_like(theta)
        grad[: n_max + 1] = 2 * e * basis.T @ wr
        grad[n_max + 1] = 2 * wr.sum()
        if fit_eta:
            grad[n_max + 2] = 2 * (basis @ p) @ wr
        return grad

    x0 = np.concatenate([np.full(n_max + 1, 1.0 / (n_max + 2)), [g0]])
    bounds = [(0.0, 1.0)] * (n_max + 1) + [(0.0, 0.5)]
    if fit_eta:
        x0 = np.concatenate([x0, [0.7]])
        bounds.append((0.0, 1.0))
    constraints = [{"type": "ineq", "fun": lambda th: 1.0 - th[: n_max + 1].sum()}]
    if fit_eta:
        constraints.append({"type": "ineq", "fun": lambda th: 1.0 - th[n_max + 1] - th[n_max + 2]})

    opts = {"maxiter": MAX_ITER, "ftol": 1e-10}

    def solve(start):
        res = minimize(
            objective, start, jac=gradient, bounds=bounds, constraints=constraints,
            method="SLSQP", options=opts,
        )
        converged = bool(res.success)
        iterations = int(res.nit)
        if not converged:
            # SLSQP sometimes stops with a line-search failure at the optimum;
            # accept if a restart from the endpoint cannot improve the objective.
            res2 = minimize(
                objective, res.x, jac=gradient, bounds=bounds, constraints=constraints,
                method="SLSQP", options=opts,
            )
            iterations += int(res2.nit)
            if res2.fun <= res.fun + 1e-9 * max(abs(res.fun), 1.0):
                res = res2 if res2.fun < res.fun else res
                converged = True
        return res, converged, iterations

    res, converged, iterations = solve(x0)
    if spec.shots_per_point is not None:
        # Reweighting pass with binomial variances from the fitted curve.
        fitted = np.clip(curve(res.x), 0.0, 1.0)
        sig = np.sqrt(np.maximum(fitted * (1 - fitted) / spec.shots_per_point, WEIGHT_FLOOR))
        res, converged, it2 = solve(res.x)
        iterations += it2
    p_hat, g_hat, eta_hat = split(res.x)

    # Gauss-Newton Jacobian at the solution for the per-parameter uncertainties.
    cols = [eta_hat * basis[:, n] / sig for n in range(n_max + 1)] + [1.0 / sig]
    if fit_eta:
        cols.append(basis @ p_hat / sig)
    J = np.stack(cols, axis=1)
    resid = (curve(res.x) - spec.p_up) / sig
    names = [f"p_{n}" for n in range(n_max + 1)] + ["g"] + (["eta"] if fit_eta else [])
    scales = np.array([1.0] * (n_max + 1) + [0.5] + ([1.0] if fit_eta else []))
    sigma, degenerate, direction = _sigma_from_jacobian(
        J, resid, J.shape[1], known_noise=spec.shots_per_point is not None,
        param_scales=scales,
    )
    return FitResult(
        family="free",
        params={},
        p_hat=PhononDistribution(p_hat, truncation_tail=max(0.0, 1 - p_hat.sum())),
        eta_hat=float(eta_hat),
        g_hat=float(g_hat),
        residual_rms=float(np.sqrt(np.mean((resid * sig) ** 2))),
        param_sigma=dict(zip(names, map(float, sigma))),
        converged=converged,
        iterations=iterations,
        residuals=resid * sig,
        degenerate=degenerate,
        degenerate_direction=None if direction is None else dict(zip(names, map(float, direction))),
        warnings=warnings,
    )
