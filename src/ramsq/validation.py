"""Self-check suite: closed-form identities plus the Monte Carlo oracle.

The standard grid spans the regimes the closed forms are used in:
optical thickness 2 to 20, gain ratio 0 to 3 (below the threshold at
pi), squeezing 0 to 2.  Identity checks must hold to 1e-12 (1e-6 for
the gain -> 0 limit); Monte Carlo means must sit within 3 standard
errors of the closed forms, with 1e-12 taking over as the bound when a
phase-independent integrand makes the spread exactly zero.

Each Monte Carlo check streams its sampler's draws in chunks shared by
every grid medium, reduces each medium's chunk to the moments of its
three channel sums, and derives all four quadrature estimates at every
squeezing from the merged moments, in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analytic import (
    coherent_baseline,
    full_report,
    linear_coefficients,
    mean_coefficients,
    variance_x_nowfs,
    variance_x_wfs,
    wfs_gain,
)
from .core import InputState, MediumSpec, ParameterError
from .ensemble import (
    _QUANTITIES,
    McEstimate,
    SamplerConfig,
    SamplerMode,
    medium_moments,
    moment_estimate,
)
from .snl import snl_condition

STANDARD_THICKNESS = (2.0, 5.0, 10.0, 20.0)
STANDARD_GAIN = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0)
STANDARD_SQUEEZE = (0.0, 0.5, 1.0, 1.5, 2.0)

IDENTITY_TOL = 1e-12
LIMIT_TOL = 1e-6
PRODUCT_TOL = 1e-9

# 3 sigma wider than a tenth of the value means the draw count is too
# small for the check to be informative; reported as warning, not failure.
PRECISION_FRACTION = 0.1

# Below this draw count the sample standard error is itself unreliable
# (its own relative spread exceeds ~7%), so every point counts as
# insufficient precision regardless of the estimated bar width.
MIN_TRUSTED_REALIZATIONS = 100

_SHAPED = ("x_wfs", "p_wfs")


def standard_grid() -> list[tuple[float, float, float]]:
    return [
        (th, g, r)
        for th in STANDARD_THICKNESS
        for g in STANDARD_GAIN
        for r in STANDARD_SQUEEZE
    ]


@dataclass
class CheckResult:
    name: str
    status: str  # pass | warning | fail
    detail: dict = field(default_factory=dict)


@dataclass
class ValidationReport:
    status: str
    checks: list[CheckResult]
    parameters: dict

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "parameters": self.parameters,
            "checks": [
                {"name": c.name, "status": c.status, **c.detail} for c in self.checks
            ],
        }


def _check_flux(corrupt: bool) -> CheckResult:
    worst = 0.0
    for th, g, _ in standard_grid():
        coef = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=g))
        v_bar = coef.v_bar + (1e-6 if corrupt else 0.0)
        worst = max(worst, abs(coef.t_bar + coef.r_bar - v_bar - 1.0))
    status = "pass" if worst <= IDENTITY_TOL else "fail"
    return CheckResult(
        "flux-conservation",
        status,
        {
            "identity": "T_bar + R_bar - V_bar = 1",
            "worst_residual": worst,
            "tolerance": IDENTITY_TOL,
        },
    )


def _check_linear_limit() -> CheckResult:
    worst = 0.0
    for th in STANDARD_THICKNESS:
        near = mean_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=1e-8))
        exact = linear_coefficients(MediumSpec(thickness_ratio=th, gain_ratio=0.0))
        worst = max(
            worst,
            abs(near.t_bar - exact.t_bar),
            abs(near.r_bar - exact.r_bar),
            abs(near.v_bar),
        )
    status = "pass" if worst <= LIMIT_TOL else "fail"
    return CheckResult(
        "linear-limit",
        status,
        {"worst_deviation": worst, "tolerance": LIMIT_TOL, "gain_ratio": 1e-8},
    )


def _check_analytic_identities() -> CheckResult:
    worst_gain = 0.0
    worst_sum = 0.0
    ordering_ok = True
    symmetry_ok = True
    worst_product = math.inf
    for th, g, r in standard_grid():
        spec = MediumSpec(thickness_ratio=th, gain_ratio=g)
        coef = mean_coefficients(spec)
        state = InputState(squeeze_r=r)
        rep = full_report(spec, state)
        worst_gain = max(
            worst_gain, abs((rep.x_nowfs - rep.x_wfs) - wfs_gain(coef, state))
        )
        expected_sum = (
            2.0 * coherent_baseline(coef)
            + coef.t_bar * (state.p_variance + state.x_variance - 2.0)
        )
        worst_sum = max(worst_sum, abs((rep.x_wfs + rep.p_wfs) - expected_sum))
        symmetry_ok = symmetry_ok and rep.x_nowfs == rep.p_nowfs
        if r > 0:
            ordering_ok = ordering_ok and (
                rep.x_wfs < rep.coherent_baseline < rep.p_wfs
                and rep.x_wfs < rep.x_nowfs
            )
        else:
            ordering_ok = ordering_ok and rep.x_wfs == rep.x_nowfs == rep.p_wfs
        worst_product = min(worst_product, rep.x_wfs * rep.p_wfs)
    ok = (
        worst_gain <= IDENTITY_TOL
        and worst_sum <= IDENTITY_TOL
        and symmetry_ok
        and ordering_ok
        and worst_product >= 1.0 - PRODUCT_TOL
    )
    return CheckResult(
        "variance-identities",
        "pass" if ok else "fail",
        {
            "worst_gain_identity": worst_gain,
            "worst_sum_identity": worst_sum,
            "tolerance": IDENTITY_TOL,
            "quadrature_symmetry": symmetry_ok,
            "ordering": ordering_ok,
            "min_uncertainty_product": worst_product,
            "product_floor": 1.0 - PRODUCT_TOL,
        },
    )


def _check_snl_sign() -> CheckResult:
    agree = True
    worst = 0.0
    for th, g, r in standard_grid():
        if g <= 0.0:
            continue
        spec = MediumSpec(thickness_ratio=th, gain_ratio=g)
        state = InputState(squeeze_r=r)
        margin = snl_condition(spec, state)
        excess = variance_x_wfs(mean_coefficients(spec), state) - 1.0
        rebuilt = excess * math.sin(g)
        worst = max(worst, abs(margin - rebuilt))
        if margin != 0.0 and excess != 0.0:
            agree = agree and (margin < 0.0) == (excess < 0.0)
    ok = agree and worst <= IDENTITY_TOL
    return CheckResult(
        "snl-sign-equivalence",
        "pass" if ok else "fail",
        {"signs_agree": agree, "worst_residual": worst, "tolerance": IDENTITY_TOL},
    )


def _mc_estimates(
    mode: SamplerMode, channels: int, seed: int, realizations: int
) -> list[tuple[tuple[float, float, float], str, McEstimate, float]]:
    """(point, quantity, estimate, closed form) over the standard grid, in grid order."""
    config = SamplerConfig(mode=mode, realizations=realizations, seed=seed)
    specs = [
        MediumSpec(thickness_ratio=th, gain_ratio=g, channels=channels)
        for th in STANDARD_THICKNESS
        for g in STANDARD_GAIN
    ]
    out = []
    for spec, moments in zip(specs, medium_moments(specs, config)):
        for r in STANDARD_SQUEEZE:
            state = InputState(squeeze_r=r)
            rep = full_report(spec, state)
            point = (spec.thickness_ratio, spec.gain_ratio, r)
            for quantity in _QUANTITIES:
                est = moment_estimate(moments, state, quantity)
                out.append((point, quantity, est, getattr(rep, quantity)))
    return out


def _check_mc(mode: SamplerMode, channels: int, seed: int, realizations: int) -> CheckResult:
    estimates = _mc_estimates(mode, channels, seed, realizations)
    # Below the draw-count floor the sample spread is too noisy an
    # estimate of sigma for a 3-sigma comparison to mean anything.
    trusted = realizations >= MIN_TRUSTED_REALIZATIONS
    worst_sigma = 0.0
    worst_exact = 0.0
    shaped_max_std = 0.0
    failures = []
    imprecise = 0
    imprecise_violations = 0
    for point, quantity, est, analytic in estimates:
        err = abs(est.mean - analytic)
        ok = err <= max(3.0 * est.std_error, IDENTITY_TOL)
        precise = trusted and 3.0 * est.std_error <= PRECISION_FRACTION * max(
            1.0, abs(analytic)
        )
        if not ok:
            # A sigma violation is only trustworthy where the error
            # bar itself is trustworthy; at tiny K the sample spread
            # underestimates heavy tails, so an imprecise point can
            # only demote the run to a warning, never fail it.
            if precise:
                failures.append(
                    {
                        "point": point,
                        "quantity": quantity,
                        "abs_err": err,
                        "std_error": est.std_error,
                        "analytic": analytic,
                        "ok": ok,
                        "precise": precise,
                    }
                )
            else:
                imprecise_violations += 1
        if est.std_error > 0.0:
            worst_sigma = max(worst_sigma, err / est.std_error)
        else:
            worst_exact = max(worst_exact, err)
        if quantity in _SHAPED and mode is SamplerMode.MEAN_MAGNITUDES:
            shaped_max_std = max(shaped_max_std, est.std_error)
        if not precise:
            imprecise += 1
    if failures:
        status = "fail"
    elif imprecise:
        status = "warning"
    else:
        status = "pass"
    detail = {
        "sampler": mode.value,
        "realizations": realizations,
        "seed": seed,
        "channels": channels,
        "grid_points": len(estimates) // len(_QUANTITIES),
        "worst_sigma_margin": worst_sigma,
        "sigma_bound": 3.0,
        "worst_exact_error": worst_exact,
        "exact_tolerance": IDENTITY_TOL,
        "insufficient_precision_points": imprecise,
        "sigma_violations_at_low_precision": imprecise_violations,
    }
    if mode is SamplerMode.MEAN_MAGNITUDES:
        detail["shaped_max_std_error"] = shaped_max_std
    if failures:
        detail["failures"] = failures[:10]
    return CheckResult(f"mc-oracle-{mode.value}", status, detail)


def run_validation(
    *,
    channels: int = 4,
    seed: int = 42,
    realizations: int = 10_000,
    sampler: str = "both",
    corrupt_constraint: bool = False,
) -> ValidationReport:
    """Run every check; overall status is the worst individual one."""
    modes = {
        "mean": [SamplerMode.MEAN_MAGNITUDES],
        "exponential": [SamplerMode.EXPONENTIAL_MAGNITUDES],
        "both": [SamplerMode.MEAN_MAGNITUDES, SamplerMode.EXPONENTIAL_MAGNITUDES],
    }
    if sampler not in modes:
        raise ParameterError(f"sampler must be 'mean', 'exponential' or 'both' (got {sampler!r})")
    checks = [
        _check_flux(corrupt_constraint),
        _check_linear_limit(),
        _check_analytic_identities(),
        _check_snl_sign(),
    ]
    for mode in modes[sampler]:
        checks.append(_check_mc(mode, channels, seed, realizations))
    if any(c.status == "fail" for c in checks):
        status = "fail"
    elif any(c.status == "warning" for c in checks):
        status = "warning"
    else:
        status = "pass"
    return ValidationReport(
        status=status,
        checks=checks,
        parameters={
            "channels": channels,
            "seed": seed,
            "realizations": realizations,
            "sampler": sampler,
        },
    )
