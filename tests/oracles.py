"""Independent evaluators the tests trust instead of the library's algebra.

Nine tools, deliberately built on different machinery than the package:

* a covariance-matrix quadratic form for per-realization variances,
  carrying every mode (including the vacuum ancillas whose phases the
  library's collapsed evaluators drop) explicitly;
* a pure-python bisection of the sub-shot-noise margin at fixed
  mean-free-path gain, and a point-by-point region scan built on the
  same scalar margin;
* a bisection of the fixed-point equation for the region boundary at
  fixed slab thickness;
* a point-by-point Monte Carlo check, one ``mc_average`` per grid point
  and quantity, against which ``validate``'s whole-array check is held;
* the chunk reduction's earlier forms, a stacked (3, 3, draws) two-pass
  moment and a masked Beta share over unsorted uniforms, against which
  the package's moments and sorted shares are held bit for bit.
* the single-draw helpers' earlier ``np.sum`` forms, the flux residual
  and the shaped quadrature means, against which the package's
  ``np.add.reduce`` forms are held bit for bit.
* the CSV render's earlier per-cell form, an ``isinstance`` chain per
  value written row by row into a ``StringIO``, against which the
  package's column-at-a-time render is held byte for byte;
* the dataset builders' earlier per-point form, a ``MediumSpec``, an
  ``InputState`` and the scalar closed forms at every point of a sweep,
  row by row, against which the whole-array builders are held byte for
  byte and error line for error line.

Frozen reference numbers were produced by 50-digit scalar evaluation of
the closed forms (mpmath) and rounded to the nearest double; the
comments state the defining expression for each.
"""
from __future__ import annotations

import io
import itertools
import math
import operator

import numpy as np

from ramsq import validation
from ramsq.analytic import full_report, mean_coefficients, rescaled_fluctuation, wfs_gain
from ramsq.core import InputState, MediumSpec
from ramsq.ensemble import SamplerConfig, SamplerMode, mc_average
from ramsq.snl import region_scan

# -- frozen high-precision references ---------------------------------------

# sine-law coefficients at thickness L/l = 10, gain L/La = 2.5
COEF_10_25 = {
    "t_bar": 0.41339260597490413,   # sin(0.25) / sin(2.5)
    "r_bar": 1.3000992687017484,    # sin(2.25) / sin(2.5)
    "v_bar": 0.71349187467665256,   # t_bar + r_bar - 1
}
BASELINE_10_25 = 2.4269837493533051          # 2 v_bar + 1
VAR_10_25_R1 = {
    "x_wfs": 2.0695377487959361,    # baseline - t_bar (1 - e^-2)
    "x_nowfs": 3.5688550243030188,  # baseline + t_bar (cosh 2 - 1)
    "p_wfs": 5.0681722998101015,    # baseline + t_bar (e^2 - 1)
    "p_nowfs": 3.5688550243030188,
}
WFS_GAIN_10_25_R1 = 1.4993172755070827       # t_bar sinh 2
RATIO_NOWFS_10_25_R1 = 1.4704898725646503    # x_nowfs / baseline
RATIO_WFS_10_25_R1 = 0.8527200684171807      # x_wfs / baseline

# linear medium L/l = 2 (t_bar = 1/2, v_bar = 0) at r = 1
LINEAR_2_R1 = {
    "x_wfs": 0.56766764161830635,   # 1 - (1 - e^-2)/2
    "x_nowfs": 2.3810978455418157,  # 1 + (cosh 2 - 1)/2
}

# coefficients at L/l = 2, L/La = 3 (near-threshold amplification)
COEF_2_3 = {
    "t_bar": 7.0684164514849515,    # sin(1.5) / sin(3)
    "v_bar": 13.136832902969903,
}

# closed-form threshold at l/La = 0.1 with full squeezing (n = 1)
THRESHOLD_01_N1 = {
    "m_plus": 0.89026146950437172,
    "gain_max": 1.0979189385301066,  # arcsin(m_plus)
}

# squeezing strength with e^(-2r) = 1e-8
LARGE_SQUEEZING_R = 9.2103403719761827


# -- covariance-matrix variance oracle --------------------------------------

def quadratic_form_variance(real, squeeze_r: float, quadrature: str, shaped: bool) -> float:
    """Output-quadrature variance via an explicit 2M x 2M covariance form.

    Models every mode separately: N squeezed inputs behind the
    transmission amplitudes, N vacua behind the reflection amplitudes,
    and one vacuum behind the conjugated spontaneous amplitude.  The
    output annihilation operator is

        b = sum_a s_a in_a + sum_j q_j ref_j + w spont^dagger

    and the returned value is v^T Sigma v for the requested quadrature's
    real coefficient vector v.  No collapse identities are used; the
    ancilla phases are kept and must drop out numerically.
    """
    if quadrature not in ("x", "p"):
        raise ValueError(quadrature)
    n = len(real.trans_mags)
    amps = []
    # (complex amplitude, conjugated?, squeezed?)
    for a in range(n):
        phase = 0.0 if shaped else real.trans_phases[a]
        amps.append((math.sqrt(real.trans_mags[a]) * np.exp(1j * phase), False, True))
    for j in range(n):
        amps.append((math.sqrt(real.refl_mags[j]) * np.exp(1j * real.refl_phases[j]), False, False))
    amps.append((math.sqrt(real.spont_mag) * np.exp(1j * real.spont_phase), True, False))

    modes = len(amps)
    vec = np.zeros(2 * modes)
    cov = np.zeros((2 * modes, 2 * modes))
    for k, (s, conjugated, squeezed) in enumerate(amps):
        u, v = s.real, s.imag
        if quadrature == "x":
            # s a + s* a+  ->  Re s x - Im s p;  conjugated flips the p sign
            vec[2 * k] = u
            vec[2 * k + 1] = v if conjugated else -v
        else:
            # i(s* a+ - s a)  ->  Im s x + Re s p;  conjugated flips both
            vec[2 * k] = v
            vec[2 * k + 1] = -u if conjugated else u
        if squeezed:
            cov[2 * k, 2 * k] = math.exp(-2.0 * squeeze_r)
            cov[2 * k + 1, 2 * k + 1] = math.exp(2.0 * squeeze_r)
        else:
            cov[2 * k, 2 * k] = 1.0
            cov[2 * k + 1, 2 * k + 1] = 1.0
    return float(vec @ cov @ vec)


def quadratic_form_mean(real, amplitude: complex, quadrature: str) -> float:
    """Shaped output-quadrature mean from the same coefficient vector.

    Only the transmission inputs carry a displacement; their means are
    <x> = 2 Re(alpha), <p> = 2 Im(alpha) (displacement applied after
    squeezing).
    """
    n = len(real.trans_mags)
    total = 0.0
    for a in range(n):
        s = math.sqrt(real.trans_mags[a])
        if quadrature == "x":
            total += s * 2.0 * amplitude.real
        else:
            total += s * 2.0 * amplitude.imag
    return total


# -- scalar margin bisection at fixed l/La ----------------------------------

def margin_at_fixed_mfp_gain(gain: float, mfp_gain: float, n: float) -> float:
    """sin(l/La) n + 2 sin(L/La - l/La) - 2 sin(L/La), l/La held fixed."""
    return math.sin(mfp_gain) * n + 2.0 * math.sin(gain - mfp_gain) - 2.0 * math.sin(gain)


def bisect_gain_threshold(mfp_gain: float, n: float, tol: float = 1e-14) -> float:
    """Largest gain with a negative margin, at fixed mean-free-path gain.

    The margin is negative just above gain = mfp_gain (it equals
    sin(mfp_gain)(n - 2) there) and positive near the lasing threshold,
    so a plain bisection brackets the crossing.
    """
    lo, hi = mfp_gain * (1.0 + 1e-9), math.pi - 1e-9
    f_lo = margin_at_fixed_mfp_gain(lo, mfp_gain, n)
    f_hi = margin_at_fixed_mfp_gain(hi, mfp_gain, n)
    if not (f_lo < 0.0 < f_hi):
        raise RuntimeError(f"no bracket: f({lo})={f_lo}, f({hi})={f_hi}")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if margin_at_fixed_mfp_gain(mid, mfp_gain, n) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# -- point-by-point region scan ----------------------------------------------

def scalar_region_scan(thickness, gain, n: float):
    """Sub-SNL cells and bisected boundary, one scalar margin at a time.

    The per-point scan the package ran before it worked on whole arrays:
    every cell, a 1024-point probe per row and a bisection per row from
    (1e-8, pi - 1e-6) down to a width of 1e-12 in at most 200 steps, each
    through ``margin_at_fixed_mfp_gain`` (equal to ``snl_condition`` bit
    for bit).  Returns ``(below_snl, boundary)``; NaN marks rows with no
    bracket, and a row whose probe changes sign twice raises.
    """
    top = math.pi - 1e-6

    def margin(th: float, g: float) -> float:
        return margin_at_fixed_mfp_gain(g, g / th, n)

    below = np.zeros((len(thickness), len(gain)), dtype=bool)
    boundary = np.full(len(thickness), math.nan)
    probe = np.linspace(1e-4, top, 1024)
    for i, th in enumerate(float(t) for t in thickness):
        for j, g in enumerate(gain):
            below[i, j] = margin(th, float(g)) < 0.0
        signs = [margin(th, float(g)) < 0.0 for g in probe]
        if sum(a != b for a, b in zip(signs, signs[1:])) > 1:
            raise RuntimeError(f"margin changes sign more than once along L/l = {th}")
        lo, hi = 1e-8, top
        if not (margin(th, lo) < 0.0 < margin(th, hi)):
            continue
        for _ in range(200):
            if hi - lo <= 1e-12:
                break
            mid = 0.5 * (lo + hi)
            if margin(th, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        boundary[i] = 0.5 * (lo + hi)
    return below, boundary


# -- fixed-point boundary at fixed thickness --------------------------------

def bisect_fixed_point_boundary(thickness: float, gain_max_fn, tol: float = 1e-13) -> float:
    """Solve gain = gain_max(gain / thickness) by bisection.

    ``gain_max_fn`` maps a mean-free-path gain to the closed-form
    threshold.  h(g) = g - gain_max(g / thickness) is increasing (both
    terms move with g), negative at 0+ and positive below the lasing
    threshold, so the root is bracketed.
    """
    lo, hi = 1e-9, math.pi - 1e-9
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid - gain_max_fn(mid / thickness) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# -- point-by-point Monte Carlo check ----------------------------------------

def scalar_mc_check(mode: SamplerMode, channels: int, seed: int, realizations: int):
    """``(status, detail, failures)`` of the Monte Carlo oracle check, one point at a time.

    The loop ``validation`` ran before it worked on whole arrays: one
    ``mc_average`` per (medium, squeezing, quantity) in grid order, each
    compared with ``validation.full_report`` through running maxima and
    counts.  ``failures`` counts every failing estimate, where ``detail``
    lists the first ten.  The grid, the closed forms and the tolerances
    are read from ``validation`` at call time, so a test may patch them.
    """
    config = SamplerConfig(mode=mode, realizations=realizations, seed=seed)
    trusted = realizations >= validation.MIN_TRUSTED_REALIZATIONS
    tol = validation.IDENTITY_TOL
    worst_sigma = worst_exact = shaped_max_std = 0.0
    failures, imprecise, imprecise_violations, points = [], 0, 0, 0
    for th in validation.STANDARD_THICKNESS:
        for g in validation.STANDARD_GAIN:
            spec = MediumSpec(thickness_ratio=th, gain_ratio=g, channels=channels)
            for r in validation.STANDARD_SQUEEZE:
                state = InputState(squeeze_r=r)
                rep = validation.full_report(spec, state)
                points += 1
                for quantity in ("x_wfs", "x_nowfs", "p_wfs", "p_nowfs"):
                    est = mc_average(spec, state, config, quantity)
                    analytic = getattr(rep, quantity)
                    err = abs(est.mean - analytic)
                    ok = err <= max(3.0 * est.std_error, tol)
                    precise = trusted and 3.0 * est.std_error <= (
                        validation.PRECISION_FRACTION * max(1.0, abs(analytic))
                    )
                    if not ok and precise:
                        failures.append({
                            "point": (th, g, r), "quantity": quantity, "abs_err": err,
                            "std_error": est.std_error, "analytic": analytic,
                            "ok": ok, "precise": precise,
                        })
                    elif not ok:
                        imprecise_violations += 1
                    if est.std_error > 0.0:
                        worst_sigma = max(worst_sigma, err / est.std_error)
                    else:
                        worst_exact = max(worst_exact, err)
                    if quantity.endswith("_wfs") and mode is SamplerMode.MEAN_MAGNITUDES:
                        shaped_max_std = max(shaped_max_std, est.std_error)
                    imprecise += not precise
    status = "fail" if failures else "warning" if imprecise else "pass"
    detail = {
        "sampler": mode.value,
        "realizations": realizations,
        "seed": seed,
        "channels": channels,
        "grid_points": points,
        "worst_sigma_margin": worst_sigma,
        "sigma_bound": 3.0,
        "worst_exact_error": worst_exact,
        "exact_tolerance": tol,
        "insufficient_precision_points": imprecise,
        "sigma_violations_at_low_precision": imprecise_violations,
    }
    if mode is SamplerMode.MEAN_MAGNITUDES:
        detail["shaped_max_std_error"] = shaped_max_std
    if failures:
        detail["failures"] = failures[:10]
    return status, detail, len(failures)


# -- earlier forms of the chunk reduction ------------------------------------

def stacked_moments(count: int, sums):
    """(count, mean, co-moments) of one chunk by the stacked two-pass form.

    Every sum is spread over the ``count`` draws, one-entry sums too, and
    the basis (sum T, sum T cos 2phi, total) is shifted by its first row,
    centred and multiplied out to a (3, 3, draws) array.
    """
    columns = (sums.trans, sums.trans_cos2, sums.trans + sums.rest)
    basis = np.stack([np.broadcast_to(c, (count,)) for c in columns])
    centered = basis - basis[:, :1]
    offset = np.add.reduce(centered, axis=1) / count
    centered -= offset[:, None]
    comoment = np.add.reduce(centered[:, None, :] * centered[None, :, :], axis=-1)
    return count, basis[:, 0] + offset, comoment


def masked_beta_share(table, u):
    """A share table's quantiles of ``u`` in any order, by masks and scatters."""
    share = np.zeros(u.shape)
    upper = u > table.split
    lower = (u > 0.0) ^ upper
    share[lower] = table.lower(u[lower])
    share[upper] = 1.0 - table.upper(1.0 - u[upper])
    return share


# -- single-draw helpers through np.sum ---------------------------------------

def summed_flux_residual(real) -> float:
    """``DisorderRealization.flux_residual`` with its channel sums taken by ``np.sum``."""
    return float(np.sum(real.trans_mags) + np.sum(real.refl_mags) - real.spont_mag - 1.0)


def summed_amplitude_check(real, state: InputState) -> tuple[float, float]:
    """``mean_amplitude_check`` with its sum of sqrt(T) taken by ``np.sum``."""
    amp_sum = float(np.sum(np.sqrt(real.trans_mags)))
    return amp_sum * 2.0 * state.amplitude.real, amp_sum * 2.0 * state.amplitude.imag


# -- per-cell CSV render -----------------------------------------------------

def format_cell(value) -> str:
    """One CSV cell or flag value by the per-cell ``isinstance`` chain."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def percell_render_csv(header, rows, manifest) -> bytes:
    """CSV bytes written line by line: checksum comment, header, rows."""
    buf = io.StringIO(newline="")
    buf.write(f"# manifest-sha256: {manifest.checksum()}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(format_cell(v) for v in row) + "\n")
    return buf.getvalue().encode()


# -- per-point dataset builders ----------------------------------------------

_FLAGS = {"L_over_l": "L_over_l", "L_over_La": "L_over_La", "r": "squeeze_r"}


def pointwise_sweep(flags, *axes):
    """Points (L/l, L/La, r, x) over the product of ``axes``, the last fastest.

    Takes the arguments of ``datasets.sweep``; every coordinate no axis
    sweeps is the flag of the same name (``squeeze_r`` for r).
    """
    names = [name for name, _ in axes]
    grids = [grid for _, grid in axes]
    for column, flag in _FLAGS.items():
        if column not in names:
            names.append(column)
            grids.append([getattr(flags, flag)])
    point = operator.itemgetter(*(names.index(column) for column in _FLAGS), len(axes) - 1)
    return map(point, itertools.product(*grids))


def pointwise_fig2_rows(panel, points):
    header = ["panel", "L_over_l", "L_over_La", "r", "wfs_gain"]
    rows = []
    for thickness, g, r, _ in points:
        state = InputState(squeeze_r=r)
        coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=g))
        rows.append([panel, thickness, g, r, wfs_gain(coef, state)])
    return header, rows


_FIG_HEADER = ["panel", "L_over_l", "L_over_La", "r", "x_name", "x_param", "quantity", "value"]


def pointwise_fig3_rows(panel, x_name, points):
    rows = []
    for thickness, g, r, x in points:
        coef = mean_coefficients(MediumSpec(thickness_ratio=thickness, gain_ratio=g))
        state = InputState(squeeze_r=r)
        for quantity, value in (
            ("ratio_wfs", rescaled_fluctuation(coef, state, shaped=True)),
            ("ratio_nowfs", rescaled_fluctuation(coef, state, shaped=False)),
            ("coherent", 1.0),
        ):
            rows.append([panel, thickness, g, r, x_name, x, quantity, value])
    return _FIG_HEADER, rows


def pointwise_fig4_rows(panel, x_name, points):
    rows = []
    for thickness, g, r, x in points:
        state = InputState(squeeze_r=r)
        rep = full_report(MediumSpec(thickness_ratio=thickness, gain_ratio=g), state)
        for quantity, value in (
            ("x_wfs", rep.x_wfs),
            ("x_nowfs", rep.x_nowfs),
            ("p_wfs", rep.p_wfs),
            ("p_nowfs", rep.p_nowfs),
            ("coherent", rep.coherent_baseline),
        ):
            rows.append([panel, thickness, g, r, x_name, x, quantity, value])
    return _FIG_HEADER, rows


def pointwise_figxr_rows(panel, x_name, points):
    rows = []
    for thickness, gain_amp, r, x in points:
        state = InputState(squeeze_r=r)
        amp = full_report(MediumSpec(thickness_ratio=thickness, gain_ratio=gain_amp), state)
        lin = full_report(MediumSpec(thickness_ratio=thickness, gain_ratio=0.0), state)
        for quantity, g, value in (
            ("amp_wfs", gain_amp, amp.x_wfs),
            ("amp_nowfs", gain_amp, amp.x_nowfs),
            ("lin_wfs", 0.0, lin.x_wfs),
            ("lin_nowfs", 0.0, lin.x_nowfs),
            ("snl", gain_amp, 1.0),
        ):
            rows.append([panel, thickness, g, r, x_name, x, quantity, value])
    return _FIG_HEADER, rows


def pointwise_snl_region_rows(thickness_grid, gain_grid, squeeze_r):
    scan = region_scan(
        np.asarray(thickness_grid), np.asarray(gain_grid), InputState(squeeze_r=squeeze_r)
    )
    header = ["record", "L_over_l", "L_over_La", "below_snl", "gain_boundary"]
    rows = []
    for i, th in enumerate(scan.thickness):
        for j, g in enumerate(scan.gain):
            rows.append(["cell", float(th), float(g), bool(scan.below_snl[i, j]), ""])
    for i, th in enumerate(scan.thickness):
        b = scan.boundary[i]
        rows.append(["boundary", float(th), "", "", "" if math.isnan(b) else float(b)])
    return header, rows


# The names in ``ramsq.cli`` that the per-point form replaces: the CLI's
# command table looks each one up when a command runs.
POINTWISE_CLI = {
    "sweep": pointwise_sweep,
    "fig2_rows": pointwise_fig2_rows,
    "fig3_rows": pointwise_fig3_rows,
    "fig4_rows": pointwise_fig4_rows,
    "figxr_rows": pointwise_figxr_rows,
    "snl_region_rows": pointwise_snl_region_rows,
    "render_csv": percell_render_csv,
}
