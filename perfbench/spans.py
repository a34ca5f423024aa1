"""Spans and counters wrapped around ramsq's module boundaries from outside.

A boundary is patched at every ``ramsq`` module attribute that holds its
function, i.e. at the name each caller looks up: ``validation`` and
``datasets`` import ``mc_average``, ``full_report`` and ``region_scan``
by name, so patching only the defining module would miss those calls.

Times are self times: a span's duration minus the part covered by the
spans it encloses, summed over the process.  ``core`` gets no span:
``validate_medium`` runs ~1e5 times inside the other spans and wrapping
it would distort them.  Very hot boundaries (``snl_condition``,
``mean_coefficients``) are counted but not timed for the same reason.

A boundary whose function does not exist is listed in ``absent`` and
its metrics stay 0.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, defining module, function names, kind)
#   span   .s and .calls
#   table  .s, .calls, .builds (cache misses) and .bytes (computed)
#   rows   .s, .calls and .count (rows returned)
#   bytes  .s, .calls and .bytes (length of the bytes returned)
#   count  .calls only
BOUNDARIES = (
    ("ensemble.draw_table", "ramsq.ensemble", ("_uniform_table",), "table"),
    ("ensemble.draw_stream", "ramsq.ensemble", ("_uniforms_for",), "span"),
    ("ensemble.magnitudes", "ramsq.ensemble", ("_magnitudes",), "span"),
    ("ensemble.reduce", "ramsq.ensemble", ("_batch_values",), "span"),
    ("ensemble.mc_average", "ramsq.ensemble", ("mc_average",), "span"),
    ("ensemble.sample_realization", "ramsq.ensemble", ("sample_realization",), "span"),
    (
        "ensemble.single_eval",
        "ramsq.ensemble",
        (
            "variance_x_wfs_single",
            "variance_x_nowfs_single",
            "variance_p_single",
            "mean_amplitude_check",
        ),
        "span",
    ),
    ("validation.mc_point", "ramsq.validation", ("_mc_point",), "span"),
    (
        "validation.identity_checks",
        "ramsq.validation",
        ("_check_flux", "_check_linear_limit", "_check_analytic_identities", "_check_snl_sign"),
        "span",
    ),
    ("analytic.full_report", "ramsq.analytic", ("full_report",), "span"),
    ("analytic.mean_coefficients", "ramsq.analytic", ("mean_coefficients",), "count"),
    ("snl.region_scan", "ramsq.snl", ("region_scan",), "span"),
    ("snl.margin", "ramsq.snl", ("snl_condition",), "count"),
    (
        "datasets.rows",
        "ramsq.datasets",
        ("coeffs_rows", "fig2_rows", "fig3_rows", "fig4_rows", "figxr_rows", "snl_region_rows"),
        "rows",
    ),
    ("manifest.render", "ramsq.manifest", ("render_csv", "manifest_json"), "bytes"),
    ("cli.main", "ramsq.cli", ("main",), "span"),
    ("cli.emit", "ramsq.cli", ("_emit",), "span"),
)

_KIND_METRICS = {
    "span": (".s", ".calls"),
    "table": (".s", ".calls", ".builds", ".bytes"),
    "rows": (".s", ".calls", ".count"),
    "bytes": (".s", ".calls", ".bytes"),
    "count": (".calls",),
}


def metric_names() -> list[str]:
    """Every layer metric a trace reports, in boundary order."""
    return [prefix + suffix for prefix, _, _, kind in BOUNDARIES for suffix in _KIND_METRICS[kind]]


def metric_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    return "B" if name.endswith(".bytes") else "count"


class Tracer:
    """Install with ``install()``; ``remove()`` restores every patched name."""

    def __init__(self) -> None:
        self.values = dict.fromkeys(metric_names(), 0)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # Child time of the open spans; the bottom entry is the process.
        self._child = [0.0]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "ramsq" or name.startswith("ramsq.")]
        for prefix, module_name, functions, kind in BOUNDARIES:
            home = sys.modules.get(module_name)
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.absent.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self._wrap(prefix, kind, original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._patches.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def remove(self) -> None:
        for module, fn_name, original in reversed(self._patches):
            setattr(module, fn_name, original)
        self._patches.clear()

    def _wrap(self, prefix: str, kind: str, fn):
        values = self.values
        calls = prefix + ".calls"
        if kind == "count":
            def counted(*args, **kwargs):
                values[calls] += 1
                return fn(*args, **kwargs)

            return counted

        child = self._child
        clock = time.perf_counter
        self_s = prefix + ".s"
        cache_info = getattr(fn, "cache_info", None) if kind == "table" else None

        def spanned(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                values[self_s] += elapsed - child.pop()
                child[-1] += elapsed
                values[calls] += 1
            if kind == "table":
                # Without a cache every call builds the table.
                built = cache_info().misses - misses if cache_info else 1
                if built:
                    values[prefix + ".builds"] += built
                    values[prefix + ".bytes"] += getattr(result, "nbytes", 0)
            elif kind == "rows":
                values[prefix + ".count"] += len(result[1])
            elif kind == "bytes":
                values[prefix + ".bytes"] += len(result)
            return result

        return spanned
