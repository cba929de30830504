"""Turn a span file from a traced benchmark run into per-layer numbers.

Usage: python3 bench/summarize.py .bench_out/spans-<workload>-<seed>.jsonl

Prints one row per traced function (calls, total and self time) and one
row per layer (package module), then the named per-layer metrics. Self
time is a span's duration minus the durations of its direct children.

Counts that must repeat exactly for a seed (evaluations per fit,
likelihood calls per fit, rejected evaluations) are taken over the first
``bench.batch`` span, which every run completes whatever its length.
Timings use every span of the run.
"""

import json
import sys

import numpy as np

BATCH = "bench.batch"

# name -> (unit, description); the order is the order of the report
METRICS = {
    "fitting.loglik_mbw.calls_per_fit": ("count", "likelihood calls per M3 fit, SE included (batch 0)"),
    "fitting.loglik_mbw.us_per_call": ("us", "mean likelihood call, bvw_pdf included"),
    "fitting.loglik_mbw.self_us_per_call": ("us", "mean likelihood call minus its bvw_pdf child"),
    "fitting.loglik_mbw.rejected_ratio": ("ratio", "calls that raised or returned -inf (batch 0)"),
    "fitting.n_evals_per_fit": ("count", "FitResult.n_evals per M3 fit (batch 0)"),
    "fitting.nit_per_fit": ("count", "FitResult.iterations per M3 fit (batch 0)"),
    "bivariate.bvw_pdf.us_per_call": ("us", "mean bvw_pdf call from the likelihood"),
    "fitting.compute_se.ms": ("ms", "mean M3 standard-error Hessian"),
    "fitting.compute_se.loglik_calls": ("count", "likelihood calls per M3 Hessian (batch 0)"),
    "fitting.fit_mbw.self_ms": ("ms", "fit_mbw minus eps, DBSCAN, likelihood and SE"),
    "clustering.dbscan.ms": ("ms", "mean DBSCAN call"),
    "clustering.select_eps.ms": ("ms", "mean k-distance knee"),
    "sampler.sample_mbw.ms": ("ms", "mean sample_mbw call"),
    "studies.fit_ms_p50": ("ms", "median fit_mbw inside run_study"),
    "studies.fit_ms_p90": ("ms", "90th percentile fit_mbw inside run_study"),
    "studies.run_study.self_ms": ("ms", "run_study minus sampling and fits, per call"),
    "mixture.mbw_pdf.ns_per_point": ("ns", "mbw_pdf time per grid node"),
    "mixture.mbw_survival.ns_per_point": ("ns", "mbw_survival time per grid node"),
    "mixture.hazard_grid_csv.ms": ("ms", "mean grid serialisation"),
    "mixture.hazard_grid_csv.bytes": ("bytes", "mean CSV size"),
    "cli.main.self_ms": ("ms", "mbw fit command minus fit_mbw (parse, CSV, JSON)"),
}


class Spans:
    """Column view of a span list with durations and self times."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.dur = np.array([s[2] - s[1] for s in spans], dtype=float)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.attrs = [s[4] or {} for s in spans]
        has_parent = self.parent >= 0
        child_time = np.zeros(len(spans))
        np.add.at(child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_time
        self.by_name = {}
        for i, name in enumerate(self.names):
            self.by_name.setdefault(name, []).append(i)
        batches = self.by_name.get(BATCH, [])
        # spans are stored in start order, so batch 0 owns every span up
        # to the start of batch 1
        if batches:
            stop = batches[1] if len(batches) > 1 else len(spans)
            self.batch0 = range(batches[0], stop)
        else:
            self.batch0 = range(len(spans))

    def ids(self, name, within=None, **attrs):
        return [
            i
            for i in self.by_name.get(name, [])
            if (within is None or i in within)
            and all(self.attrs[i].get(k) == v for k, v in attrs.items())
        ]

    def has_ancestor(self, i, name) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False


def _mean(values, scale):
    return float(np.mean(values)) * scale if len(values) else None


def layer_metrics(s: Spans) -> dict:
    """Every metric of ``METRICS`` that the run exercised, as name ->
    value. A metric whose layer did not run is left out."""
    out = {}
    ll = s.ids("fitting.loglik_mbw")
    fits = s.ids("fitting.fit_mbw")
    ll0 = s.ids("fitting.loglik_mbw", s.batch0)
    fits0 = s.ids("fitting.fit_mbw", s.batch0)
    if fits0:
        in_fit = sum(1 for i in ll0 if s.has_ancestor(i, "fitting.fit_mbw"))
        out["fitting.loglik_mbw.calls_per_fit"] = in_fit / len(fits0)
    # a fit that raised has no FitResult to count
    results0 = [s.attrs[i] for i in fits0 if "n_evals" in s.attrs[i]]
    if results0:
        out["fitting.n_evals_per_fit"] = sum(a["n_evals"] for a in results0) / len(results0)
        out["fitting.nit_per_fit"] = sum(a["nit"] for a in results0) / len(results0)
    if ll0:
        rejected = sum(1 for i in ll0 if s.attrs[i]) / len(ll0)
        out["fitting.loglik_mbw.rejected_ratio"] = rejected
    out["fitting.loglik_mbw.us_per_call"] = _mean(s.dur[ll], 1e-3)
    out["fitting.loglik_mbw.self_us_per_call"] = _mean(s.self_time[ll], 1e-3)
    out["bivariate.bvw_pdf.us_per_call"] = _mean(s.dur[s.ids("bivariate.bvw_pdf")], 1e-3)
    se = s.ids("fitting.compute_se", model="m3")
    out["fitting.compute_se.ms"] = _mean(s.dur[se], 1e-6)
    se0 = set(s.ids("fitting.compute_se", s.batch0, model="m3"))
    if se0:
        in_se = sum(1 for i in ll0 if s.parent[i] in se0)
        out["fitting.compute_se.loglik_calls"] = in_se / len(se0)
    out["fitting.fit_mbw.self_ms"] = _mean(s.self_time[fits], 1e-6)
    out["clustering.dbscan.ms"] = _mean(s.dur[s.ids("clustering.dbscan")], 1e-6)
    out["clustering.select_eps.ms"] = _mean(s.dur[s.ids("clustering.select_eps")], 1e-6)
    out["sampler.sample_mbw.ms"] = _mean(s.dur[s.ids("sampler.sample_mbw")], 1e-6)
    study_fits = [i for i in fits if s.has_ancestor(i, "studies.run_study")]
    if study_fits:
        p50, p90 = np.percentile(s.dur[study_fits] * 1e-6, [50, 90])
        out["studies.fit_ms_p50"] = float(p50)
        out["studies.fit_ms_p90"] = float(p90)
    out["studies.run_study.self_ms"] = _mean(s.self_time[s.ids("studies.run_study")], 1e-6)
    for fn in ("mbw_pdf", "mbw_survival"):
        ids = s.ids(f"mixture.{fn}")
        points = sum(s.attrs[i].get("points", 0) for i in ids)
        if points:
            out[f"mixture.{fn}.ns_per_point"] = float(s.dur[ids].sum()) / points
    csv = [i for i in s.ids("mixture.hazard_grid_csv") if "bytes" in s.attrs[i]]
    out["mixture.hazard_grid_csv.ms"] = _mean(s.dur[csv], 1e-6)
    out["mixture.hazard_grid_csv.bytes"] = _mean([s.attrs[i]["bytes"] for i in csv], 1.0)
    out["cli.main.self_ms"] = _mean(s.self_time[s.ids("cli.main", command="fit")], 1e-6)
    return {k: out[k] for k in METRICS if out.get(k) is not None}


def function_table(s: Spans) -> list:
    """Rows (name, calls, total_ms, self_ms) per traced name, slowest
    self time first."""
    rows = {}
    for i, name in enumerate(s.names):
        calls, total, own = rows.get(name, (0, 0.0, 0.0))
        rows[name] = (calls + 1, total + s.dur[i], own + s.self_time[i])
    return sorted(
        ((n, c, t * 1e-6, o * 1e-6) for n, (c, t, o) in rows.items()),
        key=lambda r: -r[3],
    )


def print_report(s: Spans, file=sys.stdout) -> dict:
    """Print the span, layer and metric tables; return ``layer_metrics``."""
    table = function_table(s)
    print(f"{'span':<28}{'calls':>9}{'total ms':>12}{'self ms':>12}{'self us/call':>14}", file=file)
    for name, calls, total, own in table:
        print(f"{name:<28}{calls:>9}{total:>12.1f}{own:>12.1f}{own * 1e3 / calls:>14.2f}", file=file)
    layers = {}
    for name, calls, _, own in table:
        layer = name.split(".", 1)[0]
        c, o = layers.get(layer, (0, 0.0))
        layers[layer] = (c + calls, o + own)
    print(f"\n{'layer':<28}{'calls':>9}{'self ms':>12}", file=file)
    for layer, (calls, own) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        print(f"{layer:<28}{calls:>9}{own:>12.1f}", file=file)
    metrics = layer_metrics(s)
    print(f"\n{'per-layer metric':<40}{'value':>14}  unit", file=file)
    for name, (unit, what) in METRICS.items():
        value = f"{metrics[name]:.6g}" if name in metrics else "n/a"
        print(f"{name:<40}{value:>14}  {unit:<6} {what}", file=file)
    return metrics


def load(path) -> Spans:
    with open(path) as fh:
        return Spans([json.loads(line) for line in fh])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 bench/summarize.py <span file>")
    print_report(load(sys.argv[1]))
