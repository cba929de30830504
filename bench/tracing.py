"""Span recording around the package's public functions, from outside.

The tracer replaces module attributes that the pipeline looks up at call
time (for example ``mbweibull.fitting.loglik_mbw``, which ``fit_mbw``
reaches through the module globals) with wrappers that record one span
per call. Nothing in the package changes; ``uninstall`` puts the
original functions back.

A span is ``[name, start_ns, end_ns, parent, attrs]``. Its id is its
position in ``Tracer.spans``; ``parent`` is the id of the enclosing span,
or -1. Spans are appended in start order and kept in memory until
``write`` dumps them as JSON lines.
"""

import json
import math
import time
from contextlib import contextmanager

from mbweibull import cli, fitting, mixture, studies


def _fit_attrs(args, kwargs, result):
    return {"n_evals": result.n_evals, "nit": result.iterations}


def _loglik_attrs(args, kwargs, result):
    return {"rejected": True} if result == -math.inf else None


def _se_attrs(args, kwargs, result):
    return {"model": args[1].model}


def _points_attrs(args, kwargs, result):
    return {"points": int(getattr(args[0], "size", 1))}


def _csv_attrs(args, kwargs, result):
    return {"bytes": len(result)}


def _main_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"command": argv[0], "exit": result}


# (module, attribute, attrs-from-call) for every function the benchmark
# traces. The span is named after the module that defines the function,
# so ``fitting.bvw_pdf`` records as ``bivariate.bvw_pdf``.
TRACED = [
    (fitting, "loglik_mbw", _loglik_attrs),
    (fitting, "bvw_pdf", None),
    (fitting, "select_eps", None),
    (fitting, "dbscan", None),
    (fitting, "compute_se", _se_attrs),
    (fitting, "fit_mbw", _fit_attrs),
    (fitting, "fit_m1", None),
    (fitting, "fit_m2", None),
    (fitting, "bootstrap", None),
    (studies, "run_study", None),
    (studies, "sample_mbw", None),
    (studies, "fit_mbw", _fit_attrs),
    (mixture, "mbw_pdf", _points_attrs),
    (mixture, "mbw_survival", _points_attrs),
    (cli, "main", _main_attrs),
    (cli, "fit_mbw", _fit_attrs),
    (cli, "hazard_grid", None),
    (cli, "hazard_grid_csv", _csv_attrs),
]


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def _open(self, name, attrs=None):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        """A span around a block of benchmark code, such as one batch."""
        rec = self._open(name, attrs or None)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, attrs_fn):
        name = span_name(fn)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[4] = {"raised": type(e).__name__}
                raise
            finally:
                self._close(rec)
            if attrs_fn is not None:
                rec[4] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, attrs_fn in TRACED:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, attrs_fn))

    def uninstall(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")
