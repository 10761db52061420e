"""Core library: public API, metrics, results. The names resolve on first
access through the package root's table, so rendering a cached result
(:mod:`repro.core.results`) imports no simulator."""

__all__ = ["HvcNetwork", "Cdf", "percentile", "throughput_series", "ExperimentResult", "Table"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import repro

    return getattr(repro, name)


def __dir__():
    return sorted({*globals(), *__all__})
