"""Traced allocation peaks for the tests that bound a computation's memory."""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
