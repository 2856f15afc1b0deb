import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """measure(fn) -> (peak bytes allocated while fn() runs, fn's result).

    tracemalloc sees numpy's array buffers, so the peak counts every
    temporary the call builds, and its result, above what was already
    allocated when it started.
    """

    def measure(fn):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            if not tracing:
                tracemalloc.stop()
        return peak, result

    return measure
