"""The suite's opt-in shadow mode: `pytest --shadow-kernels`.

int64 arithmetic on numpy arrays wraps silently, so neither the results
nor a warning show a call of a numpy kernel that the int64 guard let
through wrongly.  The mode re-checks every call of `quantale`'s numpy
kernels against an independent exact route, and fails the test on the
first mismatch:

- `_convolve_fast` and `_implication_fast`: a call whose values took int64
  runs again with `_dtype` answering object to every guard, so its jumps
  take object arrays and its values Python ints, through the float64
  filter; a call past the values' guard runs again through
  `_convolve_int` or `_implication_int` on the same `_Scaled`.
- `_below_keys`: each call runs again with its jumps and values forced
  onto object arrays.

A test that counts calls the mode adds (of `np.argsort`, `_swept`,
`_scale` or the like) carries the `counts_kernel_calls` marker and runs
unshadowed.  A forced run swaps `_dtype` out, so spies on `_dtype` see no
calls of it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from ddquant import quantale


def pytest_addoption(parser):
    parser.addoption(
        "--shadow-kernels",
        action="store_true",
        help="re-check every numpy-kernel call of ddquant.quantale against an exact route",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "counts_kernel_calls: counts calls that --shadow-kernels adds; the mode leaves the test unshadowed",
    )


# the calls the mode re-checked, by kernel and route
_RECHECKED: Counter = Counter()


def pytest_terminal_summary(terminalreporter, config):
    if config.getoption("--shadow-kernels"):
        counts = ", ".join(f"{n} {what}" for what, n in sorted(_RECHECKED.items()))
        terminalreporter.write_line(f"shadow-kernels re-checked: {counts or 'no calls'}")


def _forced(kernel, *args):
    """kernel(*args) with `_dtype` answering object to every guard."""
    dtype = quantale._dtype
    quantale._dtype = lambda *bounds: object
    try:
        return kernel(*args)
    finally:
        quantale._dtype = dtype


@pytest.fixture(autouse=True)
def _shadow_kernels(request, monkeypatch):
    config = request.config
    if not config.getoption("--shadow-kernels") or request.node.get_closest_marker("counts_kernel_calls"):
        return
    fits = quantale._dtype
    convolve_fast, convolve_int = quantale._convolve_fast, quantale._convolve_int
    implication_fast, implication_int = quantale._implication_fast, quantale._implication_int
    below_keys = quantale._below_keys

    def convolve(s):
        got = convolve_fast(s)
        if fits(s.ld * s.m) is np.int64:
            again, route = _forced(convolve_fast, s), "forced past the int64 guard"
        else:
            again, route = convolve_int(s), "through _convolve_int"
        assert got == again, f"_convolve_fast gave {got}, {route} {again}"
        _RECHECKED[f"_convolve_fast {route}"] += 1
        return got

    def implication(s, d, forms, cap):
        got = implication_fast(s, d, forms, cap)
        if fits(s.ld * d) is np.int64:
            again, route = _forced(implication_fast, s, d, forms, cap), "forced past the int64 guard"
        else:
            again, route = implication_int(s, d, forms, cap), "through _implication_int"
        assert got == again, f"_implication_fast gave {got}, {route} {again}"
        _RECHECKED[f"_implication_fast {route}"] += 1
        return got

    def below(t, staircases, kp, kq, kx):
        got = below_keys(t, staircases, kp, kq, kx)
        again = _forced(below_keys, t, staircases, kp, kq, kx)
        assert np.array_equal(got, again), f"_below_keys gave {got}, on object arrays {again}"
        _RECHECKED["_below_keys on object arrays"] += 1
        return got

    monkeypatch.setattr(quantale, "_convolve_fast", convolve)
    monkeypatch.setattr(quantale, "_implication_fast", implication)
    monkeypatch.setattr(quantale, "_below_keys", below)
