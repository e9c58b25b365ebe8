"""The native kernel's build cache and its scalar fallback.

The kernel is compiled on first use and cached by source hash.  These
tests pin what happens around that: a machine that cannot build it runs
the scalar engine (one warning, identical results), concurrent cold
builds do not corrupt the cache, and a bad cached artifact is rebuilt.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import warnings

import pytest

from repro.sim.engine import SimConfig, Simulator, active_engine
from repro.sim.native import build
from repro.sim.runner import PrefetcherKind, make_factory, make_sim_config
from repro.sim.store import encode_result
from repro.workloads.suite import generate

#: The ``src`` directory the subprocesses import the package from.
SRC = os.path.abspath(
    os.path.join(os.path.dirname(build.__file__), "..", "..", "..")
)

#: Loads the kernel from the cache directory in argv[1] and calls it.
_LOAD_SCRIPT = """
import sys
from repro.sim.native import build
module = build.load(cache_dir=sys.argv[1])
kernel = module.lib.nk_new()
module.lib.nk_free(kernel)
print("loaded", module.lib.nk_source_hash() != module.ffi.NULL)
"""


def _artifacts(cache) -> "list[str]":
    return sorted(os.listdir(cache))


def test_build_failure_falls_back_to_scalar_once(monkeypatch, tmp_path):
    monkeypatch.setattr(build, "_MODULE", None)
    monkeypatch.setattr(build, "_FAILURE", None)
    monkeypatch.setattr(build, "cache_dirs", lambda: [str(tmp_path)])
    monkeypatch.setenv("CC", "false")
    trace = generate("oltp-db2", scale="test", cores=2, seed=3)
    config = make_sim_config("test")
    factory = make_factory(PrefetcherKind.STMS)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert active_engine() == "scalar"
        first = Simulator(config).run(trace, factory, "stms")
        second = Simulator(config).run(trace, None, "baseline")
    fallbacks = [
        w for w in caught if "falling back to the scalar engine" in str(
            w.message
        )
    ]
    assert len(fallbacks) == 1
    assert "native kernel build failed" in str(fallbacks[0].message)

    scalar = dataclasses.replace(config, engine="scalar")
    assert encode_result(first) == encode_result(
        Simulator(scalar).run(trace, factory, "stms")
    )
    assert encode_result(second) == encode_result(
        Simulator(scalar).run(trace, None, "baseline")
    )
    assert _artifacts(tmp_path) == []  # no half-built leftovers


def test_scalar_request_never_builds(monkeypatch):
    import repro.sim.native as native

    def _no_kernel():
        raise AssertionError("scalar engine must not load the kernel")

    monkeypatch.setattr(native, "kernel", _no_kernel)
    assert active_engine("scalar") == "scalar"
    with pytest.raises(AssertionError):
        active_engine("native")


def test_concurrent_cold_builds_share_one_artifact(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD_SCRIPT, str(cache)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert "loaded True" in out
    # One published artifact, no temp build directories left behind.
    digest = build.source_hash()
    assert _artifacts(cache) == [
        os.path.basename(build._artifact(str(cache), digest))
    ]


@pytest.mark.parametrize("damage", ["corrupt", "stale"])
def test_bad_cached_artifact_is_rebuilt(tmp_path, damage):
    digest = build.source_hash()
    target = build._artifact(str(tmp_path), digest)
    if damage == "corrupt":
        with open(target, "wb") as handle:
            handle.write(b"\x7fELF truncated by a crashed writer")
    else:
        # A working artifact of another kernel source, left under this
        # source's name (e.g. a cache directory copied across versions).
        other = tmp_path / "other"
        source = build._read_source() + "\n/* another version */\n"
        build._build(source, build.source_hash(source), str(other))
        (built,) = os.listdir(other)
        os.replace(other / built, target)
        other.rmdir()
    with open(target, "rb") as handle:
        damaged = handle.read()

    module = build.load(cache_dir=str(tmp_path))
    assert module.ffi.string(module.lib.nk_source_hash()).decode() == digest
    with open(target, "rb") as handle:
        assert handle.read() != damaged
    assert _artifacts(tmp_path) == [os.path.basename(target)]


def test_kernel_reads_trace_columns_of_any_dtype():
    """float64 work and integer dep/write columns simulate exactly as
    the scalar engine reads them (float() / bool() per record)."""
    import numpy as np

    from tests.conftest import make_trace

    trace = make_trace([[1, 2, 3, 70, 1, 2, 140, 3] * 40] * 2)
    trace.work = [np.asarray(w, dtype=np.float64) * 1.1 for w in trace.work]
    trace.dep = [np.asarray(d, dtype=np.int8) * 2 for d in trace.dep]
    results = [
        Simulator(SimConfig(engine=engine)).run(trace, None, "baseline")
        for engine in ("scalar", "native")
    ]
    assert encode_result(results[0]) == encode_result(results[1])
