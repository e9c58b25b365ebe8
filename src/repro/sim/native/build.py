"""Build, cache and load the native event kernel (cffi API mode).

``kernel.c`` is compiled once per source hash into a CPython extension
module and cached next to this file in ``_build/`` (or, when the
package directory is read-only, under ``$XDG_CACHE_HOME/repro-native``).
The cache never lives in ``$TMPDIR``: benchmark and CI runs delete
their temp directories after every run.

Builds go through a private temp directory inside the cache directory,
are loaded from there, and land with one ``os.replace``, so processes
racing on a cold cache each build a complete artifact and the last
rename wins harmlessly; only an artifact that loaded is ever published.
An artifact that fails to load or reports a different source hash
(stale or corrupt) is deleted and rebuilt once.

Compiler: ``$CC`` (default ``cc``) with ``-O2 -ffp-contract=off``.  No
``-march=native`` and no ``-ffast-math``: FMA contraction or reordered
float math would change results the scalar engine pins bit-for-bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import io
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "kernel.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


class KernelUnavailable(RuntimeError):
    """The kernel could not be built or loaded on this machine."""


def _read_source() -> str:
    with open(SOURCE, encoding="utf-8") as handle:
        return handle.read()


def source_hash(source: "str | None" = None) -> str:
    """Digest of everything the compiled artifact depends on."""
    import cffi

    if source is None:
        source = _read_source()
    digest = hashlib.blake2b(digest_size=8)
    for part in (
        source,
        " ".join(CFLAGS),
        sysconfig.get_config_var("EXT_SUFFIX") or "",
        sys.version,
        cffi.__version__,
    ):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_dirs() -> "list[str]":
    """Candidate cache directories, most preferred first."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return [os.path.join(HERE, "_build"), os.path.join(base, "repro-native")]


def _cdef(source: str) -> str:
    """The declarations between the cdef markers, without ``static``."""
    start = source.index("/* cdef-begin */") + len("/* cdef-begin */")
    end = source.index("/* cdef-end */")
    return source[start:end].replace("static ", "")


def _module_name(digest: str) -> str:
    return f"_repro_nk_{digest}"


def _artifact(cache_dir: str, digest: str) -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(cache_dir, _module_name(digest) + suffix)


def _build(source: str, digest: str, cache_dir: str):
    """Compile into ``cache_dir`` and return the loaded module."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_cdef(source))
    ffi.set_source(
        _module_name(digest),
        f'#define NK_SOURCE_HASH "{digest}"\n' + source,
    )
    os.makedirs(cache_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=".build-", dir=cache_dir)
    try:
        c_file = os.path.join(work, _module_name(digest) + ".c")
        with contextlib.redirect_stdout(io.StringIO()):
            ffi.emit_c_code(c_file)  # cffi announces the file on stdout
        built = os.path.join(work, os.path.basename(_artifact(work, digest)))
        compiler = shlex.split(os.environ.get("CC") or "cc")
        command = [
            *compiler,
            *CFLAGS,
            "-I",
            sysconfig.get_paths()["include"],
            c_file,
            "-o",
            built,
        ]
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, timeout=300
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise KernelUnavailable(f"compiler failed to run: {error}")
        if proc.returncode != 0 or not os.path.isfile(built):
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            raise KernelUnavailable(
                f"{' '.join(compiler)} exited {proc.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
        # Loading from the private path keeps the dynamic loader from
        # handing back a stale artifact it already mapped at the target.
        module = _import(built, digest)
        os.replace(built, _artifact(cache_dir, digest))
        return module
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _import(path: str, digest: str):
    """Load the artifact at ``path``; verify its embedded source hash."""
    name = _module_name(digest)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    embedded = module.ffi.string(module.lib.nk_source_hash()).decode()
    if embedded != digest:
        raise ImportError(f"artifact hash {embedded} != source {digest}")
    return module


def load(cache_dir: "str | None" = None):
    """Return the kernel module (``.ffi`` / ``.lib``), building if needed.

    Raises :class:`KernelUnavailable` when no usable artifact exists and
    none can be built (no cffi, no compiler, no writable cache, ...).
    """
    try:
        import cffi  # noqa: F401
    except ImportError:
        raise KernelUnavailable("cffi is not installed") from None
    source = _read_source()
    digest = source_hash(source)
    candidates = [cache_dir] if cache_dir is not None else cache_dirs()
    for directory in candidates:
        path = _artifact(directory, digest)
        if os.path.exists(path):
            try:
                return _import(path, digest)
            except (ImportError, OSError):
                # Stale or corrupt: drop it and rebuild below.
                try:
                    os.unlink(path)
                except OSError:
                    pass
    errors = []
    for directory in candidates:
        try:
            return _build(source, digest, directory)
        except KernelUnavailable as error:
            raise KernelUnavailable(
                f"native kernel build failed: {error}"
            ) from None
        except (ImportError, OSError) as error:
            errors.append(f"{directory}: {error}")
    raise KernelUnavailable(
        "native kernel unavailable: " + "; ".join(errors)
    )


_MODULE = None
_FAILURE: "str | None" = None
_LOCK = threading.Lock()


def kernel():
    """The process-wide kernel module, or None after a failed build.

    The first failure warns once and is remembered: every later
    simulation in the process runs the scalar engine without retrying.
    """
    global _MODULE, _FAILURE
    with _LOCK:
        if _MODULE is None and _FAILURE is None:
            try:
                _MODULE = load()
            except KernelUnavailable as error:
                _FAILURE = str(error)
                warnings.warn(
                    f"{error}; falling back to the scalar engine",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return _MODULE
