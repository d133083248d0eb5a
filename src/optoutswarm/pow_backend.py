"""Selects the challenge-solving kernel at import time.

The C kernel in ``_powcore.c`` is built on first use with the compiler Python
was built with, and cached in ``__pycache__`` under its source digest. Where
the build or its import fails, the pure-Python kernel runs instead.
``crypto.solve_challenge`` imports this module the first time it must scan,
which only a decoded wire payload needs: a drawn challenge carries its answer
and a relay's copy is refused by its key. The toolchain's modules
(``subprocess``, ``tempfile``, ``shlex``, ``sysconfig``) are imported only to
compile, so loading a cached build costs its import alone.
"""

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import sys
from pathlib import Path
from types import ModuleType

from optoutswarm import _pow_python

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_powcore.c")
CACHE = SOURCE.parent / "__pycache__"
MODULE = "optoutswarm._powcore"


def build(cache: Path, cc: str | None) -> Path:
    """The compiled kernel in `cache`, compiling it unless the source's digest is built.

    `cc` is the compiler command, by default sysconfig's `CC`; a failed
    compile raises ImportError.
    """
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    target = cache / f"_powcore.{digest}{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    if target.exists():
        return target
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    compiler = shlex.split(cc or sysconfig.get_config_var("CC") or "cc")
    cache.mkdir(exist_ok=True)
    # a private name until complete, so no reader ever sees a partial file
    fd, partial = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [*compiler, "-O2", "-shared", "-fPIC", f"-I{sysconfig.get_paths()['include']}",
             str(SOURCE), "-o", partial, "-lcrypto"],
            check=True, capture_output=True, text=True,
        )
        os.replace(partial, target)
    except subprocess.CalledProcessError as exc:
        raise ImportError(f"compiling {SOURCE} failed:\n{exc.stderr}") from exc
    finally:
        Path(partial).unlink(missing_ok=True)
    return target


def load(cache: Path = CACHE, cc: str | None = None) -> ModuleType:
    """The compiled kernel, registered as `optoutswarm._powcore`; else `_pow_python`."""
    try:
        spec = importlib.util.spec_from_file_location(MODULE, build(cache, cc))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError) as exc:
        log.debug("compiled kernel unavailable, using the pure-Python kernel: %s", exc)
        return _pow_python
    # what the import system does for a submodule it loads itself
    sys.modules[MODULE] = module
    setattr(sys.modules[__package__], MODULE.rpartition(".")[2], module)
    return module


_kernel = load()
BACKEND = _kernel.BACKEND
solve_kernel = _kernel.solve_kernel

__all__ = ["BACKEND", "solve_kernel"]
