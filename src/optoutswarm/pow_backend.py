"""Selects the challenge-solving kernel at import time.

The C kernel in ``_powcore.c`` is built on first use with the compiler Python
was built with, and cached in ``__pycache__`` under its source digest. Where
the build or its import fails, the pure-Python kernel runs instead.
``crypto.solve_challenge`` imports this module the first time it must scan,
so importing the package builds nothing.
"""

import hashlib
import importlib.util
import logging
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType

from optoutswarm import _pow_python

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_powcore.c")
CACHE = SOURCE.parent / "__pycache__"
MODULE = "optoutswarm._powcore"


def build(cache: Path, cc: list[str]) -> Path:
    """The compiled kernel in `cache`, compiling it unless the source's digest is built."""
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    target = cache / f"_powcore.{digest}{sysconfig.get_config_var('EXT_SUFFIX')}"
    if target.exists():
        return target
    cache.mkdir(exist_ok=True)
    # a private name until complete, so no reader ever sees a partial file
    fd, partial = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, "-O2", "-shared", "-fPIC", f"-I{sysconfig.get_paths()['include']}",
             str(SOURCE), "-o", partial, "-lcrypto"],
            check=True, capture_output=True, text=True,
        )
        os.replace(partial, target)
    finally:
        Path(partial).unlink(missing_ok=True)
    return target


def load(cache: Path = CACHE, cc: str | None = None) -> ModuleType:
    """The compiled kernel, registered as `optoutswarm._powcore`; else `_pow_python`."""
    compiler = shlex.split(cc or sysconfig.get_config_var("CC") or "cc")
    try:
        spec = importlib.util.spec_from_file_location(MODULE, build(cache, compiler))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except subprocess.CalledProcessError as exc:
        log.debug("compiling %s failed, using the pure-Python kernel:\n%s", SOURCE, exc.stderr)
        return _pow_python
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
