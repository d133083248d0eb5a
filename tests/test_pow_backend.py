"""Kernel-level checks for the brute-force search, both backends."""

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from optoutswarm import _pow_python
from optoutswarm import pow_backend

_compiled = pow_backend.load()
KERNELS = [_pow_python.solve_kernel]
KERNEL_IDS = ["python"]
if _compiled is not _pow_python:
    KERNELS.append(_compiled.solve_kernel)
    KERNEL_IDS.append("c")

# what building the compiled kernel needs, beside libcrypto itself
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
TOOLCHAIN = shutil.which(CC) is not None and any(
    Path(include, "openssl", "sha.h").is_file()
    for include in ("/usr/include", "/usr/local/include", sysconfig.get_paths()["include"])
)


def _target(prefix: bytes, test: int) -> bytes:
    return hashlib.sha256(prefix + test.to_bytes(8, "little")).digest()


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_finds_planted_solution(kernel):
    prefix = b"some-issuer-key" + (99).to_bytes(8, "little")
    assert kernel(prefix, _target(prefix, 1234), 10_000) == 1234


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_zero_is_found_first(kernel):
    prefix = b"p"
    assert kernel(prefix, _target(prefix, 0), 10) == 0


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_exhausted_interval_returns_minus_one(kernel):
    prefix = b"p"
    assert kernel(prefix, _target(prefix, 500), 100) == -1


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_solution_at_upper_bound(kernel):
    prefix = b"edge"
    assert kernel(prefix, _target(prefix, 100), 100) == 100


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("prefix, planted, max_rand, expected", [
    (b"p", 0, 0, 0),
    (b"p", 1, 0, -1),
    (b"p", 0, -1, -1),
    (b"", 321, 1_000, 321),
    (bytes(range(100)), 2_500, 5_000, 2_500),  # the midstate spans a full 64-byte block
], ids=["max_rand=0", "max_rand=0-miss", "max_rand=-1", "empty-prefix", "prefix-over-one-block"])
def test_search_edges(kernel, prefix, planted, max_rand, expected):
    assert kernel(prefix, _target(prefix, planted), max_rand) == expected


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_different_prefix_never_matches(kernel):
    target = _target(b"prefix-one", 7)
    assert kernel(b"prefix-two", target, 1_000) == -1


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_rejects_short_target(kernel):
    with pytest.raises(ValueError):
        kernel(b"p", b"short", 10)


@pytest.mark.skipif(len(KERNELS) < 2, reason="compiled kernel not built")
def test_backends_agree():
    prefix = b"parity-check" + (3).to_bytes(8, "little")
    for planted in (0, 1, 17, 255, 4096):
        target = _target(prefix, planted)
        assert KERNELS[0](prefix, target, 5000) == KERNELS[1](prefix, target, 5000)
    missing = hashlib.sha256(b"not reachable").digest()
    assert KERNELS[0](prefix, missing, 300) == KERNELS[1](prefix, missing, 300) == -1


def test_selected_backend_exports_kernel():
    assert pow_backend.BACKEND in ("python", "c")
    prefix = b"selected"
    assert pow_backend.solve_kernel(prefix, _target(prefix, 42), 100) == 42


@pytest.mark.skipif(not TOOLCHAIN, reason="no C compiler or OpenSSL headers")
def test_compiled_kernel_is_selected_where_it_can_build():
    assert pow_backend.BACKEND == "c"
    import optoutswarm._powcore

    assert optoutswarm._powcore.solve_kernel is pow_backend.solve_kernel


@pytest.mark.skipif(not TOOLCHAIN, reason="no C compiler or OpenSSL headers")
def test_build_is_named_by_source_digest_and_reused(tmp_path, monkeypatch):
    import optoutswarm

    monkeypatch.delitem(sys.modules, pow_backend.MODULE, raising=False)
    monkeypatch.delattr(optoutswarm, "_powcore", raising=False)
    assert pow_backend.load(cache=tmp_path).BACKEND == "c"
    built = list(tmp_path.iterdir())
    digest = hashlib.sha256(pow_backend.SOURCE.read_bytes()).hexdigest()[:16]
    assert [p.name for p in built] == [f"_powcore.{digest}{sysconfig.get_config_var('EXT_SUFFIX')}"]
    # a second load finds the build and never calls the compiler
    assert pow_backend.load(cache=tmp_path, cc="false").BACKEND == "c"
    assert list(tmp_path.iterdir()) == built


@pytest.mark.skipif(_compiled is _pow_python, reason="compiled kernel not built")
def test_a_cached_build_loads_without_the_toolchain():
    # the module's import built the kernel into its cache, so a fresh
    # interpreter finds the build and imports no compiler driver
    code = (
        "import sys; from optoutswarm import pow_backend; "
        "print(pow_backend.BACKEND, 'subprocess' in sys.modules, 'shlex' in sys.modules)"
    )
    src = str(Path(pow_backend.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["c", "False", "False"]


def test_failing_compiler_falls_back_and_leaves_no_partial_build(tmp_path, caplog):
    # a compiler that writes half an output file, then fails
    cc = tmp_path / "cc"
    cc.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\necho partial > "$2"\nexit 1\n')
    cc.chmod(0o755)
    cache = tmp_path / "cache"
    with caplog.at_level("DEBUG", logger=pow_backend.__name__):
        assert pow_backend.load(cache=cache, cc=str(cc)) is _pow_python
    assert list(cache.iterdir()) == []
    assert "pure-Python kernel" in caplog.text
    assert pow_backend.load(cache=cache, cc=str(tmp_path / "no-such-cc")) is _pow_python
