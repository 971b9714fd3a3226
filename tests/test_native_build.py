"""How the native kernel library is built and loaded.

Both tests run a fresh interpreter, because the library is loaded once
per process.  One checks that a warm artifact cache loads with a single
``<cc> --version`` and no compile at all.  The other forces a toolchain
on which ``-pthread`` fails and checks the plain C99 (serial) build that
replaces it: it must load, report ``"serial"`` and stay bit-identical
to the NumPy kernels.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from repro.core import _native

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

pytestmark = pytest.mark.skipif(
    not _native.native_available(), reason="no system C compiler"
)


def _run_child(script, env_updates):
    env = dict(os.environ)
    env.pop("REPRO_NO_NATIVE", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_updates)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_SPY_SCRIPT = """
import json, subprocess
calls = []
real_run = subprocess.run
def spy(args, *a, **k):
    calls.append([str(x) for x in args])
    return real_run(args, *a, **k)
subprocess.run = spy
from repro.core import _native
assert _native.native_available()
print(json.dumps(calls))
"""


def test_warm_cache_load_runs_only_compiler_version():
    # This process has loaded the library, so the cache under its temp
    # directory is warm; the child shares that temp directory.
    calls = _run_child(_SPY_SCRIPT, {"TMPDIR": tempfile.gettempdir()})
    assert len(calls) == 1, calls
    assert calls[0][1:] == ["--version"]
    assert not any("-shared" in argv for argv in calls)


_SERIAL_SCRIPT = """
import json
import numpy as np
from repro.core import _native
from repro.core.batch import (
    ba_final_weights_batch, bahf_final_weights_batch, hf_final_weights_batch,
)
from repro.problems import UniformAlpha
from repro.utils.rng import SeedSequenceFactory

n = 129
factory = SeedSequenceFactory(123)
rngs = [factory.generator_for(t) for t in range(23)]
draws = UniformAlpha(0.05, 0.5).sample_trial_matrix(rngs, n - 1)
pairs = {
    "hf": [hf_final_weights_batch(1.0, n, draws, method=m, n_threads=4)
           for m in ("native", "heap")],
    "ba": [ba_final_weights_batch(1.0, n, draws, method=m, n_threads=4)
           for m in ("native", "frontier")],
    "bahf": [bahf_final_weights_batch(1.0, n, draws, alpha=0.05, lam=1.0,
                                      method=m, n_threads=4)
             for m in ("native", "frontier")],
}
print(json.dumps({
    "mode": _native.native_threading_mode(),
    "equal": {name: bool(np.array_equal(np.sort(nat, axis=1),
                                        np.sort(ref, axis=1)))
              for name, (nat, ref) in pairs.items()},
}))
"""


def test_serial_build_when_pthread_does_not_link(tmp_path):
    real_cc = _native._find_compiler()
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake_cc = bin_dir / "cc"
    fake_cc.write_text(
        "#!/bin/sh\n"
        'for arg in "$@"; do\n'
        '    if [ "$arg" = "-pthread" ]; then exit 1; fi\n'
        "done\n"
        f'exec "{real_cc}" "$@"\n'
    )
    fake_cc.chmod(0o755)
    cold_tmp = tmp_path / "tmp"
    cold_tmp.mkdir()
    result = _run_child(
        _SERIAL_SCRIPT,
        {
            "PATH": str(bin_dir) + os.pathsep + os.environ.get("PATH", ""),
            "TMPDIR": str(cold_tmp),
        },
    )
    assert result["mode"] == "serial"
    assert result["equal"] == {"hf": True, "ba": True, "bahf": True}
    assert any(name.startswith("repro-kernels-") for name in os.listdir(cold_tmp))
