"""What importing paritylab loads, each check in a fresh interpreter.

No module imports scipy.linalg, scipy.special or scipy.sparse, which take
~0.3 s to load together; `spectral` loads scipy.linalg.cython_lapack from
its extension file alone.  Nor does any import the process pool
(concurrent.futures.process, multiprocessing, ~20 ms), which only a
`lab run` on more than one worker loads.  The theory predictions and `lab theory-check`
take their quadratures on numpy alone, and load none of the three nor
scipy.integrate.
"""

import json
import os
import subprocess
import sys
import textwrap

import paritylab

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(paritylab.__file__)))

# the capsule signature of each routine spectral calls, with no address
_CAPSULES = """
from paritylab import spectral
names = ("dstevd", "dlasdq", "dlasd6", "dlaed8", "dlaed9")
capsules = {n: repr(spectral.cython_lapack.__pyx_capi__[n]).split(" at ")[0] for n in names}
"""

# imports every paritylab module
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
import paritylab
for module in pkgutil.iter_modules(paritylab.__path__):
    importlib.import_module(f"paritylab.{module.name}")
"""


def _run(*parts: str):
    # the parts of a script, each indented as it likes; it prints JSON
    code = "\n".join(textwrap.dedent(part) for part in parts)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_no_module_loads_scipy_linalg_special_or_sparse():
    loaded = _run(_IMPORT_ALL, """
        print(json.dumps([m for m in ("scipy.linalg", "scipy.special", "scipy.sparse")
                          if m in sys.modules]))
    """)
    assert loaded == []


def test_no_module_loads_the_process_pool():
    loaded = _run(_IMPORT_ALL, """
        print(json.dumps([m for m in ("concurrent.futures.process", "multiprocessing")
                          if m in sys.modules]))
    """)
    assert loaded == []


def test_theory_quadratures_load_no_scipy_subpackage():
    loaded = _run("""
        import json, sys
        from paritylab import cli, theory
        theory.entropy_parity_slope(0.5)
        theory.fluct_parity_slope(1 / 3)
        cli.theory_check_rows()
        print(json.dumps([m for m in ("scipy.integrate", "scipy.linalg", "scipy.special",
                                      "scipy.sparse") if m in sys.modules]))
    """)
    assert loaded == []


def test_later_scipy_linalg_import_gets_the_same_module():
    same = _run("""
        import json, sys
        import paritylab.cli, paritylab.fock
        from paritylab import spectral
        import scipy.linalg.cython_lapack
        import numpy as np
        import scipy.linalg
        values = scipy.linalg.eigh(np.diag([2.0, 1.0]), eigvals_only=True)
        print(json.dumps([scipy.linalg.cython_lapack is spectral.cython_lapack,
                          sys.modules["scipy.linalg.cython_lapack"] is spectral.cython_lapack,
                          list(values)]))
    """)
    assert same == [True, True, [1.0, 2.0]]


def test_no_extension_file_falls_back_to_the_package_import():
    # whether spectral loaded scipy.linalg, and the capsules it found
    report = """
        import json, sys
        print(json.dumps(["scipy.linalg" in sys.modules, capsules]))
    """
    from_file = _run(_CAPSULES, report)
    fallback = _run("""
        import importlib.machinery
        importlib.machinery.EXTENSION_SUFFIXES = [".no-such-suffix"]
    """, _CAPSULES, report)
    assert from_file[0] is False and fallback[0] is True
    assert fallback[1] == from_file[1]
