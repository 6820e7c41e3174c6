import functools
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = SCRIPTS.parent / "src"


def load_script(name):
    """The module scripts/<name>.py, loaded by file path (scripts/ is no package)."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_dataset_rr = load_script("make_synthetic_dataset").synthetic_rr


def synthetic_rr(n=300, seed=0, base_ms=800.0, lf_amp=40.0, hf_amp=25.0, noise_ms=5.0):
    """RR series (ms) with LF and HF modulation at the usual band centers.

    The dataset script's generator, with defaults for tests.
    """
    return _dataset_rr(n, seed, base_ms, lf_amp, hf_amp, noise_ms)


def rr_text(rr):
    return "\n".join(f"{v:.6f}" for v in rr) + "\n"


def write_dataset(directory, spec, manifest_name="manifest.csv"):
    """Write each (subject_id, group, rr) of spec to data/<subject_id>.txt under directory.

    Then write a manifest naming them, in spec order, and return its path.
    """
    data = directory / "data"
    data.mkdir(exist_ok=True)
    lines = ["path,subject_id,group"]
    for subject_id, group, rr in spec:
        (data / f"{subject_id}.txt").write_text(rr_text(rr), encoding="utf-8")
        lines.append(f"data/{subject_id}.txt,{subject_id},{group}")
    manifest = directory / manifest_name
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@pytest.fixture(name="write_dataset")
def write_dataset_fixture(tmp_path):
    """write_dataset into the test's tmp_path: call it with (spec, manifest_name=...)."""
    return functools.partial(write_dataset, tmp_path)


def balanced_spec(per_group=3, n=300):
    spec = []
    seed = 0
    for group in ("Control", "VT", "VF"):
        for i in range(per_group):
            spec.append((f"{group.lower()}{i}", group,
                         synthetic_rr(n=n, seed=seed, hf_amp=20.0 + 5.0 * i)))
            seed += 1
    return spec


# Ten times over, hold six signal-length float64 arrays (a 24 h recording at
# 4 Hz, 2.7 MB each, under numpy's 4 MiB hugepage size), as the spline does,
# then free them all; print the minor page faults of the loop. Freeing one
# array at a time would not show the difference: glibc's dynamic threshold
# already reuses a single freed block.
FAULT_LOOP = """
import resource
import numpy as np

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

start = faults()
for _ in range(10):
    arrays = [np.ones(341_504) for _ in range(6)]
    del arrays
print(faults() - start)
"""

SET_PAGES = 6 * 341_504 * 8 // 4096


def loop_faults(setup: str) -> int:
    """FAULT_LOOP's minor faults in a fresh interpreter that imports src's hrvwp and runs setup."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{setup}\n{FAULT_LOOP}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return int(done.stdout)


def no_libc(name):
    """A ctypes.CDLL stub for a platform without the C library."""
    raise OSError(f"{name}: cannot open shared object file")
