import os

# criterion timings are quoted single-core: pin BLAS before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kinetic_gap.galerkin import build_operator_set
from kinetic_gap.kernels import AngularPolynomial, KernelFamily, PowerLaw
from kinetic_gap.mixture import Mixture


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(module: str):
    """The benchmark's ``perfbench/<module>.py``, imported as it is."""
    name = f"perfbench_{module}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / f"{module}.py")
        loaded = importlib.util.module_from_spec(spec)
        sys.modules[name] = loaded   # its dataclasses resolve through here
        spec.loader.exec_module(loaded)
    return sys.modules[name]


def constant_angular(c: float) -> AngularPolynomial:
    """The angular part b(cos theta) = c."""
    return AngularPolynomial((c,))


def hard_sphere_family(n: int, rho_scale: float = 1.0) -> KernelFamily:
    """B_ij = |v - v*| for every pair; the paper's main physical case."""
    phi = tuple(tuple(PowerLaw(rho_scale, 1.0) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(constant_angular(1.0) for _ in range(n)) for _ in range(n))
    return KernelFamily(n=n, phi=phi, b=b, gamma=1.0, C1=rho_scale,
                        C2=max(rho_scale, 1.0), delta=0.5, C3=1.0, C4=1.0,
                        beta=1.0)


def maxwell_family(n: int, c: float = 1.0) -> KernelFamily:
    """Maxwellian molecules: B_ij = c (constant kernel)."""
    phi = tuple(tuple(PowerLaw(c, 0.0) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(constant_angular(1.0) for _ in range(n)) for _ in range(n))
    return KernelFamily(n=n, phi=phi, b=b, gamma=0.0, C1=c, C2=max(c, 1.0),
                        delta=0.5, C3=1.0, C4=1.0, beta=1.0)


def power_family(n: int, gamma: float, C: float = 1.0) -> KernelFamily:
    """Shared power-law kinetic part Phi_ij = C r^gamma with b_ij = 1."""
    phi = tuple(tuple(PowerLaw(C, gamma) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(constant_angular(1.0) for _ in range(n)) for _ in range(n))
    return KernelFamily(n=n, phi=phi, b=b, gamma=gamma, C1=C, C2=max(C, 1.0),
                        delta=0.5, C3=1.0, C4=1.0, beta=1.0)


def mixed_gamma_family() -> KernelFamily:
    """n = 2 with hard-sphere diagonal and Maxwellian cross kernels.

    A3 is declared with gamma = 0 and C1 = 1e-7, the best constants valid on
    the audited radius grid [1e-6, 1e6]; the kernel ratio reaches 1e6 there,
    hence the large declared beta.
    """
    hs = PowerLaw(1.0, 1.0)
    mxw = PowerLaw(1.0, 0.0)
    one = constant_angular(1.0)
    return KernelFamily(
        n=2,
        phi=((hs, mxw), (mxw, hs)),
        b=((one, one), (one, one)),
        gamma=0.0, C1=1e-7, C2=1.0, delta=0.5, C3=1.0, C4=1.0, beta=2e6)


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def ops_small():
    """Fast n=2 set for unit-level operator checks."""
    return build_operator_set(Mixture((1.0, 2.0)), hard_sphere_family(2),
                              N=3, q=6)


@pytest.fixture(scope="session")
def ops_maxwell1_small():
    return build_operator_set(Mixture((1.0,)), maxwell_family(1),
                              N=3, q=6)


@pytest.fixture(scope="session")
def ops_ref(timings):
    """Reference configuration: n=2 hard spheres at the default budgets
    (N=4, Hermite q=10).  Assembled once, single
    thread; wall time recorded for the acceptance gate."""
    t0 = time.perf_counter()
    ops = build_operator_set(Mixture((1.0, 1.5)), hard_sphere_family(2),
                             N=4, q=10, threads=1)
    timings["ref_assembly_seconds"] = time.perf_counter() - t0
    return ops


@pytest.fixture(scope="session")
def ops_ref_N3():
    """Reference kernels at N = 3 (same quadrature) for refinement studies."""
    return build_operator_set(Mixture((1.0, 1.5)), hard_sphere_family(2),
                              N=3, q=10, threads=1)


@pytest.fixture(scope="session")
def ops_maxwell1():
    return build_operator_set(Mixture((1.0,)), maxwell_family(1),
                              N=4, q=8)


@pytest.fixture(scope="session")
def ops_mixed2():
    return build_operator_set(Mixture((1.0, 1.5)), mixed_gamma_family(),
                              N=4, q=8)


@pytest.fixture(scope="session")
def ops_n3():
    return build_operator_set(Mixture((1.0, 1.5, 0.7)), hard_sphere_family(3),
                              N=4, q=6)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
