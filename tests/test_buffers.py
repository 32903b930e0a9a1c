"""Buffers the library writes into: only arrays it has formed itself.

The decomposition's stages take Hermitian parts, phases, scalings and the
full-rank certificate's shift in place, in arrays they own.  These tests pin
that no public entry point writes into its caller's arrays (a failed
certificate included, whose shifted diagonal is put back), that the in-place
forms give the bits of the out-of-place ones kept here as references, and the
memory a d = 256 decomposition peaks at.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qleb import (DensityMatrix, excision, is_abs_continuous, is_singular, lebesgue_decompose, matcore,
                  quantum_log_likelihood)
from qleb.errors import QlebError

from test_rank_rule import operand_near_cutoff
from util import rand_density, rand_density_bounded

ROUTES = {  # (rank of sigma, rank of rho) as fractions of d, and near-cutoff operands
    "full": (1, 1), "deficient-sigma": (0.5, 1), "deficient-rho": (1, 0.5), "both": (0.5, 0.6),
    "rank1-rho": (1, 0), "near-cutoff": None,
}


def _pair(d: int, route: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if route == "near-cutoff":  # eigenvalues within 10x of the rank cutoff, about the certificate's shift
        pair = (operand_near_cutoff(rng, d, "near", matcore.DEFAULT_TOL, False) for _ in range(2))
        return tuple(A / np.trace(A).real for A in pair)
    if route == "singular":
        U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        k = d // 2
        return U[:, k:] @ U[:, k:].conj().T / (d - k), U[:, :k] @ U[:, :k].conj().T / k
    fs, fr = ROUTES[route]
    return tuple(rand_density(d, rng, max(1, int(f * d))) for f in (fs, fr))


ENTRY_POINTS = {
    "lebesgue_decompose": lambda s, r: lebesgue_decompose(s, r),
    "is_singular": lambda s, r: is_singular(r, s),
    "is_abs_continuous": lambda s, r: (is_abs_continuous(s, r), is_abs_continuous(r, s)),
    "excision": lambda s, r: excision(s, r),
    "quantum_log_likelihood": lambda s, r: quantum_log_likelihood(s, r),
    "geometric_mean": lambda s, r: matcore.geometric_mean(np.asarray(s), np.asarray(r)),
    "psd_spectrum": lambda s, r: (matcore.psd_spectrum(np.asarray(s)), matcore.psd_spectrum(np.asarray(r))),
    "check_hermitian": lambda s, r: (matcore.check_hermitian(np.asarray(s)), matcore.check_hermitian(np.asarray(r))),
}


def _operands(sigma: np.ndarray, rho: np.ndarray, form: str) -> tuple:
    if form == "density-matrix":
        return DensityMatrix(sigma), DensityMatrix(rho)
    if form == "fortran":
        return np.asfortranarray(sigma), np.asfortranarray(rho)
    return sigma.copy(), rho.copy()


@pytest.mark.parametrize("form", ["array", "fortran", "density-matrix"])
@pytest.mark.parametrize("route", [*ROUTES, "singular"])
@pytest.mark.parametrize("d", [2, 3, 8, 96])
def test_no_entry_point_writes_into_its_callers_arrays(monkeypatch, d, route, form):
    rng = np.random.default_rng([d, len(route), len(form)])
    operands = _operands(*_pair(d, route, rng), form)
    before = [np.asarray(x).tobytes() for x in operands]
    certificates = []
    certify = matcore._certified_full_rank

    def spy(H, tol):
        diagonal = H.diagonal().tobytes()
        certificates.append(certify(H, tol))
        assert H.diagonal().tobytes() == diagonal  # put back, certified or not
        return certificates[-1]

    monkeypatch.setattr(matcore, "_certified_full_rank", spy)
    for name, call in ENTRY_POINTS.items():
        try:
            call(*operands)
        except QlebError:  # refused (a kernel where the mean needs none): still no write
            pass
        assert [np.asarray(x).tobytes() for x in operands] == before, name
    if d > 2 and route in ("deficient-sigma", "deficient-rho", "both", "rank1-rho", "singular"):
        assert False in certificates  # the restore-on-failure path ran


@pytest.mark.parametrize("certified", [True, False])
def test_a_certificate_that_raises_puts_the_diagonal_back(monkeypatch, certified):
    rng = np.random.default_rng(5)
    H = matcore.check_hermitian(rand_density(8, rng, 8 if certified else 4))
    before = H.tobytes()

    def interrupted(A):
        raise KeyboardInterrupt

    monkeypatch.setattr(np.linalg, "cholesky", interrupted)
    with pytest.raises(KeyboardInterrupt):
        matcore._certified_full_rank(H, matcore.DEFAULT_TOL)
    assert H.tobytes() == before


# -- in-place forms against their out-of-place references ----------------------------------

def _hermitian_part_reference(A: np.ndarray) -> np.ndarray:
    """The out-of-place Hermitian part: the sum halved below norm 2**510, the halves summed above."""
    A_star = A.conj().swapaxes(-1, -2)
    return (A + A_star) / 2 if np.sqrt(np.vdot(A, A).real) < 2.0**510 else A / 2 + A_star / 2


def _times2_reference(A: np.ndarray, k: int) -> np.ndarray:
    """``A * 2**k`` out of place, in two factors that are normal floats."""
    h = k // 2
    return A * math.ldexp(1.0, h) * math.ldexp(1.0, k - h)


def _extreme_arrays() -> list[np.ndarray]:
    """Complex and real matrices and stacks with entries near 2**+-1000, subnormal halves,
    norms past 2**510, signed zeros, and infinities."""
    rng = np.random.default_rng(20261019)
    arrays = []
    for e in (-1074, -1040, -1000, -600, 0, 509, 600, 1000, 1022):
        for shape in ((5, 5), (3, 4, 4)):
            Z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 2.0**e
            Z.flat[::7] = complex(-0.0, -0.0)
            arrays += [Z, Z.real.copy()]
    odd = np.array([[complex(-0.0, 0.0), 5e-324 - 5e-324j, np.inf], [1.7e308j, -1.7e308, -0.0],
                    [complex(0.0, -np.inf), 2.0**-1000, 3.0]])
    return arrays + [odd]


def test_in_place_hermitian_part_has_the_out_of_place_bits():
    for A in _extreme_arrays():
        with np.errstate(all="ignore"):
            want = _hermitian_part_reference(A)
            assert matcore.hermitian_part(A).tobytes() == want.tobytes()
            spent = np.empty_like(A)  # check_hermitian's route: a spent temporary as the buffer
            assert matcore._hermitian_part(A, out=spent).tobytes() == want.tobytes()
            own = A.copy()
            assert matcore._hermitian_part(own, out=own) is own
            assert own.tobytes() == want.tobytes()


def test_check_hermitian_returns_the_out_of_place_bits():
    rng = np.random.default_rng(7)
    for scale in (2.0**-1070, 1.0, 2.0**600, 2.0**1000):
        for d in (3, 8):
            A = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * scale
            A = _hermitian_part_reference(A) + 1e-13 * scale * rng.standard_normal((d, d))
            got = matcore.check_hermitian(A)
            assert got.tobytes() == _hermitian_part_reference(A).tobytes()


@pytest.mark.parametrize("k", [-2000, -1100, -1022, -1000, -61, -2, -1, 1, 2, 60, 1000, 1023, 1100, 2000])
def test_times2_in_one_buffer_has_the_out_of_place_bits(k):
    for A in _extreme_arrays():
        with np.errstate(all="ignore"):
            want = _times2_reference(A, k).tobytes()
            assert matcore._times2(A, k).tobytes() == want
            own = A.copy()
            assert matcore._times2(own, k, out=own) is own
            assert own.tobytes() == want


def test_eigh_fixes_phases_in_place_with_phase_fixs_bits():
    rng = np.random.default_rng(9)
    for d in (3, 8, 40):
        H = matcore.hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        w, V = matcore._eigh(H)
        w_ref, V_ref = np.linalg.eigh(H)
        assert w.tobytes() == w_ref.tobytes()
        assert V.tobytes() == matcore._phase_fix(V_ref).tobytes()


# -- memory ----------------------------------------------------------------------------------

@pytest.mark.parametrize("route", ["full", "deficient-sigma", "deficient-rho"])
def test_decompose_peak_memory_at_d256(route):
    # Operands of 1 MiB each (outside the measurement): every stage writes into
    # arrays it owns and releases each after its last reader, for peaks of
    # 6.5 / 6.6 / 7.1 MiB (a copy per stage peaked at 12.1 / 10.5 / 11.2 MiB).
    rng = np.random.default_rng([256, len(route)])
    rank = {"full": (256, 256), "deficient-sigma": (160, 256), "deficient-rho": (256, 160)}[route]
    sigma, rho = (rand_density_bounded(256, rng, r) for r in rank)
    lebesgue_decompose(sigma[:8, :8] + np.eye(8), rho[:8, :8] + np.eye(8))
    tracemalloc.start()
    try:
        dec = lebesgue_decompose(sigma, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.split.dims == {"full": (0, 256, 0), "deficient-sigma": (96, 160, 0),
                              "deficient-rho": (0, 160, 96)}[route]
    assert peak <= 8 * 2**20
