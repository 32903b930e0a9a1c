"""Seeded inputs, op kinds and output checks.

An op is one library call (the ``small-calls`` and ``large-spectra``
workloads) or one CLI command (``cli``, run in-process through
``qleb.cli.main`` or as a ``python -m qleb.cli`` process). Every op looks its
library function up at call time, so the traced run's wrappers see it. A
check returns ``None`` when the output is right and a message when it is not;
checks run outside the timed interval.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import qleb
import qleb.cli
from qleb import presets

# The two timed workloads, and the CLI commands that the traced run probes.
OP_SETS = ("small-calls", "large-spectra", "cli")
CONTIGUOUS, NOT_CONTIGUOUS = "Contiguous", "NotContiguous"
SPIN_H = (1.0, 0.5)
SPIN_J = np.array([[1, -1j], [1j, 1]])
CLT_N = [100, 10_000, 1_000_000]
# rho = diag(1, 0), sigma = diag(e, 1 - e): nonzero overlap, so rho is never
# both singular to and absolutely continuous w.r.t. sigma.
CUTOFF_EPS = (1e-7, 1e-8, 1e-9, 1e-10)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    argv: Optional[list] = None  # CLI ops: the qleb arguments
    reference: Optional[bytes] = None  # CLI ops: report bytes of the first run
    # A known library defect this op can show: counted and reported, not failed.
    defect: Optional[Callable[[object], bool]] = None


def lib(name: str, *args, **kwargs) -> Callable[[], object]:
    """Call ``qleb.<name>`` through the package binding at call time."""
    return lambda: getattr(qleb, name)(*args, **kwargs)


def rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))


# -- generated states --------------------------------------------------------------

def density(rng: np.random.Generator, d: int, rank: Optional[int] = None,
            basis: Optional[np.ndarray] = None) -> np.ndarray:
    """Density matrix with nonzero eigenvalues uniform in [0.2, 1], far from every cutoff."""
    rank = d if rank is None else rank
    w = np.zeros(d)
    w[:rank] = rng.uniform(0.2, 1.0, size=rank)
    if basis is None:
        basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    A = (basis * w) @ basis.conj().T
    A = (A + A.conj().T) / 2
    return A / np.trace(A).real


def pair_cases(rng: np.random.Generator, d: int, rank: int) -> dict:
    """(sigma, rho, sigma << rho) for full, deficient sigma, deficient rho and singular pairs."""
    U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    k = d // 2
    rho_s = density(rng, k, basis=np.eye(k))
    sig_s = density(rng, d - k, basis=np.eye(d - k))
    rho_sing = U[:, :k] @ rho_s @ U[:, :k].conj().T
    sig_sing = U[:, k:] @ sig_s @ U[:, k:].conj().T
    return {
        "full": (density(rng, d), density(rng, d), True),
        "def_sigma": (density(rng, d, rank), density(rng, d), True),
        "def_rho": (density(rng, d), density(rng, d, rank), False),
        "singular": ((sig_sing + sig_sing.conj().T) / 2, (rho_sing + rho_sing.conj().T) / 2, False),
    }


# -- checks ------------------------------------------------------------------------

def check_decomposition(sigma, rho, ac_expected: bool, tol=qleb.DEFAULT_TOL, ratio=None):
    n = np.linalg.norm

    def check(dec) -> Optional[str]:
        recon = n(dec.ac + dec.perp - sigma) / (1.0 + n(sigma))
        ac_rec = n(dec.ac - dec.sqrt_lr @ rho @ dec.sqrt_lr) / (1.0 + n(dec.ac))
        perp = abs(np.trace(rho @ dec.perp))
        worst = max(recon, ac_rec, perp)
        if worst > tol.eq_rel:
            return f"decomposition residual {worst:.2e} > eq_rel"
        if ac_expected and n(dec.perp) > tol.eq_rel * (1.0 + n(sigma)):
            return f"sigma << rho but |perp| = {n(dec.perp):.2e}"
        if ratio is not None and rel(dec.sqrt_lr, ratio) > 1e-10:
            return f"ratio off its closed form by {rel(dec.sqrt_lr, ratio):.2e}"
        return None
    return check


def expect(value) -> Callable[[object], Optional[str]]:
    return lambda got: None if got == value else f"expected {value!r}, got {got!r}"


def verdict_is(value: str, extra: Callable = None):
    def check(rep) -> Optional[str]:
        if rep.verdict != value:
            return f"verdict {rep.verdict}, pinned {value}"
        return extra(rep) if extra else None
    return check


def check_log_likelihood(sigma, rho):
    def check(L) -> Optional[str]:
        w, V = np.linalg.eigh((L + L.conj().T) / 2)
        E = (V * np.exp(w / 2)) @ V.conj().T
        err = np.linalg.norm(E @ rho @ E - sigma) / (1.0 + np.linalg.norm(sigma))
        return None if err <= 1e-8 else f"exp(L/2) rho exp(L/2) off sigma by {err:.2e}"
    return check


def qcf_reference(h, J, xis) -> complex:
    """Weyl form of the ordered quasi-CF for real query vectors."""
    V, S = J.real, J.imag
    total = np.sum(xis, axis=0)
    phase = sum(xis[u] @ S @ xis[t] for t in range(len(xis)) for u in range(t + 1, len(xis)))
    return complex(np.exp(1j * total @ h - 0.5 * total @ V @ total - 1j * phase))


def close_to(want: complex, atol: float = 1e-10):
    return lambda got: None if abs(got - want) <= atol else f"value off by {abs(got - want):.2e}"


def gaussian_inputs(rng: np.random.Generator, d: int, r: int):
    G = rng.standard_normal((d + 1, d + 1)) + 1j * rng.standard_normal((d + 1, d + 1))
    T = (G @ G.conj().T + (G @ G.conj().T).conj().T) / 2
    ext = qleb.ExtendedGaussianParams(mu=rng.standard_normal(d), Sigma=T[:d, :d],
                                      kappa=T[:d, d], s2=float(T[d, d].real))
    params = qleb.GaussianParams(h=rng.standard_normal(d), J=T[:d, :d])
    xis = [rng.standard_normal(d) for _ in range(r)]
    return params, ext, xis


def single_xi_grid(count: int = 20):
    return [[np.array([x, 0.3 * x])] for x in np.linspace(-2.0, 2.0, count)]


# -- workloads ----------------------------------------------------------------------

def small_calls(rng: np.random.Generator) -> list[Op]:
    ops = []
    for d in (2, 4, 8):
        for case, (sigma, rho, ac) in pair_cases(rng, d, max(1, d // 2)).items():
            singular = case == "singular"
            ops.append(Op(f"decompose.d{d}.{case}", lib("lebesgue_decompose", sigma, rho),
                          check_decomposition(sigma, rho, ac)))
            ops.append(Op(f"is_singular.d{d}", lib("is_singular", rho, sigma), expect(singular)))
            if singular:
                # Orthogonal supports: the excision is numerical noise, which the
                # relative rank cutoff can read as strictly positive.
                ops.append(Op(f"is_abs_continuous.d{d}", lib("is_abs_continuous", sigma, rho),
                              is_bool, defect=lambda got: bool(got)))
            else:
                ops.append(Op(f"is_abs_continuous.d{d}", lib("is_abs_continuous", sigma, rho),
                              expect(ac)))
        sigma, rho = density(rng, d), density(rng, d)
        ops.append(Op(f"log_likelihood.d{d}", lib("quantum_log_likelihood", sigma, rho),
                      check_log_likelihood(sigma, rho)))

    extreme = qleb.TOL_PROFILES["extreme-scale"]
    for n in np.exp(rng.uniform(0.0, np.log(1e6), 2)).astype(int):
        rho, sigma = presets.faithful_to_pure_pair(int(n))
        ops.append(Op("ratio.example-4.1", lib("lebesgue_decompose", sigma, rho, extreme),
                      check_decomposition(sigma, rho, True, extreme,
                                          presets.faithful_to_pure_sqrt_lr(int(n)))))
    for n in rng.integers(1, 10_000, 2):
        rho, sigma = presets.orthogonal_limit_pair(int(n))
        ops.append(Op("ratio.example-4.3", lib("lebesgue_decompose", sigma, rho),
                      check_decomposition(sigma, rho, False,
                                          ratio=presets.orthogonal_limit_sqrt_lr(int(n)))))

    for rho, sigma in cutoff_pairs():
        ops.append(Op("cutoff.is_singular", lib("is_singular", rho, sigma), is_bool))
        ops.append(Op("cutoff.is_abs_continuous", lib("is_abs_continuous", rho, sigma), is_bool))

    target = float(np.exp(-np.dot(SPIN_H, SPIN_H) / 4.0))

    def overlap_limit(rep):
        got = rep.evidence[-1]["overlap"]
        return None if abs(got - target) <= 1e-3 * target else f"overlap {got} vs {target}"

    ops += [
        Op("limit.example-4.1",
           lambda: qleb.limit_criterion(presets.faithful_to_pure_family()), verdict_is(CONTIGUOUS)),
        Op("pure.example-4.3",
           lambda: qleb.pure_criterion(presets.orthogonal_limit_family()), verdict_is(NOT_CONTIGUOUS)),
        Op("pure.spin-overlap-sqrt",
           lambda: qleb.pure_criterion(presets.spin_overlap_family(presets.sqrt_scaling, h=SPIN_H)),
           verdict_is(CONTIGUOUS, overlap_limit)),
        Op("pure.spin-overlap-quarter",
           lambda: qleb.pure_criterion(presets.spin_overlap_family(presets.quarter_scaling, h=SPIN_H)),
           verdict_is(NOT_CONTIGUOUS)),
        Op("expansion.spin-perturbed",
           lambda: qleb.sqrt_expansion_check(presets.spin_perturbed_model(), np.zeros(2)),
           check_expansion_perturbed),
        Op("clt.spin-perturbed",
           lambda: qleb.lecam3_numeric_check(presets.spin_perturbed_model(), np.zeros(2), None,
                                             np.array(SPIN_H), CLT_N, single_xi_grid()),
           check_clt),
    ]
    # Sizes are fixed so that the seed changes values, not op cost.
    for d, r in ((1, 1), (2, 2), (2, 3), (3, 2)):
        params, ext, xis = gaussian_inputs(rng, d, r)
        ops.append(Op("gaussian_qcf", lib("gaussian_qcf", params, xis),
                      close_to(qcf_reference(params.h, params.J, xis))))
        shifted = qleb.GaussianParams(h=ext.mu + ext.kappa.real, J=ext.Sigma)
        ops.append(Op("sandwiched_gaussian_qcf", lib("sandwiched_gaussian_qcf", ext, xis),
                      close_to(qcf_reference(shifted.h, shifted.J, xis))))
    return ops


def cutoff_pairs():
    rho = np.diag([1.0, 0.0]).astype(complex)
    return [(rho, np.diag([e, 1.0 - e]).astype(complex)) for e in CUTOFF_EPS]


def cutoff_contradictions() -> int:
    """Near-cutoff pairs on which ``is_singular`` and ``rho << sigma`` both hold."""
    return sum(bool(qleb.is_singular(rho, sigma)) and bool(qleb.is_abs_continuous(rho, sigma))
               for rho, sigma in cutoff_pairs())


def is_bool(got) -> Optional[str]:
    return None if isinstance(got, (bool, np.bool_)) else f"expected a bool, got {got!r}"


def check_expansion_perturbed(rep) -> Optional[str]:
    if not (rep.rel_error <= 5e-2 and not rep.trr2_exact
            and rep.trr2_order is not None and abs(rep.trr2_order - 3.0) <= 0.3
            and rep.residual_order is not None and rep.residual_order > 2.0):
        return f"expansion report off its pinned orders: {rep.rel_error}, {rep.trr2_order}"
    return None


def check_clt(rep) -> Optional[str]:
    last = rep.deviations[-1]["max_deviation"]
    return None if rep.decreasing and last <= 1e-3 else f"limit-law deviation {last}"


def large_spectra(rng: np.random.Generator) -> list[Op]:
    ops = []
    for d in (64, 256):
        for case, (sigma, rho, ac) in pair_cases(rng, d, 5 * d // 8).items():
            if case == "singular":
                continue
            ops.append(Op(f"decompose.d{d}.{case}", lib("lebesgue_decompose", sigma, rho),
                          check_decomposition(sigma, rho, ac)))

    def kakutani(scaling: str, lo: float, hi: float):
        drift = (lambda i: float(i)) if scaling == "linear" else (lambda i: float(np.sqrt(i)))

        def check(rep):
            p = rep.details["fitted_exponent"]
            if not lo <= p <= hi:
                return f"fitted exponent {p} outside [{lo}, {hi}]"
            dev = max(abs(row["summand"] - presets.drifting_summand(drift(row["i"])))
                      for row in rep.evidence)
            return None if dev <= 1e-12 else f"summand off its closed form by {dev:.2e}"
        return check

    ops += [
        Op("kakutani.sec-7.2-n",
           lambda: qleb.kakutani_criterion(presets.drifting_product_family("linear"), horizon=10**4),
           verdict_is(CONTIGUOUS, kakutani("linear", 1.8, 2.2))),
        Op("kakutani.sec-7.2-sqrt-n",
           lambda: qleb.kakutani_criterion(presets.drifting_product_family("sqrt"), horizon=10**4),
           verdict_is(NOT_CONTIGUOUS, kakutani("sqrt", 0.8, 1.2))),
        Op("block.sec-7.1",
           lambda: qleb.block_criterion_diagnostics(presets.three_block_family()),
           verdict_is(CONTIGUOUS)),
    ]
    return ops


# -- CLI ------------------------------------------------------------------------------

def matrix_doc(A: np.ndarray) -> dict:
    return {"dim": int(A.shape[0]),
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A]}


def parse_doc(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])


def run_cli_in_process(argv: list) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qleb.cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def cli_check(expected_code: int, values_check: Callable = None):
    def check(result) -> Optional[str]:
        code, stdout = result
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if expected_code != 0:
            return None if stdout == b"" else "error run wrote a report"
        values = json.loads(stdout)["values"]
        return values_check(values) if values_check else None
    return check


def cli_verdict(value: str, extra: Callable = None):
    def check(values):
        if values["verdict"] != value:
            return f"verdict {values['verdict']}, pinned {value}"
        return extra(values) if extra else None
    return check


def cli_decompose_check(sigma, rho):
    def check(values):
        ac, perp, R = (parse_doc(values[k]) for k in ("ac", "perp", "sqrt_lr"))
        n = np.linalg.norm
        worst = max(n(ac + perp - sigma) / (1 + n(sigma)), n(ac - R @ rho @ R) / (1 + n(ac)),
                    abs(np.trace(rho @ perp)))
        if worst > qleb.DEFAULT_TOL.eq_rel:
            return f"reported decomposition residual {worst:.2e}"
        checks = values["checks"]
        if checks["singularity"] is not False or checks["ac_predicate"] is not True:
            return f"reported checks {checks}"
        return None
    return check


def cli(rng: np.random.Generator, workdir: str) -> list[Op]:
    """CLI ops; writes their seeded input files into ``workdir``."""

    def write(name: str, doc) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    ops = []

    def add(kind: str, argv: list, check):
        ops.append(Op(f"cli.{kind}", lambda: run_cli_in_process(argv), check, argv=argv))

    for d in (2, 8, 64):
        sigma, rho = density(rng, d), density(rng, d)
        add(f"decompose.d{d}",
            ["decompose", write(f"sigma_d{d}.json", matrix_doc(sigma)),
             write(f"rho_d{d}.json", matrix_doc(rho))],
            cli_check(0, cli_decompose_check(sigma, rho)))
    add("contiguity.limit", ["contiguity", "limit", "--preset", "example-4.1"],
        cli_check(0, cli_verdict(CONTIGUOUS)))
    add("contiguity.limit-4.3", ["contiguity", "limit", "--preset", "example-4.3"],
        cli_check(0, cli_verdict(NOT_CONTIGUOUS)))
    add("contiguity.pure", ["contiguity", "pure", "--preset", "spin-overlap", "--g", "sqrt",
                            "--h", "1,0.5"], cli_check(0, cli_verdict(CONTIGUOUS)))
    def exponent_in_band(values):
        p = values["details"]["fitted_exponent"]
        return None if 1.8 <= p <= 2.2 else f"fitted exponent {p} outside [1.8, 2.2]"

    add("contiguity.kakutani", ["contiguity", "kakutani", "--preset", "sec-7.2-n"],
        cli_check(0, cli_verdict(CONTIGUOUS, exponent_in_band)))
    add("contiguity.block", ["contiguity", "block", "--preset", "sec-7.1"],
        cli_check(0, cli_verdict(CONTIGUOUS)))

    params, ext, xis = gaussian_inputs(rng, 2, 2)
    params_path = write("gauss_params.json", {"h": list(params.h), "J": matrix_doc(params.J)})
    query_path = write("gauss_query.json", {"xis": [list(x) for x in xis]})
    ext_path = write("gauss_ext.json", {
        "mu": list(ext.mu), "Sigma": matrix_doc(ext.Sigma), "s2": ext.s2,
        "kappa": [[float(z.real), float(z.imag)] for z in ext.kappa]})
    want_qcf = qcf_reference(params.h, params.J, xis)
    add("gaussian.qcf", ["gaussian", "qcf", "--params", params_path, "--query", query_path],
        cli_check(0, lambda v: close_to(want_qcf)(complex(*v["value"]))))
    want_h = ext.mu + ext.kappa.real
    add("gaussian.shift", ["gaussian", "shift", "--params", ext_path],
        cli_check(0, lambda v: None if np.allclose(v["h"], want_h, rtol=0, atol=1e-12)
                  and rel(parse_doc(v["J"]), ext.Sigma) <= 1e-12 else "shifted parameters off"))
    add("gaussian.sandwich", ["gaussian", "sandwich", "--params", ext_path, "--query", query_path],
        cli_check(0, lambda v: None if v["agrees"] is True else "sandwich disagrees"))

    pauli = [np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]])]
    add("qlan.sld", ["qlan", "sld", "--model", "spin-pure"],
        cli_check(0, lambda v: None if all(np.array_equal(parse_doc(doc), P)
                                           for doc, P in zip(v["slds"], pauli)) else "SLDs off"))
    add("qlan.qfi", ["qlan", "qfi", "--model", "spin-pure"],
        cli_check(0, lambda v: None if np.linalg.norm(parse_doc(v["qfi"]) - SPIN_J) <= 1e-12
                  else "QFI off"))
    add("qlan.clt-check", ["qlan", "clt-check", "--model", "spin-perturbed:f=cubic",
                           "--h", "1,0.5", "--n", "1e2,1e4,1e6"],
        cli_check(0, lambda v: None if v["decreasing"] is True
                  and v["deviations"][-1]["max_deviation"] <= 1e-3 else "limit-law deviation"))
    add("qlan.expansion", ["qlan", "expansion", "--model", "spin-pure"],
        cli_check(0, lambda v: None if v["rel_error"] <= 1e-4 and v["trr2_exact"] is True
                  else "expansion off"))
    add("qlan.rate-scan", ["qlan", "rate-scan", "--f", "cubic", "--g", "sqrt"],
        cli_check(0, cli_verdict(CONTIGUOUS)))

    bad = density(rng, 2)
    bad[0, 1] += 0.5
    add("malformed", ["decompose", write("malformed.json", matrix_doc(bad)),
                      write("rho_bad_pair.json", matrix_doc(density(rng, 2)))], cli_check(2))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The op cycle of ``workload``; the seed changes input values, not the op order."""
    rng = np.random.default_rng([seed, OP_SETS.index(workload)])
    if workload == "small-calls":
        return small_calls(rng)
    if workload == "large-spectra":
        return large_spectra(rng)
    return cli(rng, workdir)
