"""Command-line front end with JSON input/output.

Subcommands map one-to-one onto the library: ``decompose`` (Lebesgue
decomposition of a state pair), ``contiguity`` (limit / pure / kakutani /
block criteria on presets or inline families), ``gaussian`` (quasi-CF
evaluation, the shift map, sandwiched expectations), and ``qlan`` (SLD, QFI,
limit-law checks, expansion checks, rate scans).

Reports are deterministic JSON: keys are sorted, floats use the shortest
round-trip representation (at most 17 significant digits), complex numbers
are ``[re, im]`` pairs.  Exit codes: 0 success, 2 malformed input, 3 numeric
consistency check beyond tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
from typing import Any

import numpy as np

from . import __version__, contiguity, gaussian, lebesgue, presets, qlan
from .errors import NumericCheckFailure, QlebError, ValidationError
from .matcore import DEFAULT_TOL, TOL_PROFILES, ToleranceConfig, check_hermitian

TOL_FIELDS = tuple(f.name for f in dataclasses.fields(ToleranceConfig))


# -- JSON <-> matrix helpers ---------------------------------------------------

def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_document(A: np.ndarray, label: str | None = None) -> dict:
    A = np.asarray(A, dtype=complex)
    doc: dict[str, Any] = {
        "dim": int(A.shape[0]),
        "entries": np.stack([A.real, A.imag], -1).tolist(),
    }
    if label is not None:
        doc["label"] = label
    return doc


def parse_matrix_document(doc: Any, where: str = "matrix",
                          tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The matrix of a document, validated as Hermitian under ``tol``."""
    if not isinstance(doc, dict) or "entries" not in doc:
        raise QlebError(f"{where}: expected an object with an 'entries' field")
    entries = doc["entries"]
    dim = int(doc.get("dim", len(entries)))
    if len(entries) != dim:
        raise QlebError(f"{where}: declared dim {dim} but {len(entries)} rows")
    A = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if len(row) != dim:
            raise QlebError(f"{where}: entries[{i}] has {len(row)} columns, expected {dim}")
        for j, cell in enumerate(row):
            if not (isinstance(cell, (list, tuple)) and len(cell) == 2):
                raise QlebError(f"{where}: entries[{i}][{j}] must be a [re, im] pair")
            A[i, j] = complex(float(cell[0]), float(cell[1]))
    try:
        check_hermitian(A, tol)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    return A


def real_vector(doc: Any, where: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in doc], dtype=float)
    except (TypeError, ValueError) as exc:
        raise QlebError(f"{where}: expected a list of real numbers") from exc


def complex_vector(doc: Any, where: str) -> np.ndarray:
    out = []
    for k, cell in enumerate(doc):
        if isinstance(cell, (int, float)):
            out.append(complex(cell))
        elif isinstance(cell, (list, tuple)) and len(cell) == 2:
            out.append(complex(float(cell[0]), float(cell[1])))
        else:
            raise QlebError(f"{where}[{k}]: expected a number or a [re, im] pair")
    return np.asarray(out, dtype=complex)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise QlebError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise QlebError(f"{path} is not valid JSON: {exc}") from exc


# -- report assembly -------------------------------------------------------------

def resolve_tolerances(args: argparse.Namespace) -> ToleranceConfig:
    profile = os.environ.get("QLEB_TOL_PROFILE", "default")
    if profile not in TOL_PROFILES:
        raise QlebError(
            f"unknown tolerance profile {profile!r}; available: {sorted(TOL_PROFILES)}"
        )
    base = TOL_PROFILES[profile]
    overrides = {
        name: getattr(args, f"tol_{name}")
        for name in TOL_FIELDS
        if getattr(args, f"tol_{name}", None) is not None
    }
    return dataclasses.replace(base, **overrides) if overrides else base


def make_report(command: str, inputs: Any, values: dict, tol: ToleranceConfig) -> dict:
    digest_src = json.dumps({"command": command, "inputs": inputs}, sort_keys=True, default=str)
    return {
        "command": command,
        "inputs_digest": hashlib.sha256(digest_src.encode("utf-8")).hexdigest(),
        "tolerances": {name: getattr(tol, name) for name in TOL_FIELDS},
        "values": values,
        "version": __version__,
    }


def emit(report: dict, args: argparse.Namespace) -> None:
    if args.output == "pretty":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def report_from_contiguity(rep: contiguity.ContiguityReport) -> dict:
    return {
        "verdict": rep.verdict,
        "criterion": rep.criterion_used,
        "evidence": rep.evidence,
        "notes": rep.notes,
        "details": rep.details,
    }


# -- decompose -------------------------------------------------------------------

def cmd_decompose(args: argparse.Namespace) -> int:
    tol = resolve_tolerances(args)
    sigma_doc = load_json(args.sigma)
    rho_doc = load_json(args.rho)
    # Hermiticity is checked here, where the file is named; positivity and
    # rank where the library is entered.
    sigma = parse_matrix_document(sigma_doc, f"{args.sigma}", tol)
    rho = parse_matrix_document(rho_doc, f"{args.rho}", tol)
    for state in (sigma, rho):
        lebesgue._check_trace(state, args.subnormalized)

    dec = lebesgue.lebesgue_decompose(sigma, rho, tol)
    singular = dec.split.dims[1] == 0  # is_singular(rho, sigma): H2 is empty
    recon = float(np.linalg.norm(dec.ac + dec.perp - sigma) / (1.0 + np.linalg.norm(sigma)))
    ac_rec = float(
        np.linalg.norm(dec.ac - dec.sqrt_lr @ rho @ dec.sqrt_lr) / (1.0 + np.linalg.norm(dec.ac))
    )
    perp_overlap = float(np.trace(rho @ dec.perp).real)
    ac_predicate = None if singular else bool(lebesgue.is_abs_continuous(dec.ac, rho, tol))
    checks = {
        "reconstruction": recon,
        "ac_reconstruction": ac_rec,
        "perp_orthogonality": perp_overlap,
        "singularity": bool(singular),
        "ac_predicate": ac_predicate,
    }
    values = {
        "ac": matrix_document(dec.ac, "sigma_ac"),
        "perp": matrix_document(dec.perp, "sigma_perp"),
        "sqrt_lr": matrix_document(dec.sqrt_lr, "sqrt_likelihood_ratio"),
        "split_dims": list(dec.split.dims),
        "checks": checks,
    }
    report = make_report("decompose", {"sigma": sigma_doc, "rho": rho_doc}, values, tol)
    emit(report, args)
    bad = max(recon, ac_rec, abs(perp_overlap))
    if bad > tol.eq_rel:
        raise NumericCheckFailure(f"decomposition residual {bad:.3e} exceeds eq_rel={tol.eq_rel:.1e}")
    if ac_predicate is False:
        raise NumericCheckFailure("absolutely continuous part failed the continuity predicate")
    return 0


# -- contiguity ------------------------------------------------------------------

def _count(text: str) -> int:
    """A count written as an integer or in e-notation (``1e6``); anything else raises ValueError."""
    with contextlib.suppress(ValueError):
        return int(text)
    with contextlib.suppress(ValueError):
        x = float(text)
        if math.isfinite(x) and x.is_integer():
            return int(x)
    raise ValueError(f"expected a whole number, got {text!r}")


def _counts(arg: str | None) -> list[int] | None:
    """The comma-separated counts of ``arg``; ``None``, the caller's default, when it names none."""
    return [_count(x) for x in (arg or "").split(",") if x.strip()] or None


def _named(table: dict, name: str, what: str):
    """``table[name]`` or an error naming the choices (tables read ``presets`` per call)."""
    if name not in table:
        raise QlebError(f"unknown {what} {name!r}; available: {sorted(table)}")
    return table[name]


def _scaling_by_name(name: str):
    return _named({"sqrt": presets.sqrt_scaling, "quarter": presets.quarter_scaling,
                   "linear": presets.linear_scaling}, name, "scaling")


def _sequence_range(args: argparse.Namespace) -> dict:
    """``horizon`` (default 10**6) and ``sample_grid`` of a state-sequence preset."""
    horizon = 10**6 if args.horizon is None else args.horizon
    return {"horizon": horizon, "sample_grid": _counts(args.grid)}


#: ``--preset`` name -> the family it builds from the parsed arguments.
_PRESETS = {
    "example-4.1": lambda args: presets.faithful_to_pure_family(**_sequence_range(args)),
    "example-4.3": lambda args: presets.orthogonal_limit_family(**_sequence_range(args)),
    "sec-7.1": lambda args: presets.three_block_family(grid=_counts(args.grid)),
    "sec-7.2-n": lambda args: presets.drifting_product_family("linear"),
    "sec-7.2-sqrt-n": lambda args: presets.drifting_product_family("sqrt"),
    "spin-overlap": lambda args: presets.spin_overlap_family(
        h=real_vector(args.h.split(","), "--h") if args.h else np.array([1.0, 0.5]),
        g=_scaling_by_name(args.g or "sqrt"), **_sequence_range(args)),
}


def _contiguity_input(args: argparse.Namespace, tol: ToleranceConfig) -> tuple:
    """The family of ``--preset`` or ``--spec``, and the spec document read (``None`` for a preset)."""
    if args.preset is not None:
        return _named(_PRESETS, args.preset, "preset")(args), None
    spec = load_json(args.spec)
    kind = spec.get("kind")
    if kind == "constant-pair":
        rho = parse_matrix_document(spec.get("rho"), "spec.rho", tol)
        sigma = parse_matrix_document(spec.get("sigma"), "spec.sigma", tol)
        horizon = _count(str(spec.get("horizon", 1000 if args.horizon is None else args.horizon)))
        return contiguity.StateSequence(
            eval=lambda n: (rho, sigma),
            declared_limits=(rho, sigma),
            horizon=horizon,
            sample_grid=_counts(args.grid),
        ), spec
    if kind == "iid-product":
        rho = parse_matrix_document(spec.get("rho"), "spec.rho", tol)
        sigma = parse_matrix_document(spec.get("sigma"), "spec.sigma", tol)
        return contiguity.ProductFamily(factors=lambda i: (rho, sigma), stack=lambda idx: (rho, sigma)), spec
    raise QlebError(f"unknown family kind {spec.get('kind')!r} in {args.spec}")


def cmd_contiguity(args: argparse.Namespace) -> int:
    tol = resolve_tolerances(args)
    family, spec = _contiguity_input(args, tol)
    sub = args.criterion
    if sub == "limit":
        if not isinstance(family, contiguity.StateSequence):
            raise QlebError("limit criterion expects a state-sequence family")
        rep = contiguity.limit_criterion(family, tol)
    elif sub == "pure":
        if not isinstance(family, (contiguity.StateSequence, contiguity.PurePowerFamily)):
            raise QlebError("pure criterion expects a state-sequence or pure-power family")
        rep = contiguity.pure_criterion(family, tol)
    elif sub == "kakutani":
        if not isinstance(family, contiguity.ProductFamily):
            raise QlebError("kakutani criterion expects a product family")
        rep = contiguity.kakutani_criterion(
            family, horizon=10**4 if args.horizon is None else args.horizon, tol=tol)
    elif sub == "block":
        if not isinstance(family, contiguity.BlockSequence):
            raise QlebError("block criterion expects a block-structured family")
        rep = contiguity.block_criterion_diagnostics(family, tol)
    else:  # pragma: no cover - argparse restricts choices
        raise QlebError(f"unknown contiguity criterion {sub!r}")
    inputs = {"criterion": sub, "preset": args.preset, "spec": spec,
              "horizon": args.horizon, "grid": args.grid, "g": args.g, "h": args.h}
    report = make_report(f"contiguity {sub}", inputs, report_from_contiguity(rep), tol)
    emit(report, args)
    return 0


# -- gaussian --------------------------------------------------------------------

def _parse_gaussian_params(doc: Any, where: str, tol: ToleranceConfig) -> gaussian.GaussianParams:
    if not isinstance(doc, dict) or "h" not in doc or "J" not in doc:
        raise QlebError(f"{where}: expected an object with 'h' and 'J'")
    return gaussian.GaussianParams(
        h=real_vector(doc["h"], f"{where}.h"),
        J=parse_matrix_document(doc["J"], f"{where}.J", tol),
    )


def _parse_extended_params(doc: Any, where: str, tol: ToleranceConfig) -> gaussian.ExtendedGaussianParams:
    needed = {"mu", "Sigma", "kappa", "s2"}
    if not isinstance(doc, dict) or not needed.issubset(doc):
        raise QlebError(f"{where}: expected an object with fields {sorted(needed)}")
    return gaussian.ExtendedGaussianParams(
        mu=real_vector(doc["mu"], f"{where}.mu"),
        Sigma=parse_matrix_document(doc["Sigma"], f"{where}.Sigma", tol),
        kappa=complex_vector(doc["kappa"], f"{where}.kappa"),
        s2=float(doc["s2"]),
    )


def _parse_query(doc: Any, where: str) -> list[np.ndarray]:
    if not isinstance(doc, dict) or "xis" not in doc:
        raise QlebError(f"{where}: expected an object with 'xis'")
    return [complex_vector(x, f"{where}.xis[{k}]") for k, x in enumerate(doc["xis"])]


def cmd_gaussian(args: argparse.Namespace) -> int:
    tol = resolve_tolerances(args)
    sub = args.operation
    params_doc = load_json(args.params)
    inputs = {"operation": sub, "params": params_doc}
    if sub == "qcf":
        params = _parse_gaussian_params(params_doc, args.params, tol)
        query_doc = load_json(args.query)
        inputs["query"] = query_doc
        xis = _parse_query(query_doc, args.query)
        value = gaussian.gaussian_qcf(params, xis, tol)
        values = {"value": complex_pair(value)}
    elif sub == "shift":
        ext = _parse_extended_params(params_doc, args.params, tol)
        shifted = gaussian.lecam_shift(ext, tol)
        values = {
            "h": [float(x) for x in shifted.h],
            "J": matrix_document(shifted.J, "covariance"),
        }
    elif sub == "sandwich":
        ext = _parse_extended_params(params_doc, args.params, tol)
        xis = []
        if args.query is not None:
            query_doc = load_json(args.query)
            inputs["query"] = query_doc
            xis = _parse_query(query_doc, args.query)
        value, reference = gaussian._sandwich_and_shift_qcf(ext, xis, tol)
        values = {
            "value": complex_pair(value),
            "shift_qcf": complex_pair(reference),
            "agrees": bool(abs(value - reference) <= 1e-10),
        }
    else:  # pragma: no cover
        raise QlebError(f"unknown gaussian operation {sub!r}")
    report = make_report(f"gaussian {sub}", inputs, values, tol)
    emit(report, args)
    return 0


# -- qlan ------------------------------------------------------------------------

def _model_by_name(name: str) -> qlan.ParametricModel:
    return _named({"spin-pure": presets.spin_pure_model,
                   "spin-perturbed:f=cubic": presets.spin_perturbed_model}, name, "model")()


def _defect_by_name(name: str):
    return _named({"cubic": presets.cubic_defect, "quadratic": presets.quadratic_defect,
                   "zero": lambda theta: 0.0}, name, "defect")


#: Number of ``clt-check`` queries ``xi (1, 0.3)``, with ``xi`` evenly spaced over [-2, 2].
_CLT_XI_COUNT = 20


def cmd_qlan(args: argparse.Namespace) -> int:
    tol = resolve_tolerances(args)
    sub = args.operation
    theta0 = real_vector(args.theta.split(","), "--theta") if args.theta else np.zeros(2)
    h = real_vector(args.h.split(","), "--h") if args.h else np.array([1.0, 0.5])
    inputs = {"operation": sub, "model": args.model, "theta": args.theta,
              "h": args.h, "n": args.n, "f": args.f, "g": args.g, "grid": args.grid}

    if sub == "rate-scan":
        grid = _counts(args.grid) or contiguity.default_grid(10**7, points=15)
        scan = qlan.RateScan(
            f=_defect_by_name(args.f or "cubic"),
            g=_scaling_by_name(args.g or "sqrt"),
            h=h, grid=grid,
        )
        rep = qlan.rate_scan(scan)
        values = {"rows": rep.rows, "verdict": rep.verdict, "notes": rep.notes}
        report = make_report("qlan rate-scan", inputs, values, tol)
        emit(report, args)
        return 0

    model = _model_by_name(args.model)
    if sub == "sld":
        mats = qlan.slds(model, theta0, tol)
        values = {"slds": [matrix_document(L, f"sld_{i}") for i, L in enumerate(mats)]}
    elif sub == "qfi":
        rho0 = model.state_at(theta0)
        values = {"qfi": matrix_document(qlan.qfi_matrix(rho0, qlan.slds(model, theta0, tol), tol))}
    elif sub == "clt-check":
        n_grid = _counts(args.n) or [100, 10000, 1000000]
        xi_grid = [[np.array([x, 0.3 * x])] for x in np.linspace(-2.0, 2.0, _CLT_XI_COUNT)]
        rep = qlan.lecam3_numeric_check(model, theta0, None, h, n_grid, xi_grid, tol)
        values = {
            "deviations": rep.deviations,
            "decreasing": rep.decreasing,
            "limit_mean": [float(x) for x in rep.limit_mean],
            "limit_cov": matrix_document(rep.limit_cov),
        }
    elif sub == "expansion":
        rep = qlan.sqrt_expansion_check(model, theta0, tol=tol)
        values = {
            "fitted_quadratic": matrix_document(rep.fitted_quadratic.astype(complex)),
            "target_quadratic": matrix_document(rep.target_quadratic.astype(complex)),
            "rel_error": rep.rel_error,
            "residual_order": rep.residual_order,
            "trr2_order": rep.trr2_order,
            "trr2_exact": rep.trr2_exact,
        }
    else:  # pragma: no cover
        raise QlebError(f"unknown qlan operation {sub!r}")
    report = make_report(f"qlan {sub}", inputs, values, tol)
    emit(report, args)
    return 0


# -- argument parsing --------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=("json", "pretty"), default="json")
    parser.add_argument("--out", help="also write the report to this file")
    for name in TOL_FIELDS:
        parser.add_argument(f"--tol-{name.replace('_', '-')}", dest=f"tol_{name}",
                            type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qleb",
        description="Lebesgue decomposition, contiguity, and Gaussian-limit numerics "
                    "for finite-dimensional quantum states",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="Lebesgue decomposition of sigma relative to rho")
    p.add_argument("sigma", help="path to the sigma matrix document (JSON)")
    p.add_argument("rho", help="path to the rho matrix document (JSON)")
    p.add_argument("--subnormalized", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("contiguity", help="contiguity criteria on families of state pairs")
    p.add_argument("criterion", choices=("limit", "pure", "kakutani", "block"))
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--preset", help="named built-in family")
    family.add_argument("--spec", help="inline family description (JSON file)")
    p.add_argument("--horizon", type=_count, default=None)
    p.add_argument("--grid", help="comma-separated sample indices")
    p.add_argument("--g", help="scaling for the spin-overlap preset (sqrt|quarter|linear)")
    p.add_argument("--h", help="shift direction, comma-separated")
    _add_common(p)
    p.set_defaults(func=cmd_contiguity)

    p = subs.add_parser("gaussian", help="Gaussian quasi-characteristic function tools")
    p.add_argument("operation", choices=("qcf", "shift", "sandwich"))
    p.add_argument("--params", required=True, help="parameter document (JSON file)")
    p.add_argument("--query", help="query document (JSON file)")
    _add_common(p)
    p.set_defaults(func=cmd_gaussian)

    p = subs.add_parser("qlan", help="local-asymptotic-normality experiments")
    p.add_argument("operation", choices=("sld", "qfi", "clt-check", "expansion", "rate-scan"))
    p.add_argument("--model", default="spin-pure")
    p.add_argument("--theta", help="expansion point, comma-separated (default origin)")
    p.add_argument("--h", help="shift direction, comma-separated (default 1,0.5)")
    p.add_argument("--n", help="comma-separated copy counts for clt-check")
    p.add_argument("--f", help="defect for rate-scan (cubic|quadratic|zero)")
    p.add_argument("--g", help="scaling for rate-scan (sqrt|quarter|linear)")
    p.add_argument("--grid", help="comma-separated sample indices")
    _add_common(p)
    p.set_defaults(func=cmd_qlan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericCheckFailure as exc:
        sys.stderr.write(f"numeric check failed: {exc}\n")
        return 3
    except QlebError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
