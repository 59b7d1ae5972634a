"""Independent reference values and output checks for the benchmark.

The reference never touches the RK4 oracle.  U(T) comes from the exact
closed-form propagator (ODE ordering); the dynamical phases are Gauss-Legendre
quadratures of -<psi_k|U^dag H U|psi_k> over the closed-form U(t); the
eigenbasis and thermal weights are recomputed here from H(0).  Every number
the CLI prints is compared against these values within ``TOL``, the
tolerance of acceptance criterion 1.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Agreement required between the CLI output and the reference.
TOL = 1e-6
#: Gauss-Legendre nodes for the dynamical phases (64 agree with 128 to ~1e-14).
GL_NODES = 64
#: Phases are compared only where the interference amplitude is at least this
#: large: a raw error e turns into a phase error of about e / |raw|.
PHASE_CONDITION = 1e-3
#: Below this the CLI may legitimately report a phase as undefined.
UNDEFINED_BELOW = 1e-9

SWEEP_CSV_HEADER = (
    "axis,axis_value,lambda1,delta1,diag_arg_re,diag_arg_im,diag_phase,"
    "offdiag_arg_re,offdiag_arg_im,offdiag_phase"
)

#: Ledger classifications pinned by acceptance criterion 6.
GOLDEN_CLASSIFICATIONS = {
    "U11_Eq15": "conjugate",
    "U12_Eq16": "mismatch",
    "delta1_Eq17": "mismatch",
    "delta2_Eq18": "match",
    "Uparallel_Eq19": "mismatch",
    "offdiag_Eq23": "mismatch",
    "diag_Eq24": "mismatch",
    "propagator_Eq14_literal": "conjugate",
    "propagator_Eq14_ode": "match",
}


def _propagator(V, muB, omega, t):
    """Closed-form ODE-ordered U(t) = exp(-i sz omega t/2) exp(-i H_rot t).

    All arguments broadcast; returns shape broadcast(...) + (2, 2).
    """
    V, muB, omega, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (V, muB, omega, t)))
    az = 0.5 * (V - omega)
    norm = np.hypot(muB, az)
    c = np.cos(norm * t)
    s = np.sin(norm * t)
    nx = muB / norm
    nz = az / norm
    rot = np.empty(V.shape + (2, 2), dtype=complex)
    rot[..., 0, 0] = c - 1j * s * nz
    rot[..., 0, 1] = -1j * s * nx
    rot[..., 1, 0] = -1j * s * nx
    rot[..., 1, 1] = c + 1j * s * nz
    half = np.exp(-0.5j * omega * t)
    rot[..., 0, :] *= half[..., np.newaxis]
    rot[..., 1, :] *= np.conj(half)[..., np.newaxis]
    return rot


def _hamiltonian(V, muB, omega, t):
    V, muB, omega, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (V, muB, omega, t)))
    phase = np.exp(-1j * omega * t)
    h = np.empty(V.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = 0.5 * V
    h[..., 1, 1] = -0.5 * V
    h[..., 0, 1] = muB * phase
    h[..., 1, 0] = muB * np.conj(phase)
    return h


def reference(V, muB, omega, beta, nodes: int = GL_NODES) -> dict:
    """Reference quantities at t = tau for arrays of parameter points.

    Returns a dict of arrays over points: ``tau``, ``Omega``, ``lambda``
    (P, 2), ``delta`` (P, 2), ``U`` (P, 2, 2), ``Upar`` (P, 2, 2), ``basis``
    (P, 2, 2), ``diag_raw`` and ``offdiag_raw``.
    """
    V, muB, omega, beta = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (V, muB, omega, beta))
    big_omega = np.hypot(2.0 * muB, V - omega)
    tau = 2.0 * math.pi / big_omega

    # Eigenbasis of the real symmetric H(0), upper level first.
    _, vecs = np.linalg.eigh(_hamiltonian(V, muB, omega, 0.0).real)
    basis = vecs[..., ::-1].astype(complex)
    e1 = np.hypot(0.5 * V, muB)
    w = np.exp(-2.0 * beta * e1)
    lam1 = w / (1.0 + w)
    lam = np.stack([lam1, 1.0 - lam1], axis=-1)

    x, wts = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * tau[:, np.newaxis] * (x + 1.0)  # (P, nodes)
    u_t = _propagator(V[:, None], muB[:, None], omega[:, None], t)
    h_t = _hamiltonian(V[:, None], muB[:, None], omega[:, None], t)
    phi = u_t @ basis[:, np.newaxis]  # columns U(t) psi_k, (P, nodes, 2, 2)
    expect = np.einsum("pnik,pnij,pnjk->pnk", phi.conj(), h_t, phi).real
    delta = -0.5 * tau[:, np.newaxis] * np.einsum("n,pnk->pk", wts, expect)

    u = _propagator(V, muB, omega, tau)
    m = basis.conj().swapaxes(-1, -2) @ u @ basis
    diag_raw = np.einsum("pk,pk->p", lam * np.exp(-1j * delta), np.diagonal(m, axis1=-2, axis2=-1))
    corr = (basis * np.exp(-1j * delta)[:, np.newaxis, :]) @ basis.conj().swapaxes(-1, -2)
    upar = u @ corr
    roots = [(basis * np.sqrt(lam_a)[:, np.newaxis, :]) @ basis.conj().swapaxes(-1, -2)
             for lam_a in (lam, lam[:, ::-1])]
    offdiag_raw = np.trace(upar @ roots[0] @ upar @ roots[1], axis1=-2, axis2=-1)
    return {
        "tau": tau,
        "Omega": big_omega,
        "lambda": lam,
        "delta": delta,
        "U": u,
        "Upar": upar,
        "basis": basis,
        "diag_raw": diag_raw,
        "offdiag_raw": offdiag_raw,
    }


def circular_distance(a, b) -> np.ndarray:
    return np.abs(np.angle(np.exp(1j * (np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))))


class CheckResult:
    """Outcome of checking one CLI output: failure reasons and the worst phase error."""

    def __init__(self):
        self.errors: list[str] = []
        self.phase_err_max = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors

    def close(self, what: str, got, want, tol: float = TOL) -> None:
        diff = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if not diff <= tol:
            self.errors.append(f"{what}: |got - reference| = {diff:.3e} > {tol:.0e}")

    def phase(self, what: str, got, raw_ref, quantized: bool = False) -> None:
        """Check a printed phase (None when the CLI left it undefined)."""
        magnitude = abs(complex(raw_ref))
        if got is None:
            if magnitude > UNDEFINED_BELOW:
                self.errors.append(f"{what}: undefined but |raw| = {magnitude:.3e}")
            return
        if quantized:
            off = float(min(circular_distance(got, 0.0), circular_distance(got, math.pi)))
            if not off <= TOL:
                self.errors.append(f"{what}: {got!r} is {off:.3e} from {{0, pi}}")
        if magnitude >= PHASE_CONDITION:
            err = float(circular_distance(got, np.angle(raw_ref)))
            self.phase_err_max = max(self.phase_err_max, err)
            if not err <= TOL:
                self.errors.append(f"{what}: phase error {err:.3e} > {TOL:.0e}")


def _float_or_none(field: str) -> float | None:
    return None if field == "" else float(field)


def check_sweep_csv(text: str, axis: str, values: np.ndarray, ref: dict) -> CheckResult:
    """Check ``sweep --format csv`` output row by row against ``ref``."""
    res = CheckResult()
    lines = text.rstrip("\n").split("\n")
    if lines[0] != SWEEP_CSV_HEADER:
        res.errors.append(f"bad header {lines[0][:80]!r}")
        return res
    rows = lines[1:]
    if len(rows) != len(values):
        res.errors.append(f"{len(rows)} rows, expected {len(values)}")
        return res
    try:
        fields = [r.split(",") for r in rows]
        if any(len(f) != 10 or f[0] != axis for f in fields):
            raise ValueError("malformed row")
        num = np.array([[float(x) for x in f[1:6] + f[7:9]] for f in fields])
        diag_phase = [_float_or_none(f[6]) for f in fields]
        off_phase = [_float_or_none(f[9]) for f in fields]
    except ValueError as exc:
        res.errors.append(f"unparsable output: {exc}")
        return res
    res.close("axis_value", num[:, 0], values, 1e-12)
    res.close("lambda1", num[:, 1], ref["lambda"][:, 0])
    res.close("delta1", num[:, 2], ref["delta"][:, 0])
    res.close("diag_arg", num[:, 3] + 1j * num[:, 4], ref["diag_raw"])
    res.close("offdiag_arg", num[:, 5] + 1j * num[:, 6], ref["offdiag_raw"])
    for i in range(len(values)):
        res.phase(f"row {i} diag_phase", diag_phase[i], ref["diag_raw"][i])
        res.phase(f"row {i} offdiag_phase", off_phase[i], ref["offdiag_raw"][i], quantized=True)
    return res


def check_phases_json(text: str, ref: dict, index: int) -> CheckResult:
    """Check one ``phases --format json`` report against point ``index`` of ``ref``."""
    res = CheckResult()
    try:
        doc = json.loads(text)
        got = {
            "tau": doc["tau"],
            "t_final": doc["t_final"],
            "Omega": doc["Omega"],
            "lambda": [doc["lambda1"], doc["lambda2"]],
            "delta": [doc["delta1"], doc["delta2"]],
            "diag_raw": complex(*doc["diag"]["raw"]),
            "offdiag_raw": complex(*doc["offdiag"]["raw"]),
            "diag_factor": complex(*doc["diag"]["factor"]),
            "offdiag_factor": complex(*doc["offdiag"]["factor"]),
            "diag_arg": doc["diag"]["arg"],
            "offdiag_arg": doc["offdiag"]["arg"],
        }
    except (ValueError, KeyError, TypeError) as exc:
        res.errors.append(f"unparsable output: {exc!r}")
        return res
    for key in ("tau", "Omega", "lambda", "delta", "diag_raw", "offdiag_raw"):
        res.close(key, got[key], ref[key][index])
    res.close("t_final", got["t_final"], ref["tau"][index])
    for name in ("diag", "offdiag"):
        raw = ref[f"{name}_raw"][index]
        res.close(f"{name}.factor", got[f"{name}_factor"], raw / abs(raw))
        res.phase(f"{name}.arg", got[f"{name}_arg"], raw, quantized=name == "offdiag")
    return res


def _as_complex(value) -> np.ndarray:
    """Decode a ledger value: real scalar, [re, im], or nested matrix rows."""
    if isinstance(value, (int, float)):
        return np.asarray(complex(value))
    if len(value) == 2 and all(isinstance(v, (int, float)) for v in value):
        return np.asarray(complex(value[0], value[1]))
    return np.array([[_as_complex(e) for e in row] for row in value])


def check_verify_json(text: str, expected_points: int) -> CheckResult:
    """Check ``verify --grid N --format json``: oracle values, residuals, golden ledger."""
    res = CheckResult()
    try:
        reports = json.loads(text)["reports"]
        params = np.array([[r["params"][k] for k in ("V", "muB", "omega", "beta")] for r in reports])
        items = [{it["equation_id"]: it for it in r["items"]} for r in reports]
    except (ValueError, KeyError, TypeError) as exc:
        res.errors.append(f"unparsable output: {exc!r}")
        return res
    if len(reports) != expected_points:
        res.errors.append(f"{len(reports)} reports, expected {expected_points}")
        return res
    ref = reference(*params.T)
    for i, (report, by_id) in enumerate(zip(reports, items)):
        classes = {eq: it["classification"] for eq, it in by_id.items()}
        if classes != GOLDEN_CLASSIFICATIONS:
            res.errors.append(f"report {i}: ledger {classes} differs from the golden ledger")
            continue
        tally = {}
        for it in report["items"]:
            tally[it["classification"]] = tally.get(it["classification"], 0) + 1
        if {k: v for k, v in report["summary"].items() if v} != tally:
            res.errors.append(f"report {i}: summary {report['summary']} does not tally")
        oracle = {eq: _as_complex(it["oracle_value"]) for eq, it in by_id.items()}
        for eq, it in by_id.items():
            residual = float(np.linalg.norm(np.atleast_1d(_as_complex(it["reference_value"]) - oracle[eq])))
            res.close(f"report {i} {eq} residual", it["residual"], residual, 1e-12 * (1.0 + residual))
        # Gauge-invariant oracle quantities only: the printed eigenbasis phases
        # are a convention of the program, not of the physics.
        basis = ref["basis"][i]
        m = basis.conj().T @ ref["U"][i] @ basis
        mpar = basis.conj().T @ ref["Upar"][i] @ basis
        res.close(f"report {i} U11", oracle["U11_Eq15"], m[0, 0])
        res.close(f"report {i} |U12|", abs(oracle["U12_Eq16"]), abs(m[0, 1]))
        res.close(f"report {i} delta1", oracle["delta1_Eq17"], ref["delta"][i, 0])
        res.close(f"report {i} delta2", oracle["delta2_Eq18"], ref["delta"][i, 1])
        res.close(f"report {i} Upar diagonal", np.diagonal(oracle["Uparallel_Eq19"]), np.diagonal(mpar))
        res.close(f"report {i} |Upar|", np.abs(oracle["Uparallel_Eq19"]), np.abs(mpar))
        res.close(f"report {i} offdiag", oracle["offdiag_Eq23"], ref["offdiag_raw"][i])
        res.close(f"report {i} diag", oracle["diag_Eq24"], ref["diag_raw"][i])
        res.close(f"report {i} U literal", oracle["propagator_Eq14_literal"], ref["U"][i])
        res.close(f"report {i} U ode", oracle["propagator_Eq14_ode"], ref["U"][i])
        for name, eq in (("diag", "diag_Eq24"), ("offdiag", "offdiag_Eq23")):
            res.phase(f"report {i} {name} phase", float(np.angle(oracle[eq])),
                      ref[f"{name}_raw"][i], quantized=name == "offdiag")
    return res
