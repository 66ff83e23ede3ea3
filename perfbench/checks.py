"""Independent checks of the program's outputs.

Each check compares an output against a closed form, a separate numpy/scipy
computation, or a property the method must have, and returns a list of
failure messages (empty when the output passes). None compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh, svdvals

TOL = 1e-9


def _close(name, measured, expected, tol=TOL):
    if not abs(measured - expected) <= tol:
        return [f"{name}: {measured!r} differs from {expected!r} by more than {tol:g}"]
    return []


def _within(name, value, low, high):
    if not (low <= value <= high):
        return [f"{name}: {value!r} outside [{low!r}, {high!r}]"]
    return []


def _psd_root(m) -> np.ndarray:
    # Eigenvalues below 1e-12 of the largest are zero: the states checked here
    # are rank-deficient stabilizer states, and the square root of eigensolver
    # noise (~1e-16) would otherwise shift the fidelity by ~1e-8, as scipy's
    # sqrtm does on them.
    vals, vecs = eigh((m + m.conj().T) / 2)
    vals = np.where(vals > 1e-12 * vals.max(), vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho, sigma) -> float:
    """Squared fidelity ||sqrt(rho) sqrt(sigma)||_1^2, with scipy's eigh and svdvals."""
    return float(svdvals(_psd_root(rho) @ _psd_root(sigma)).sum() ** 2)


def decode_matrix(values, d: int) -> np.ndarray:
    """Inverse of the report's row-major interleaved (re, im) encoding."""
    flat = np.asarray(values, dtype=float)
    return (flat[0::2] + 1j * flat[1::2]).reshape(d, d)


# ---------------------------------------------------------------------------
# dense

def compress_rate(eigenvalues, delta: float) -> int:
    """Default codec rate ceil(h_max_smoothed + 8 log2(4/delta)) clamped to [0, n]."""
    vals = np.sort(np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None))
    n = int(round(math.log2(vals.size)))
    eps = (delta / 40.0) ** 4
    keep = vals[np.cumsum(vals) > eps]
    keep = keep / keep.sum()
    h_max = 2.0 * math.log2(np.sqrt(keep).sum())
    return int(np.clip(math.ceil(h_max + 8 * math.log2(4.0 / delta)), 0, n))


def check_compress(report, eigenvalues, delta: float, seeds: int) -> list:
    res = report["results"]
    n = int(round(math.log2(len(eigenvalues))))
    out = []
    if res["s"] != compress_rate(eigenvalues, delta):
        out.append(f"compress: rate {res['s']} != {compress_rate(eigenvalues, delta)}")
    if len(res["roundtrip_td"]) != seeds:
        out.append(f"compress: {len(res['roundtrip_td'])} roundtrips, expected {seeds}")
    if res["s"] == n:
        out += [msg for td in res["roundtrip_td"] for msg in _within("roundtrip td", td, 0.0, TOL)]
    return out


def decoupling_fidelity(dilation, d_in: int, d_anc: int, out_split) -> float:
    """F(N^c(Phi_AR), N^c(1/d_in) ⊗ 1/d_R) built from the dilation's columns.

    The channel's isometry is the set of dilation columns with the ancilla in
    |0>; the environment is the second output factor.
    """
    d_out, d_env = out_split
    iso = np.asarray(dilation)[:, ::d_anc][:, :d_in]          # (out*env, in)
    # |psi> on (out, env, R) = sum_i V|i> ⊗ |i> / sqrt(d_in)
    psi = (iso / math.sqrt(d_in)).reshape(d_out, d_env, d_in)
    rho_er = np.einsum("oer,ofs->erfs", psi, psi.conj()).reshape(d_env * d_in, d_env * d_in)
    rho_e = np.einsum("oer,ofr->ef", psi, psi.conj())
    return fidelity(rho_er, np.kron(rho_e, np.eye(d_in) / d_in))


def check_decoding(report, reference: float, decoupling_key: str, decoder_key: str) -> list:
    res = report["results"]
    out = _close("decoupling fidelity", res[decoupling_key], reference, 1e-8)
    if not res[decoder_key] >= res[decoupling_key] - TOL:
        out.append(f"decoder fidelity {res[decoder_key]!r} below decoupling "
                   f"{res[decoupling_key]!r}")
    return out


def check_entropy_mm(report, n: int) -> list:
    res = report["results"]
    return (_close("h_min", res["h_min"], n) + _close("h_max", res["h_max"], n)
            + _close("h2_lower", res["h2_lower"], 1.0))


# ---------------------------------------------------------------------------
# trials and vectors

def check_szk(report, kappa: float, m: int, trials: int, transcript_lines=None) -> list:
    res = report["results"]
    expected = kappa ** m
    sigma = math.sqrt(expected * (1 - expected) / trials)
    out = _within("szk accept rate", res["accept_rate"], expected - 3 * sigma, expected + 3 * sigma)
    out += _close("szk simulator distance", res["simulator_distance"],
                  math.sqrt(1 - kappa ** (m + 1)))
    if transcript_lines is not None:
        if len(transcript_lines) != trials:
            out.append(f"szk transcript has {len(transcript_lines)} records, expected {trials}")
        accepted = sum(1 for rec in transcript_lines if rec["accepted"])
        if accepted != round(res["accept_rate"] * trials):
            out.append(f"szk transcript accepts {accepted} trials, report rate {res['accept_rate']}")
    return out


def check_accept_exact(accept_prob: float, kappa: float, m: int) -> list:
    return _close("accept probability", accept_prob, kappa ** m)


def check_qip_prep(report, kappa: float, m: int, prep_error: float) -> list:
    low = (1 - prep_error) * kappa ** m
    return _within("qip accept with prep error", report["results"]["accept_prob"],
                   low - TOL, low + prep_error + TOL)


def check_qip_dme(report, transcript_lines, kappa: float, m: int) -> list:
    bound = transcript_lines[0]["measurement_error_bound"]
    return _within("qip dme accept", report["results"]["accept_prob"],
                   kappa ** m - bound - TOL, kappa ** m + bound + TOL)


def check_decision(decision: int, sign: int) -> list:
    expected = 0 if sign > 0 else 1
    return [] if decision == expected else [f"interference decision {decision}, built with sign {sign:+d}"]


def check_interfere_report(report, pairs: int) -> list:
    res = report["results"]
    if res["pairs"] != pairs or res["decisions"] != 2 * pairs or res["correct"] != 2 * pairs:
        return [f"interfere: {res['correct']}/{res['decisions']} correct over {res['pairs']} pairs"]
    return []


def check_commit(report, count: int) -> list:
    res = report["results"]
    out = [] if res["count"] == count else [f"commit: {res['count']} schemes, expected {count}"]
    if not res["worst_mlc_margin"] >= -TOL:
        out.append(f"commit: hiding below 1 - sqrt(F) by {-res['worst_mlc_margin']!r}")
    for i, rep in enumerate(res["schemes"]):
        f = rep["binding_opt"]
        out += _close(f"scheme {i} binding attack", rep["binding_attack"], f)
        out += _within(f"scheme {i} hiding", rep["hiding_stat"],
                       1 - math.sqrt(f) - TOL, math.sqrt(max(0.0, 1 - f)) + TOL)
    return out


def check_amplify(report, nu: float, trials: int) -> list:
    res = report["results"]
    out = _close("amplify nu", res["nu"], nu)
    per_index = np.asarray(res["per_index_fidelity"])
    out += [msg for f in per_index for msg in _within("per-index fidelity", f, -TOL, 1 + TOL)]
    sigma = math.sqrt(per_index.var() / trials)
    out += _within("amplify sampled mean", res["empirical_fidelity"],
                   per_index.mean() - 4 * sigma - TOL, per_index.mean() + 4 * sigma + TOL)
    return out


def check_uhlmann(report, kappa: float, d_b: int, rank: int = 2) -> list:
    res = report["results"]
    out = _close("uhlmann kappa", res["kappa"], kappa)
    out += _close("isometry overlap", res["isometry_overlap"], kappa)
    sv = np.linalg.svd(decode_matrix(res["w_matrix"], d_b), compute_uv=False)
    off = np.minimum(np.abs(sv), np.abs(sv - 1.0)).max()
    if off > TOL:
        out.append(f"W singular values deviate from {{0, 1}} by {off:.3g}")
    if int((sv > 0.5).sum()) != rank:
        out.append(f"W has rank {int((sv > 0.5).sum())}, expected {rank}")
    return out


def dme_closed_form(target, program, t: float, k: int) -> np.ndarray:
    """k Lloyd–Mohseni–Rebentrost steps on the last register of ``target``:
    cos²Δ ρ + sin²Δ Tr_X(ρ)⊗σ + i sinΔ cosΔ [1⊗σ, ρ], Δ = 2πt/k."""
    d = program.shape[0]
    rest = target.shape[0] // d
    delta = 2.0 * math.pi * t / k
    c, s = math.cos(delta), math.sin(delta)
    lift = np.kron(np.eye(rest), program)
    rho = np.asarray(target, dtype=complex)
    for _ in range(k):
        traced = np.einsum("axbx->ab", rho.reshape(rest, d, rest, d))
        rho = (c * c * rho + s * s * np.kron(traced, program)
               + 1j * s * c * (lift @ rho - rho @ lift))
    return rho


def check_dme(result, reference) -> list:
    err = float(np.abs(np.asarray(result) - reference).max())
    return [] if err <= 1e-10 else [f"dme differs from the closed form by {err:.3g}"]


def check_approx_measure(result, tau_vec, split, psi) -> list:
    m = np.asarray(tau_vec).reshape(split)
    rho_b = m.T @ m.conj()
    ideal = float(np.real(np.conj(psi) @ rho_b @ psi))
    return _within("approx_measure p_one", result.p_one,
                   ideal - result.error_bound - TOL, ideal + result.error_bound + TOL)
