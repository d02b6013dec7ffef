"""Spectral gap tables and conditional-collision diagnostics.

Comparing symmetric spectra of two orders n < m, any pair of eigenvalues
close enough to be a collision candidate is pushed through the system of
necessary conditions a true coincidence would have to satisfy: bracket
inequalities and equalities between the moment/stone sequences of the two
eigenfunctions, plus their generating-function reformulation.  With
f(t) = sum f_k (-t)^k, the coefficient [t^k] f(t) g(t) is the bracket
(f, g)_k, so the reformulation is evaluated from the same brackets.  A
clear failure is numerical evidence against a collision near that pair;
the module never asserts a collision.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError, RQLabError, SolverError
from .invariants import bracket, kernel_annihilation_residual, lambda_sq, moments
from .invariants import stone_coefficients
from .reporting import FAIL, PASS, IdentityReport
from .solver import EigenPair, cached_eigenpair, cached_spectra

INDETERMINATE = "indeterminate"
CONSISTENT = "consistent"
VIOLATED = "violated"

DEFAULT_COLLISION_TOL = 1e-4


def alpha_sequence(seq, eps: float) -> list[float]:
    """alpha_0 = a_0, alpha_i = a_i + eps * a_{i-1} (i.e. (1 - eps t) a(t))."""
    return [seq[0]] + [seq[i] + eps * seq[i - 1] for i in range(1, len(seq))]


# --- data types -------------------------------------------------------------


class CollisionCandidate(NamedTuple):
    p: int
    n: int
    index_n: int
    Lambda_n: float
    m: int
    index_m: int
    Lambda_m: float
    gap: float  # |Lambda_n - Lambda_m| / max


class GapTable(NamedTuple):
    n: int
    m: int
    p: int
    eigenvalues_n: tuple[float, ...]
    eigenvalues_m: tuple[float, ...]
    gaps: tuple[tuple[float, ...], ...]  # gaps[i][j] relative gap
    min_gap: float
    min_pair: tuple[int, int]
    candidates: tuple[CollisionCandidate, ...]


class NecessaryConditionReport(NamedTuple):
    candidate: CollisionCandidate
    Lambda_mid: float
    eps_mid: float
    eps_endpoints: tuple[float, float]
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    pair_inequalities: tuple[IdentityReport, ...]  # (alpha c)_l (beta d)_. > (alpha d)_. (beta c)_.
    pair_equalities: tuple[IdentityReport, ...]
    moment_signs: tuple[IdentityReport, ...]  # (alpha c)_k < 0, (beta d)_k < 0
    gf_inequalities: tuple[IdentityReport, ...]
    gf_factorization: tuple[IdentityReport, ...]
    verdict: str
    data_consistency: tuple[float, float] = (0.0, 0.0)  # per-side kernel residuals


# --- operations -------------------------------------------------------------


def compare_spectra(
    n: int,
    m: int,
    p: int,
    count: int,
    collision_tol: float = DEFAULT_COLLISION_TOL,
) -> GapTable:
    """Pairwise relative gaps between the symmetric spectra of orders n < m."""
    if not (m > n >= p >= 1):
        raise ConfigError(f"need m > n >= p >= 1, got n={n}, m={m}, p={p}")
    if count < 1:
        raise ConfigError("count must be >= 1")
    spectra = cached_spectra((n, m), p, "symmetric", count)  # one lockstep scan
    for order in (n, m):
        if isinstance(spectra[order], SolverError):
            raise spectra[order]
    ev_n, ev_m = spectra[n], spectra[m]
    gaps = []
    min_gap, min_pair = float("inf"), (0, 0)
    candidates = []
    for i, li in enumerate(ev_n):
        row = []
        for j, lj in enumerate(ev_m):
            gap = abs(li - lj) / max(li, lj)
            row.append(gap)
            if gap < min_gap:
                min_gap, min_pair = gap, (i, j)
            if gap <= collision_tol:
                candidates.append(
                    CollisionCandidate(
                        p=p, n=n, index_n=i, Lambda_n=li, m=m, index_m=j, Lambda_m=lj, gap=gap
                    )
                )
        gaps.append(tuple(row))
    return GapTable(
        n=n,
        m=m,
        p=p,
        eigenvalues_n=ev_n,
        eigenvalues_m=ev_m,
        gaps=tuple(gaps),
        min_gap=min_gap,
        min_pair=min_pair,
        candidates=tuple(candidates),
    )


def _inequality_report(identity_id, index, lhs, rhs, scale, theta) -> IdentityReport:
    """Strict 'lhs > rhs' with an indeterminate band of width theta * scale."""
    margin = lhs - rhs
    if margin > theta * scale:
        verdict = PASS
    elif margin < -theta * scale:
        verdict = FAIL
    else:
        verdict = INDETERMINATE
    return IdentityReport(
        identity_id=identity_id,
        index=tuple(index),
        lhs=lhs,
        rhs=rhs,
        abs_residual=max(-margin, 0.0),
        rel_residual=max(-margin, 0.0) / max(scale, 1e-300),
        verdict=verdict,
        details={"margin": margin, "scale": scale},
    )


def _equality_band_report(identity_id, index, lhs, rhs, scale, theta) -> IdentityReport:
    resid = abs(lhs - rhs)
    if resid < 0.1 * theta * scale:
        verdict = PASS
    elif resid > 10.0 * theta * scale:
        verdict = FAIL
    else:
        verdict = INDETERMINATE
    return IdentityReport(
        identity_id=identity_id,
        index=tuple(index),
        lhs=lhs,
        rhs=rhs,
        abs_residual=resid,
        rel_residual=resid / max(scale, 1e-300),
        verdict=verdict,
        details={"scale": scale},
    )


def evaluate_necessary_conditions(zn: EigenPair, zm: EigenPair) -> NecessaryConditionReport:
    """Evaluate the conditional-collision constraint system on a close pair.

    All bracket conditions assume the two eigenvalues coincide; they are
    evaluated at the midpoint value with the spread folded into an
    indeterminate band.  A clear violation of any strict condition is
    evidence that no true collision hides near this pair.
    """
    sn, sm = zn.spec, zm.spec
    if sn.p != sm.p:
        raise ConfigError("necessary conditions need equal p")
    if not (sn.symmetric and sm.symmetric):
        raise ConfigError("necessary conditions are formulated for symmetric pairs")
    if sm.n <= sn.n:
        raise ConfigError("necessary conditions need m > n (order gap >= 1)")
    if not sn.has_stones:
        raise ConfigError("necessary conditions need n > p")
    p = sn.p
    n, m = sn.n, sm.n
    gap_rel = abs(zn.Lambda - zm.Lambda) / max(zn.Lambda, zm.Lambda)
    delta_order = m - n
    q = delta_order // 2
    delta = delta_order - 2 * q

    Lambda_mid = 0.5 * (zn.Lambda + zm.Lambda)
    eps_mid = Lambda_mid ** (-1.0 / p)
    eps_ends = (1.0 / lambda_sq(zn), 1.0 / lambda_sq(zm))

    depth = n - p - 1 + delta_order
    # a manufactured candidate is measured, not refused: its kernel residual
    # is recorded and its stone coefficients are read unchecked
    consistency = (
        kernel_annihilation_residual(zn),
        kernel_annihilation_residual(zm),
    )
    a = moments(zn, depth)
    b = moments(zm, depth)
    c = list(stone_coefficients(zn))
    d = list(stone_coefficients(zm))
    alpha = alpha_sequence(a, eps_mid)
    beta = alpha_sequence(b, eps_mid)

    # uncertainty band: the collision hypothesis is only satisfied to the
    # actual spread of the two eigenvalues
    theta = max(1e-9, 10.0 * gap_rel)
    mag = max(max(abs(v) for v in a), max(abs(v) for v in b)) * max(
        max(abs(v) for v in c), max(abs(v) for v in d)
    )
    scale = max(mag, 1e-300)
    # (alpha, c)_k and (beta, d)_k, read by the pair inequalities, the moment
    # signs and the four-fold generating-function product
    ac = [bracket(alpha, c, k) for k in range(n - p)]
    bd = [bracket(beta, d, k) for k in range(m - p)]

    pair_ineq = []
    for k in range(0, n - p + q):
        for l in range(0, n - p):
            if not -delta <= 2 * k - l <= n - p - 1 + 2 * q:
                continue
            lhs = ac[l] * bd[2 * k - l + delta]
            rhs = bracket(alpha, d, k + q + delta) * bracket(beta, c, k - q)
            pair_ineq.append(
                _inequality_report(
                    "collision-pair-inequality", (k, l), lhs, rhs, scale * scale, theta
                )
            )

    pair_eq = []
    for k in range(0, n - p + q):
        lhs = bracket(alpha, d, k + q + delta)
        rhs = bracket(beta, c, k - q)
        pair_eq.append(
            _equality_band_report("collision-pair-equality", (k,), lhs, rhs, scale, theta)
        )
    head = bracket(a, d, q + delta - 1)
    pair_eq.append(
        _equality_band_report("collision-head-vanishing", (q + delta - 1,), head, 0.0, scale, theta)
    )
    # internal consistency of the alpha translation (pure arithmetic, no hypothesis)
    unfolded = sum(
        eps_mid ** (q + delta - 1 - k) * bracket(alpha, d, k) for k in range(q + delta)
    )
    pair_eq.append(
        _equality_band_report(
            "collision-head-translation", (q + delta - 1,), head, unfolded, scale, 1e-10 / 10
        )
    )

    signs = []
    for k, v in enumerate(ac):
        signs.append(_inequality_report("collision-moment-sign", ("alpha-c", k), 0.0, v, scale, theta))
    for k, v in enumerate(bd):
        signs.append(_inequality_report("collision-moment-sign", ("beta-d", k), 0.0, v, scale, theta))

    # generating-function coefficients are brackets (module docstring)
    gf_ineq = []
    for k in range((n - p - 1 - delta) // 2 + 1):
        order = 2 * k + delta
        lhs = sum(ac[s] * bd[order - s] for s in range(order + 1))
        rhs = order * bracket(beta, c, k - q) ** 2
        gf_ineq.append(
            _inequality_report("collision-gf-inequality", (k,), lhs, rhs, scale * scale, theta)
        )

    gf_fact = []
    for j in range(q + delta - 1, delta_order + n - p):
        lhs, rhs = bracket(a, d, j), bracket(b, c, j - delta_order)
        gf_fact.append(
            _equality_band_report("collision-gf-factorization", (j,), lhs, rhs, scale, theta)
        )

    reports = pair_ineq + pair_eq + signs + gf_ineq + gf_fact
    if any(r.verdict == FAIL for r in reports):
        verdict = VIOLATED
    elif any(r.verdict == INDETERMINATE for r in reports):
        verdict = INDETERMINATE
    else:
        verdict = CONSISTENT
    return NecessaryConditionReport(
        candidate=CollisionCandidate(
            p=p,
            n=n,
            index_n=zn.index,
            Lambda_n=zn.Lambda,
            m=m,
            index_m=zm.index,
            Lambda_m=zm.Lambda,
            gap=gap_rel,
        ),
        Lambda_mid=Lambda_mid,
        eps_mid=eps_mid,
        eps_endpoints=eps_ends,
        alpha=tuple(alpha),
        beta=tuple(beta),
        pair_inequalities=tuple(pair_ineq),
        pair_equalities=tuple(pair_eq),
        moment_signs=tuple(signs),
        gf_inequalities=tuple(gf_ineq),
        gf_factorization=tuple(gf_fact),
        verdict=verdict,
        data_consistency=consistency,
    )


def follow_up_candidates(table: GapTable) -> list[NecessaryConditionReport]:
    """Necessary conditions on each candidate of a gap table.

    At n = p there are no stones to compare, so only the gap table stands.
    """
    reports: list[NecessaryConditionReport] = []
    if table.n <= table.p:
        return reports
    for cand in table.candidates:
        zn = cached_eigenpair(table.n, table.p, "symmetric", cand.index_n)
        zm = cached_eigenpair(table.m, table.p, "symmetric", cand.index_m)
        reports.append(evaluate_necessary_conditions(zn, zm))
    return reports


class SweepPair(NamedTuple):
    n: int
    m: int
    min_gap: float
    min_pair: tuple[int, int]
    candidate_count: int
    error: str = ""


class SweepSummary(NamedTuple):
    p: int
    n_max: int
    count: int
    collision_tol: float
    pairs: tuple[SweepPair, ...]
    candidates: tuple[CollisionCandidate, ...]
    condition_reports: tuple[NecessaryConditionReport, ...]
    global_min_gap: float
    partial: bool  # at least one pair failed to compute


def sweep_conjecture(
    p: int,
    n_max: int,
    count: int,
    collision_tol: float = DEFAULT_COLLISION_TOL,
) -> SweepSummary:
    """All order pairs p <= n < m <= n_max, gap tables plus candidate follow-up.

    Every order is scanned in one lockstep before the first pair is
    compared.  A pair whose spectra or candidate eigenpairs cannot be
    computed is recorded with its error and the sweep continues, so the
    summary may be partial.
    """
    if n_max < 2:
        raise ConfigError("n_max must be >= 2")
    if p < 1 or p > n_max - 1:
        raise ConfigError("need 1 <= p < n_max")
    # an order that fails is not stored: each pair that needs it gets its error
    cached_spectra(range(p, n_max + 1), p, "symmetric", count)
    pairs = []
    all_candidates: list[CollisionCandidate] = []
    reports: list[NecessaryConditionReport] = []
    global_min = float("inf")
    partial = False
    for n in range(p, n_max):
        for m in range(n + 1, n_max + 1):
            try:
                table = compare_spectra(n, m, p, count, collision_tol)
                followed = follow_up_candidates(table)
            except RQLabError as exc:  # record and continue: partial results
                pairs.append(
                    SweepPair(n=n, m=m, min_gap=float("nan"), min_pair=(-1, -1),
                              candidate_count=0, error=f"{type(exc).__name__}: {exc}")
                )
                partial = True
                continue
            pairs.append(
                SweepPair(
                    n=n,
                    m=m,
                    min_gap=table.min_gap,
                    min_pair=table.min_pair,
                    candidate_count=len(table.candidates),
                )
            )
            global_min = min(global_min, table.min_gap)
            all_candidates.extend(table.candidates)
            reports.extend(followed)
    return SweepSummary(
        p=p,
        n_max=n_max,
        count=count,
        collision_tol=collision_tol,
        pairs=tuple(pairs),
        candidates=tuple(all_candidates),
        condition_reports=tuple(reports),
        global_min_gap=global_min,
        partial=partial,
    )
