"""Monte Carlo experiment families at desk scale, emitting tidy CSV records.

Every family is a pure function of (config, root seed): per-trial RNG
substreams are derived by hashing (seed, family tag, N, trial), so results
do not depend on execution order or worker count, and output rows are
canonically sorted before writing.

Trials run the kernel of ``mpvesd.ensembles``, ``sample_Y`` then
``gram_eigh`` on the smaller Gram side (signal_detect and separable build
their own Y; locallaw only samples).  Unknown ``params`` keys are rejected.
"""

from __future__ import annotations

import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from mpvesd.ensembles import EntryLaw, gram_eigh, sample_separable, \
    sample_signal_model, sample_Y, signal_plant
from mpvesd.law import PopulationSpectrum, SolvedLaw, solve_law
from mpvesd.resolvent import local_law_residuals, rigidity_report
from mpvesd.vesd import RatePoint, WeightedStepCDF, coordinate_profile, \
    kolmogorov, loglog_fit, vesd_from_spectrum

#: record tuple fields, in CSV column order
RECORD_HEADER = ("family", "N", "trial", "seed", "statistic", "value")


class ConfigError(ValueError):
    """Invalid config; the message lists every offending key."""


def params_error(family: str, params: dict) -> str | None:
    """Message naming every ``params`` key the family does not read."""
    keys = _FAMILIES[family][1]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        return (f"params: unknown keys {unknown} for family {family!r}, "
                f"which reads {list(keys)}")
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    schedule: tuple[int, ...] = ()
    d: float = 0.5
    spectrum: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    entry_law: EntryLaw = EntryLaw("gaussian")
    trials: int = 10
    repetition_cap: int = 2000
    seed: int = 0
    out: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; one of {FAMILIES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if list(self.schedule) != sorted(self.schedule):
            raise ValueError("schedule must be ascending")
        if msg := params_error(self.family, self.params):
            raise ConfigError(msg)

    def population_spectrum(self) -> PopulationSpectrum:
        return PopulationSpectrum(atoms=self.spectrum)


@dataclass
class ExperimentResult:
    records: list[tuple]
    extras: dict = field(default_factory=dict)


def resolve_jobs(jobs: int | None = None) -> int:
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("MPVESD_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pmap(fn: Callable, args: Sequence, jobs: int) -> list:
    if jobs <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        chunk = max(1, len(args) // (4 * jobs))
        return list(ex.map(fn, args, chunksize=chunk))


def _family_tag(name: str, sub: str = "") -> int:
    return zlib.crc32(f"{name}:{sub}".encode())


def substream(root_seed: int, *key: int):
    """Order-independent RNG substream plus a 32-bit seed for the record."""
    ss = np.random.SeedSequence(entropy=(int(root_seed),) + tuple(int(k) for k in key))
    derived = int(ss.generate_state(1)[0])
    return np.random.default_rng(ss), derived


def sigma_diag_from_spectrum(spectrum: Sequence[tuple[float, float]],
                             M: int) -> np.ndarray:
    """Descending diagonal realizing atom weights as counts (largest remainder)."""
    pairs = sorted(((float(s), float(w)) for s, w in spectrum), key=lambda p: -p[0])
    raw = [w * M for _, w in pairs]
    counts = [int(math.floor(r)) for r in raw]
    short = M - sum(counts)
    remainders = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i],
                        reverse=True)
    for i in remainders[:short]:
        counts[i] += 1
    return np.concatenate([np.full(c, s) for (s, _), c in zip(pairs, counts) if c])


def dims_for(N: int, d: float) -> int:
    return max(1, int(round(N / d)))


def sort_records(records: list[tuple]) -> list[tuple]:
    return sorted(records, key=lambda r: (r[0], r[1], r[2], r[4]))


# ---------------------------------------------------------------------------
# conv_rate: per-sample Kolmogorov distance of the Q2 VESD to the law
# ---------------------------------------------------------------------------

def _conv_rate_trial(task, law: SolvedLaw, spectrum_pairs, entry_law: EntryLaw,
                     d: float, root_seed: int):
    N, trial = task
    M = dims_for(N, d)
    rng, derived = substream(root_seed, _family_tag("conv_rate"), N, trial)
    Y = sample_Y(rng, M, N, entry_law,
                 sigma_diag_from_spectrum(spectrum_pairs, M))
    v = rng.standard_normal(N)
    v /= np.linalg.norm(v)
    w2, V2 = gram_eigh(Y, "q2")
    dist = kolmogorov(vesd_from_spectrum(w2, (V2.T @ v) ** 2), law.cdf)
    return N, trial, derived, dist


def run_conv_rate(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    """Fresh random unit v per trial; mean distance per N; envelope slope."""
    law = solve_law(cfg.population_spectrum(), cfg.d)
    tasks = [(N, t) for N in cfg.schedule for t in range(cfg.trials)]
    fn = partial(_conv_rate_trial, law=law, spectrum_pairs=cfg.spectrum,
                 entry_law=cfg.entry_law, d=cfg.d, root_seed=cfg.seed)
    rows = _pmap(fn, tasks, resolve_jobs(jobs))
    records = [(cfg.family, N, t, sd, "ks_dist", dist) for N, t, sd, dist in rows]
    means = {}
    for N in cfg.schedule:
        vals = [dist for n2, _, _, dist in rows if n2 == N]
        means[N] = float(np.mean(vals))
        records.append((cfg.family, N, -1, cfg.seed, "ks_mean", means[N]))
    fit = None
    if len(set(cfg.schedule)) >= 2:
        fit = loglog_fit([RatePoint(N, means[N]) for N in cfg.schedule],
                         mode="upper_envelope", min_distinct=2)
        records.append((cfg.family, 0, -1, cfg.seed, "envelope_slope",
                        fit.slope))
    return ExperimentResult(records=sort_records(records),
                            extras=dict(fit=fit, means=means))


# ---------------------------------------------------------------------------
# expected_conv: distance of the repetition-averaged VESD CDF to the law
# ---------------------------------------------------------------------------

def _expected_conv_chunk(task, spectrum_pairs, entry_law: EntryLaw, d: float,
                         root_seed: int, v_seed_tag: int):
    N, rep_lo, rep_hi = task
    M = dims_for(N, d)
    v_rng, _ = substream(root_seed, v_seed_tag, N)
    v = v_rng.standard_normal(N)
    v /= np.linalg.norm(v)
    sig = sigma_diag_from_spectrum(spectrum_pairs, M)
    xs_all, ws_all = [], []
    for rep in range(rep_lo, rep_hi):
        rng, _ = substream(root_seed, _family_tag("expected_conv"), N, rep)
        w2, V2 = gram_eigh(sample_Y(rng, M, N, entry_law, sig), "q2")
        xs_all.append(w2)
        ws_all.append((V2.T @ v) ** 2)
    return N, np.concatenate(xs_all), np.concatenate(ws_all)


def run_expected_conv(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    """Average the VESD CDF over min(4N^2, cap) repetitions, v fixed per N."""
    law = solve_law(cfg.population_spectrum(), cfg.d)
    njobs = resolve_jobs(jobs)
    v_tag = _family_tag("expected_conv", "test_vector")
    records = []
    means = {}
    for N in cfg.schedule:
        R = min(4 * N * N, cfg.repetition_cap)
        chunk = max(1, R // max(1, njobs * 4)) if njobs > 1 else R
        tasks = [(N, lo, min(lo + chunk, R)) for lo in range(0, R, chunk)]
        fn = partial(_expected_conv_chunk, spectrum_pairs=cfg.spectrum,
                     entry_law=cfg.entry_law, d=cfg.d, root_seed=cfg.seed,
                     v_seed_tag=v_tag)
        parts = _pmap(fn, tasks, njobs)
        xs = np.concatenate([p[1] for p in parts])
        ws = np.concatenate([p[2] for p in parts]) / R
        dist = kolmogorov(vesd_from_spectrum(xs, ws), law.cdf)
        means[N] = dist
        records.append((cfg.family, N, -1, cfg.seed, "ks_mean_cdf", dist))
        records.append((cfg.family, N, -1, cfg.seed, "repetitions", float(R)))
    fit = None
    if len(set(cfg.schedule)) >= 2:
        fit = loglog_fit([RatePoint(N, means[N]) for N in cfg.schedule],
                         mode="mean", min_distinct=2)
        records.append((cfg.family, 0, -1, cfg.seed, "mean_slope", fit.slope))
    return ExperimentResult(records=sort_records(records),
                            extras=dict(fit=fit, means=means))


# ---------------------------------------------------------------------------
# signal_detect: coordinate VESD profile against the null MP reference
# ---------------------------------------------------------------------------

class F1cReference:
    """Limit ESD of Q1: d * F2c + (1 - d) * 1_[0,inf) as a callable CDF."""

    def __init__(self, law: SolvedLaw):
        self.law = law
        self.d = law.d

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = self.d * self.law.cdf(x_arr) + (1.0 - self.d) * (x_arr >= 0)
        return np.clip(out, 0.0, 1.0)


def _signal_detect_rep(rep, M, N, k, amp_range, root_seed):
    rng, derived = substream(root_seed, _family_tag("signal_detect"), M, rep)
    if k > 0:
        A, positions, amps = signal_plant(M, k, rng, amp_range)
    else:
        A = np.zeros((M, 0))
        positions = np.array([], dtype=int)
        amps = np.array([])
    X = sample_signal_model(
        A, N, s_law=EntryLaw("rademacher"), z_law=EntryLaw("gaussian"),
        seed=(root_seed, _family_tag("signal_detect", "data"), M, rep))
    w1, V1 = gram_eigh(X, "q1")
    return rep, derived, w1, V1, positions, amps


def run_signal_detect(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    """Plant k single-coordinate signals; profile all coordinate VESDs."""
    params = cfg.params
    M = int(params.get("M", 500))
    N = int(params.get("N", 2 * M))
    k = int(params.get("k", 10))
    amp_range = tuple(params.get("amp_range", (0.4, 0.8)))
    reps = cfg.trials
    law = solve_law(PopulationSpectrum.identity(), N / M)
    ref = F1cReference(law)
    fn = partial(_signal_detect_rep, M=M, N=N, k=k, amp_range=amp_range,
                 root_seed=cfg.seed)
    outs = _pmap(fn, list(range(reps)), resolve_jobs(jobs))
    records = []
    profiles, all_hits, planted = [], [], []
    for rep, derived, w1, V1, positions, amps in outs:
        profile = coordinate_profile(w1, V1, reference=ref)
        profiles.append(profile)
        planted.append((positions, amps))
        top = np.argsort(profile)[-max(k, 1):]
        hits = len(set(top.tolist()) & set(positions.tolist())) if k else 0
        all_hits.append(hits)
        records.append((cfg.family, M, rep, derived, "top_k_hits", float(hits)))
        records.append((cfg.family, M, rep, derived, "profile_max",
                        float(profile.max())))
        records.append((cfg.family, M, rep, derived, "profile_median",
                        float(np.median(profile))))
    if k:
        records.append((cfg.family, M, -1, cfg.seed, "reps_with_8_of_10",
                        float(sum(h >= min(8, k) for h in all_hits))))
    return ExperimentResult(records=sort_records(records),
                            extras=dict(profiles=profiles, planted=planted,
                                        hits=all_hits))


# ---------------------------------------------------------------------------
# separable: coordinate profile against the coordinate-averaged VESD
# ---------------------------------------------------------------------------

def _separable_sigma1(M, a, block, pattern, rng):
    """Diagonal of Sigma_1 = (I + a A)^2 for the block patterns."""
    n_blocks = math.ceil(M / block)
    if pattern == "alternating":
        levels = np.array([1.0 if b % 2 == 0 else -1.0 for b in range(n_blocks)])
    elif pattern == "random_levels":
        levels = rng.uniform(-1.0, 1.0, size=n_blocks)
    else:
        raise ValueError(f"unknown separable pattern {pattern!r}")
    diag_A = np.repeat(levels, block)[:M]
    return (1.0 + a * diag_A) ** 2, diag_A, levels


def _separable_rep(rep, M, N, a, block, pattern, root_seed):
    rng, derived = substream(root_seed, _family_tag("separable"), M, rep)
    sigma1, diag_A, levels = _separable_sigma1(M, a, block, pattern, rng)
    sigma2 = np.concatenate([np.ones(N // 2), 4.0 * np.ones(N - N // 2)])
    Y = sample_separable(sigma1, sigma2,
                         sample_Y(rng, M, N, EntryLaw("gaussian")))
    w1, V1 = gram_eigh(Y, "q1")
    profile = coordinate_profile(w1, V1, reference=None)
    return rep, derived, profile, diag_A, levels


def run_separable(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    """Signal profile at the configured shaping plus a matched null (a = 0)."""
    params = cfg.params
    M = int(params.get("M", 1000))
    N = int(params.get("N", 2 * M))
    a = float(params.get("a", 0.1))
    block = int(params.get("block", 200))
    pattern = params.get("pattern", "alternating")
    njobs = resolve_jobs(jobs)

    def batch(a_val):
        fn = partial(_separable_rep, M=M, N=N, a=a_val, block=block,
                     pattern=pattern, root_seed=cfg.seed)
        return _pmap(fn, list(range(cfg.trials)), njobs)

    outs = batch(a)
    null_outs = outs if a == 0.0 else batch(0.0)
    null_median = float(np.median(np.concatenate(
        [prof for _, _, prof, _, _ in null_outs])))

    records = []
    profiles, null_profiles, diag_As, level_sets = [], [], [], []
    for rep, derived, profile, diag_A, levels in outs:
        profiles.append(profile)
        diag_As.append(diag_A)
        level_sets.append(levels)
        records.append((cfg.family, M, rep, derived, "profile_max",
                        float(profile.max())))
        records.append((cfg.family, M, rep, derived, "profile_median",
                        float(np.median(profile))))
        n_blocks = math.ceil(M / block)
        means = [float(profile[b * block:(b + 1) * block].mean())
                 for b in range(n_blocks)]
        for b, mb in enumerate(means):
            records.append((cfg.family, M, rep, derived, f"block_mean_{b}", mb))
        if a != 0 and pattern == "alternating":
            plus = profile[diag_A > 0].mean()
            minus = profile[diag_A < 0].mean()
            records.append((cfg.family, M, rep, derived, "block_contrast",
                            float(abs(plus - minus))))
    for rep, derived, profile, _, _ in null_outs:
        null_profiles.append(profile)
        records.append((cfg.family, M, rep, derived, "null_profile_max",
                        float(profile.max())))
        records.append((cfg.family, M, rep, derived, "null_profile_median",
                        float(np.median(profile))))
    records.append((cfg.family, M, -1, cfg.seed, "null_median", null_median))
    return ExperimentResult(records=sort_records(records),
                            extras=dict(profiles=profiles,
                                        null_profiles=null_profiles,
                                        diag_As=diag_As, levels=level_sets,
                                        null_median=null_median))


# ---------------------------------------------------------------------------
# spiked_vesd: averaged VESD curves for the five canonical test vectors
# ---------------------------------------------------------------------------

def spiked_test_vectors(M: int) -> list[np.ndarray]:
    """The five canonical indicators, in the ones-block-first layout."""
    half = M // 2
    cuts = [(0, half), (0, M), (half, M),
            (int(0.7 * M), M), (int(0.9 * M), M)]
    vecs = []
    for lo, hi in cuts:
        v = np.zeros(M)
        v[lo:hi] = 1.0
        vecs.append(v / np.linalg.norm(v))
    return vecs


def _spiked_rep(rep, M, N, inner, sigma_diag, root_seed):
    vecs = spiked_test_vectors(M)
    parts = [[] for _ in vecs]
    rng, derived = substream(root_seed, _family_tag("spiked_vesd"), M, rep)
    for it in range(inner):
        Y = sample_Y(rng, M, N, EntryLaw("gaussian"), sigma_diag)
        w1, V1 = gram_eigh(Y, "q1")
        for iv, v in enumerate(vecs):
            weights = (V1.T @ v) ** 2
            parts[iv].append(WeightedStepCDF.from_jumps(np.maximum(w1, 0.0),
                                                        weights))
    curves = [WeightedStepCDF.average(p) for p in parts]
    return rep, derived, curves


def measured_slope(curve: WeightedStepCDF, E: float, h: float) -> float:
    return (curve(E + h) - curve(E - h)) / (2.0 * h)


def run_spiked_vesd(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    """Two-component spike setup; slope ordering at a preregistered E."""
    params = cfg.params
    M = int(params.get("M", 1000))
    N = int(params.get("N", 2 * M))
    inner = int(params.get("inner_reps", 10))
    frac_spike = float(params.get("spike_fraction", 0.1))
    spike_sigma = float(params.get("spike_sigma", 4.0))
    n_spike = int(round(frac_spike * M))
    sigma_diag = np.concatenate([np.ones(M - n_spike),
                                 np.full(n_spike, spike_sigma)])
    spectrum = PopulationSpectrum(atoms=((spike_sigma, frac_spike),
                                         (1.0, 1.0 - frac_spike)))
    law = solve_law(spectrum, N / M)
    lo, hi = law.edges[-1]
    E_star = float(params.get("E_star", lo + 0.75 * (hi - lo)))
    h = float(params.get("slope_window", 0.15 * (hi - lo)))

    fn = partial(_spiked_rep, M=M, N=N, inner=inner, sigma_diag=sigma_diag,
                 root_seed=cfg.seed)
    outs = _pmap(fn, list(range(cfg.trials)), resolve_jobs(jobs))
    records = []
    all_curves, orderings = [], []
    for rep, derived, curves in outs:
        slopes = [measured_slope(c, E_star, h) for c in curves]
        ok = all(slopes[i] < slopes[i + 1] for i in range(len(slopes) - 1))
        orderings.append(ok)
        all_curves.append(curves)
        for iv, s in enumerate(slopes, start=1):
            records.append((cfg.family, M, rep, derived, f"slope_v{iv}", float(s)))
        records.append((cfg.family, M, rep, derived, "ordering_ok", float(ok)))
    records.append((cfg.family, M, -1, cfg.seed, "ordered_reps",
                    float(sum(orderings))))
    return ExperimentResult(
        records=sort_records(records),
        extras=dict(curves=all_curves, orderings=orderings, E_star=E_star,
                    window=h, law=law))


# ---------------------------------------------------------------------------
# locallaw / rigidity: resolvent diagnostics as experiment families
# ---------------------------------------------------------------------------

def run_locallaw(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    params = cfg.params
    N = int(params.get("N", cfg.schedule[-1] if cfg.schedule else 400))
    M = dims_for(N, cfg.d)
    omega = float(params.get("omega", 0.1))
    law = solve_law(cfg.population_spectrum(), cfg.d)
    sig = sigma_diag_from_spectrum(cfg.spectrum, M)
    E = float(params.get("E", 1.0))
    etas = params.get("etas")
    if etas is None:
        etas = np.geomspace(N ** (-1.0 + omega), 1.0 / omega, 5)
    z_list = [complex(E, float(e)) for e in etas]
    X_list = []
    seeds = []
    for t in range(cfg.trials):
        rng, derived = substream(cfg.seed, _family_tag("locallaw"), N, t)
        X_list.append(sample_Y(rng, M, N, cfg.entry_law))
        seeds.append(derived)
    rows = local_law_residuals(X_list, sig, law, z_list,
                               rng=np.random.default_rng(cfg.seed))
    records = []
    for r in rows:
        records.append((cfg.family, N, r["trial"], seeds[r["trial"]],
                        f"{r['statistic']}_ratio",
                        float(r["value"] / r["envelope"])))
    return ExperimentResult(records=sort_records(records),
                            extras=dict(rows=rows, z_list=z_list))


def _rigidity_trial(trial, N, M, sigma_diag, entry_law: EntryLaw, root_seed):
    rng, derived = substream(root_seed, _family_tag("rigidity"), N, trial)
    Y = sample_Y(rng, M, N, entry_law, sigma_diag)
    lam = gram_eigh(Y, "q1", vectors=False)[::-1]
    return trial, derived, np.maximum(lam, 0.0)


def run_rigidity(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    params = cfg.params
    N = int(params.get("N", cfg.schedule[-1] if cfg.schedule else 500))
    M = dims_for(N, cfg.d)
    law = solve_law(cfg.population_spectrum(), cfg.d)
    gammas = law.classical_locations(N, M)
    K = len(gammas)
    fn = partial(_rigidity_trial, N=N, M=M,
                 sigma_diag=sigma_diag_from_spectrum(cfg.spectrum, M),
                 entry_law=cfg.entry_law, root_seed=cfg.seed)
    outs = _pmap(fn, list(range(cfg.trials)), resolve_jobs(jobs))
    records = []
    maxima = []
    for trial, derived, lam in outs:
        dev, mx = rigidity_report(lam[:K], gammas, N)
        maxima.append(mx)
        records.append((cfg.family, N, trial, derived, "max_scaled_dev", mx))
    records.append((cfg.family, N, -1, cfg.seed, "median_max_scaled_dev",
                    float(np.median(maxima))))
    return ExperimentResult(records=sort_records(records),
                            extras=dict(maxima=maxima, gammas=gammas))


#: each family's runner and the ``params`` keys it reads
_FAMILIES = {
    "conv_rate": (run_conv_rate, ()),
    "expected_conv": (run_expected_conv, ()),
    "signal_detect": (run_signal_detect, ("M", "N", "k", "amp_range")),
    "separable": (run_separable, ("M", "N", "a", "block", "pattern")),
    "spiked_vesd": (run_spiked_vesd, ("M", "N", "inner_reps", "spike_fraction",
                                      "spike_sigma", "E_star", "slope_window")),
    "locallaw": (run_locallaw, ("N", "omega", "E", "etas")),
    "rigidity": (run_rigidity, ("N",)),
}
FAMILIES = tuple(_FAMILIES)


def run(cfg: ExperimentConfig, jobs: int | None = None) -> ExperimentResult:
    return _FAMILIES[cfg.family][0](cfg, jobs=jobs)
