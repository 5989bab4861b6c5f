"""The four workloads: inputs made from the seed, calls into mpvesd, checks.

Each workload makes its inputs from the benchmark seed in ``__init__``,
parses them with ``config.parse_config`` in ``setup``, makes only program
calls in ``round`` (the part the benchmark times), and compares a round's
outputs with ``oracle`` values and with properties the method must have in
``check``.  Every round runs the same operations, so every run attempts
the same checks in whole rounds.

Program functions are looked up on their modules at call time, so the
tracer's patches see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracle
from mpvesd import config, experiments, law


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _spectrum_json(atoms) -> list[dict]:
    return [{"sigma": float(s), "weight": float(w)} for s, w in atoms]


def _n_atoms(k: int, lo: float, hi: float):
    return tuple((float(s), 1.0 / k) for s in np.geomspace(lo, hi, k))


class Workload:
    name = ""
    #: check names that fail because of a fault the README names
    known_faults: frozenset[str] = frozenset()

    def setup(self):
        raise NotImplementedError

    def round(self, jobs):
        raise NotImplementedError

    def check(self, out) -> list[Check]:
        raise NotImplementedError

    def expected_counts(self) -> dict[str, int]:
        """Per-round totals of traced counters, derived from the inputs."""
        return {}


# ---------------------------------------------------------------------------
# law_solve
# ---------------------------------------------------------------------------

#: (name, atoms as (sigma, weight), d)
LAW_CASES = (
    ("delta1_d0.5", ((1.0, 1.0),), 0.5),
    ("delta1_d1", ((1.0, 1.0),), 1.0),
    ("delta1_d2", ((1.0, 1.0),), 2.0),
    ("two_atom_d0.5", ((1.0, 0.5), (4.0, 0.5)), 0.5),
    ("spiked_d2", ((1.0, 0.9), (4.0, 0.1)), 2.0),
    ("atoms20_d4", _n_atoms(20, 0.2, 10.0), 4.0),
    ("atoms100_d2", _n_atoms(100, 0.5, 5.0), 2.0),
)

EDGE_TOL_DELTA1 = 1e-6      # absolute, against the closed form
EDGE_RTOL_ATOMS = 1e-7      # relative, against the bracketed critical values
MASS_TOL = 1e-6
CDF_TOL = 1e-5
QUANTILE_TOL = 1e-8
M2C_TOL = 1e-9


@dataclass
class _LawCase:
    name: str
    atoms: tuple
    d: float
    raw: dict
    x: np.ndarray               # CDF query points
    qs: np.ndarray              # quantile levels
    N: int                      # classical locations for this N
    zs: list                    # off-axis points for the m(z) check
    spec: object = None


class LawSolve(Workload):
    name = "law_solve"
    known_faults = frozenset({
        "delta1_d1.edges", "delta1_d1.mass", "delta1_d1.cdf",
        "atoms20_d4.edges", "atoms100_d2.edges",
    })

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = []
        for name, atoms, d in LAW_CASES:
            reach = max(s for s, _ in atoms) * (1.0 + d ** -0.5) ** 2
            cont = min(1.0, 1.0 / d)
            z0 = oracle.mp_zero_atom(d)
            E = rng.uniform(0.05, 1.2 * reach, 3)
            eta = np.exp(rng.uniform(math.log(1e-3), 0.0, 3))
            self.cases.append(_LawCase(
                name=name, atoms=atoms, d=d,
                raw={"spectrum": _spectrum_json(atoms), "d": d},
                x=np.linspace(-0.1 * reach, 1.1 * reach, 64),
                qs=np.sort(rng.uniform(z0 + 0.02 * cont, z0 + 0.98 * cont, 3)),
                # N/d whole: a half-integer N/d rounds M up past the law's
                # nonzero mass and puts the last location at 0 (CHANGES.md)
                N=4 * int(rng.integers(25, 101)),
                zs=[complex(a, b) for a, b in zip(E, eta)]))

    def setup(self):
        for case in self.cases:
            case.spec, _ = config.parse_config(case.raw)

    def round(self, jobs):
        out = []
        for case in self.cases:
            solved = law.solve_law(case.spec.spectrum, case.spec.d)
            out.append((solved, solved.cdf(case.x),
                        np.array([solved.quantile(q) for q in case.qs]),
                        solved.classical_locations(case.N)))
        return out

    def check(self, out) -> list[Check]:
        checks = []
        for case, (solved, F, qx, gammas) in zip(self.cases, out):
            def add(what, ok, detail, _n=case.name):
                checks.append(Check(f"{_n}.{what}", bool(ok), detail))

            single = len(case.atoms) == 1
            got = np.asarray(solved.edges, dtype=float)
            if single:
                want = np.array([oracle.mp_edges(case.d)])
                err = (np.max(np.abs(got - want)) if got.shape == want.shape
                       else math.inf)
                add("edges", err <= EDGE_TOL_DELTA1,
                    f"max |edge - closed form| {err:.3e}")
            else:
                want = np.array(oracle.critical_edges(case.atoms, case.d))
                err = (np.max(np.abs(got - want) / np.maximum(1.0, want))
                       if got.shape == want.shape else math.inf)
                add("edges", err <= EDGE_RTOL_ATOMS,
                    f"{len(got)} vs {len(want)} components, "
                    f"max relative edge error {err:.3e}")

            z0 = oracle.mp_zero_atom(case.d)
            add("zero_atom", solved.zero_atom == z0,
                f"{solved.zero_atom!r} vs {z0!r}")
            add("mass", abs(solved.total_mass - 1.0) <= MASS_TOL,
                f"total mass {solved.total_mass:.9f}")

            if single:
                err = float(np.max(np.abs(F - oracle.mp_cdf(case.x, case.d))))
                add("cdf", err <= CDF_TOL, f"max |F - quadrature| {err:.3e}")
            else:
                ok = (np.all(np.diff(F) >= 0) and np.all(F[case.x < 0] == 0)
                      and F.max() <= 1.0 + 1e-9)
                add("cdf", ok, "nondecreasing, 0 below 0, at most 1")

            err = float(np.max(np.abs(solved.cdf(qx) - case.qs)))
            add("quantile", err <= QUANTILE_TOL and np.all(np.diff(qx) >= 0),
                f"max |F(quantile(q)) - q| {err:.3e}")

            lo, hi = solved.edges[0][0], solved.edges[-1][1]
            inside = np.zeros(len(gammas), dtype=bool)
            for a, b in solved.edges:
                inside |= (gammas >= a - 1e-9) & (gammas <= b + 1e-9)
            add("classical_locations",
                np.all(np.diff(gammas) <= 0) and inside.all(),
                f"{len(gammas)} locations in [{lo:.6g}, {hi:.6g}], "
                f"{int((~inside).sum())} outside the support")

            worst = 0.0
            for z in case.zs:
                m = solved.m2c(z)
                if single:
                    worst = max(worst, abs(m - oracle.quadratic_root(z, case.d)))
                elif len(case.atoms) <= 4:
                    worst = max(worst, abs(
                        m - oracle.cleared_poly_root(z, case.d, case.atoms)))
                else:
                    res = oracle.equation_residual(m, z, case.d, case.atoms)
                    worst = max(worst, res / max(1.0, abs(z)),
                                math.inf if m.imag <= 0 else 0.0)
            add("m2c", worst <= M2C_TOL, f"worst m(z) error {worst:.3e}")
        return checks

    def expected_counts(self):
        return {"law.solve_law_calls": len(self.cases),
                "ensembles.entries_sampled": 0,
                "experiments.eigh_calls": 0,
                "resolvent.build_resolvent_calls": 0}


# ---------------------------------------------------------------------------
# experiment families, through config.parse_config -> experiments.run
# ---------------------------------------------------------------------------

class _Family(Workload):
    raw: dict

    def setup(self):
        self.cfg, _ = config.parse_config(self.raw)

    def round(self, jobs):
        return experiments.run(self.cfg, jobs=jobs)

    @staticmethod
    def _stats(res) -> dict:
        return {(r[1], r[2], r[4]): r[5] for r in res.records}


class ExpectedVesd(_Family):
    name = "expected_vesd"
    SCHEDULE = (50, 100, 200, 400)
    CAP = 100
    #: ks_mean_cdf(N) <= KS_NOISE / sqrt(N R) + KS_RATE / N: the paper's
    #: N^{-1} rate for the expected VESD plus the Monte Carlo error of
    #: averaging R step CDFs.  Over 20 seeds at CAP the scaled noise
    #: ks * sqrt(N R) stayed within [0.66, 2.4].
    KS_NOISE, KS_RATE = 4.0, 1.0

    def __init__(self, seed: int):
        self.raw = {
            "family": "expected_conv", "schedule": list(self.SCHEDULE),
            "d": 0.5, "spectrum": [{"sigma": 1.0, "weight": 1.0}],
            "entry_law": {"kind": "pareto_symmetric", "a": 6.0},
            "repetition_cap": self.CAP,
            "seed": _seed(np.random.default_rng(seed)),
        }

    def _reps(self, N):
        return min(4 * N * N, self.CAP)

    def check(self, res) -> list[Check]:
        stats = self._stats(res)
        checks = []
        for N in self.SCHEDULE:
            R = self._reps(N)
            ks = stats.get((N, -1, "ks_mean_cdf"), math.nan)
            bound = self.KS_NOISE / math.sqrt(N * R) + self.KS_RATE / N
            checks.append(Check(f"N{N}.ks_mean_cdf", 0.0 < ks < bound,
                                f"{ks!r} in (0, {bound:.4g})"))
            reps = stats.get((N, -1, "repetitions"), math.nan)
            checks.append(Check(f"N{N}.repetitions", reps == R,
                                f"{reps!r} vs {R}"))
        slope = stats.get((0, -1, "mean_slope"), math.nan)
        checks.append(Check("mean_slope", math.isfinite(slope), f"{slope!r}"))
        return checks

    def expected_counts(self):
        d = self.raw["d"]
        return {
            "law.solve_law_calls": 1,
            "ensembles.entries_sampled": sum(
                self._reps(N) * experiments.dims_for(N, d) * N
                for N in self.SCHEDULE),
            "experiments.eigh_calls": sum(self._reps(N) for N in self.SCHEDULE),
            "resolvent.build_resolvent_calls": 0,
        }


class SpikedVesd(_Family):
    name = "spiked_vesd"
    M, TRIALS, INNER = 1000, 10, 2
    SPECTRUM = ((4.0, 0.1), (1.0, 0.9))     # the family's defaults, d = N/M = 2

    def __init__(self, seed: int):
        self.raw = {"family": "spiked_vesd", "trials": self.TRIALS,
                    "seed": _seed(np.random.default_rng(seed)),
                    "params": {"M": self.M, "inner_reps": self.INNER}}

    def check(self, res) -> list[Check]:
        stats = self._stats(res)
        checks = []
        for t in range(self.TRIALS):
            slopes = [stats.get((self.M, t, f"slope_v{i}"), math.nan)
                      for i in range(1, 6)]
            checks.append(Check(f"trial{t}.slopes",
                                all(math.isfinite(s) and s > 0 for s in slopes),
                                f"{slopes}"))
        ordered = stats.get((self.M, -1, "ordered_reps"), math.nan)
        need = self.TRIALS - 1
        checks.append(Check("ordered_reps", ordered >= need,
                            f"{ordered} of {self.TRIALS}, need {need}"))
        lo, hi = oracle.critical_edges(self.SPECTRUM, 2.0)[-1]
        E = res.extras["E_star"]
        checks.append(Check("E_star", lo < E < hi,
                            f"E* {E:.6g} in top component [{lo:.6g}, {hi:.6g}]"))
        return checks

    def expected_counts(self):
        reps = self.TRIALS * self.INNER
        return {"law.solve_law_calls": 1,
                "ensembles.entries_sampled": reps * self.M * 2 * self.M,
                "experiments.eigh_calls": reps,
                "resolvent.build_resolvent_calls": 0}


class LocalLaw(_Family):
    name = "local_law"
    N, D, TRIALS, N_ETAS = 400, 2.0, 6, 5
    #: value/envelope < N^{1/2}: the local laws bound each statistic by
    #: N^eps times its envelope; over 42 seeds the largest ratio was 7.6,
    #: reached by the same-block form at the smallest eta
    RATIO_BOUND = 400 ** 0.5

    def __init__(self, seed: int):
        self.raw = {"family": "locallaw", "d": self.D, "trials": self.TRIALS,
                    "seed": _seed(np.random.default_rng(seed)),
                    "params": {"N": self.N}}

    def check(self, res) -> list[Check]:
        ratios: dict[str, list[float]] = {}
        for r in res.extras["rows"]:
            ratios.setdefault(r["statistic"], []).append(
                r["value"] / r["envelope"])
        checks = []
        for stat, vals in sorted(ratios.items()):
            top = max(vals)
            ok = all(math.isfinite(v) for v in vals) and top < self.RATIO_BOUND
            checks.append(Check(f"{stat}.ratio", ok,
                                f"max ratio {top:.4g} < {self.RATIO_BOUND:.4g}"))
        spectrum = self.cfg.population_spectrum()
        for i, z in enumerate(res.extras["z_list"]):
            m = law.solve_m2c(spectrum, self.D, z)
            err = abs(m - oracle.quadratic_root(z, self.D))
            checks.append(Check(f"z{i}.m2c", err <= M2C_TOL,
                                f"|m - quadratic root| {err:.3e} at z={z}"))
        return checks

    def expected_counts(self):
        M = experiments.dims_for(self.N, self.D)
        return {"law.solve_law_calls": 1,
                "ensembles.entries_sampled": self.TRIALS * M * self.N,
                "experiments.eigh_calls": 0,
                "resolvent.build_resolvent_calls": self.TRIALS * self.N_ETAS}


WORKLOADS = {w.name: w for w in (LawSolve, ExpectedVesd, SpikedVesd, LocalLaw)}
