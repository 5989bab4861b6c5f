"""Command-line entry point: law queries, sampling, VESD, experiments, lab.

Outputs are written atomically (temp file + rename) so failed runs leave no
partial files; every run logs the config hash, root seed, and package
version, and prints a one-line summary to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

import mpvesd
from mpvesd import experiments as exps
from mpvesd.config import ConfigError, LawSpec, config_hash, load_config
from mpvesd.ensembles import ENTRY_KINDS, EntryLaw, gram_eigh, sample_X, \
    sample_Y
from mpvesd.experiments import ExperimentConfig, sigma_diag_from_spectrum
from mpvesd.law import NonConvergence, QuantileOutOfRange, solve_law, \
    solve_m2c
from mpvesd.resolvent import verify_resolvent_identities
from mpvesd.vesd import kolmogorov, vesd_from_spectrum

log = logging.getLogger("mpvesd")


def _write_rows(path: str, header: tuple[str, ...], rows, fmt: str = "%.12g"):
    """Atomic CSV write: temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                cells = []
                for c in row:
                    if isinstance(c, float):
                        cells.append(fmt % c)
                    else:
                        cells.append(str(c))
                fh.write(",".join(cells) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(rows)


def _summary(rows: int, out: str, t0: float, notes=()):
    extra = f" (defaults: {', '.join(notes)})" if notes else ""
    print(f"wrote {rows} rows to {out} in {time.monotonic() - t0:.2f}s{extra}")


def _law_from_config(args):
    obj, notes = load_config(args.config)
    if isinstance(obj, LawSpec):
        return obj.spectrum, obj.d, notes
    return obj.population_spectrum(), obj.d, notes


def _cmd_law(args) -> int:
    t0 = time.monotonic()
    spectrum, d, notes = _law_from_config(args)
    if args.law_cmd == "solve":
        Es = [float(x) for x in args.E.split(",")]
        rows = []
        for E in Es:
            m = solve_m2c(spectrum, d, complex(E, args.eta))
            rows.append((E, args.eta, m.real, m.imag))
        n = _write_rows(args.out, ("E", "eta", "re_m", "im_m"), rows)
        _summary(n, args.out, t0, notes)
        return 0
    law = solve_law(spectrum, d)
    if args.law_cmd == "density":
        lo = args.emin if args.emin is not None else 0.9 * law.edges[0][0]
        hi = args.emax if args.emax is not None else 1.05 * law.top_edge
        grid = np.linspace(lo, hi, args.n)
        rho = law.density(grid)
        rows = list(zip(grid.tolist(), np.asarray(rho).tolist()))
        n = _write_rows(args.out, ("E", "value"), rows, fmt="%.6g")
    elif args.law_cmd == "edges":
        rows = [("component", lo, hi) for lo, hi in law.edges]
        rows.append(("zero_atom", law.zero_atom, law.zero_atom))
        n = _write_rows(args.out, ("kind", "a_lo", "a_hi"), rows)
    elif args.law_cmd == "gamma":
        N = args.N
        M = args.M if args.M else None
        gammas = law.classical_locations(N, M)
        rows = [(j + 1, g) for j, g in enumerate(gammas.tolist())]
        n = _write_rows(args.out, ("j", "gamma"), rows)
    elif args.law_cmd == "regularity":
        rep = law.edge_regularity(args.tau)
        rows = [(e.edge, int(e.location_ok), e.separation, int(e.separation_ok),
                 e.stability_margin, int(e.stability_ok)) for e in rep.edges]
        n = _write_rows(args.out, ("edge", "location_ok", "separation",
                                   "separation_ok", "stability_margin",
                                   "stability_ok"), rows)
    else:  # pragma: no cover
        raise ConfigError(f"unknown law subcommand {args.law_cmd!r}")
    _summary(n, args.out, t0, notes)
    return 0


def _test_vector(spec: str, dim: int, seed: int) -> np.ndarray:
    if spec == "random":
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)
    if spec.startswith("e"):
        idx = int(spec[1:])
        if not 0 <= idx < dim:
            raise ConfigError(f"vector: coordinate {idx} out of range for dim {dim}")
        v = np.zeros(dim)
        v[idx] = 1.0
        return v
    raise ConfigError(f"vector: expected 'random' or 'e<i>', got {spec!r}")


def _sampled_spectrum(args, spectrum, d, vectors=True):
    M = args.M if args.M else exps.dims_for(args.N, d)
    sig = sigma_diag_from_spectrum(spectrum.atoms, M)
    Y = sample_Y(np.random.default_rng(args.seed), M, args.N,
                 EntryLaw(args.law), sig)
    return gram_eigh(Y, args.side, vectors)


def _sampled_vesd(args, spectrum, d):
    lam, basis = _sampled_spectrum(args, spectrum, d)
    v = _test_vector(args.vector, len(lam), args.seed + 1)
    return vesd_from_spectrum(lam, (basis.T @ v) ** 2)


def _cmd_sample(args) -> int:
    t0 = time.monotonic()
    spectrum, d, notes = _law_from_config(args)
    lam = _sampled_spectrum(args, spectrum, d, vectors=False)[::-1]
    rows = [(i, float(v)) for i, v in enumerate(lam.tolist())]
    n = _write_rows(args.out, ("index", "lambda"), rows)
    _summary(n, args.out, t0, notes)
    return 0


def _cmd_vesd(args) -> int:
    t0 = time.monotonic()
    spectrum, d, notes = _law_from_config(args)
    F = _sampled_vesd(args, spectrum, d)
    cum = F.cumulative
    rows = list(zip(F.xs.tolist(), cum.tolist()))
    n = _write_rows(args.out, ("x", "cumulative"), rows, fmt="%.6g")
    _summary(n, args.out, t0, notes)
    return 0


def _cmd_dist(args) -> int:
    t0 = time.monotonic()
    spectrum, d, notes = _law_from_config(args)
    law = solve_law(spectrum, d)
    F = _sampled_vesd(args, spectrum, d)
    ref = law.cdf if args.side == "q2" else exps.F1cReference(law)
    dist = kolmogorov(F, ref)
    rows = [("kolmogorov", dist)]
    n = _write_rows(args.out, ("statistic", "value"), rows)
    _summary(n, args.out, t0, notes)
    return 0


def _cmd_exp(args) -> int:
    t0 = time.monotonic()
    obj, notes = load_config(args.config)
    if isinstance(obj, LawSpec):
        raise ConfigError("family: experiment config requires a family key")
    cfg = obj
    if args.family != cfg.family:
        raise ConfigError(
            f"family: config says {cfg.family!r} but command says {args.family!r}")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    res = exps.run(cfg, jobs=args.jobs)
    n = _write_rows(args.out, exps.RECORD_HEADER, res.records)
    _summary(n, args.out, t0, notes)
    return 0


def _cmd_lab(args) -> int:
    t0 = time.monotonic()
    if args.lab_cmd == "identities":
        rows = []
        worst = 0.0
        for trial in range(args.trials):
            X = sample_X(args.M, args.N, EntryLaw("gaussian"),
                         (args.seed, trial))
            r = verify_resolvent_identities(
                X, None, complex(args.E, args.eta),
                rng=np.random.default_rng((args.seed, trial)))
            worst = max(worst, r)
            rows.append((trial, r))
        n = _write_rows(args.out, ("trial", "max_residual"), rows)
        _summary(n, args.out, t0)
        print(f"max residual over {args.trials} trials: {worst:.3e}")
        return 0
    spectrum, d, notes = _law_from_config(args)
    cfg = ExperimentConfig(family=args.lab_cmd, d=d, spectrum=spectrum.atoms,
                           trials=args.trials, seed=args.seed,
                           params={"N": args.N})
    res = exps.run(cfg, jobs=args.jobs)
    if args.lab_cmd == "locallaw":
        header = ("E", "eta", "statistic", "value", "envelope")
        rows = [tuple(r[k] for k in header) for r in res.extras["rows"]]
    else:
        header, rows = exps.RECORD_HEADER, res.records
    n = _write_rows(args.out, header, rows)
    _summary(n, args.out, t0, notes)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mpvesd",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True, out=True):
        if config:
            sp.add_argument("--config", required=True, help="JSON config path")
        if out:
            sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--jobs", type=int, default=None)

    law = sub.add_parser("law", help="solved-law queries")
    law_sub = law.add_subparsers(dest="law_cmd", required=True)
    sp = law_sub.add_parser("solve")
    common(sp)
    sp.add_argument("--E", required=True, help="comma list of real parts")
    sp.add_argument("--eta", type=float, default=0.5)
    sp = law_sub.add_parser("density")
    common(sp)
    sp.add_argument("--emin", type=float, default=None)
    sp.add_argument("--emax", type=float, default=None)
    sp.add_argument("--n", type=int, default=400)
    sp = law_sub.add_parser("edges")
    common(sp)
    sp = law_sub.add_parser("gamma")
    common(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--M", type=int, default=None)
    sp = law_sub.add_parser("regularity")
    common(sp)
    sp.add_argument("--tau", type=float, default=None)

    def sampling(name, desc, side):
        sp = sub.add_parser(name, help=desc)
        common(sp)
        sp.add_argument("--M", type=int, default=None)
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--law", choices=ENTRY_KINDS, default="gaussian")
        sp.add_argument("--side", choices=["q1", "q2"], default=side)
        return sp

    sampling("sample", "dump sampled eigenvalues", "q1")
    for name, desc in (("vesd", "VESD curve for a test vector"),
                       ("dist", "Kolmogorov distance of a sampled VESD")):
        sampling(name, desc, "q2").add_argument("--vector", default="random")

    sp = sub.add_parser("exp", help="run an experiment family")
    sp.add_argument("family", choices=list(exps.FAMILIES))
    common(sp)

    lab = sub.add_parser("lab", help="resolvent diagnostics")
    lab_sub = lab.add_subparsers(dest="lab_cmd", required=True)
    sp = lab_sub.add_parser("identities")
    common(sp, config=False)
    sp.add_argument("--M", type=int, default=10)
    sp.add_argument("--N", type=int, default=10)
    sp.add_argument("--E", type=float, default=1.0)
    sp.add_argument("--eta", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=10)
    sp.set_defaults(config=None)
    for name, N, trials in (("locallaw", 200, 10), ("rigidity", 500, 50)):
        sp = lab_sub.add_parser(name)
        common(sp)
        sp.add_argument("--N", type=int, default=N)
        sp.add_argument("--trials", type=int, default=trials)
    return p


_HANDLERS = {
    "law": _cmd_law,
    "sample": _cmd_sample,
    "vesd": _cmd_vesd,
    "dist": _cmd_dist,
    "exp": _cmd_exp,
    "lab": _cmd_lab,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = 0
    if getattr(args, "config", None):
        log.info("config=%s hash=%s seed=%s version=%s", args.config,
                 config_hash(args.config), args.seed, mpvesd.__version__)
    else:
        log.info("seed=%s version=%s", args.seed, mpvesd.__version__)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuantileOutOfRange as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, FloatingPointError) as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
