"""Config loading and validation for law specs and experiment runs.

Configs are JSON objects.  A config with a ``family`` key describes an
experiment; otherwise it describes a bare law (spectrum + aspect ratio).
Validation collects every violated field before raising, so one round trip
reports all problems at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from mpvesd.ensembles import ENTRY_KINDS, EntryLaw
from mpvesd.experiments import FAMILIES, ConfigError, ExperimentConfig, params_error
from mpvesd.law import PopulationSpectrum


@dataclass(frozen=True)
class LawSpec:
    spectrum: PopulationSpectrum
    d: float


def _parse_spectrum(raw, errors: list[str], key: str = "spectrum"):
    if not isinstance(raw, list) or not raw:
        errors.append(f"{key}: must be a non-empty list of {{sigma, weight}}")
        return None
    pairs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "sigma" not in entry or "weight" not in entry:
            errors.append(f"{key}[{i}]: needs sigma and weight")
            return None
        pairs.append((float(entry["sigma"]), float(entry["weight"])))
    total = sum(w for _, w in pairs)
    if abs(total - 1.0) > 1e-9:
        errors.append(f"{key}: weights sum to {total:.12g}, must be 1")
        return None
    # forgive decimal round-off below 1e-9 by exact renormalization
    pairs = [(s, w / total) for s, w in pairs]
    try:
        return tuple(pairs), PopulationSpectrum(atoms=tuple(pairs))
    except ValueError as exc:
        errors.append(f"{key}: {exc}")
        return None


def _parse_entry_law(raw, errors: list[str]):
    if raw is None:
        return EntryLaw("gaussian")
    if isinstance(raw, str):
        raw = {"kind": raw}
    kind = raw.get("kind")
    if kind not in ENTRY_KINDS:
        errors.append(f"entry_law.kind: must be one of {ENTRY_KINDS}, got {kind!r}")
        return None
    try:
        return EntryLaw(kind=kind, pareto_a=float(raw.get("a", 6.0)))
    except ValueError as exc:
        errors.append(f"entry_law: {exc}")
        return None


def load_config(path: str):
    """Parse and validate a config file; returns (object, notes).

    The object is a LawSpec or an ExperimentConfig; notes lists defaults that
    were applied for missing optional fields.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError("top level: must be a JSON object")
    errors: list[str] = []
    notes: list[str] = []

    spec = _parse_spectrum(raw.get("spectrum", [{"sigma": 1.0, "weight": 1.0}]),
                           errors)
    if "spectrum" not in raw:
        notes.append("spectrum=delta_1")
    d = raw.get("d")
    if d is None:
        d = 0.5
        notes.append("d=0.5")
    try:
        d = float(d)
        if d <= 0:
            errors.append(f"d: must be positive, got {d}")
    except (TypeError, ValueError):
        errors.append(f"d: must be a number, got {d!r}")

    if "family" not in raw:
        if errors:
            raise ConfigError("; ".join(errors))
        return LawSpec(spectrum=spec[1], d=d), notes

    family = raw["family"]
    if family not in FAMILIES:
        errors.append(f"family: must be one of {FAMILIES}, got {family!r}")
    schedule = raw.get("schedule", [])
    if not isinstance(schedule, list) or any(
            not isinstance(n, int) or n < 2 for n in schedule):
        errors.append("schedule: must be a list of integers >= 2")
    elif schedule != sorted(schedule):
        errors.append("schedule: must be ascending")
    entry_law = _parse_entry_law(raw.get("entry_law"), errors)
    if "entry_law" not in raw:
        notes.append("entry_law=gaussian")
    trials = raw.get("trials")
    if trials is None:
        trials = 10
        notes.append("trials=10")
    if not isinstance(trials, int) or trials < 1:
        errors.append(f"trials: must be a positive integer, got {trials!r}")
    cap = raw.get("repetition_cap", 2000)
    if not isinstance(cap, int) or cap < 1:
        errors.append(f"repetition_cap: must be a positive integer, got {cap!r}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        errors.append(f"seed: must be an integer, got {seed!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        errors.append(f"params: must be an object, got {type(params).__name__}")
    elif family in FAMILIES and (msg := params_error(family, params)):
        errors.append(msg)

    if errors:
        raise ConfigError("; ".join(errors))
    cfg = ExperimentConfig(
        family=family, schedule=tuple(schedule), d=d, spectrum=spec[0],
        entry_law=entry_law, trials=trials, repetition_cap=cap, seed=seed,
        out=raw.get("out"), params=params)
    return cfg, notes


def save_config(cfg, path: str):
    """Write a config back to JSON; load_config round-trips it."""
    if isinstance(cfg, ExperimentConfig):
        raw = {
            "family": cfg.family,
            "schedule": list(cfg.schedule),
            "d": cfg.d,
            "spectrum": [{"sigma": s, "weight": w} for s, w in cfg.spectrum],
            "entry_law": {"kind": cfg.entry_law.kind, "a": cfg.entry_law.pareto_a},
            "trials": cfg.trials,
            "repetition_cap": cfg.repetition_cap,
            "seed": cfg.seed,
            "params": cfg.params,
        }
        if cfg.out:
            raw["out"] = cfg.out
    else:
        raw = {
            "spectrum": [{"sigma": s, "weight": w} for s, w in cfg.spectrum.atoms],
            "d": cfg.d,
        }
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]
