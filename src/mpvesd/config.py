"""Config loading and validation for law specs and experiment runs.

Configs are JSON objects.  A config with a ``family`` key describes an
experiment and may hold only the fields that family reads (the table in
``mpvesd.experiments``); otherwise it describes a bare law and holds
``spectrum`` and ``d``.  Validation collects every violated or unknown
field before raising one ``InputError``, so one round trip reports all
problems at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from mpvesd.ensembles import ENTRY_KINDS, EntryLaw
from mpvesd.errors import InputError
from mpvesd.experiments import FAMILIES, ExperimentConfig, family_fields, \
    params_error
from mpvesd.law import PopulationSpectrum

#: the fields of a law config, one without ``family``
_LAW_FIELDS = ("spectrum", "d")


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
        try:
            pairs.append((float(entry["sigma"]), float(entry["weight"])))
        except (KeyError, TypeError, ValueError):
            errors.append(f"{key}[{i}]: needs numbers sigma and weight")
            return None
    total = sum(w for _, w in pairs)
    if abs(total - 1.0) > 1e-9:
        errors.append(f"{key}: weights sum to {total:.12g}, must be 1")
        return None
    # forgive decimal round-off below 1e-9 by exact renormalization
    pairs = [(s, w / total) for s, w in pairs]
    try:
        return tuple(pairs), PopulationSpectrum(atoms=tuple(pairs))
    except InputError as exc:
        errors.append(f"{key}: {exc}")
        return None


def _parse_entry_law(raw, errors: list[str]):
    if raw is None:
        return EntryLaw("gaussian")
    if isinstance(raw, str):
        raw = {"kind": raw}
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in ENTRY_KINDS:
        errors.append(f"entry_law.kind: must be one of {ENTRY_KINDS}, got {kind!r}")
        return None
    try:
        return EntryLaw(kind=kind, pareto_a=float(raw.get("a", 6.0)))
    except (TypeError, ValueError) as exc:
        errors.append(f"entry_law: {exc}")
        return None


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"config: cannot read {path}: {exc.strerror}") from exc


def load_config(path: str):
    """Parse and validate a config file; returns (object, notes).

    The object is a LawSpec or an ExperimentConfig; notes lists defaults that
    were applied for missing optional fields.
    """
    try:
        raw = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict):
    if not isinstance(raw, dict):
        raise InputError("top level: must be a JSON object")
    errors: list[str] = []
    notes: list[str] = []
    family = raw.get("family")
    if "family" not in raw:
        reads, what = _LAW_FIELDS, "a law config"
    elif family in FAMILIES:
        reads, what = family_fields(family), f"family {family!r}"
    else:
        errors.append(f"family: must be one of {FAMILIES}, got {family!r}")
        reads, what = tuple(raw), None      # still check every field given
    unknown = sorted(set(raw) - set(reads) - {"family"})
    if what and unknown:
        errors.append(f"unknown fields {unknown} for {what}, which reads "
                      f"{list(reads)}")

    def get(key, default, note=None):
        """The field if the config reads it and gives it, else the default."""
        if key in reads and raw.get(key) is not None:
            return raw[key]
        if note and key in reads:
            notes.append(note)
        return default

    spec = _parse_spectrum(get("spectrum", [{"sigma": 1.0, "weight": 1.0}],
                               "spectrum=delta_1"), errors)
    d = get("d", 0.5, "d=0.5")
    try:
        d = float(d)
        if d <= 0:
            errors.append(f"d: must be positive, got {d}")
    except (TypeError, ValueError):
        errors.append(f"d: must be a number, got {d!r}")

    if "family" not in raw:
        if errors:
            raise InputError("; ".join(errors))
        return LawSpec(spectrum=spec[1], d=d), notes

    schedule = get("schedule", [])
    if not isinstance(schedule, list) or any(
            not isinstance(n, int) or n < 2 for n in schedule):
        errors.append("schedule: must be a list of integers >= 2")
    elif schedule != sorted(schedule):
        errors.append("schedule: must be ascending")
    entry_law = _parse_entry_law(get("entry_law", None, "entry_law=gaussian"),
                                 errors)
    trials = get("trials", 10, "trials=10")
    if not isinstance(trials, int) or trials < 1:
        errors.append(f"trials: must be a positive integer, got {trials!r}")
    cap = get("repetition_cap", 2000)
    if not isinstance(cap, int) or cap < 1:
        errors.append(f"repetition_cap: must be a positive integer, got {cap!r}")
    seed = get("seed", 0)
    if not isinstance(seed, int):
        errors.append(f"seed: must be an integer, got {seed!r}")
    params = get("params", {})
    if not isinstance(params, dict):
        errors.append(f"params: must be an object, got {type(params).__name__}")
    elif family in FAMILIES and (msg := params_error(family, params)):
        errors.append(msg)

    if errors:
        raise InputError("; ".join(errors))
    cfg = ExperimentConfig(
        family=family, schedule=tuple(schedule), d=d, spectrum=spec[0],
        entry_law=entry_law, trials=trials, repetition_cap=cap, seed=seed,
        params=params)
    return cfg, notes


def _spectrum_json(atoms) -> list[dict]:
    return [{"sigma": s, "weight": w} for s, w in atoms]


def save_config(cfg, path: str):
    """Write a config back to JSON, with only the fields its family reads;
    load_config round-trips it."""
    if isinstance(cfg, ExperimentConfig):
        values = {
            "schedule": list(cfg.schedule),
            "d": cfg.d,
            "spectrum": _spectrum_json(cfg.spectrum),
            "entry_law": {"kind": cfg.entry_law.kind, "a": cfg.entry_law.pareto_a},
            "trials": cfg.trials,
            "repetition_cap": cfg.repetition_cap,
            "seed": cfg.seed,
            "params": cfg.params,
        }
        raw = {"family": cfg.family,
               **{k: values[k] for k in family_fields(cfg.family)}}
    else:
        raw = {"spectrum": _spectrum_json(cfg.spectrum.atoms), "d": cfg.d}
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(path: str) -> str:
    return hashlib.sha256(_read(path)).hexdigest()[:12]
