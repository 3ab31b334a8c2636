"""Run configuration: a strict tree with stable hashing.

Unknown keys anywhere in the tree raise ConfigError instead of being
silently dropped; a typo in a config file should never turn into a
default value, and a leaf takes only values of its default's type (an
int, a finite number, a list or a string).  The kind sections
(``KIND_SECTIONS``) are mappings of their kind and exactly that kind's
keys, the defaults filled from one table per section; the other
sections are dataclasses.  The short
sha256 hash of the canonical dict form is stamped into every output
artifact next to the master seed.
"""

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hydro import make_bump, make_linear, profile_zero
from .lattice import DomainSpec
from .potential import STOCK_KINDS

# shape -> its keys and defaults; empty center: origin, empty sides: unit cube
DOMAIN_SHAPES = {
    "box": {"center": (), "sides": ()},
    "ball": {"center": (), "radius": 0.45},
}

# kind -> its keys and defaults; empty slope: flat, empty center: origin
PROFILE_KINDS = {
    "zero": {},
    "linear": {"slope": ()},
    "bump": {"amp": 0.4, "radius": 0.3, "center": ()},
}

# kind section -> (its kind key, default kind, kind -> its keys and defaults)
KIND_SECTIONS = {
    "potential": ("kind", "gaussian", {k: keys for k, (_, keys) in STOCK_KINDS.items()}),
    "domain": ("shape", "box", DOMAIN_SHAPES),
    "boundary": ("kind", "zero", PROFILE_KINDS),
    "initial": ("kind", "zero", PROFILE_KINDS),
}


def _kind_section(name: str, data: dict) -> dict:
    """Kind section ``name`` from ``data``: its kind, the section's default
    kind when none is given, and that kind's keys with defaults filled."""
    key, default, table = KIND_SECTIONS[name]
    kind = data.get(key, default)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {name} {key} {kind!r}, expected one of {list(table)}")
    unknown = sorted(set(data) - {key, *table[kind]})
    if unknown:
        raise ConfigError(f"{name} {key} '{kind}' takes no keys {unknown}")
    given = {k: _leaf(f"{name}.{k}", v, table[kind][k]) for k, v in data.items() if k != key}
    return {key: kind} | table[kind] | given


@dataclass
class LatticeConfig:
    N: int = 16
    d: int = 2
    tilt: tuple = ()            # empty -> zero tilt


@dataclass
class SamplerConfig:
    sweeps: int = 20000
    step: float = 0.0           # 0 -> auto-tuned
    burn_in: int = -1           # -1 -> adaptive


@dataclass
class SurfaceConfig:
    nodes: int = 8
    sweeps: int = 12000
    grid: tuple = (-1.0, 1.0, 5)   # per-axis lo, hi, count for tables


@dataclass
class DynamicsConfig:
    dt: float = 0.0             # 0 -> 0.9 * stability cap
    t_end: float = 0.05         # macroscopic time


@dataclass
class PdeConfig:
    spacing: float = 0.015625
    t_end: float = 0.05
    flux: str = "gaussian"      # gaussian | path to a surface table csv


@dataclass
class HydroConfig:
    scales: tuple = (8, 16, 32)
    times: tuple = (0.05,)
    realizations: int = 32


@dataclass
class DlrConfig:
    window: int = 1
    n_samples: int = 100000
    chains: int = 100
    thin: int = 5
    burn: int = 2000
    bins: int = 60


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: str = "out"
    workers: int = 0
    potential: dict = field(default_factory=lambda: _kind_section("potential", {}))
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    domain: dict = field(default_factory=lambda: _kind_section("domain", {}))
    boundary: dict = field(default_factory=lambda: _kind_section("boundary", {}))
    initial: dict = field(default_factory=lambda: _kind_section("initial", {}))
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    pde: PdeConfig = field(default_factory=PdeConfig)
    hydro: HydroConfig = field(default_factory=HydroConfig)
    dlr: DlrConfig = field(default_factory=DlrConfig)


# the type of a default -> the types its key takes, named; a bool is no number
TAKES = {int: ((int,), "an int"), float: ((int, float), "a number"),
         tuple: ((list, tuple), "a list"), str: ((str,), "a string")}


def _leaf(key: str, value, default):
    """``value`` of the dotted ``key`` frozen, if the type of ``default`` takes it.

    A number must be finite: NaN and infinities are refused.  Element j of
    a list is checked the same way, as ``key[j]``, against the default's
    element j (its last one past the end), or against a number where the
    default is empty."""
    types, name = TAKES[type(default)]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config key '{key}' takes {name}, got {type(value).__name__}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"config key '{key}' takes a finite number, got {value}")
    if not isinstance(default, tuple):
        return value
    default = default or (0.0,)
    return tuple(_leaf(f"{key}[{j}]", v, default[min(j, len(default) - 1)])
                 for j, v in enumerate(value))


def _check_keys(cls, data, prefix=""):
    """Refuse keys of ``data`` that are no field of the dataclass ``cls``."""
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError("no config key " + ", ".join(f"'{prefix}{k}'" for k in unknown))


def from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(RunConfig, data)
    kwargs, defaults = {}, RunConfig()
    for key, value in data.items():
        default = getattr(defaults, key)
        if type(default) in TAKES:
            if isinstance(value, dict):
                raise ConfigError(f"'{key}' is a config value, not a section")
            kwargs[key] = _leaf(key, value, default)
        elif not isinstance(value, dict):
            raise ConfigError(f"section '{key}' must be a mapping")
        elif key in KIND_SECTIONS:
            kwargs[key] = _kind_section(key, value)
        else:
            _check_keys(type(default), value, key + ".")
            kwargs[key] = dataclasses.replace(default, **{
                k: _leaf(f"{key}.{k}", v, getattr(default, k)) for k, v in value.items()})
    return RunConfig(**kwargs)


def to_dict(cfg: RunConfig) -> dict:
    def plain(value):
        if dataclasses.is_dataclass(value):
            value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    return plain(cfg)


def config_hash(cfg: RunConfig, **extra) -> str:
    """Short digest of the config, and of ``extra`` run inputs outside it."""
    import hashlib  # here, not at import: most runs never hash a config

    canon = json.dumps(to_dict(cfg) | extra, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def apply_overrides(data: dict, overrides) -> RunConfig:
    """The config of the raw config data ``data`` with 'dotted.path=value'
    strings applied; values parse as JSON or str.  ``data`` is unchanged,
    and the result is validated once, so the order of overrides within a
    section does not matter."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = {k: dict(v) if isinstance(v, dict) else v for k, v in data.items()}
    for item in overrides or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override '{item}' is not key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        section, _, leaf = key.rpartition(".")
        node = data.setdefault(section, {}) if section else data
        if not isinstance(node, dict):
            raise ConfigError(f"'{section}' is a config value, not a section")
        node[leaf] = value
    return from_dict(data)


# -- builders -------------------------------------------------------------

def build_domain(cfg: dict, d: int) -> DomainSpec:
    center = tuple(cfg["center"]) or (0.0,) * d
    if len(center) != d:
        raise ConfigError(f"domain center has {len(center)} coords, expected {d}")
    if cfg["shape"] == "box":
        return DomainSpec.box(center=center, sides=tuple(cfg["sides"]) or (1.0,) * d)
    return DomainSpec.ball(center=center, radius=cfg["radius"])


def build_profile(cfg: dict, d: int):
    if cfg["kind"] == "zero":
        return profile_zero
    if cfg["kind"] == "linear":
        slope = tuple(cfg["slope"]) or (0.0,) * d
        if len(slope) != d:
            raise ConfigError(f"profile slope has {len(slope)} coords, expected {d}")
        return make_linear(slope)
    return make_bump(amp=cfg["amp"], radius=cfg["radius"], center=tuple(cfg["center"]) or None)


def tilt_vector(cfg: LatticeConfig) -> np.ndarray:
    u = np.asarray(cfg.tilt or (0.0,) * cfg.d, dtype=float)
    if u.shape != (cfg.d,):
        raise ConfigError(f"tilt has shape {u.shape}, expected ({cfg.d},)")
    return u
