"""Run configuration: a strict dataclass tree with stable hashing.

Unknown keys anywhere in the tree raise ConfigError instead of being
silently dropped; a typo in a config file should never turn into a
default value.  The short sha256 hash of the canonical dict form is
stamped into every output artifact next to the master seed.
"""

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hydro import make_bump, make_linear, profile_zero
from .lattice import DomainSpec
from .potential import STOCK_KINDS, potential_from_spec


@dataclass
class PotentialConfig:
    kind: str = "gaussian"      # gaussian | cosine | split_bump
    a: float = 0.2
    kappa: float = 1.0
    w: float = 0.5
    M: float = 2.0


@dataclass
class LatticeConfig:
    N: int = 16
    d: int = 2
    tilt: tuple = ()            # empty -> zero tilt


@dataclass
class DomainConfig:
    shape: str = "box"          # box | ball | polytope
    center: tuple = ()
    sides: tuple = ()           # box; empty -> unit cube about center
    radius: float = 0.45        # ball
    normals: tuple = ()         # polytope rows
    offsets: tuple = ()
    bbox: tuple = ()


@dataclass
class ProfileConfig:
    kind: str = "zero"          # zero | linear | bump
    slope: tuple = ()
    amp: float = 0.4
    radius: float = 0.3
    center: tuple = ()


@dataclass
class SamplerConfig:
    sweeps: int = 20000
    step: float = 0.0           # 0 -> auto-tuned
    burn_in: int = -1           # -1 -> adaptive
    thin: int = 1


@dataclass
class SurfaceConfig:
    nodes: int = 8
    sweeps: int = 12000
    grid: tuple = (-1.0, 1.0, 5)   # per-axis lo, hi, count for tables


@dataclass
class DynamicsConfig:
    dt: float = 0.0             # 0 -> 0.9 * stability cap
    t_end: float = 0.05         # macroscopic time
    noise_scale: float = 1.0


@dataclass
class PdeConfig:
    spacing: float = 0.015625
    t_end: float = 0.05
    flux: str = "gaussian"      # gaussian | path to a surface table csv
    record: tuple = ()


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
    potential: PotentialConfig = field(default_factory=PotentialConfig)
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    domain: DomainConfig = field(default_factory=DomainConfig)
    boundary: ProfileConfig = field(default_factory=ProfileConfig)
    initial: ProfileConfig = field(default_factory=ProfileConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    pde: PdeConfig = field(default_factory=PdeConfig)
    hydro: HydroConfig = field(default_factory=HydroConfig)
    dlr: DlrConfig = field(default_factory=DlrConfig)


_SECTIONS = {  # section name -> its dataclass
    f.name: f.default_factory
    for f in dataclasses.fields(RunConfig)
    if f.default_factory is not dataclasses.MISSING
}


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _build_section(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown keys in '{path}': {unknown}")
    return cls(**{k: _freeze(v) for k, v in data.items()})


def from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    top = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - top)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {unknown}")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(_SECTIONS[key], value, key)
        else:
            kwargs[key] = _freeze(value)
    return RunConfig(**kwargs)


def to_dict(cfg: RunConfig) -> dict:
    def plain(value):
        if dataclasses.is_dataclass(value):
            return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        return value

    return plain(cfg)


def config_hash(cfg: RunConfig, **extra) -> str:
    """Short digest of the config, and of ``extra`` run inputs outside it."""
    import hashlib  # here, not at import: most runs never hash a config

    canon = json.dumps(to_dict(cfg) | extra, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply 'dotted.path=value' strings; values parse as JSON or str."""
    data = to_dict(cfg)
    for item in overrides or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override '{item}' is not key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"no config section '{part}' in '{key}'")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"no config key '{key}'")
        node[parts[-1]] = value
    return from_dict(data)


# -- builders -------------------------------------------------------------

def build_potential(cfg: PotentialConfig):
    if cfg.kind not in STOCK_KINDS:
        raise ConfigError(f"unknown potential kind '{cfg.kind}'")
    params = STOCK_KINDS[cfg.kind][1]
    spec = {"kind": cfg.kind} | {k: getattr(cfg, k) for k in params}
    return potential_from_spec(spec)


def build_domain(cfg: DomainConfig, d: int) -> DomainSpec:
    center = tuple(cfg.center) if cfg.center else (0.0,) * d
    if len(center) != d:
        raise ConfigError(f"domain center has {len(center)} coords, expected {d}")
    if cfg.shape == "box":
        sides = tuple(cfg.sides) if cfg.sides else (1.0,) * d
        return DomainSpec.box(center=center, sides=sides)
    if cfg.shape == "ball":
        return DomainSpec.ball(center=center, radius=cfg.radius)
    if cfg.shape == "polytope":
        if not cfg.normals or not cfg.bbox:
            raise ConfigError("polytope domain needs normals, offsets, bbox")
        return DomainSpec(
            shape="polytope",
            center=center,
            normals=tuple(tuple(row) for row in cfg.normals),
            offsets=tuple(cfg.offsets),
            bbox=tuple(tuple(b) for b in cfg.bbox),
        )
    raise ConfigError(f"unknown domain shape '{cfg.shape}'")


def build_profile(cfg: ProfileConfig, d: int):
    if cfg.kind == "zero":
        return profile_zero
    if cfg.kind == "linear":
        slope = tuple(cfg.slope) if cfg.slope else (0.0,) * d
        if len(slope) != d:
            raise ConfigError(f"profile slope has {len(slope)} coords, expected {d}")
        return make_linear(slope)
    if cfg.kind == "bump":
        center = tuple(cfg.center) if cfg.center else None
        return make_bump(amp=cfg.amp, radius=cfg.radius, center=center)
    raise ConfigError(f"unknown profile kind '{cfg.kind}'")


def tilt_vector(cfg: LatticeConfig) -> np.ndarray:
    if not cfg.tilt:
        return np.zeros(cfg.d)
    u = np.asarray(cfg.tilt, dtype=float)
    if u.shape != (cfg.d,):
        raise ConfigError(f"tilt has shape {u.shape}, expected ({cfg.d},)")
    return u
