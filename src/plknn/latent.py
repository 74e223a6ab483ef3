"""Latent-space model: box support, sampling distributions, RBF utility.

Agents and alternatives are points in the box [0, box]^dim. An agent's
utility for an alternative decays exponentially with Euclidean distance,
which induces the ground-truth pairwise preference probabilities.

The config dataclasses read and write JSON through one base, ``_Config``;
numeric arguments (k, eps, ell, c_obs) pass one rule, ``_check_number``.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import rng

_DIST_KINDS = ("uniform", "near_uniform")


@functools.cache  # resolving string annotations is slow: once per class
def _field_kinds(cls) -> tuple[tuple[str, type, bool, tuple], ...]:
    """(name, kind, sequence, accepted) per field of ``cls``: the T of ``T``,
    ``tuple[T, ...]`` or ``T | None``, and the types a value may have: T, None
    if allowed, any integral or real number for int or float (ABCs last: slower)."""
    out = []
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        sequence, optional = typing.get_origin(hint) is tuple, type(None) in args
        kind = args[0] if sequence or optional else hint
        numbers = {int: (Integral,), float: (Real,)}.get(kind, ())
        out.append((name, kind, sequence, (kind, *(type(None),) * optional, *numbers)))
    return tuple(out)


def check_field_types(config) -> None:
    """Raise ValueError unless every field of the dataclass holds a type that
    ``_field_kinds`` accepts (never a bool); a ``tuple[T, ...]`` field takes a list."""
    for name, _, sequence, accepted in _field_kinds(type(config)):
        value = getattr(config, name)
        if sequence:
            ok = isinstance(value, (tuple, list)) and all(_is_kind(v, accepted) for v in value)
        else:
            ok = _is_kind(value, accepted)
        if not ok:
            raise ValueError(f"{type(config).__name__}.{name} has the wrong type: {value!r}")


def _is_kind(value, kind) -> bool:
    """``isinstance(value, kind)``, with a bool never counted as a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_number(value, what: str, lo, hi=math.inf, integer: bool = False) -> None:
    """Raise ``ValueError("<what> must be ...")`` unless ``value`` is a finite
    real number (an integer when ``integer``), not a bool, in [lo, hi]."""
    finite = _is_kind(value, Integral if integer else Real) and -math.inf < value < math.inf
    if not finite or not lo <= value <= hi:
        rule = "an integer" if integer else "a finite real number"
        bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{what} must be {rule} {bound}, got {value!r}")


class _Config:
    """The JSON form of a config dataclass: each field in declaration order,
    a nested config by its own ``to_dict``, a tuple as a list. Reading
    checks the keys, rebuilds nested configs and tuples from the field
    annotations, then validates."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _Config):
                value = value.to_dict()
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
        if unknown or required - set(data):
            missing = sorted(required - set(data))
            raise ValueError(f"{cls.__name__} unknown: {sorted(unknown)}, missing: {missing}")
        data = dict(data)
        for name, kind, sequence, _ in _field_kinds(cls):
            if name not in data:  # a missing field takes the dataclass default
                continue
            if sequence and isinstance(data[name], list):
                data[name] = tuple(data[name])
            elif issubclass(kind, _Config):
                data[name] = kind.from_dict(data[name])
        config = cls(**data)
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class DistSpec(_Config):
    """Sampling distribution for one entity kind on [0, box]^dim.

    ``uniform`` is the flat density.  ``near_uniform`` is a piecewise-constant
    density on ``cells`` equal cells per coordinate whose weight alternates
    between 1 and ``ratio``; coordinates are independent, so the joint
    max/min density ratio is ``ratio ** dim``.
    """

    kind: str = "uniform"
    ratio: float = 1.0
    cells: int = 8

    def validate(self) -> None:
        check_field_types(self)
        if self.kind not in _DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not np.isfinite(self.ratio) or self.ratio < 1.0:
            raise ValueError("density ratio must be finite and >= 1")
        if self.kind == "near_uniform" and self.cells < 2:
            raise ValueError("near-uniform grid needs at least 2 cells")
        # to_dict writes a uniform spec as its kind alone
        if self.kind == "uniform" and self != DistSpec():
            raise ValueError("a uniform distribution takes the default ratio and cells")

    def density_ratio(self, dim: int) -> float:
        """Joint sup/inf density ratio realized in ``dim`` dimensions."""
        if self.kind == "uniform":
            return 1.0
        return float(self.ratio) ** dim

    def sample(self, generator: np.random.Generator, count: int, dim: int, box: float) -> np.ndarray:
        """Draw ``count`` i.i.d. points of shape (count, dim)."""
        u = generator.random((count, dim))
        if self.kind == "uniform" or self.ratio == 1.0:
            return u * box
        weights = np.where(np.arange(self.cells) % 2 == 0, 1.0, self.ratio)
        cum = np.cumsum(weights / weights.sum())
        cum[-1] = 1.0
        cell = np.searchsorted(cum, u, side="right")
        lower = np.concatenate([[0.0], cum[:-1]])
        frac = (u - lower[cell]) / (cum[cell] - lower[cell])
        return (cell + frac) / self.cells * box

    def to_dict(self) -> dict:
        # every config hash reads this compact form: keep its bytes
        if self.kind == "uniform":
            return {"kind": "uniform"}
        return super().to_dict()


@dataclass(frozen=True)
class ModelConfig(_Config):
    """Full description of one synthetic population.

    The seed determines every downstream sample; entity kinds draw from
    disjoint substreams so changing ``n_agents`` never perturbs the
    alternatives and vice versa.
    """

    n_agents: int
    n_alternatives: int
    dim: int = 1
    box: float = 1.0
    dist_x: DistSpec = field(default_factory=DistSpec)
    dist_y: DistSpec = field(default_factory=DistSpec)
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self)
        if self.n_agents < 1 or self.n_alternatives < 1:
            raise ValueError("population sizes must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not np.isfinite(self.box) or self.box <= 0:
            raise ValueError("box size must be a positive real")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self.dist_x.validate()
        self.dist_y.validate()

    @property
    def c_x(self) -> float:
        """Recorded density ratio of the agent distribution."""
        return self.dist_x.density_ratio(self.dim)

    @property
    def c_y(self) -> float:
        """Recorded density ratio of the alternative distribution."""
        return self.dist_y.density_ratio(self.dim)


@dataclass(frozen=True)
class Population:
    """Sampled latent positions: agents (n, dim) and alternatives (m, dim)."""

    agents: np.ndarray
    alternatives: np.ndarray

    def __post_init__(self):
        if self.agents.ndim != 2 or self.alternatives.ndim != 2:
            raise ValueError("positions must be 2-D arrays (count, dim)")
        if self.agents.shape[1] != self.alternatives.shape[1]:
            raise ValueError("agents and alternatives must share a dimension")

    @property
    def n_agents(self) -> int:
        return self.agents.shape[0]

    @property
    def n_alternatives(self) -> int:
        return self.alternatives.shape[0]

    @property
    def dim(self) -> int:
        return self.agents.shape[1]


def sample_population(cfg: ModelConfig) -> Population:
    """Draw the agent and alternative positions described by ``cfg``.

    Deterministic given ``cfg.seed``; agents and alternatives come from
    disjoint substreams, and within a kind entity ``i`` owns the ``i``-th
    block of the stream, so extending one count leaves existing points
    untouched.
    """
    cfg.validate()
    agents = cfg.dist_x.sample(
        rng.substream(cfg.seed, rng.AGENTS), cfg.n_agents, cfg.dim, cfg.box
    )
    alternatives = cfg.dist_y.sample(
        rng.substream(cfg.seed, rng.ALTERNATIVES), cfg.n_alternatives, cfg.dim, cfg.box
    )
    return Population(agents=agents, alternatives=alternatives)


def _as_points(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return x, y


def utility(x: np.ndarray, y: np.ndarray) -> float:
    """RBF utility exp(-||x - y||_2); always in (0, 1] on a bounded box."""
    x, y = _as_points(x, y)
    return float(np.exp(-np.linalg.norm(x - y)))


def preference_prob(d1, d2):
    """Probability of preferring the alternative at latent distance ``d1``
    to the one at ``d2``: u1 / (u1 + u2) = 1 / (1 + exp(d1 - d2)) for the
    RBF utility, written with tanh to stay stable for large gaps."""
    return 0.5 * (1.0 + np.tanh(0.5 * (d2 - d1)))


def pairwise_prob(x: np.ndarray, y1: np.ndarray, y2: np.ndarray):
    """Ground-truth probability that the agent at ``x`` prefers ``y1`` to ``y2``.

    Equals u(x,y1) / (u(x,y1) + u(x,y2)): the two-alternative restriction of
    the sequential-choice ranking model. ``y1`` and ``y2`` may be (count, dim)
    arrays of alternatives, giving one probability per row.
    """
    x, y1 = _as_points(x, y1)
    x, y2 = _as_points(x, y2)
    return preference_prob(np.linalg.norm(y1 - x, axis=-1), np.linalg.norm(y2 - x, axis=-1))
