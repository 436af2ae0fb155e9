"""Run configuration: flat key=value sections, schema-checked at startup,
and the plant, kernel and deviation bounds every stage builds from it.

Defaults reproduce the two benchmark studies, so a bare ``--plant`` flag
without a config file runs the full experiment.  A config file only needs
the keys it overrides.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from typing import Tuple

from .bounds import DeviationBounds
from .kernels import Kernel
from .plants import NumericalPlant, PendulumPlant

__all__ = ["ConfigError", "RunConfig", "default_config", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration (CLI exit code 2)."""


PLANTS = {"numerical": NumericalPlant, "pendulum": PendulumPlant}


def _floats(value):
    """Every float in a field value, nested tuples included."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _floats(v)


@dataclass
class RunConfig:
    """A run's settings; the plant fixes the NARX order n and delay nu, and
    the methods below turn the rest into the objects every stage uses."""

    plant: str
    kernel_family: str
    sigma_f: float
    sigma_l: Tuple[float, ...]
    lam: float
    lip_f: float
    lip_c: float
    rkhs_bound: float
    gamma_mode: str
    gamma_slope: float
    deltas: Tuple[float, ...]
    depth: int
    initial_conditions: Tuple[Tuple[float, ...], ...]
    horizon: int
    sigma_d: float
    sigma: float
    noisy: bool
    seed: int
    outdir: str

    @property
    def order(self):
        return PLANTS[self.plant].order

    @property
    def delay(self):
        return PLANTS[self.plant].delay

    @property
    def sound(self):
        """Whether the families certify the plant: composed bound, noise-free
        data (the linear slope is a heuristic; noisy data certify themselves)."""
        return self.gamma_mode == "composed" and not self.noisy

    def make_plant(self):
        return PLANTS[self.plant]()

    def make_kernel(self):
        return Kernel(self.kernel_family, self.sigma_f, self.sigma_l)

    def make_bounds(self, kernel) -> DeviationBounds:
        """Bounds on ``kernel``'s profile and this config's constants."""
        return DeviationBounds(
            lip_f=self.lip_f, lip_c=self.lip_c, rkhs_bound=self.rkhs_bound, kernel=kernel,
            delay=self.delay, gamma_mode=self.gamma_mode, gamma_slope=self.gamma_slope)

    def effective_lam(self):
        """Ridge weight actually used by build: noisy pendulum runs default to
        the calibrated ridge when the config leaves lambda at zero."""
        if self.noisy and self.plant == "pendulum" and self.lam == 0.0:
            return PENDULUM_NOISY_LAM
        return self.lam

    def validate(self):
        """Raise ``ConfigError`` on a config the stages cannot run; builds
        the kernel and the bounds so that their own checks apply here."""
        for f in fields(self):
            if not all(math.isfinite(v) for v in _floats(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        if self.plant not in PLANTS:
            raise ConfigError(f"unknown plant {self.plant!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if not self.deltas:
            raise ConfigError("empty accuracy menu")
        if any(d <= 0 for d in self.deltas):
            raise ConfigError("accuracies must be positive")
        if list(self.deltas) != sorted(set(self.deltas)):
            raise ConfigError("accuracies must be strictly ascending")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.sigma_d < 0 or self.sigma < 0:
            raise ConfigError("noise standard deviations must be >= 0")
        dim = 2 * self.order - 1
        for ic in self.initial_conditions:
            if len(ic) != dim:
                raise ConfigError(
                    f"initial condition {ic} has dimension {len(ic)}, "
                    f"expected {dim}")
        try:
            kernel = self.make_kernel()
        except ValueError as exc:
            raise ConfigError(f"[kernel] {exc}") from None
        try:
            self.make_bounds(kernel)
        except ValueError as exc:
            raise ConfigError(f"[bounds] {exc}") from None
        if kernel.family == "ard_matern52" and len(self.sigma_l) != dim + 1:
            raise ConfigError(f"[kernel] ard_matern52 needs {dim + 1} length scales, "
                              f"one per feature")
        return self


_NUMERICAL = RunConfig(
    plant="numerical",
    kernel_family="squared_exponential",
    sigma_f=1.0,
    sigma_l=(2.8284271247461903,),  # 2*sqrt(2)
    lam=0.0,
    lip_f=6.5,
    lip_c=0.22,
    rkhs_bound=1.0,
    gamma_mode="composed",
    gamma_slope=0.0,
    deltas=(0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 1.5, 2.0, 3.0),
    depth=20,
    initial_conditions=((-1.0, -1.0, 0.0), (-0.5, -0.5, 0.0), (0.0, 0.0, 0.0),
                        (0.5, 0.5, 0.0), (1.0, 1.0, 0.0)),
    horizon=10,
    sigma_d=0.0,
    sigma=0.0,
    noisy=False,
    seed=1,
    outdir="runs/numerical",
)

# Pendulum kernel scales: half the per-dimension standard deviation of the
# noise-free training features (frozen numerically for reproducibility).
_PEND_SIGMA_L = (0.057, 0.058, 0.058, 0.97)

_PENDULUM = RunConfig(
    plant="pendulum",
    kernel_family="ard_matern52",
    sigma_f=2.0,
    sigma_l=_PEND_SIGMA_L,
    lam=0.0,
    # Closed-form gradient bounds of PendulumPlant's two-step map y(t+2) =
    # (A^2 + B) y(t) + C sin y(t) + A (B y(t-1) + C sin y(t-1) + D u(t-1)) + D u(t)
    # and of its inverse in (y(t+2), y(t), y(t-1), u(t-1)), the sine slopes s in
    # [-1, 1]: with g0 = max_s |A^2 + B + C s| and g1 = max_s |A (B + C s)|,
    # lip_f = |(g1, g0, |A| D, D)| = 3.5872 and lip_c = |(1, g0, g1, |A| D)| / D = 335154.
    lip_f=3.59,
    lip_c=336000.0,
    rkhs_bound=20.0,     # safety-scaled interpolant norm estimate (~8.1)
    gamma_mode="linear",
    gamma_slope=1.005,
    deltas=(0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1, 0.3, 0.6),
    depth=100,
    initial_conditions=((0.1, 0.1, 0.0), (-0.1, -0.1, 0.0),
                        (0.05, 0.05, 0.0), (-0.05, -0.05, 0.0)),
    horizon=500,
    sigma_d=0.01,
    sigma=0.01,
    noisy=False,
    seed=0,
    outdir="runs/pendulum",
)

# ridge weight used when the pendulum pipeline runs on noisy data
PENDULUM_NOISY_LAM = 0.4


def default_config(plant) -> RunConfig:
    if plant == "numerical":
        return replace(_NUMERICAL)
    if plant == "pendulum":
        return replace(_PENDULUM)
    raise ConfigError(f"unknown plant {plant!r}")


# section -> key -> (RunConfig field, kind); keys are lower case, as
# configparser delivers option names (``L_f`` is read as ``l_f``)
_SCHEMA = {
    "plant": {"id": ("plant", str)},
    "kernel": {"family": ("kernel_family", str), "sigma_f": ("sigma_f", float),
               "sigma_l": ("sigma_l", "floats")},
    "interpolant": {"lambda": ("lam", float)},
    "bounds": {"l_f": ("lip_f", float), "l_c": ("lip_c", float),
               "gamma": ("rkhs_bound", float), "gamma_mode": ("gamma_mode", str),
               "gamma_slope": ("gamma_slope", float)},
    "levels": {"deltas": ("deltas", "floats"), "kappa_bar": ("depth", int)},
    "simulate": {"initial_conditions": ("initial_conditions", "vectors"),
                 "horizon": ("horizon", int)},
    "noise": {"sigma_d": ("sigma_d", float), "sigma": ("sigma", float)},
    "run": {"seed": ("seed", int), "out": ("outdir", str)},
}


def _parse_value(kind, raw):
    """``raw`` as ``kind``: "floats", "vectors", or a type to call."""
    if kind == "floats":
        return tuple(float(v) for v in raw.replace(";", ",").split(",") if v.strip())
    if kind == "vectors":
        vecs = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if chunk:
                vecs.append(tuple(float(v) for v in chunk.split(",")))
        return tuple(vecs)
    return kind(raw)


def load_config(path, base_plant=None) -> RunConfig:
    """Parse a config file on top of the plant defaults.

    The plant id comes from the file's [plant] section or ``base_plant``;
    a file that is not UTF-8 ``key = value`` sections, unknown sections or
    keys, and type errors raise ConfigError.  A ``%`` in a value is literal.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        what = f"key {exc.option!r} in " if hasattr(exc, "option") else "section "
        raise ConfigError(f"{path}:{exc.lineno}: {what}[{exc.section}] given twice") from None
    except configparser.ParsingError as exc:  # a key before any section, a line without '='
        line = getattr(exc, "lineno", None) or exc.errors[0][0]
        raise ConfigError(f"{path}:{line}: expected a [section] header or, inside "
                          f"a section, a key = value line") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    plant = base_plant
    if parser.has_option("plant", "id"):
        plant = parser.get("plant", "id")
    if plant is None:
        raise ConfigError("plant id missing (set [plant] id or pass --plant)")
    cfg = default_config(plant)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, kind = _SCHEMA[section][key]
            try:
                value = _parse_value(kind, raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
            setattr(cfg, name, value)
    return cfg.validate()
