"""Data-driven output regulation for NARX systems.

Identifies an inverse model by kernel interpolation, precomputes backward-
reachable ball-union level sets that certify practical output regulation,
and runs the certified reference-selecting controller in closed loop against
benchmark plants.
"""

from .bounds import DeviationBounds
from .controller import Controller, StepCertificate
from .interpolant import (Interpolant, fit_interpolant, select_hyperparameters)
from .kernels import ArdMatern52Kernel, IsotropicKernel, make_kernel
from .levelsets import LevelFamily, build_level_family, check_nesting
from .narx import (NarxDataset, Trajectory, build_dataset, merge_datasets,
                   shift_state)
from .plants import (NoiseSpec, NumericalPlant, PendulumPlant, add_noise,
                     collect_numerical_trajectories,
                     collect_pendulum_trajectories)

__version__ = "0.1.0"

__all__ = [
    "DeviationBounds", "Controller", "StepCertificate", "Interpolant",
    "fit_interpolant", "select_hyperparameters", "ArdMatern52Kernel",
    "IsotropicKernel", "make_kernel", "LevelFamily", "build_level_family",
    "check_nesting", "NarxDataset", "Trajectory", "build_dataset", "merge_datasets",
    "shift_state", "NoiseSpec", "NumericalPlant", "PendulumPlant",
    "add_noise", "collect_numerical_trajectories",
    "collect_pendulum_trajectories",
]
