import numpy as np
import pytest
from scipy.spatial.distance import cdist

from invctrl.config import default_config
from invctrl.levelsets import ABSENT, LevelFamily, max_plus, nearest_table
from invctrl.narx import NarxDataset
from invctrl import pipeline


@pytest.fixture(scope="session")
def numerical_cfg(tmp_path_factory):
    cfg = default_config("numerical")
    cfg.outdir = str(tmp_path_factory.mktemp("numerical"))
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    pipeline.cmd_build(cfg, log=lambda *a: None)
    return cfg


@pytest.fixture(scope="session")
def numerical_artifacts(numerical_cfg):
    dataset, model, controller = pipeline.load_artifacts(numerical_cfg)
    bounds = pipeline.make_bounds(numerical_cfg, model.kernel)
    plant = pipeline.make_plant(numerical_cfg)
    return dict(cfg=numerical_cfg, dataset=dataset, model=model,
                controller=controller, bounds=bounds, plant=plant)


@pytest.fixture(scope="session")
def pendulum_cfg(tmp_path_factory):
    cfg = default_config("pendulum")
    cfg.outdir = str(tmp_path_factory.mktemp("pendulum"))
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    pipeline.cmd_build(cfg, log=lambda *a: None)
    return cfg


@pytest.fixture(scope="session")
def pendulum_artifacts(pendulum_cfg):
    dataset, model, controller = pipeline.load_artifacts(pendulum_cfg)
    bounds = pipeline.make_bounds(pendulum_cfg, model.kernel)
    plant = pipeline.make_plant(pendulum_cfg)
    return dict(cfg=pendulum_cfg, dataset=dataset, model=model,
                controller=controller, bounds=bounds, plant=plant)


def sampled_inradius(point, centers, radii, directions=2000, seed=0):
    """Direction-sampled estimate of the true inradius of ``point`` in a
    ball union (an overestimate: the min over sampled rays of the union's
    reach along the ray)."""
    rng = np.random.default_rng(seed)
    point = np.asarray(point, dtype=float)
    d = len(point)
    dirs = rng.normal(size=(directions, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    best = np.full(directions, -np.inf)
    for center, radius in zip(np.asarray(centers, dtype=float), radii):
        w = point - center
        proj = dirs @ w
        disc = proj**2 - (w @ w - radius * radius)
        mask = disc >= 0
        cur = np.full(directions, -np.inf)
        cur[mask] = -proj[mask] + np.sqrt(disc[mask])
        best = np.maximum(best, cur)
    return max(float(best.min()), 0.0)


def single_ball_inradius(points, centers, radii):
    """The builder's single-ball inradius underestimate of each point in
    the union of balls (centers, radii): the max-plus product over the
    point-to-center distances."""
    return max_plus(np.asarray(radii, dtype=float),
                    nearest_table(cdist(np.atleast_2d(points), np.atleast_2d(centers))))


def synth_dataset(states, targets, controls):
    """Order-2, delay-1 dataset from explicit records."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    targets = np.asarray(targets, dtype=float)
    controls = np.asarray(controls, dtype=float)
    succ = np.stack([states[:, 1], targets, controls], axis=1)
    feats = np.concatenate([targets[:, None], states], axis=1)
    return NarxDataset(order=2, delay=1, features=feats, states=states,
                       targets=targets, controls=controls, succ_states=succ)


def synth_family(ds, delta, levels):
    """Hand-built family; levels: list of [(idx, inradius, cert_radius), ...]
    per level 0..depth, written into the radius tables."""
    r = np.full((len(levels), len(ds)), ABSENT)
    c = np.full((len(levels), len(ds)), ABSENT)
    for j, entries in enumerate(levels):
        for i, ri, ci in entries:
            r[j, i], c[j, i] = ri, ci
    return LevelFamily(delta=delta, depth=len(levels) - 1, inradius=r,
                       cert_radius=c, dataset=ds)
