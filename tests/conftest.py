import numpy as np
import pytest

from invctrl.config import default_config
from invctrl.levelsets import ABSENT, LevelFamily, load_witness, successor_inradii
from invctrl.narx import NarxDataset
from invctrl import pipeline


@pytest.fixture(scope="session")
def numerical_cfg(tmp_path_factory):
    cfg = default_config("numerical")
    cfg.outdir = str(tmp_path_factory.mktemp("numerical"))
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    pipeline.cmd_build(cfg, log=lambda *a: None)
    return cfg


def loaded_artifacts(cfg):
    """The build's artifacts as simulate and verify load them, with the
    witness table of each family (``witnesses``) that only verify reads and
    the successor inradii it derives from them (``inradii``)."""
    dataset, model, controller = pipeline.load_artifacts(cfg)
    witnesses = [load_witness(pipeline._family_path(pipeline._paths(cfg), f.delta), f)
                 for f in controller.families]
    inradii = [successor_inradii(f, w) for f, w in zip(controller.families, witnesses)]
    return dict(cfg=cfg, dataset=dataset, model=model, controller=controller,
                witnesses=witnesses, inradii=inradii, bounds=cfg.make_bounds(model.kernel),
                plant=cfg.make_plant())


@pytest.fixture(scope="session")
def numerical_artifacts(numerical_cfg):
    return loaded_artifacts(numerical_cfg)


@pytest.fixture(scope="session")
def pendulum_cfg(tmp_path_factory):
    cfg = default_config("pendulum")
    cfg.outdir = str(tmp_path_factory.mktemp("pendulum"))
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    pipeline.cmd_build(cfg, log=lambda *a: None)
    return cfg


@pytest.fixture(scope="session")
def pendulum_artifacts(pendulum_cfg):
    return loaded_artifacts(pendulum_cfg)


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


def sample_in_ball(rng, center, radius, count):
    """``count`` uniform samples from the closed ball: normal directions, then
    radii ``radius * u ** (1 / dim)``."""
    center = np.asarray(center, dtype=float)
    dirs = rng.normal(size=(count, len(center)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return center + dirs * (radius * rng.uniform(size=count) ** (1.0 / len(center)))[:, None]


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
    """Hand-built family; levels: list of [(idx, radius), ...] per level
    0..depth, written into the radius table (slab inradii at level 0,
    certified radii above)."""
    r = np.full((len(levels), len(ds)), ABSENT)
    for j, entries in enumerate(levels):
        for i, ri in entries:
            r[j, i] = ri
    return LevelFamily(delta=delta, depth=len(levels) - 1, radius=r, dataset=ds)


def inradius_by_level(fam, inradius):
    """Successor inradius of every entry indexed by level: the level-0 radii
    over the levels >= 1 table ``inradius``."""
    return np.concatenate([fam.radius[:1], inradius])
