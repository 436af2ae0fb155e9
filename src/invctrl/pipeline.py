"""Offline/online pipeline stages behind the CLI.

Stage outputs live under the configured output directory:

    trajectories.csv             collect
    model.txt                    build
    families/delta_*.npy
    families/delta_*.witness.npy (read by verify only)
    build_report.txt
    runs/ic_NN.csv               simulate
    summary.txt
    verify_report.txt            verify

``trajectories.csv`` is the study's whole dataset (see ``narx``); its first
line records the settings ``collect`` ran with, which later stages check.

The family files are raw ``.npy`` tables (see ``levelsets``): per accuracy,
the radius table, and the witness table that names, for each entry of levels
>= 1, the previous-level ball its successor inradius comes from; ``verify``
re-derives every successor inradius from it.  Every other file is plain
delimiter-separated text with full-precision floats.  Each run-log column
and summary field is defined once, in ``COLUMNS`` and ``FIELDS``.
Repeated runs with one config and seed are byte-identical (wall-clock
timings go to stdout only).
"""

from __future__ import annotations

import os
import time
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from . import verify
from .config import ConfigError, RunConfig
from .controller import Controller
from .interpolant import dump_interpolant, fit_interpolant, load_interpolant
from .levelsets import (build_level_family, check_nesting, dump_family,
                        load_family, load_witness, pairwise_distances)
from .narx import (FLOAT_FMT, NarxDataset, TrajectoryError, build_dataset,
                   read_trajectories, shift_state, write_trajectories)
from .plants import (STREAM_ONLINE_NOISE, InfeasibleInput, add_noise,
                     collect_numerical_trajectories,
                     collect_pendulum_trajectories, rng_stream)

__all__ = ["RunResult", "Step", "cmd_collect", "cmd_build", "cmd_simulate", "cmd_verify",
           "cmd_report", "load_artifacts", "simulate_one", "tally", "displayed_rmse"]


def _fmt(x):
    return format(float(x), FLOAT_FMT)


def _paths(cfg: RunConfig):
    out = cfg.outdir
    return {
        "out": out,
        "trajectories": os.path.join(out, "trajectories.csv"),
        "model": os.path.join(out, "model.txt"),
        "famdir": os.path.join(out, "families"),
        "build_report": os.path.join(out, "build_report.txt"),
        "rundir": os.path.join(out, "runs"),
        "summary": os.path.join(out, "summary.txt"),
        "verify_report": os.path.join(out, "verify_report.txt"),
    }


def _family_path(paths, delta):
    tag = format(delta, "g").replace(".", "p")
    return os.path.join(paths["famdir"], f"delta_{tag}.npy")


# ---------------------------------------------------------------- collect


def _collected(cfg: RunConfig):
    """The settings ``collect`` records in the trajectory table's comment, as text."""
    meta = {"plant": cfg.plant, "seed": str(cfg.seed), "noisy": str(int(cfg.noisy))}
    if cfg.noisy:
        meta["sigma_d"] = _fmt(cfg.sigma_d)
    return meta


def cmd_collect(cfg: RunConfig, log=print):
    """Write the trajectory table; idempotent for a fixed seed."""
    if cfg.noisy and cfg.plant != "pendulum":
        raise ConfigError("the measurement-noise study is defined for the "
                          "pendulum benchmark only")
    paths = _paths(cfg)
    os.makedirs(paths["out"], exist_ok=True)
    if cfg.plant == "numerical":
        trajs = collect_numerical_trajectories(seed=cfg.seed)
    else:
        trajs = collect_pendulum_trajectories()
        if cfg.noisy:
            trajs = [add_noise(t, cfg.sigma_d, cfg.seed, stream_offset=k)
                     for k, t in enumerate(trajs)]
    write_trajectories(paths["trajectories"], trajs, _collected(cfg))
    log(f"collect: wrote {len(trajs)} trajectories to {paths['trajectories']}")


def load_dataset(cfg: RunConfig) -> NarxDataset:
    """Rebuild the training dataset from the trajectory table: read it in one
    ``read_trajectories`` pass, then window it in one ``build_dataset`` call.
    A malformed table, a comment whose settings differ from the config's (the
    seed only where collect draws from it, so not for the noise-free
    pendulum), or a trajectory that yields no records raises ``ConfigError``
    naming the line or the trajectory."""
    path = _paths(cfg)["trajectories"]
    meta, trajs = read_trajectories(path)
    seeded = cfg.plant == "numerical" or cfg.noisy  # noise-free pendulum data draw no seed
    for key, val in _collected(cfg).items():
        if meta.get(key) != val and (key != "seed" or seeded):
            raise ConfigError(f"{path}:1: collected with {key}={meta.get(key)}, "
                              f"the config has {key}={val}")
    try:
        return build_dataset(trajs, cfg.order, cfg.delay)
    except TrajectoryError as exc:
        raise ConfigError(f"{path}: trajectory {exc.index}: {exc}") from None


# ---------------------------------------------------------------- build


def cmd_build(cfg: RunConfig, log=print):
    """Fit the interpolant, build and dump the families, and report nesting."""
    paths = _paths(cfg)
    os.makedirs(paths["famdir"], exist_ok=True)
    t0 = time.perf_counter()
    dataset = load_dataset(cfg)
    kernel = cfg.make_kernel()
    lam = cfg.effective_lam()
    model = fit_interpolant(kernel, dataset, lam=lam)
    dump_interpolant(paths["model"], model)
    bounds = cfg.make_bounds(kernel)
    dists = pairwise_distances(dataset)
    lines = [
        f"plant = {cfg.plant}",
        f"records = {len(dataset)}",
        f"lambda = {_fmt(lam)}",
        f"jitter = {_fmt(model.jitter)}",
    ]
    if lam == 0.0:
        lines.append(f"rkhs_norm_estimate = {_fmt(model.rkhs_norm())}")
    empty_warned = False
    for delta in cfg.deltas:
        fam, witness = build_level_family(dataset, bounds, delta, cfg.depth, _dists=dists)
        dump_family(_family_path(paths, delta), fam, witness)
        sizes = fam.sizes()
        nested = check_nesting(fam)
        trunc = fam.truncated_at if fam.truncated_at is not None else ""
        lines.append(
            f"family delta={format(delta, 'g')}: entries={sum(sizes)} "
            f"level0={sizes[0]} nested={'yes' if nested else 'unverified'} "
            f"truncated_at={trunc}")
        if sizes[0] == 0 and not empty_warned:
            log(f"build: warning: family delta={delta:g} is empty")
            empty_warned = True
    with open(paths["build_report"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    log(f"build: {len(dataset)} records, jitter {model.jitter:g}, "
        f"{len(cfg.deltas)} families in {time.perf_counter() - t0:.1f}s")
    return lines


def load_artifacts(cfg: RunConfig):
    """(dataset, model, controller) reloaded from the build outputs; the model is
    the config's kernel and lambda on the dataset with the dump's weights."""
    paths = _paths(cfg)
    dataset = load_dataset(cfg)
    model = load_interpolant(paths["model"], cfg.make_kernel(), cfg.effective_lam(), dataset)
    families = [load_family(_family_path(paths, delta), dataset, delta, cfg.depth)
                for delta in cfg.deltas]
    controller = Controller(families, model, sound=cfg.sound)
    return dataset, model, controller


# ---------------------------------------------------------------- simulate


def displayed_rmse(outputs):
    """sqrt(sum |y(t)|^2) / (T+1) over y(0..T), matching the reported
    metric's displayed normalization."""
    y = np.asarray(outputs, dtype=float)
    return float(np.sqrt(np.sum(y * y)) / len(y))


def _opt(fmt, parse):
    """(format, parse) of a column whose empty cell stands for None."""
    return (lambda v: "" if v is None else fmt(v)), (lambda s: parse(s) if s else None)


def _choice(texts):
    """(format, parse) of a column holding the keys of ``texts``, a value -> cell map."""
    return texts.__getitem__, {text: v for v, text in texts.items()}.__getitem__


# (name, format, parse) of each run-log column; ``certified`` holds the step's
# ``StepCertificate.label``; descent_ok is None on fallback steps
COLUMNS = (("t", str, int), ("delta", *_opt("{:g}".format, float)), ("kappa", *_opt(str, int)),
           ("i1", str, int), ("slack", *_opt(_fmt, float)),
           ("certified", *_choice({"certified": "1", "heuristic": "heuristic", "fallback": "0"})),
           ("u", _fmt, float), ("y_next", _fmt, float),
           ("descent_ok", *_choice({True: "1", False: "0", None: "skip"})))
# (name, format, parse) of each summary field after a line's ``ic_NN:`` tag
FIELDS = (("ic", lambda ic: ",".join(map("{:g}".format, ic)),
           lambda s: tuple(map(float, s.split(",")))), ("rmse", _fmt, float),
          ("certified", "{:.3f}".format, float), ("heuristic", "{:.3f}".format, float),
          ("descent_violations", str, int), ("fallbacks", str, int))
Step = namedtuple("Step", [name for name, _, _ in COLUMNS])
Summary = namedtuple("Summary", [name for name, _, _ in FIELDS])


def _cells(table, row):
    return [fmt(v) for (_, fmt, _), v in zip(table, row)]


def _parse(table, cells, where):
    """``cells`` parsed by ``table``; a wrong cell count or a malformed cell raises
    ``ConfigError`` naming ``where``: (path, line number, what, stripped line)."""
    try:
        if len(cells) == len(table):
            return [parse(c) for (_, _, parse), c in zip(table, cells)]
    except (KeyError, ValueError):
        pass
    raise ConfigError("{}:{}: bad {} {!r}".format(*where))


def tally(rows):
    """(certified, heuristic, descent_violations, fallbacks): step counts of ``rows``."""
    labels = Counter(r.certified for r in rows)
    return (labels["certified"], labels["heuristic"], sum(r.descent_ok is False for r in rows),
            labels["fallback"])


@dataclass
class RunResult:
    initial_condition: tuple
    outputs: np.ndarray            # true outputs y(0..T)
    rows: list[Step]               # per-step log rows
    rmse: float
    certified_fraction: float
    heuristic_fraction: float
    descent_violations: int
    fallback_steps: int
    wall_clock: float


def simulate_one(cfg: RunConfig, plant, controller, ic, ic_index) -> RunResult:
    """Closed loop from one initial condition for the configured horizon."""
    t0 = time.perf_counter()
    state_true = np.asarray(ic, dtype=float)
    n = cfg.order
    noisy = cfg.noisy
    rng = rng_stream(cfg.seed, STREAM_ONLINE_NOISE, ic_index) if noisy else None
    meas = state_true.copy()
    if noisy:
        meas[:n] += rng.normal(0.0, cfg.sigma, size=n)
    outputs = [float(state_true[n - 1])]
    rows = []
    for t in range(cfg.horizon):
        u, cert = controller.control(meas)
        try:
            y_next, state_true = plant.advance(state_true, u)
        except InfeasibleInput as exc:
            raise ConfigError(f"{_paths(cfg)['model']}: infeasible input at step {t} "
                              f"from initial condition {ic_index} ({exc})") from None
        y_meas = y_next + (rng.normal(0.0, cfg.sigma) if noisy else 0.0)
        meas = shift_state(meas, y_meas, u)
        rows.append(Step(t, cert.delta, cert.kappa, cert.index, cert.slack, cert.label,
                         u, y_next, controller.assert_descent(cert, meas)))
        outputs.append(y_next)
    outputs = np.array(outputs)
    ncert, nheur, nviol, nfall = tally(rows)
    return RunResult(tuple(float(v) for v in ic), outputs, rows, displayed_rmse(outputs),
                     certified_fraction=ncert / cfg.horizon,
                     heuristic_fraction=nheur / cfg.horizon, descent_violations=nviol,
                     fallback_steps=nfall, wall_clock=time.perf_counter() - t0)


def _write_run_log(path, result: RunResult):
    lines = ["# ic = " + ",".join(map(_fmt, result.initial_condition)), ",".join(Step._fields)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines + [",".join(_cells(COLUMNS, r)) for r in result.rows]) + "\n")


def cmd_simulate(cfg: RunConfig, log=print) -> list[RunResult]:
    """Run the closed loop from each initial condition; write logs and summary."""
    paths = _paths(cfg)
    os.makedirs(paths["rundir"], exist_ok=True)
    dataset, model, controller = load_artifacts(cfg)
    plant = cfg.make_plant()
    results, summary = [], []
    for k, ic in enumerate(cfg.initial_conditions):
        res = simulate_one(cfg, plant, controller, ic, k)
        results.append(res)
        _write_run_log(os.path.join(paths["rundir"], f"ic_{k:02d}.csv"), res)
        row = (ic, res.rmse, res.certified_fraction, res.heuristic_fraction,
               res.descent_violations, res.fallback_steps)
        summary.append(f"ic_{k:02d}: " + " ".join(
            map("{}={}".format, Summary._fields, _cells(FIELDS, row))))
        log(f"simulate ic_{k:02d}: rmse={res.rmse:.6f} certified={res.certified_fraction:.1%} "
            f"heuristic={res.heuristic_fraction:.1%} violations={res.descent_violations} "
            f"({res.wall_clock:.2f}s)")
    with open(paths["summary"], "w") as fh:
        fh.write("\n".join(summary) + "\n")
    return results


# ---------------------------------------------------------------- report


def read_run_log(path):
    """(ic, rows) from a run log; rows as ``Step`` tuples.  A malformed line
    raises ``ConfigError`` naming the file and line number."""
    with open(path) as fh:
        first = fh.readline().strip()
        try:
            ic = tuple(float(v) for v in first.partition("=")[2].split(","))
        except ValueError:
            raise ConfigError(f"{path}:1: bad initial condition {first!r}") from None
        header = fh.readline().strip()
        if header != ",".join(Step._fields):
            raise ConfigError(f"{path}:2: not a run log (header {header!r})")
        rows = [Step(*_parse(COLUMNS, line.split(","), (path, k, "run log row", line)))
                for k, line in enumerate(map(str.strip, fh), start=3)]
    return ic, rows


def read_summary(path, tags):
    """{tag: ``Summary``} from a summary file; ``ConfigError`` on a malformed
    line, or on a tag not in ``tags`` or given twice."""
    stored = {}
    with open(path) as fh:
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            tag, _, rest = map(str.strip, line.partition(":"))
            pairs = [tok.partition("=") for tok in rest.split()]
            named = tuple(name for name, _, _ in pairs) == Summary._fields
            cells = [cell for _, _, cell in pairs] if named else []  # [] has the wrong count
            summary = Summary(*_parse(FIELDS, cells, (path, lineno, "summary line", line)))
            if tag not in tags or tag in stored:
                raise ConfigError(f"{path}:{lineno}: run {tag!r} is not one of the config's "
                                  f"{len(tags)} or repeats")
            stored[tag] = summary
    return stored


def cmd_report(cfg: RunConfig, log=print):
    """Recompute each run's summary fields from its log and check them.

    ``rmse`` must agree to 1e-12; ``ic``, ``certified``, ``heuristic``,
    ``descent_violations`` and ``fallbacks`` must print as the summary prints
    them (``ic`` to ``g`` precision).  A mismatch names the run and the fields and returns False.
    A run the config does not have, or a log whose ``t`` column is not
    0, 1, ..., horizon - 1, raises ``ConfigError`` naming the line."""
    paths = _paths(cfg)
    tags = [f"ic_{k:02d}" for k in range(len(cfg.initial_conditions))]
    stored = read_summary(paths["summary"], tags)
    ok = True
    for tag in tags:
        path = os.path.join(paths["rundir"], f"{tag}.csv")
        ic, rows = read_run_log(path)
        if len(ic) != 2 * cfg.order - 1:
            raise ConfigError(f"{path}:1: initial condition has {len(ic)} values, "
                              f"the order-{cfg.order} state has {2 * cfg.order - 1}")
        if [r.t for r in rows] != list(range(cfg.horizon)):
            k = next((k for k, r in enumerate(rows) if r.t != k), min(len(rows), cfg.horizon))
            raise ConfigError(f"{path}:{k + 3}: run log t is not 0..{cfg.horizon - 1}")
        if tag not in stored:
            raise ConfigError(f"{paths['summary']}: no rmse for {tag}")
        rmse = displayed_rmse([ic[cfg.order - 1]] + [r.y_next for r in rows])
        ncert, nheur, nviol, nfall = tally(rows)
        got = Summary(ic, rmse, ncert / cfg.horizon, nheur / cfg.horizon, nviol, nfall)
        wrong = [name for (name, fmt, _), a, b in zip(FIELDS, got, stored[tag])
                 if (not abs(a - b) <= 1e-12 if name == "rmse" else fmt(a) != fmt(b))]
        ok = ok and not wrong
        log(f"{tag}: rmse={rmse:.6f} recompute={'MISMATCH ' + ','.join(wrong) if wrong else 'ok'} "
            f"certified={ncert}/{len(rows)} heuristic={nheur}/{len(rows)} "
            f"descent_violations={nviol}")
    return ok


# ---------------------------------------------------------------- verify


def cmd_verify(cfg: RunConfig, log=print):
    """Run the property suites over the artifacts; True when all of them pass."""
    paths = _paths(cfg)
    dataset, model, controller = load_artifacts(cfg)
    witnesses = [load_witness(_family_path(paths, f.delta), f) for f in controller.families]
    report = verify.run_all(cfg, dataset, model, controller, witnesses, cfg.make_plant(),
                            cfg.make_bounds(model.kernel), log=log)
    if os.path.exists(paths["summary"]):
        verify.add_check(report, log, "rmse_recompute", cmd_report(cfg, log=lambda *_: None),
                      "summary matches recomputed metric")
    with open(paths["verify_report"], "w") as fh:
        for name, passed, detail in report:
            fh.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
    return all(passed for _, passed, _ in report)
