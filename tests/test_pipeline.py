import argparse
import filecmp
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import sample_in_ball
from invctrl import pipeline, verify
from invctrl.cli import build_parser, main
from invctrl.config import ConfigError, default_config, load_config
from invctrl.levelsets import (ABSENT, LevelFamily, load_family, paired_distances,
                               successor_inradii)
from invctrl.plants import NumericalPlant, PendulumPlant, rng_stream

# the scope and the bound the certificate check names on each plant's verify line
NUM_SCOPE = "exact, every entry; composed bound"
PEN_SCOPE = "exact, every entry; linear gamma slope 1.005, heuristic"


def test_default_configs_validate():
    default_config("numerical").validate()
    default_config("pendulum").validate()
    with pytest.raises(ConfigError):
        default_config("robot")


@pytest.mark.parametrize("plant,cls", [("numerical", NumericalPlant),
                                       ("pendulum", PendulumPlant)])
def test_order_and_delay_come_from_the_plant(plant, cls):
    cfg = default_config(plant)
    assert (cfg.order, cfg.delay) == (cls.order, cls.delay)
    assert type(cfg.make_plant()) is cls
    with pytest.raises(AttributeError):
        cfg.delay = 1


def test_config_file_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "[plant]\nid = numerical\n"
        "[levels]\ndeltas = 0.5, 1.0\nkappa_bar = 5\n"
        "[run]\nseed = 7\nout = somewhere\n")
    cfg = load_config(p)
    assert cfg.deltas == (0.5, 1.0) and cfg.depth == 5
    assert cfg.seed == 7 and cfg.outdir == "somewhere"
    assert cfg.kernel_family == "squared_exponential"  # untouched default


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "example.cfg"
    p.write_text(block)
    cfg = load_config(p)
    assert cfg.validate() is cfg
    assert cfg.initial_conditions == ((-1.0, -1.0, 0.0), (0.0, 0.0, 0.0),
                                      (1.0, 1.0, 0.0))
    # the three bound constants are read under their documented spelling
    p.write_text(block.replace("L_f = 6.5", "L_f = 7.25")
                 .replace("L_c = 0.22", "L_c = 0.3").replace("Gamma = 1.0", "Gamma = 2.5"))
    cfg = load_config(p)
    assert (cfg.lip_f, cfg.lip_c, cfg.rkhs_bound) == (7.25, 0.3, 2.5)


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[plant]\nid = numerical\n[levels]\ndepthh = 3\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[plant]\nid = numerical\n[widgets]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)
    # eta comes from the kernel profile alone: no mode key, not even "profile"
    p.write_text("[plant]\nid = numerical\n[bounds]\neta_mode = profile\n")
    with pytest.raises(ConfigError, match="unknown key 'eta_mode'"):
        load_config(p)


def test_config_rejects_bad_values(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[plant]\nid = numerical\n[levels]\nkappa_bar = soon\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[plant]\nid = numerical\n[levels]\ndeltas = 3, 1, 2\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[plant]\nid = numerical\n[simulate]\nhorizon = 0\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_cli_exit_code_on_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[plant]\nid = numerical\n[levels]\ndeltas = -1\n")
    assert main(["build", "--config", str(bad)]) == 2
    assert main(["collect"]) == 2  # neither --config nor --plant


@pytest.mark.parametrize("text,message", [
    ("id = numerical\n[kernel]\nfamily = foo\n", "unknown kernel family"),
    ("id = numerical\n[bounds]\neta_mode = explicit\n", "eta_mode"),
    ("id = numerical\n[bounds]\ngamma_mode = linear\n",
     "linear gamma mode needs a positive slope"),
    ("id = numerical\nnu = 2\n", "unknown key 'nu'"),
    ("id = numerical\nn = 2\n", "unknown key 'n'"),
    ("id = numerical\n[kernel]\nsigma_l = 1, 1, 1, 1\n", "takes a single length scale"),
    ("id = numerical\n[simulate]\ninitial_conditions = nan, 0, 0\n",
     "initial_conditions must be finite"),
    ("id = numerical\n[levels]\ndeltas = 0.5, inf\n", "deltas must be finite"),
    ("id = pendulum\n[kernel]\nsigma_l = 1, 1, 1\n", "needs 4 length scales"),
])
def test_cli_config_error_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[plant]\n" + text)
    capsys.readouterr()
    assert main(["collect", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "x").exists()


def test_cli_rejects_noisy_numerical(tmp_path):
    code = main(["collect", "--plant", "numerical", "--noisy",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_full_cli_numerical_pipeline(tmp_path):
    out = str(tmp_path / "run")
    args = ["--plant", "numerical", "--out", out]
    assert main(["collect"] + args) == 0
    assert main(["build"] + args) == 0
    assert main(["simulate"] + args) == 0
    assert main(["report"] + args) == 0
    assert os.path.exists(os.path.join(out, "model.txt"))
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert len(os.listdir(os.path.join(out, "runs"))) == 5


def test_pipeline_determinism(tmp_path):
    # identical config and seed -> byte-identical artifacts and run logs
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        cfg = default_config("numerical")
        cfg.outdir = out
        pipeline.cmd_collect(cfg, log=lambda *a: None)
        pipeline.cmd_build(cfg, log=lambda *a: None)
        pipeline.cmd_simulate(cfg, log=lambda *a: None)
        outs.append(out)
    a, b = outs
    for rel in ("trajectories.csv", "model.txt", "build_report.txt", "summary.txt"):
        assert filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel),
                           shallow=False), rel
    for sub in ("families", "runs"):
        names = sorted(os.listdir(os.path.join(a, sub)))
        assert names == sorted(os.listdir(os.path.join(b, sub)))
        for nm in names:
            assert filecmp.cmp(os.path.join(a, sub, nm),
                               os.path.join(b, sub, nm), shallow=False), nm


def test_collect_idempotent(numerical_cfg, tmp_path):
    out = str(tmp_path / "again")
    cfg = default_config("numerical")
    cfg.outdir = out
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    assert filecmp.cmp(os.path.join(numerical_cfg.outdir, "trajectories.csv"),
                       os.path.join(out, "trajectories.csv"), shallow=False)


def test_build_report_contents(numerical_cfg):
    text = open(os.path.join(numerical_cfg.outdir, "build_report.txt")).read()
    assert "records = 280" in text
    assert text.count("family delta=") == 9
    assert "rkhs_norm_estimate" in text


def test_verify_passes_on_clean_artifacts(numerical_cfg):
    assert pipeline.cmd_verify(numerical_cfg, log=lambda *a: None) is True
    # the sampled suites' lines are pinned: a faster verify must not move
    # a draw or a count
    report = open(os.path.join(numerical_cfg.outdir, "verify_report.txt")).read()
    lines = report.splitlines()
    assert ("PASS bound_validity_oracle: violations u/y/state 0/0/0, "
            "0 infeasible-pair skips of 1000") in lines
    # the certificate check names its scope and the bound it holds against
    assert ("PASS family_certificate_consistency: state_dev(cert_radius) <= inradius, "
            + NUM_SCOPE) in lines


def test_verify_passes_on_clean_pendulum_artifacts(pendulum_cfg):
    assert pipeline.cmd_verify(pendulum_cfg, log=lambda *a: None) is True
    report = open(os.path.join(pendulum_cfg.outdir, "verify_report.txt")).read()
    lines = report.splitlines()
    assert "PASS bound_validity_oracle: 0 violations over 1000 delayed-map samples" in lines
    assert ("PASS family_certificate_consistency: state_dev(cert_radius) <= inradius, "
            + PEN_SCOPE) in lines


def test_verify_catches_fault_injection(numerical_cfg, tmp_path):
    import shutil
    out = str(tmp_path / "tampered")
    shutil.copytree(numerical_cfg.outdir, out)
    cfg = default_config("numerical")
    cfg.outdir = out
    fam_path = os.path.join(out, "families", "delta_0p1.npy")
    radius = np.load(fam_path)
    i = np.flatnonzero(np.isfinite(radius[0]))[0]
    radius[0, i] = -radius[0, i]  # negate a level-0 radius
    np.save(fam_path, radius)
    assert pipeline.cmd_verify(cfg, log=lambda *a: None) is False
    report = open(os.path.join(out, "verify_report.txt")).read()
    assert "FAIL family_positive_radii" in report


def test_report_detects_corrupted_log(numerical_cfg, tmp_path):
    import shutil
    out = str(tmp_path / "corrupt")
    cfg = default_config("numerical")
    cfg.outdir = out
    shutil.copytree(numerical_cfg.outdir, out)
    pipeline.cmd_simulate(cfg, log=lambda *a: None)
    log_path = os.path.join(out, "runs", "ic_00.csv")
    lines = open(log_path).read().splitlines()
    cols = lines[2].split(",")
    cols[7] = format(float(cols[7]) + 0.5, ".17g")
    lines[2] = ",".join(cols)
    open(log_path, "w").write("\n".join(lines) + "\n")
    assert pipeline.cmd_report(cfg, log=lambda *a: None) is False


def test_verify_catches_recursion_escape(numerical_cfg, tmp_path):
    import shutil
    out = str(tmp_path / "shrunk")
    shutil.copytree(numerical_cfg.outdir, out)
    cfg = default_config("numerical")
    cfg.outdir = out
    fam_path = os.path.join(out, "families", "delta_1.npy")
    radius = np.load(fam_path)
    level2 = np.flatnonzero(np.isfinite(radius[2]))
    assert level2.size > 1
    level1 = np.isfinite(radius[1])
    radius[1, level1] *= 1e-3  # shrink the level-1 certified balls
    np.save(fam_path, radius)
    assert pipeline.cmd_verify(cfg, log=lambda *a: None) is False
    report = open(os.path.join(out, "verify_report.txt")).read()
    # the level-2 inradii, re-derived from the shrunk level-1 balls, do not
    # back the level-2 certificates: the exact check names a level-2 entry
    assert "FAIL family_positive_radii: delta=1 level=2 record=" in report
    fail = next(line for line in report.splitlines()
                if line.startswith("FAIL family_certificate_consistency"))
    record = int(fail.split("record=")[1].split(",")[0])
    assert fail == (f"FAIL family_certificate_consistency: delta=1 level=2 record={record}, "
                    + NUM_SCOPE) and record in level2


def _family(art, delta):
    """(family, levels >= 1 inradius table, witness table) of accuracy ``delta``."""
    return next(entry for entry in zip(art["controller"].families, art["inradii"],
                                       art["witnesses"]) if entry[0].delta == delta)


@pytest.mark.parametrize("artifacts,per_level,samples", [
    ("numerical_artifacts", None, 200), ("pendulum_artifacts", 8, 50)])
def test_paired_distances_equal_cdist(request, artifacts, per_level, samples):
    # points in the successor inradius ball of the first ``per_level`` entries
    # (all if None) of every fourth level, against each entry's witness ball
    rng = np.random.default_rng(8)
    art = request.getfixturevalue(artifacts)
    levels = [(fam, inradius, witness, j)
              for fam, inradius, witness in zip(art["controller"].families, art["inradii"],
                                                art["witnesses"])
              for j in range(1, len(fam.radius))][::4]
    for fam, inradius, witness, j in levels:
        idx = fam.present(j)[:per_level]
        pts = np.stack([sample_in_ball(rng, fam.dataset.succ_states[i], inradius[j - 1, i],
                                       samples) for i in idx])
        centers = fam.centers(j - 1)[witness[j - 1, idx]]
        want = np.stack([cdist(p, c[None])[:, 0] for p, c in zip(pts, centers)])
        assert np.array_equal(paired_distances(pts, centers[:, None]), want)
    assert len(levels) > 3


def _reference_offenders(families, inradii, dataset, bounds):
    """Level-by-level loop over present entries: the reference for the
    per-family radius, slab and certificate details."""
    neg = slab_bad = cert_bad = None
    for fam, inradius in zip(families, inradii):
        for j in range(len(fam.radius)):
            idx = fam.present(j)
            if idx.size == 0:
                continue
            radius = fam.radius[j, idx]
            low = radius if j == 0 else np.minimum(inradius[j - 1, idx], radius)
            if np.any(low <= 0):
                neg = (f"delta={fam.delta:g} level={j} record={int(idx[np.argmin(low)])} "
                       f"r={float(low.min()):g}")
            if j == 0:
                margin = np.abs(dataset.succ_states[idx, dataset.order - 1]) + radius
                if np.any(margin > fam.delta + 1e-12):
                    k = int(np.argmax(margin))
                    slab_bad = (f"delta={fam.delta:g} record={int(idx[k])} "
                                f"reach={float(margin[k]):g}")
                continue
            live = radius > 0
            gap = np.full(len(idx), ABSENT)
            gap[live] = bounds.state_dev(radius[live]) - inradius[j - 1, idx][live]
            if np.any(gap > 0):
                cert_bad = f"delta={fam.delta:g} level={j} record={int(idx[np.argmax(gap)])}"
    return neg, slab_bad, cert_bad


@pytest.mark.parametrize("seed", range(6))
def test_family_offenders_name_the_level_loop_entry(numerical_artifacts, seed):
    # random mutations of the tables: negated and zeroed inradii (level-0
    # radii or successor inradii), level-0 balls pushed out of the slab,
    # inflated certified radii
    art = numerical_artifacts
    rng = np.random.default_rng(seed)
    families, inradii = [], []
    for fam, inradius in zip(art["controller"].families, art["inradii"]):
        radius, inradius = fam.radius.copy(), inradius.copy()
        for _ in range(rng.integers(0, 4)):
            kind = rng.integers(4)
            j = 0 if kind == 2 else rng.integers(1 if kind == 3 else 0, len(radius))
            i = rng.choice(np.flatnonzero(radius[j] != ABSENT))
            r = radius[0] if j == 0 else inradius[j - 1]
            if kind == 0:
                r[i] = -r[i]
            elif kind == 1:
                r[i] = 0.0
            elif kind == 2:
                r[i] += 1e-10  # just past the slab tolerance
            else:
                radius[j, i] *= 1.0 + rng.random()
        families.append(LevelFamily(delta=fam.delta, depth=fam.depth, radius=radius,
                                    dataset=fam.dataset))
        inradii.append(inradius)
    got = verify.family_offenders(families, inradii, art["bounds"])
    want = _reference_offenders(families, inradii, art["dataset"], art["bounds"])
    assert tuple(got) == want and None not in want
    clean = verify.family_offenders(art["controller"].families, art["inradii"], art["bounds"])
    assert clean == [None, None, None]


def _reference_box(plant, ds):
    """The box ``run_all`` draws oracle states from: the delay-1 plant's
    state box, else the data's state range widened by 5 % of its magnitude."""
    if plant.delay == 1:
        return plant.state_box()
    lo = ds.states.min(axis=0) - 0.05 * np.abs(ds.states).max(axis=0)
    hi = ds.states.max(axis=0) + 0.05 * np.abs(ds.states).max(axis=0)
    return np.stack([lo, hi], axis=1)


def _reference_oracle(plant, ds, model, bounds, rng, box):
    """Per-sample oracle loop: the reference for the batched oracle."""
    lo, hi = box[:, 0], box[:, 1]
    viol_u = viol_y = viol_g = skipped = 0
    for _ in range(1000):
        i = int(rng.integers(len(ds)))
        z = rng.uniform(lo, hi)
        eps = float(np.linalg.norm(ds.states[i] - z))
        u_hat = model.predict(np.concatenate([[ds.targets[i]], z]))
        if abs(ds.controls[i] - u_hat) > bounds.input_dev(eps) + 1e-9:
            viol_u += 1
        if not plant.input_feasible(z, u_hat):
            skipped += 1
            continue
        if plant.delay == 1:
            if abs(ds.targets[i] - plant.step(z, u_hat)) > bounds.output_dev(eps) + 1e-9:
                viol_y += 1
            lim = bounds.state_dev(eps)
        else:
            lim = bounds.input_dev(eps) + (1.0 + bounds.lip_f) * eps
        _, z_next = plant.advance(z, u_hat)
        if float(np.linalg.norm(ds.succ_states[i] - z_next)) > lim + 1e-9:
            viol_g += 1
    return viol_u, viol_y, viol_g, skipped


@pytest.mark.parametrize("artifacts", ["numerical_artifacts", "pendulum_artifacts"])
def test_oracle_draws_equal_per_draw_uniform(request, artifacts):
    # the draws run_all's oracle makes, and the stream left behind, equal
    # one ``rng.uniform(low, high)`` per draw bit for bit
    art = request.getfixturevalue(artifacts)
    box = _reference_box(art["plant"], art["dataset"])
    got_rng = rng_stream(art["cfg"].seed, verify.STREAM_VERIFY)
    want_rng = rng_stream(art["cfg"].seed, verify.STREAM_VERIFY)
    rec, z = verify.oracle_draws(got_rng, len(art["dataset"]), box)
    want_rec, want_z = [], []
    for _ in range(verify.ORACLE_DRAWS):
        want_rec.append(want_rng.integers(len(art["dataset"])))
        want_z.append(want_rng.uniform(box[:, 0], box[:, 1]))
    assert np.array_equal(rec, want_rec)
    assert z.tobytes() == np.array(want_z).tobytes()
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("artifacts,scale", [
    ("numerical_artifacts", dict(lip_c=1e-9, rkhs_bound=1e-9, lip_f=1e-9)),
    ("pendulum_artifacts", dict(lip_c=1e-6, rkhs_bound=1e-2)),
])
def test_verify_fails_bound_oracle_on_shrunk_constants(request, artifacts, scale):
    # shrinking lip_c alone is not enough: the RKHS-norm term saturates
    # at rkhs_bound, above every stored control, and the successor bound
    # holds through its own eps term
    art = request.getfixturevalue(artifacts)
    cfg = replace(art["cfg"], **{k: getattr(art["cfg"], k) * v for k, v in scale.items()})
    bounds = cfg.make_bounds(art["model"].kernel)
    args = (art["plant"], art["dataset"], art["model"], bounds)
    box = _reference_box(art["plant"], art["dataset"])
    got = verify.oracle_violations(*args, rng_stream(cfg.seed, verify.STREAM_VERIFY), box)
    want = _reference_oracle(*args, rng_stream(cfg.seed, verify.STREAM_VERIFY), box)
    assert got == want
    assert sum(count > 0 for count in got[:3]) == 2  # input and output or state
    lines = []
    verify.run_all(cfg, art["dataset"], art["model"], art["controller"], art["witnesses"],
                   art["plant"], bounds, log=lines.append)
    assert any(line.startswith("verify FAIL bound_validity_oracle") for line in lines)


@pytest.mark.parametrize("artifacts", ["numerical_artifacts", "pendulum_artifacts"])
def test_verify_kernel_matrix_equals_predict_and_power(request, artifacts):
    # run_all's one training kernel matrix gives the batched predict residual
    # and the power at data of a freshly loaded model, bit for bit
    art = request.getfixturevalue(artifacts)
    ds, model = art["dataset"], art["model"]
    K = model.kernel.cross(ds.features, model.train_x)
    assert np.array_equal(K, model.kernel.gram(model.train_x))
    assert np.array_equal(K @ model.alpha, model.predict(ds.features))
    sub = np.random.default_rng(0).choice(len(ds), size=64, replace=False)
    got = replace(model, _chol=None).power_of_columns(np.ascontiguousarray(K[:, sub]), gram=K)
    want = replace(model, _chol=None).power(ds.features[sub])
    assert got.tobytes() == want.tobytes()


def test_verify_fails_model_trained_on_other_features(numerical_artifacts):
    art = numerical_artifacts
    model = replace(art["model"], train_x=art["model"].train_x + 1e-3, _chol=None)
    lines = []
    verify.run_all(art["cfg"], art["dataset"], model, art["controller"], art["witnesses"],
                   art["plant"], art["bounds"], log=lines.append)
    assert ("verify FAIL interpolation_exactness: the model's training features are not "
            "the dataset's features") in lines
    assert not any("power_function_at_data" in line for line in lines)


def test_bound_oracle_matches_reference_with_one_blas_thread():
    # perfbench and scripts/compare_outputs.py pin one BLAS thread, under
    # which a batched gemv and single-point predict differ in the last bits
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=path)
    test = f"{__file__}::test_verify_fails_bound_oracle_on_shrunk_constants"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert "2 passed" in proc.stdout


@pytest.mark.parametrize("header", [
    "time;delta;kappa",
    "t,kappa,delta,i1,slack,certified,u,y_next,descent_ok",  # starts like one, columns swapped
])
def test_cli_report_rejects_broken_log_header(numerical_cfg, tmp_path, capsys, header):
    import shutil
    out = str(tmp_path / "broken_header")
    shutil.copytree(numerical_cfg.outdir, out)
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 0
    log_path = os.path.join(out, "runs", "ic_00.csv")
    lines = open(log_path).read().splitlines()
    lines[1] = header
    open(log_path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "ic_00.csv" in err and "not a run log" in err


@pytest.mark.parametrize("line,edit,message", [
    (0, "# ic = nan_here,1", "ic_00.csv:1:"),
    (0, "# ic = 0.1", "ic_00.csv:1: initial condition has 1 values"),
    (2, "1,0.5,1", "ic_00.csv:3:"),
    # a dict sets the named cells of a row that is otherwise left as written
    (2, {"certified": "yes"}, "ic_00.csv:3: bad run log row"),
    (3, {"descent_ok": "maybe"}, "ic_00.csv:4: bad run log row"),
])
def test_cli_report_rejects_malformed_log_line(numerical_cfg, tmp_path, capsys,
                                               line, edit, message):
    import shutil
    out = str(tmp_path / f"malformed_{line}")
    shutil.copytree(numerical_cfg.outdir, out)
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 0
    log_path = os.path.join(out, "runs", "ic_00.csv")
    lines = open(log_path).read().splitlines()
    if isinstance(edit, dict):
        row = dict(zip(lines[1].split(","), lines[line].split(",")), **edit)
        edit = ",".join(row.values())
    lines[line] = edit
    open(log_path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert message in err


def test_cli_report_rejects_summary_without_run(numerical_cfg, tmp_path, capsys):
    import shutil
    out = str(tmp_path / "summary_short")
    shutil.copytree(numerical_cfg.outdir, out)
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 0
    summary = os.path.join(out, "summary.txt")
    lines = open(summary).read().splitlines()
    open(summary, "w").write("\n".join(l for l in lines if not l.startswith("ic_00:")) + "\n")
    capsys.readouterr()
    assert main(["report", "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "summary.txt" in err and "ic_00" in err


@pytest.mark.parametrize("edit,fields", [
    ({"descent_violations": "0", "fallbacks": "999"}, "descent_violations,fallbacks"),
    ({"ic": "9,9,9"}, "ic"),
    ({"certified": "0.500"}, "certified"),
    ({"rmse": "nan"}, "rmse"),  # NaN compares unequal to every recomputed rmse
    ({"certified": "1.000", "heuristic": "0.000"}, "certified,heuristic"),
])
def test_cli_report_checks_every_summary_field(pendulum_cfg, tmp_path, capsys, edit, fields):
    # a summary value the run log does not reproduce fails the report (exit
    # 1), naming the run and the fields; ic is compared as the summary prints it
    import shutil
    out = str(tmp_path / "summary_edit")
    shutil.copytree(pendulum_cfg.outdir, out)
    assert main(["simulate", "--plant", "pendulum", "--out", out]) == 0
    capsys.readouterr()
    assert main(["report", "--plant", "pendulum", "--out", out]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    summary = os.path.join(out, "summary.txt")
    lines = open(summary).read().splitlines()
    cells = dict(tok.partition("=")[::2] for tok in lines[0].split()[1:])
    assert int(cells["descent_violations"]) > 0 and cells["certified"] != "0.500"
    lines[0] = "ic_00: " + " ".join(f"{k}={edit.get(k, v)}" for k, v in cells.items())
    open(summary, "w").write("\n".join(lines) + "\n")
    assert main(["report", "--plant", "pendulum", "--out", out]) == 1
    report = capsys.readouterr().out.splitlines()
    assert f"recompute=MISMATCH {fields} " in report[0] and report[0].startswith("ic_00:")
    assert all("recompute=ok" in line for line in report[1:])


@pytest.mark.parametrize("stage", ["report", "verify"])
def test_cli_rejects_malformed_summary_value(numerical_cfg, tmp_path, capsys, stage):
    import shutil
    out = str(tmp_path / "summary_value")
    shutil.copytree(numerical_cfg.outdir, out)
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 0
    summary = os.path.join(out, "summary.txt")
    lines = open(summary).read().splitlines()
    lines[1] = " ".join("rmse=abc" if tok.startswith("rmse=") else tok for tok in lines[1].split())
    open(summary, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([stage, "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "summary.txt:2: bad summary line" in err


@pytest.mark.parametrize("damage,message", [
    ("one_record_short", "280 records"),
    ("cut_off", "not a radius table dump"),
])
def test_cli_simulate_rejects_bad_family_table(numerical_cfg, tmp_path, capsys,
                                               damage, message):
    import shutil
    out = str(tmp_path / damage)
    shutil.copytree(numerical_cfg.outdir, out)
    fam_path = os.path.join(out, "families", "delta_0p1.npy")
    if damage == "one_record_short":
        np.save(fam_path, np.load(fam_path)[:, :-1])
    else:
        raw = open(fam_path, "rb").read()
        open(fam_path, "wb").write(raw[:len(raw) // 2])
    capsys.readouterr()
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "delta_0p1.npy" in err and message in err


def _damaged_copy(src, tmp_path, name, delta_tag="0p01"):
    """Copy of the build ``src`` and the paths of one family's radius and
    witness files in it."""
    import shutil
    out = str(tmp_path / name)
    shutil.copytree(src, out)
    stem = os.path.join(out, "families", f"delta_{delta_tag}")
    return out, stem + ".npy", stem + ".witness.npy"


@pytest.mark.parametrize("case,radius_value", [
    ("inf_in_both", np.inf),
    ("radius_nan", np.nan),
    ("inradius_absent", None),
    ("cert_absent", ABSENT),
    ("inradius_nan", None),
    ("inradius_inf", None),
    ("inradius_under_absent_radius", None),
], ids=["inf_in_both", "radius_nan", "inradius_absent", "cert_absent", "inradius_nan",
        "inradius_inf", "inradius_under_absent_radius"])
def test_cli_rejects_nonfinite_or_one_sided_radius(pendulum_cfg, tmp_path, capsys,
                                                   case, radius_value):
    # a NaN or +inf radius stops every stage that loads the families, also
    # with the witness file damaged too, since the radius file is read first.
    # An ABSENT radius removes a ball: the tables load, and verify fails the
    # level-4 entry whose witness that ball was.  The inradii are derived
    # from the witness file, which only verify reads: a witness at an ABSENT
    # ball gives an ABSENT inradius under a present radius, which verify
    # fails; a NaN or inf cannot be stored as a ball index, and the float
    # table holding one stops verify; under an ABSENT radius the derived
    # inradius is ABSENT whatever the witness, so the tables cannot disagree
    out, fam_path, wit_path = _damaged_copy(pendulum_cfg.outdir, tmp_path, case)
    radius, witness = np.load(fam_path), np.load(wit_path)
    level, record = 3, 121
    if case == "inradius_under_absent_radius":
        record = int(np.flatnonzero(radius[level] == ABSENT)[0])
    else:
        assert np.isfinite(radius[level, record])
    if radius_value is not None:
        radius[level, record] = radius_value
        np.save(fam_path, radius)
    if case == "inf_in_both":
        witness[level - 1, record] = radius.shape[1]
    elif case == "inradius_absent":
        witness[level - 1, record] = np.flatnonzero(radius[level - 1] == ABSENT)[0]
    elif case == "inradius_under_absent_radius":
        witness[level - 1, record] = (witness[level - 1, record] + 1) % radius.shape[1]
        fam = load_family(fam_path, pipeline.load_dataset(pendulum_cfg), 0.01, len(radius) - 1)
        assert successor_inradii(fam, witness)[level - 1, record] == ABSENT
    np.save(wit_path, witness)
    if case in ("inradius_nan", "inradius_inf"):
        table = witness.astype(float)
        table[level - 1, record] = np.nan if case == "inradius_nan" else np.inf
        np.save(wit_path, table)
    codes = {"verify": 0, "simulate": 0}
    if radius_value is ABSENT or case == "inradius_absent":
        codes["verify"] = 1
    elif radius_value is not None:
        codes = {"verify": 2, "simulate": 2}
        message = (f"{fam_path}: level {level} record {record} has radius {radius_value:g}: "
                   "not finite")
    elif case != "inradius_under_absent_radius":
        codes["verify"] = 2
        message = (f"{wit_path}: table of shape {witness.shape} (float64) does not fit "
                   "unsigned indices")
    for stage, code in codes.items():
        capsys.readouterr()
        assert main([stage, "--plant", "pendulum", "--out", out]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith(f"config error: {message}")
    if codes["verify"] == 1:
        lines = open(os.path.join(out, "verify_report.txt")).read().splitlines()
        if case == "inradius_absent":
            failed = f"level={level} record={record}"
        else:
            dependent = int(np.flatnonzero((radius[4] != ABSENT) & (witness[3] == record))[0])
            failed = f"level=4 record={dependent}"
        assert f"FAIL family_positive_radii: delta=0.01 {failed} r=-inf" in lines


@pytest.mark.parametrize("damage,message", [
    ("float64", "table of shape (100, 1188) (float64) does not fit unsigned indices"),
    ("wrong_shape", "table of shape (99, 1188) (uint16) does not fit unsigned indices "
                    "of shape (100, 1188)"),
    ("index_past_records", "level 3 record 121 has witness 1188, not one of the 1188 records"),
    ("truncated", "not a witness table dump"),
])
def test_cli_rejects_bad_witness_table(pendulum_cfg, tmp_path, capsys, damage, message):
    # only verify reads the witness file: it exits 2 naming the file, and
    # the level and record of a bad index; simulate runs on
    out, _, wit_path = _damaged_copy(pendulum_cfg.outdir, tmp_path, damage)
    witness = np.load(wit_path)
    assert witness.shape == (100, 1188) and witness.dtype == np.uint16
    if damage == "truncated":
        raw = open(wit_path, "rb").read()
        open(wit_path, "wb").write(raw[:len(raw) // 2])
    else:
        if damage == "index_past_records":
            witness[2, 121] = 1188
        np.save(wit_path, {"float64": witness.astype(float), "wrong_shape": witness[1:],
                           "index_past_records": witness}[damage])
    assert main(["simulate", "--plant", "pendulum", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--plant", "pendulum", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {wit_path}: {message}")


def test_cli_witness_file_is_read_by_verify_only(pendulum_cfg, tmp_path, capsys):
    out, _, wit_path = _damaged_copy(pendulum_cfg.outdir, tmp_path, "no_witness")
    os.remove(wit_path)
    assert main(["simulate", "--plant", "pendulum", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--plant", "pendulum", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("missing artifact:") and "delta_0p01.witness.npy" in err


@pytest.mark.parametrize("which,stage", [("radius", "simulate"), ("witness", "verify")])
def test_cli_unreadable_family_file_exits_2(numerical_cfg, tmp_path, capsys, which, stage):
    # a directory where a family file belongs: exit 2 naming the path, not a
    # traceback with the exit code of a failed property
    out, fam_path, wit_path = _damaged_copy(numerical_cfg.outdir, tmp_path, which, "0p1")
    path = fam_path if which == "radius" else wit_path
    os.remove(path)
    os.mkdir(path)
    capsys.readouterr()
    assert main([stage, "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unreadable artifact:") and path in err


def _verify_report_lines(out):
    assert main(["verify", "--plant", "pendulum", "--out", out]) == 1
    return open(os.path.join(out, "verify_report.txt")).read().splitlines()


def test_cli_verify_fails_witness_of_a_distant_record(pendulum_cfg, tmp_path):
    # a witness pointed at the level-2 ball farthest from the successor: the
    # inradius verify derives from it does not back the certified radius
    out, fam_path, wit_path = _damaged_copy(pendulum_cfg.outdir, tmp_path, "far_witness")
    radius, witness = np.load(fam_path), np.load(wit_path)
    ds = pipeline.load_dataset(pendulum_cfg)
    ball = np.flatnonzero(radius[2] != ABSENT)
    far = ball[np.argmax(cdist(ds.succ_states[[121]], ds.states[ball])[0])]
    assert radius[3, 121] > 0 and witness[2, 121] != far
    witness[2, 121] = far
    np.save(wit_path, witness)
    lines = _verify_report_lines(out)
    assert ("FAIL family_certificate_consistency: delta=0.01 level=3 record=121, "
            + PEN_SCOPE) in lines


def test_cli_verify_fails_shrunk_witness_ball(pendulum_artifacts, tmp_path):
    # the level-2 ball that alone witnesses one level-3 entry, shrunk by half
    # that entry's inradius: only the inradius verify re-derives from the
    # shrunk ball shows that the entry's certificate fails
    art = pendulum_artifacts
    fam, inradius, witness = _family(art, 0.01)
    present = np.flatnonzero(fam.radius[3] != ABSENT)
    users = np.bincount(witness[2, present], minlength=len(fam.dataset))
    entry = next(i for i in present if users[witness[2, i]] == 1)
    k = witness[2, entry]
    out, fam_path, _ = _damaged_copy(art["cfg"].outdir, tmp_path, "shrunk_witness")
    radius = np.load(fam_path)
    radius[2, k] -= 0.5 * inradius[2, entry]
    np.save(fam_path, radius)
    lines = _verify_report_lines(out)
    assert (f"FAIL family_certificate_consistency: delta=0.01 level=3 record={entry}, "
            + PEN_SCOPE) in lines
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL family_certificate_consistency"]


def test_cli_verify_fails_doubled_certified_radius(pendulum_cfg, tmp_path):
    # one certified radius doubled: its bound no longer reaches into the
    # successor's inradius, so the certificate check names it
    out, fam_path, _ = _damaged_copy(pendulum_cfg.outdir, tmp_path, "doubled")
    radius = np.load(fam_path)
    assert radius[3, 121] > 0
    radius[3, 121] *= 2.0
    np.save(fam_path, radius)
    assert main(["verify", "--plant", "pendulum", "--out", out]) == 1
    lines = open(os.path.join(out, "verify_report.txt")).read().splitlines()
    assert ("FAIL family_certificate_consistency: delta=0.01 level=3 record=121, "
            + PEN_SCOPE) in lines
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL family_certificate_consistency"]


def test_cli_verify_fails_negative_certified_radius(pendulum_cfg, tmp_path):
    # a certified radius below zero under a present inradius is a failed
    # property, not a traceback from evaluating the bound at it.  The ball
    # witnesses no level-4 entry, whose re-derived inradius it would sink too
    out, fam_path, wit_path = _damaged_copy(pendulum_cfg.outdir, tmp_path, "negative_cert")
    radius, witness = np.load(fam_path), np.load(wit_path)
    record = next(i for i in range(121, radius.shape[1]) if np.isfinite(radius[3, i])
                  and not np.any((radius[4] != ABSENT) & (witness[3] == i)))
    radius[3, record] = -1e-3
    np.save(fam_path, radius)
    lines = _verify_report_lines(out)
    assert f"FAIL family_positive_radii: delta=0.01 level=3 record={record} r=-0.001" in lines
    assert ("PASS family_certificate_consistency: state_dev(cert_radius) <= inradius, "
            + PEN_SCOPE) in lines


@pytest.mark.parametrize("name,line,text,message,stage", [
    ("trajectories.csv", None, "garbage",
     "trajectories.csv:843: bad trajectory row ['garbage']", "simulate"),
    ("trajectories.csv", 4, "0,1,abc,0.5", "trajectories.csv:4: bad trajectory row",
     "simulate"),
    ("model.txt", 10, "0.1,-1,-1,0,abc,146.3", "model.txt:10: bad model row", "simulate"),
    ("trajectories.csv", 4, "0,1,,-1",
     "trajectories.csv:4: bad trajectory row ['0', '1', '', '-1']", "simulate"),
    ("model.txt", 1, None, "model.txt: not a model dump (KeyError: 'family')", "simulate"),
    ("model.txt", 9, None, "model.txt: not a model dump (ValueError: rows of shape (279, 6)",
     "simulate"),
    ("trajectories.csv", 5, "0,2,,nan",
     "trajectories.csv:5: bad trajectory row ['0', '2', '', 'nan']", "build"),
    ("model.txt", 10, "0.1,-1,-1,0,0.5,nan", "model.txt:10: bad model row", "simulate"),
    ("model.txt", 10, "0.1,-1,-1,0,0.5,146.3,1", "model.txt:10: bad model row", "simulate"),
    ("trajectories.csv", 3, "0,0,0.5,0.1,9.9",
     "trajectories.csv:3: bad trajectory row ['0', '0', '0.5', '0.1', '9.9']", "build"),
    ("trajectories.csv", (3, None), None, "trajectories.csv:3: no trajectory rows", "build"),
    ("trajectories.csv", 6, "abc,0,0,-1",
     "trajectories.csv:6: bad trajectory row ['abc', '0', '0', '-1']", "build"),
    ("trajectories.csv", 5, "0,,,0.5",
     "trajectories.csv:5: bad trajectory row ['0', '', '', '0.5']", "build"),
    ("trajectories.csv", (840, 842), None,
     "trajectories.csv:1: count=280 in the comment, 279 trajectories in the table", "build"),
    # an ARD kernel with one scale does not take the 4-dimensional features
    ("model.txt", 1, "family = ard_matern52",
     "model.txt: not a model dump (ValueError: expected dimension 1, got 4)", "simulate"),
    ("model.txt", 1, "family = ard_matern52",
     "model.txt: not a model dump (ValueError: expected dimension 1, got 4)", "verify"),
], ids=["trajectory_extra_line", "trajectory_text_value", "trajectory_input_missing",
        "model_text_value", "model_without_family", "model_row_missing",
        "trajectory_nan_output", "model_nan_weight", "model_extra_field",
        "trajectory_extra_field", "trajectory_header_only", "trajectory_traj_text",
        "trajectory_t_empty", "trajectory_count", "model_ard_one_scale-simulate",
        "model_ard_one_scale-verify"])
def test_cli_rejects_malformed_artifact(numerical_cfg, tmp_path, capsys,
                                       name, line, text, message, stage):
    # lines ``line`` (a number, or a (first, last) range) are replaced by
    # ``text`` (appended if ``line`` is None, deleted if ``text`` is None)
    import shutil
    out = str(tmp_path / "damaged")
    shutil.copytree(numerical_cfg.outdir, out)
    path = os.path.join(out, name)
    lines = open(path).read().splitlines()
    first, last = line if isinstance(line, tuple) else (line, line)
    if line is None:
        lines.append(text)
    else:
        lines[first - 1:last] = [] if text is None else [text]
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([stage, "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("stage", ["simulate", "verify"])
def test_cli_rejects_pendulum_model_missing_a_scale(pendulum_cfg, tmp_path, capsys, stage):
    # a pendulum dump that lists 3 of its 4 ARD scales does not fit its features
    import shutil
    out = str(tmp_path / "three_scales")
    shutil.copytree(pendulum_cfg.outdir, out)
    path = os.path.join(out, "model.txt")
    lines = open(path).read().splitlines()
    assert lines[2].startswith("sigma_l = ") and lines[2].count(",") == 3
    lines[2] = lines[2].rpartition(",")[0]
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([stage, "--plant", "pendulum", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "model.txt: not a model dump (ValueError: expected dimension 3, got 4)" in err


@pytest.mark.parametrize("case,flags,stages,message", [
    ("too_short", [], ["build"],
     "trajectories.csv: trajectory 0: trajectory too short: horizon 1 < 3"),
    ("not_noisy", ["--noisy"], ["build"],
     "trajectories.csv:1: collected with noisy=0, the config has noisy=1"),
    ("no_rows", [], ["build", "simulate"], "trajectories.csv:3: no trajectory rows"),
    ("plant_mismatch", ["--plant", "numerical"], ["build", "simulate"],
     "trajectories.csv:1: collected with plant=pendulum, the config has plant=numerical"),
    ("noisy_seed_mismatch", ["--noisy", "--seed", "4"], ["build"],
     "trajectories.csv:1: collected with seed=0, the config has seed=4"),
    ("sigma_mismatch", ["--noisy"], ["build"],
     "trajectories.csv:1: collected with sigma_d=0.02, the config has sigma_d=0.01"),
], ids=["too_short", "not_noisy", "no_rows", "plant_mismatch", "noisy_seed_mismatch",
        "sigma_mismatch"])
def test_cli_rejects_trajectories_without_records(tmp_path, capsys, case, flags, stages,
                                                  message):
    # the table collect writes for the default pendulum study (noisy where
    # the case damages the noisy comment), then damaged per ``case``
    out = str(tmp_path / case)
    cfg = default_config("pendulum")
    cfg.outdir, cfg.noisy = out, case in ("noisy_seed_mismatch", "sigma_mismatch")
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    path = os.path.join(out, "trajectories.csv")
    lines = open(path).read().splitlines()
    if case == "too_short":
        lines = [lines[0].replace("count=6", "count=1"), lines[1], "0,0,0.5,0.1", "0,1,,0.2"]
    elif case == "no_rows":
        lines = lines[:2]
    elif case == "sigma_mismatch":
        lines[0] = lines[0].replace("sigma_d=0.01", "sigma_d=0.02")
    open(path, "w").write("\n".join(lines) + "\n")
    for stage in stages:
        capsys.readouterr()
        assert main([stage, "--plant", "pendulum", "--out", out, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


def test_load_dataset_ignores_the_seed_for_noise_free_pendulum_data(pendulum_cfg):
    # the noise-free pendulum data draw no seed, so the table loads under any
    cfg = replace(pendulum_cfg, seed=pendulum_cfg.seed + 7)
    assert len(pipeline.load_dataset(cfg)) == len(pipeline.load_dataset(pendulum_cfg))


def test_cli_simulate_rejects_model_with_infeasible_input(numerical_cfg, tmp_path, capsys):
    # the dump parses, but its first weight drives every estimated input
    # below zero, outside the numerical plant's input band
    import shutil
    out = str(tmp_path / "infeasible")
    shutil.copytree(numerical_cfg.outdir, out)
    path = os.path.join(out, "model.txt")
    lines = open(path).read().splitlines()
    lines[8] = ",".join(lines[8].split(",")[:-1] + ["-1e6"])
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: infeasible input at step 0 "
                          "from initial condition 0 (non-positive input")


@pytest.mark.parametrize("args,message", [
    (["--seeds", "10"], "--seeds needs --noisy"),
    (["--noisy", "--seeds", "0"], "--seeds must be at least 1"),
])
def test_run_pendulum_rejects_bad_seed_count(args, message):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_pendulum.py"), *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and message in proc.stderr


def test_cli_help_lines_are_whole_sentences():
    # each stage's help is the first line of its docstring, a full sentence
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert sorted(helps) == sorted(["collect", "build", "simulate", "verify", "report"])
    for name, text in helps.items():
        assert text.endswith(".") and text[0].isupper(), (name, text)


def test_rmse_displayed_formula():
    assert pipeline.displayed_rmse(np.zeros(11)) == 0.0
    y = np.full(11, 0.5)
    assert pipeline.displayed_rmse(y) == pytest.approx(
        np.sqrt(11 * 0.25) / 11, rel=1e-15)


def test_effective_lam_noisy_default():
    cfg = default_config("pendulum")
    assert cfg.effective_lam() == 0.0
    cfg.noisy = True
    assert cfg.effective_lam() > 0.0
    cfg.lam = 0.7
    assert cfg.effective_lam() == 0.7


def test_run_log_round_trip(numerical_cfg, tmp_path):
    cfg = default_config("numerical")
    cfg.outdir = str(tmp_path / "rt")
    import shutil
    shutil.copytree(numerical_cfg.outdir, cfg.outdir)
    results = pipeline.cmd_simulate(cfg, log=lambda *a: None)
    stored = pipeline.read_summary(os.path.join(cfg.outdir, "summary.txt"))
    for k, result in enumerate(results):
        summary = stored[f"ic_{k:02d}"]
        assert (summary.rmse, summary.descent_violations, summary.fallbacks) == (
            result.rmse, result.descent_violations, result.fallback_steps)
        assert (summary.certified, summary.heuristic) == (
            round(result.certified_fraction, 3), round(result.heuristic_fraction, 3))
        ic, rows = pipeline.read_run_log(os.path.join(cfg.outdir, "runs", f"ic_{k:02d}.csv"))
        assert ic == result.initial_condition
        assert len(rows) == cfg.horizon
        # every field, the empty cells of fallback steps included, reads back as simulated
        assert rows == result.rows
        assert pipeline.tally(rows) == (round(result.certified_fraction * cfg.horizon),
                                        round(result.heuristic_fraction * cfg.horizon),
                                        result.descent_violations, result.fallback_steps)
        outputs = [ic[cfg.order - 1]] + [r.y_next for r in rows]
        assert pipeline.displayed_rmse(outputs) == pytest.approx(result.rmse, abs=1e-15)
    steps = [r for result in results for r in result.rows]
    assert {r.certified for r in steps} == {"certified", "fallback"}  # a sound study
    assert {r.descent_ok for r in steps} >= {True, None}


def _simulated_summary(cfg, tmp_path):
    """(summary lines, run logs) of ``cfg``'s build simulated in a copy."""
    import shutil
    out = str(tmp_path / cfg.plant)
    shutil.copytree(cfg.outdir, out)
    assert main(["simulate", "--plant", cfg.plant, "--out", out]) == 0
    assert main(["report", "--plant", cfg.plant, "--out", out]) == 0
    logs = [pipeline.read_run_log(os.path.join(out, "runs", f"ic_{k:02d}.csv"))[1]
            for k in range(len(cfg.initial_conditions))]
    return open(os.path.join(out, "summary.txt")).read().splitlines(), logs


def test_summaries_label_heuristic_steps(numerical_cfg, pendulum_cfg, tmp_path):
    # the pendulum's linear slope is a heuristic bound: every step is in a
    # family ball, none of them certified; the numerical study is sound and
    # keeps its certified fractions
    lines, logs = _simulated_summary(pendulum_cfg, tmp_path)
    assert len(lines) == 4
    for line, rows in zip(lines, logs):
        assert " certified=0.000 heuristic=1.000 " in line and line.endswith(" fallbacks=0")
        assert {r.certified for r in rows} == {"heuristic"}
        assert sum(r.descent_ok is False for r in rows) > 200  # still asserted on every step
    lines, logs = _simulated_summary(numerical_cfg, tmp_path)
    certified = [line.split("certified=")[1].split()[0] for line in lines]
    assert certified == ["0.900", "0.900", "1.000", "0.900", "0.900"]
    assert all(" heuristic=0.000 " in line for line in lines)
    assert {r.certified for rows in logs for r in rows} == {"certified", "fallback"}


def test_sound_needs_the_composed_bound_and_noise_free_data():
    # families built from noisy data certify that dataset, not the plant
    cfg = default_config("pendulum")
    assert not cfg.sound and not replace(cfg, gamma_mode="composed", noisy=True).sound
    assert replace(cfg, gamma_mode="composed").sound and default_config("numerical").sound


def test_pendulum_build_report_family_count(pendulum_cfg):
    text = open(os.path.join(pendulum_cfg.outdir, "build_report.txt")).read()
    assert text.count("family delta=") == 10


def test_build_warns_on_empty_family(tmp_path):
    cfg = default_config("numerical")
    cfg.outdir = str(tmp_path / "empty")
    cfg.deltas = (1e-09,)  # nothing reaches this accuracy
    pipeline.cmd_collect(cfg, log=lambda *a: None)
    messages = []
    pipeline.cmd_build(cfg, log=messages.append)
    assert any("empty" in m for m in messages)
    text = open(os.path.join(cfg.outdir, "build_report.txt")).read()
    assert "entries=0" in text


def test_empty_family_is_not_reported_nested(tmp_path):
    # a family that certifies nothing does not certify indefinite regulation
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("[plant]\nid = numerical\n[levels]\ndeltas = 1e-9, 0.1\n")
    out = str(tmp_path / "empty")
    for stage in ("collect", "build", "simulate", "verify"):
        assert main([stage, "--config", str(cfg_path), "--out", out]) == 0
    report = open(os.path.join(out, "build_report.txt")).read().splitlines()
    assert ("family delta=1e-09: entries=0 level0=0 nested=unverified truncated_at=0"
            in report)
    verify_report = open(os.path.join(out, "verify_report.txt")).read()
    assert "PASS family_nesting_status: 1e-09:unverified, 0.1:unverified" in verify_report


class _ClosedPipe:
    """A stdout whose reader has gone away, seen on ``write`` or, for output
    still buffered when the stage returns, on ``flush``."""

    def __init__(self, fails):
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        if self.fails == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fails", ["write", "flush"])
def test_cli_closed_stdout_exits_141(numerical_cfg, tmp_path, capsys, monkeypatch, fails):
    # ``invctrl report ... | head -1``: a broken pipe is not a bad artifact.
    # It ends the stage with the shell's SIGPIPE code, and stdout then points
    # at the null device so the interpreter's final flush cannot raise again
    import shutil
    out = str(tmp_path / "piped")
    shutil.copytree(numerical_cfg.outdir, out)
    pipeline.cmd_simulate(replace(numerical_cfg, outdir=out), log=lambda *a: None)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(fails))
    assert main(["report", "--plant", "numerical", "--out", out]) == 141
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_cli_missing_artifacts_exit_code(tmp_path):
    code = main(["simulate", "--plant", "numerical",
                 "--out", str(tmp_path / "nothing_here")])
    assert code == 2


def test_loaded_families_hold_one_table(pendulum_cfg):
    # simulate and the probes keep one radius table per family in memory,
    # not the witness tables that only verify reads
    import tracemalloc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = pipeline.load_artifacts(pendulum_cfg)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    for fam in loaded[2].families:
        arrays = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is fam.radius
        assert fam.radius.dtype == np.float64
    assert held < 12_000_000
