import filecmp
import os

import numpy as np
import pytest

from invctrl import pipeline, verify
from invctrl.cli import main
from invctrl.config import ConfigError, default_config, load_config
from invctrl.levelsets import LevelFamily


def test_default_configs_validate():
    default_config("numerical").validate()
    default_config("pendulum").validate()
    with pytest.raises(ConfigError):
        default_config("robot")


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


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[plant]\nid = numerical\n[levels]\ndepthh = 3\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[plant]\nid = numerical\n[widgets]\nx = 1\n")
    with pytest.raises(ConfigError):
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
    for rel in ("manifest.txt", "model.txt", "build_report.txt", "summary.txt"):
        assert filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel),
                           shallow=False), rel
    for sub in ("trajectories", "families", "runs"):
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
    src = os.path.join(numerical_cfg.outdir, "trajectories")
    dst = os.path.join(out, "trajectories")
    for nm in sorted(os.listdir(src)):
        assert filecmp.cmp(os.path.join(src, nm), os.path.join(dst, nm),
                           shallow=False)


def test_build_report_contents(numerical_cfg):
    text = open(os.path.join(numerical_cfg.outdir, "build_report.txt")).read()
    assert "records = 280" in text
    assert text.count("family delta=") == 9
    assert "rkhs_norm_estimate" in text


def test_verify_passes_on_clean_artifacts(numerical_cfg):
    assert pipeline.cmd_verify(numerical_cfg, log=lambda *a: None) is True


def test_verify_catches_fault_injection(numerical_cfg, tmp_path):
    import shutil
    out = str(tmp_path / "tampered")
    shutil.copytree(numerical_cfg.outdir, out)
    cfg = default_config("numerical")
    cfg.outdir = out
    fam_path = os.path.join(out, "families", "delta_0p1.npy")
    tables = np.load(fam_path)
    j, i = np.argwhere(np.isfinite(tables[0]))[0]
    tables[0, j, i] = -tables[0, j, i]  # negate a radius
    np.save(fam_path, tables)
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
    tables = np.load(fam_path)
    level2 = np.flatnonzero(np.isfinite(tables[0, 2]))
    assert level2.size > 1
    level1 = np.isfinite(tables[1, 1])
    tables[1, 1, level1] *= 1e-3  # shrink the level-1 certified balls
    np.save(fam_path, tables)
    assert pipeline.cmd_verify(cfg, log=lambda *a: None) is False
    report = open(os.path.join(out, "verify_report.txt")).read()
    fail = next(line for line in report.splitlines()
                if line.startswith("FAIL family_recursion_soundness"))
    # every level-2 ball now escapes; the first record is the one named
    assert fail.endswith(f"escape at delta=1 level=2 record={level2[0]}")
    assert "PASS family_positive_radii" in report
    assert "PASS family_certificate_consistency" in report


def _reference_escapes(fam, level, idx, samples, rng):
    """Per-entry broadcast-norm loop: the reference for the batched check."""
    prev_c, prev_r = fam.centers_radii(level - 1)
    escaped = []
    for i in idx:
        pts = verify.sample_in_ball(rng, fam.dataset.succ_states[i],
                                    fam.inradius[level, i], samples)
        d = np.linalg.norm(pts[:, None, :] - prev_c[None, :, :], axis=2)
        escaped.append(not (d <= prev_r[None, :]).any(axis=1).all())
    return np.array(escaped)


def _compare_escapes(families, samples, per_level=None, level_step=1):
    """Batched and reference verdicts on the same seeded draws; returns the
    number of entries compared and of escapes seen."""
    entries = escapes = 0
    for k, fam in enumerate(families):
        for j in range(1, len(fam.inradius), level_step):
            idx = fam.present(j)
            if idx.size == 0:
                continue
            if per_level is not None:
                idx = idx[np.unique(np.linspace(0, len(idx) - 1, per_level).astype(int))]
            got = verify.recursion_escapes(fam, j, idx, samples,
                                           np.random.default_rng((k, j)))
            want = _reference_escapes(fam, j, idx, samples,
                                      np.random.default_rng((k, j)))
            assert np.array_equal(got, want), (fam.delta, j)
            entries += len(idx)
            escapes += int(want.sum())
    return entries, escapes


def test_recursion_escapes_matches_norm_loop_numerical(numerical_artifacts):
    # 200 samples/entry against up to 280 balls spans several distance
    # blocks, and entries straddle the block edges
    families = numerical_artifacts["controller"].families
    entries, escapes = _compare_escapes(families, 200)
    assert entries == sum(sum(f.sizes()[1:]) for f in families)
    assert escapes == 0
    # inflated balls: some samples of an entry escape and some do not
    fam = next(f for f in families if f.delta == 1.0)
    inradius = fam.inradius.copy()
    inradius[1:] *= 1.03
    fat = LevelFamily(delta=fam.delta, depth=fam.depth, inradius=inradius,
                      cert_radius=fam.cert_radius, dataset=fam.dataset)
    entries, escapes = _compare_escapes([fat], 200)
    assert 0 < escapes < entries


def test_recursion_escapes_matches_norm_loop_pendulum(pendulum_artifacts):
    # verify's selection for large datasets; every 5th level keeps the
    # reference loop to a few seconds
    families = pendulum_artifacts["controller"].families
    entries, escapes = _compare_escapes(families, 50, per_level=8, level_step=5)
    assert entries > 1000 and escapes == 0


def test_recursion_escapes_reports_first_injected_escape(numerical_artifacts):
    fam = next(f for f in numerical_artifacts["controller"].families
               if f.delta == 1.0)
    idx = fam.present(1)
    recs = [int(idx[len(idx) // 3]), int(idx[2 * len(idx) // 3])]
    inradius = fam.inradius.copy()
    inradius[1, recs] *= 100.0  # two level-1 balls far beyond level 0
    bad = LevelFamily(delta=fam.delta, depth=fam.depth, inradius=inradius,
                      cert_radius=fam.cert_radius, dataset=fam.dataset)
    _, escapes = _compare_escapes([bad], 200)
    assert escapes == 2
    escaped = verify.recursion_escapes(bad, 1, idx, 200, np.random.default_rng(0))
    assert list(idx[escaped]) == recs
    assert int(idx[np.argmax(escaped)]) == recs[0]


def test_cli_report_rejects_broken_log_header(numerical_cfg, tmp_path, capsys):
    import shutil
    out = str(tmp_path / "broken_header")
    shutil.copytree(numerical_cfg.outdir, out)
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 0
    log_path = os.path.join(out, "runs", "ic_00.csv")
    lines = open(log_path).read().splitlines()
    lines[1] = "time;delta;kappa"
    open(log_path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "ic_00.csv" in err and "not a run log" in err


@pytest.mark.parametrize("line,edit,message", [
    (0, "# ic = nan_here,1", "ic_00.csv:1:"),
    (0, "# ic = 0.1", "ic_00.csv:1: initial condition has 1 values"),
    (2, "1,0.5,1", "ic_00.csv:3:"),
])
def test_cli_report_rejects_malformed_log_line(numerical_cfg, tmp_path, capsys,
                                               line, edit, message):
    import shutil
    out = str(tmp_path / f"malformed_{line}")
    shutil.copytree(numerical_cfg.outdir, out)
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 0
    log_path = os.path.join(out, "runs", "ic_00.csv")
    lines = open(log_path).read().splitlines()
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
        np.save(fam_path, np.load(fam_path)[:, :, :-1])
    else:
        raw = open(fam_path, "rb").read()
        open(fam_path, "wb").write(raw[:len(raw) // 2])
    capsys.readouterr()
    assert main(["simulate", "--plant", "numerical", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "delta_0p1.npy" in err and message in err


def test_rmse_displayed_formula():
    assert pipeline.displayed_rmse(np.zeros(11)) == 0.0
    y = np.full(11, 0.5)
    assert pipeline.displayed_rmse(y) == pytest.approx(
        np.sqrt(11 * 0.25) / 11, rel=1e-15)


def test_effective_lam_noisy_default():
    cfg = default_config("pendulum")
    assert pipeline.effective_lam(cfg) == 0.0
    cfg.noisy = True
    assert pipeline.effective_lam(cfg) > 0.0
    cfg.lam = 0.7
    assert pipeline.effective_lam(cfg) == 0.7


def test_run_log_round_trip(numerical_cfg, tmp_path):
    cfg = default_config("numerical")
    cfg.outdir = str(tmp_path / "rt")
    import shutil
    shutil.copytree(numerical_cfg.outdir, cfg.outdir)
    results = pipeline.cmd_simulate(cfg, log=lambda *a: None)
    ic, rows = pipeline.read_run_log(os.path.join(cfg.outdir, "runs", "ic_00.csv"))
    assert ic == results[0].initial_condition
    assert len(rows) == cfg.horizon
    outputs = [ic[cfg.order - 1]] + [r[7] for r in rows]
    assert pipeline.displayed_rmse(outputs) == pytest.approx(results[0].rmse, abs=1e-15)


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


def test_cli_missing_artifacts_exit_code(tmp_path):
    code = main(["simulate", "--plant", "numerical",
                 "--out", str(tmp_path / "nothing_here")])
    assert code == 2
