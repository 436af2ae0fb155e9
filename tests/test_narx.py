import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invctrl.config import ConfigError
from invctrl.narx import (NarxDataset, Trajectory, TrajectoryError, build_dataset,
                          read_trajectories, shift_state, write_trajectories)
from invctrl.plants import (add_noise, collect_numerical_trajectories,
                            collect_pendulum_trajectories)


def traj(T, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(inputs=rng.normal(size=T), outputs=rng.normal(size=T + 1))


def test_trajectory_length_invariant():
    with pytest.raises(ValueError):
        Trajectory(inputs=np.zeros(3), outputs=np.zeros(3))


def test_record_counts_delay_one():
    assert len(build_dataset(traj(5), order=2, delay=1)) == 4  # T-n+1
    assert len(build_dataset(traj(2), order=2, delay=1)) == 1  # minimum length


def test_record_counts_delay_two():
    assert len(build_dataset(traj(5), order=2, delay=2)) == 3  # T-n


def test_too_short_rejected():
    with pytest.raises(ValueError):
        build_dataset(traj(1), order=2, delay=1)
    with pytest.raises(ValueError):
        build_dataset(traj(2), order=2, delay=2)


def test_round_trip_targets_exact():
    t = traj(7, seed=3)
    ds = build_dataset(t, order=2, delay=1)
    # record i reads its target straight from the trajectory: y[i+n-1]
    for i in range(len(ds)):
        assert ds.targets[i] == t.outputs[i + 1 + 1]
        assert ds.controls[i] == t.inputs[i + 1]
    ds2 = build_dataset(t, order=2, delay=2)
    for i in range(len(ds2)):
        assert ds2.targets[i] == t.outputs[i + 3]


def test_feature_layout_exact():
    ds = build_dataset(traj(9, seed=1), order=3, delay=1)
    assert np.array_equal(ds.features[:, 0], ds.targets)
    assert np.array_equal(ds.features[:, 1:], ds.states)


def test_shift_state_order_two():
    out = shift_state(np.array([1.0, 2.0, 3.0]), 9.0, 7.0)
    assert np.array_equal(out, [2.0, 9.0, 7.0])


def test_shift_state_order_three():
    out = shift_state(np.array([1.0, 2, 3, 4, 5]), 9.0, 7.0)
    assert np.array_equal(out, [2, 3, 9, 5, 7])


def test_shift_state_order_one():
    assert np.array_equal(shift_state(np.array([4.0]), 8.0, 1.0), [8.0])


def test_successors_are_shifts_delay_one():
    ds = build_dataset(traj(8, seed=2), order=2, delay=1)
    for i in range(len(ds)):
        assert np.array_equal(
            ds.succ_states[i], shift_state(ds.states[i], ds.targets[i], ds.controls[i]))


def test_successors_use_recorded_one_step_output_delay_two():
    t = traj(8, seed=5)
    ds = build_dataset(t, order=2, delay=2)
    for i in range(len(ds)):
        y_next = t.outputs[i + 2]  # recorded one-step-ahead output, not the target
        assert np.array_equal(
            ds.succ_states[i], shift_state(ds.states[i], y_next, ds.controls[i]))
        assert ds.succ_states[i][1] != ds.targets[i] or y_next == ds.targets[i]


def test_selector_slices_consistent():
    ds = build_dataset(traj(9, seed=7), order=3, delay=1)
    n = ds.order
    # dropping the oldest output/input of the state reappears inside the successor
    assert np.array_equal(ds.succ_states[:, :n - 1], ds.states[:, 1:n])
    assert np.array_equal(ds.succ_states[:, n:2 * n - 2], ds.states[:, n + 1:])


def test_merge_single_identity():
    t = traj(6, seed=4)
    ds = build_dataset(t, order=2, delay=1)
    merged = build_dataset([t], order=2, delay=1)
    assert np.array_equal(merged.features, ds.features)
    assert np.array_equal(merged.succ_states, ds.succ_states)


def test_merge_disjoint_counts():
    a = traj(4, seed=10)  # 3 records
    b = traj(5, seed=11)  # 4 records
    assert len(build_dataset([a, b], order=2, delay=1)) == 7


def test_merge_dedup_shared_record():
    t = traj(5, seed=12)
    a = build_dataset(t, order=2, delay=1)
    # second trajectory shares the first one's tail; oracle: exhaustive
    # set union over feature rows
    t2 = Trajectory(inputs=t.inputs[1:], outputs=t.outputs[1:])
    b = build_dataset(t2, order=2, delay=1)
    merged = build_dataset([t, t2], order=2, delay=1)
    union = {row.tobytes() for row in np.concatenate([a.features, b.features])}
    assert len(merged) == len(union) == len(a) + len(b) - 3


def test_merge_rejects_mismatched_shape():
    # one call windows every trajectory with one (order, delay); it rejects
    # an empty sequence, a delay other than 1 or 2, and names the position
    # of a trajectory that yields no record
    with pytest.raises(ValueError):
        build_dataset([], order=2, delay=1)
    with pytest.raises(ValueError):
        build_dataset([traj(6)], order=2, delay=3)
    with pytest.raises(TrajectoryError, match="horizon 1 < 2") as exc:
        build_dataset([traj(6), traj(6), traj(1)], order=2, delay=1)
    assert exc.value.index == 2


def test_duplicate_features_dropped_bitwise():
    y = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    u = np.array([0.2, 0.2, 0.2, 0.2])
    ds = build_dataset(Trajectory(inputs=u, outputs=y), order=2, delay=1)
    assert len(ds) == 1  # all windows identical


@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_build_invariants_random(seed, T, n):
    t = traj(max(T, n + 1), seed=seed)
    ds = build_dataset(t, order=n, delay=1)
    assert np.array_equal(ds.features,
                          np.concatenate([ds.targets[:, None], ds.states], axis=1))
    # dedup idempotence: a trajectory windowed twice adds no record
    again = build_dataset([t, t], order=n, delay=1)
    assert np.array_equal(again.features, ds.features)


def reference_dataset(trajs, n, delay):
    """The per-record loop: each window built with ``concatenate`` and
    ``shift_state``, first occurrences of each feature row's bytes kept per
    trajectory, then again over all trajectories.  Returns features,
    states, targets, controls and successor states."""
    def first_occurrences(rows):
        first = {}
        for i, row in enumerate(rows):
            first.setdefault(row[0].tobytes(), i)
        return [rows[i] for i in first.values()]

    records = []
    for traj in trajs:
        y, u = traj.outputs, traj.inputs
        rows = []
        for i in range(1, traj.horizon - n + (2 if delay == 1 else 1)):
            t = i + n - 2
            state = np.concatenate([y[i - 1:i + n - 1], u[i - 1:i + n - 2]])
            target = y[t + delay]
            rows.append((np.concatenate([[target], state]), state, target, u[t],
                         shift_state(state, y[t + 1], u[t])))
        records += first_occurrences(rows)
    return [np.array(col) for col in zip(*first_occurrences(records))]


def mixed_trajectories(seed, noisy):
    """Trajectories of mixed length over four values, signed zeros among
    them, so feature rows repeat within and across files.  Each draws a
    clean and a noisy output sequence, and ``noisy`` picks which one is
    measured."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 0.5, -1.25])

    def draw(T):
        u, y, y_noisy = (rng.choice(values, size) for size in (T, T + 1, T + 1))
        return Trajectory(inputs=u, outputs=y_noisy if noisy else y)
    def zeros_flipped(x):
        out = x.copy()
        out[out == 0] *= -1.0
        return out
    a, b, c = draw(12), draw(5), draw(30)
    flat = Trajectory(inputs=np.full(8, 0.5), outputs=np.full(9, -0.0 if noisy else 0.5))
    twin = Trajectory(zeros_flipped(a.inputs), zeros_flipped(a.outputs))
    return [a, b, a, c, flat, b, twin]


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
@pytest.mark.parametrize("delay", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_windowing_equals_per_record_loop_bitwise(n, delay, noisy):
    trajs = mixed_trajectories(10 * n + delay, noisy)
    ds = build_dataset(trajs, order=n, delay=delay)
    want = reference_dataset(trajs, n, delay)
    got = [ds.features, ds.states, ds.targets, ds.controls, ds.succ_states]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    windows = sum(t.horizon - n + (1 if delay == 1 else 0) for t in trajs)
    assert len(ds) < windows  # duplicate rows were dropped
    # kept rows are bytewise distinct, so rows equal under == differ only
    # in the sign of a zero; some must be present
    equal = (ds.features[:, None, :] == ds.features[None, :, :]).all(axis=2)
    assert equal.sum() > len(ds)


def test_trajectory_io_round_trip(tmp_path):
    trajs = [traj(6, seed=9), traj(2, seed=10)]
    p = tmp_path / "t.csv"
    write_trajectories(p, trajs, {"plant": "x", "seed": 9})
    meta, back = read_trajectories(p)
    assert meta == {"plant": "x", "seed": "9", "count": "2"}
    for t, b in zip(trajs, back, strict=True):
        assert np.array_equal(b.inputs, t.inputs)
        assert np.array_equal(b.outputs, t.outputs)
    # each trajectory's last row has an empty input cell
    lines = p.read_text().splitlines()
    assert lines[:2] == ["# plant=x seed=9 count=2", "traj,t,u,y"]
    assert lines[8].startswith("0,6,,") and lines[9].startswith("1,0,")
    assert lines[-1].startswith("1,2,,")


def test_trajectory_io_noisy_column(tmp_path):
    # a noisy study's table holds only the measured outputs, in its y column
    t = add_noise(traj(4, seed=13), 0.01, 3)
    p = tmp_path / "t.csv"
    write_trajectories(p, [t], {"noisy": 1})
    meta, (back,) = read_trajectories(p)
    assert back.outputs.tobytes() == t.outputs.tobytes()
    assert back.inputs.tobytes() == t.inputs.tobytes()
    assert p.read_text().splitlines()[:2] == ["# noisy=1 count=1", "traj,t,u,y"]


def reference_read(path):
    """Per-cell ``float()`` reader: the oracle for the bulk reader, as
    (inputs, outputs) per trajectory."""
    rows = [line.split(",") for line in open(path, newline="").read().splitlines()[2:]]
    blocks = {}
    for row in rows:
        blocks.setdefault(int(row[0]), []).append(row)
    return [([float(r[2]) for r in b[:-1]], [float(r[3]) for r in b]) for b in blocks.values()]


def assert_read_bitwise(trajs, path):
    for t, (u, y) in zip(trajs, reference_read(path), strict=True):
        assert t.inputs.tobytes() == np.array(u).tobytes()
        assert t.outputs.tobytes() == np.array(y).tobytes()


@pytest.mark.parametrize("newline", ["\r\n", "\n"])
def test_read_trajectories_equals_per_cell_float(tmp_path, newline):
    # hand-written cells: signed zeros, 17 digits, exponent forms, extremes
    cells = ["0", "-0.0", "0.0", "-0", "0.12345678901234568", "-1.2345678901234567e-05",
             "1e300", "2.2250738585072014e-308", "5e-324", "1E+05", "-3.5e2",
             "1.7976931348623157e+308", "+7", ".5", "5.", "12345678901234567890"]
    rows = ["# count=4", "traj,t,u,y"]
    for k in range(4):
        T = len(cells) + k  # every cell in every column of every trajectory
        for t in range(T + 1):
            rows.append(",".join([str(k), str(t), cells[(t + k) % len(cells)] if t < T else "",
                                  cells[(t + 5 * k) % len(cells)]]))
    path = tmp_path / "t.csv"
    path.write_bytes(newline.join(rows).encode() + newline.encode())
    meta, trajs = read_trajectories(path)
    assert len(trajs) == 4
    assert_read_bitwise(trajs, path)
    zeros = np.concatenate([t.outputs for t in trajs])
    assert np.signbit(zeros[zeros == 0]).any() and not np.signbit(zeros[zeros == 0]).all()


@pytest.mark.parametrize("plant", ["numerical", "pendulum", "pendulum-noisy"])
def test_read_trajectories_of_collected_files(tmp_path, plant):
    # the table ``collect`` writes: the reader returns the written arrays,
    # and per-cell float() agrees bit for bit
    if plant == "numerical":
        trajs = collect_numerical_trajectories(seed=3)
    else:
        trajs = collect_pendulum_trajectories()
        if plant == "pendulum-noisy":
            trajs = [add_noise(t, 0.01, 3, stream_offset=k) for k, t in enumerate(trajs)]
    path = tmp_path / "trajectories.csv"
    write_trajectories(path, trajs, {"plant": plant})
    meta, back = read_trajectories(path)
    assert meta == {"plant": plant, "count": str(len(trajs))}
    assert_read_bitwise(back, path)
    for t, b in zip(trajs, back, strict=True):
        assert t.inputs.tobytes() == b.inputs.tobytes()
        assert t.outputs.tobytes() == b.outputs.tobytes()


def write_rows(path, *rows):
    path.write_text("".join(row + "\n" for row in rows))
    return path


ONE = "# count=1"  # the comment of a one-trajectory table


@pytest.mark.parametrize("rows,message", [
    ((ONE, "traj,t,u,x", "0,0,1,2", "0,1,,3"),
     "a.csv:2: unexpected trajectory header ['traj', 't', 'u', 'x']"),
    ((ONE, "t,u,y", "0,1,2", "1,,3"), "a.csv:2: unexpected trajectory header ['t', 'u', 'y']"),
    ((), "a.csv:1: not a trajectory table comment ''"),
    (("traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2"),
     "a.csv:1: not a trajectory table comment 'traj,t,u,y'"),
    (("# count=1 noisy", "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2"),
     "a.csv:1: not a trajectory table comment '# count=1 noisy'"),
    (("# count=2", "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2"),
     "a.csv:1: count=2 in the comment, 1 trajectories in the table"),
    (("# plant=x", "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2"),
     "a.csv:1: count=None in the comment, 1 trajectories in the table"),
    ((ONE, "traj,t,u,y"), "a.csv:3: no trajectory rows"),
    ((ONE, "traj,t,u,y", "0,0,0.5,0.1,9.9", "0,1,,0.2"),
     "a.csv:3: bad trajectory row ['0', '0', '0.5', '0.1', '9.9']"),
    ((ONE, "traj,t,u,y", "0,0,0.5", "0,1,,0.2"),
     "a.csv:3: bad trajectory row ['0', '0', '0.5']"),
    ((ONE, "traj,t,u,y", "0,0,0.5,0.1", "", "0,1,,0.2"), "a.csv:4: bad trajectory row []"),
    ((ONE, "traj,t,u,y", "0,0,0.5,nan", "0,1,,0.2"),
     "a.csv:3: bad trajectory row ['0', '0', '0.5', 'nan']"),
    ((ONE, "traj,t,u,y", "0,0,-inf,0.1", "0,1,,0.2"),
     "a.csv:3: bad trajectory row ['0', '0', '-inf', '0.1']"),
    (("# noisy=1 count=1", "traj,t,u,y", "0,0,0.5,1e999", "0,1,,0.2"),
     "a.csv:3: bad trajectory row ['0', '0', '0.5', '1e999']"),
    ((ONE, "traj,t,u,y,y_noisy", "0,0,0.5,0.1,0.2", "0,1,,0.2,0.3"),
     "a.csv:2: unexpected trajectory header ['traj', 't', 'u', 'y', 'y_noisy']"),
    ((ONE, "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2", "0,2,0.1,0.3"),
     "a.csv:4: bad trajectory row ['0', '1', '', '0.2']"),
    ((ONE, "traj,t,u,y", "0,0,0.5,0.1", "0,1,0.1,0.3"),
     "a.csv:4: bad trajectory row ['0', '1', '0.1', '0.3']"),
    ((ONE, "traj,t,u,y", "0,0,,0.1", "0,1,0.5,0.2", "0,2,,0.3"),
     "a.csv:3: bad trajectory row ['0', '0', '', '0.1']"),
    (("# count=2", "traj,t,u,y", "0,0,0.5,0.1", "0,1,0.5,0.2", "1,0,0.5,0.3", "1,1,,0.4"),
     "a.csv:4: bad trajectory row ['0', '1', '0.5', '0.2']"),
    ((ONE, "traj,t,u,y", "abc,0,0.5,0.1", "0,1,,0.2"),
     "a.csv:3: bad trajectory row ['abc', '0', '0.5', '0.1']"),
    ((ONE, "traj,t,u,y", "0,0,0.5,0.1", "0,,,0.2"),
     "a.csv:4: bad trajectory row ['0', '', '', '0.2']"),
    ((ONE, "traj,t,u,y", "1,0,0.5,0.1", "1,1,,0.2"),
     "a.csv:3: bad trajectory row ['1', '0', '0.5', '0.1']"),
    (("# count=2", "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2", "2,0,0.5,0.3", "2,1,,0.4"),
     "a.csv:5: bad trajectory row ['2', '0', '0.5', '0.3']"),
    (("# count=2", "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2", "1,0,0.5,0.3", "0,1,,0.4"),
     "a.csv:6: bad trajectory row ['0', '1', '', '0.4']"),
    ((ONE, "traj,t,u,y", "0,1,0.5,0.1", "0,2,,0.2"),
     "a.csv:3: bad trajectory row ['0', '1', '0.5', '0.1']"),
    (("# count=2", "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2", "1,2,0.5,0.3", "1,3,,0.4"),
     "a.csv:5: bad trajectory row ['1', '2', '0.5', '0.3']"),
    ((ONE, "traj,t,u,y", "0,0,0.5,0.1", "0,0,,0.2"),
     "a.csv:4: bad trajectory row ['0', '0', '', '0.2']"),
    ((ONE, "traj,t,u,y", "0,0,0.5,0.1", "0,0.5,0.5,0.2", "0,2,,0.3"),
     "a.csv:4: bad trajectory row ['0', '0.5', '0.5', '0.2']"),
], ids=["header", "old_header", "empty_file", "no_comment", "comment_token", "count_mismatch",
        "count_missing", "header_only", "extra_field", "missing_field", "blank_line", "nan_output",
        "inf_input", "overflow_noisy", "old_noisy_header", "input_missing_midway",
        "last_input_present", "inputs_missing", "inputs_missing_last", "traj_text", "t_empty",
        "traj_from_one", "traj_skips", "traj_goes_back", "t_from_one", "t_no_restart",
        "t_repeats", "t_fraction"])
def test_read_trajectories_rejects(tmp_path, rows, message):
    with pytest.raises(ConfigError) as info:
        read_trajectories(write_rows(tmp_path / "a.csv", *rows))
    assert str(info.value).startswith(str(tmp_path / message.split(" ")[0]))
    assert message in str(info.value)


def test_read_trajectories_reports_the_first_fault_in_line_order(tmp_path):
    good = ("# count=2", "traj,t,u,y", "0,0,0.5,0.1", "0,1,,0.2", "1,0,0.5,0.3", "1,1,,0.4")

    def fault(**lines):
        # ``good`` with the rows at line ``lN`` replaced
        rows = list(good)
        for key, text in lines.items():
            rows[int(key[1:]) - 1] = text
        with pytest.raises(ConfigError) as info:
            read_trajectories(write_rows(tmp_path / "a.csv", *rows))
        return str(info.value)[len(str(tmp_path / "a.csv")):]

    assert fault(l3="0,0,abc,0.1", l4="0,1,,0.2,7") == (
        ":3: bad trajectory row ['0', '0', 'abc', '0.1']")
    assert fault(l4="0,1,,0.2,7", l5="1,0,0.5,nan").startswith(":4: bad trajectory row")
    assert fault(l4="x,1,,0.2", l5="1,0,0.5,nan").startswith(":4: bad trajectory row")
    assert fault(l4="0,1,,nan", l5="1,0,,0.3").startswith(":4: bad trajectory row")
    assert fault(l3="0,0,,0.1", l5="1,0,nan,0.3").startswith(":3: bad trajectory row")
    assert fault(l5="1,0,0.5,nan", l6="1,1,0.5,0.4").startswith(":5: bad trajectory row")
    # a row whose successor is out of order or unsplit is not blamed for
    # where its trajectory seems to end
    assert fault(l4="0,1,0.5,0.2", l5="x,0,0.5,0.3").startswith(":5: bad trajectory row")
    assert fault(l4="0,1,0.5,0.2", l5="1,0,0.5").startswith(":5: bad trajectory row")
    assert fault(l1="# count=3", l5="1,0,0.5,nan").startswith(":5: bad trajectory row")
    assert len(read_trajectories(write_rows(tmp_path / "a.csv", *good))[1]) == 2
