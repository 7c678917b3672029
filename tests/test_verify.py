import json
import math

import numpy as np
import pytest

import minkruled as mk
from minkruled import cli, verify

from test_evaluation import drifting
from test_golden import GOLDEN, SCENE, assert_text_close, cli_stdout


def counted(calls, name, fn, samples=None):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if samples is not None:
            calls[samples] += len(args[2].s)
        return fn(*args, **kwargs)

    return wrapper


def test_verify_stdout_unchanged_and_one_closed_drall_per_attempt(monkeypatch):
    calls = {"closed_calls": 0, "closed_samples": 0, "attempts": 0}
    monkeypatch.setattr(
        verify, "_drall_closed",
        counted(calls, "closed_calls", verify._drall_closed, samples="closed_samples"),
    )
    # run_trials draws one direction per attempt
    monkeypatch.setattr(
        verify, "random_direction", counted(calls, "attempts", verify.random_direction)
    )
    code, out = cli_stdout(["verify", SCENE, "--trials", "20", "--seed", "5"])
    assert code == 0
    assert_text_close(out, (GOLDEN / "helix_verify.txt").read_text())
    assert calls["attempts"] >= 20
    assert calls["closed_samples"] == calls["attempts"]
    # one call per round; every round but the last rejects at least one draw
    assert 1 <= calls["closed_calls"] <= 1 + calls["attempts"] - 20


def sequential_trials(curve, c_const, window, rng, trials, min_denominator):
    """The trials of one draw at a time, from the public scalar dralls."""
    inv = mk.InvoluteCurve(curve, c_const, domain=window)
    out = []
    attempts = 0
    while len(out) < trials:
        attempts += 1
        if attempts > 50 * trials:
            raise RuntimeError("could not find enough well-conditioned trials")
        direction = verify.random_direction(rng)
        s = float(rng.uniform(window[0], window[1]))
        surf = mk.TrajectoryRuledSurface(inv=inv, direction=direction)
        closed = mk.drall_closed(surf, s)
        if closed.degeneracy is mk.Degeneracy.REGULAR:
            scale = max(1.0, abs(closed.denominator) + abs(closed.numerator))
            if abs(closed.denominator) < min_denominator * scale:
                continue
        out.append((s, direction, closed, mk.drall_numeric(surf, s)))
    return out


def assert_result_equal(got, want):
    assert got.degeneracy is want.degeneracy
    assert got.developable is want.developable
    for name in ("value", "numerator", "denominator"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is float
        assert a == b or abs(a - b) <= 1e-12 * max(1.0, abs(b)), name


@pytest.fixture(scope="module")
def oracle_curves():
    return {
        "helix": (mk.helix_curve(2 / 3, 1 / 3, domain=(0.0, math.pi)), 1.0, (1.01, math.pi)),
        "case-2": (verify.build_case2_curve(np.random.default_rng(3)).curve, 2.5, (0.0, 2.0)),
    }


@pytest.mark.parametrize("name", ["helix", "case-2"])
@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("min_denominator", [0.02, 0.6])
def test_batched_trials_equal_one_draw_at_a_time(
    oracle_curves, monkeypatch, name, seed, min_denominator
):
    curve, c_const, window = oracle_curves[name]
    want = sequential_trials(
        curve, c_const, window, np.random.default_rng(seed), 15, min_denominator
    )
    calls = {"rounds": 0}
    monkeypatch.setattr(verify, "_drall_closed", counted(calls, "rounds", verify._drall_closed))
    got = verify.run_trials(
        curve, c_const, window, np.random.default_rng(seed), 15, min_denominator
    )
    if min_denominator > 0.5:
        assert calls["rounds"] > 1
    assert len(got) == len(want) == 15
    for trial, (s, direction, closed, numeric) in zip(got, want):
        assert trial.s == s
        assert trial.direction == direction
        assert_result_equal(trial.closed, closed)
        assert_result_equal(trial.numeric, numeric)


def test_rounds_capped_at_max_round_give_the_same_trials(oracle_curves, monkeypatch):
    curve, c_const, window = oracle_curves["case-2"]
    want = sequential_trials(curve, c_const, window, np.random.default_rng(5), 15, 0.02)
    calls = {"rounds": 0, "samples": 0}
    monkeypatch.setattr(verify, "MAX_ROUND", 4)
    monkeypatch.setattr(
        verify, "_drall_closed",
        counted(calls, "rounds", verify._drall_closed, samples="samples"),
    )
    got = verify.run_trials(curve, c_const, window, np.random.default_rng(5), 15, 0.02)
    assert calls["rounds"] >= 4 and calls["samples"] <= 4 * calls["rounds"]
    assert [(t.s, t.direction) for t in got] == [(s, d) for s, d, _, _ in want]
    for trial, (_, _, closed, numeric) in zip(got, want):
        assert_result_equal(trial.closed, closed)
        assert_result_equal(trial.numeric, numeric)


def test_unsatisfiable_filter_raises_after_fifty_draws_per_trial(monkeypatch):
    calls = {"draws": 0}
    monkeypatch.setattr(
        verify, "random_direction", counted(calls, "draws", verify.random_direction)
    )
    curve = mk.helix_curve(2 / 3, 1 / 3, domain=(0.0, math.pi))
    # |den| < 2 max(1, |den| + |num|) holds for every regular sample
    with pytest.raises(RuntimeError, match="well-conditioned"):
        verify.run_trials(
            curve, 1.0, (1.01, math.pi), np.random.default_rng(1), 3, min_denominator=2.0
        )
    assert calls["draws"] == 50 * 3


def test_velocity_check_of_a_rejected_candidate_is_not_read():
    # the position drifts off r' all over the window, so every candidate
    # fails the involute velocity check; a filter that rejects every regular
    # draw leaves no determinant drall to check, as for one draw at a time
    curve = drifting(mk.helix_curve(2 / 3, 1 / 3, domain=(0.0, math.pi)), scale=1.0)
    window = (1.01, math.pi)
    for run in (verify.run_trials, sequential_trials):
        with pytest.raises(RuntimeError, match="well-conditioned"):
            run(curve, 1.0, window, np.random.default_rng(1), 3, 2.0)
        with pytest.raises(mk.GeometryError, match="velocity cross-check failed"):
            run(curve, 1.0, window, np.random.default_rng(1), 3, 0.02)


@pytest.mark.parametrize("trials", [0, -4])
def test_run_trials_rejects_a_count_below_one(trials):
    curve = mk.helix_curve(2 / 3, 1 / 3, domain=(0.0, math.pi))
    with pytest.raises(ValueError, match="at least 1"):
        verify.run_trials(curve, 1.0, (1.01, math.pi), np.random.default_rng(0), trials)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_rejects_a_count_below_one_with_usage_error(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", SCENE, "--trials", trials])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("build", [verify.build_case1_curve, verify.build_case2_curve])
def test_rejection_loop_is_bounded(build):
    # At s = 1e20 the linear ratio (case 1) or kappa/tau (case 2) leaves
    # [-0.85, 0.85] for every slope the generators can draw except 0.
    rng = np.random.default_rng(7)
    with pytest.raises(RuntimeError, match=f"within {verify.MAX_DRAWS} draws"):
        build(rng, domain=(1e20, 2e20))


def test_cli_rejects_a_negative_seed_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", SCENE, "--seed", "-1"])
    assert exc.value.code == 2
    assert "must be a non-negative integer, got -1" in capsys.readouterr().err


def test_negative_env_seed_goes_to_stderr(monkeypatch, capsys):
    monkeypatch.setenv("MINKRULED_SEED", "-3")
    code = cli.main(["verify", SCENE, "--trials", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: MINKRULED_SEED must be a non-negative integer, got '-3'\n"


def test_scene_without_well_conditioned_trials_is_an_error_not_a_traceback(tmp_path, capsys):
    # kappa = 1, tau = 0.999: the rotation vector is near-null everywhere and
    # too few draws pass the closed-form denominator filter
    scene = json.loads((GOLDEN / "prescribed_scene.json").read_text())
    scene["curve"] = {"kappa": {"poly": [1.0]}, "tau": {"poly": [0.999]}}
    path = tmp_path / "near_null.json"
    path.write_text(json.dumps(scene))
    code = cli.main(["verify", str(path), "--trials", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: could not find enough well-conditioned trials\n"
    assert "Traceback" not in captured.err
