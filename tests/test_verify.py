import numpy as np
import pytest

from minkruled import verify

from test_golden import GOLDEN, SCENE, assert_text_close, cli_stdout


def test_verify_stdout_unchanged_and_one_closed_drall_per_attempt(monkeypatch):
    calls = {"drall_closed": 0, "attempts": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify, "drall_closed", counted("drall_closed", verify.drall_closed))
    # run_trials draws one direction per attempt
    monkeypatch.setattr(verify, "random_direction", counted("attempts", verify.random_direction))
    code, out = cli_stdout(["verify", SCENE, "--trials", "20", "--seed", "5"])
    assert code == 0
    assert_text_close(out, (GOLDEN / "helix_verify.txt").read_text())
    assert calls["attempts"] >= 20
    assert calls["drall_closed"] == calls["attempts"]


@pytest.mark.parametrize("build", [verify.build_case1_curve, verify.build_case2_curve])
def test_rejection_loop_is_bounded(build):
    # At s = 1e20 the linear ratio (case 1) or kappa/tau (case 2) leaves
    # [-0.85, 0.85] for every slope the generators can draw except 0.
    rng = np.random.default_rng(7)
    with pytest.raises(RuntimeError, match=f"within {verify.MAX_DRAWS} draws"):
        build(rng, domain=(1e20, 2e20))
