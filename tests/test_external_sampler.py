import numpy as np
import pytest

from qesa import ising

from conftest import fake_sampler_cmd, random_model


def _model(couplings, h, offset=0.0):
    return ising.IsingModel.from_couplings(len(h), couplings, h, offset)


def _cfg(mode, **kwargs):
    return ising.SamplerConfig(num_samples=4, command=fake_sampler_cmd(mode), **kwargs)


def test_allones_double_energy_recomputed_locally():
    m = _model({}, [-1.0, -1.0])
    result = ising.solve_external(m, _cfg("allones"))
    np.testing.assert_array_equal(result.best, [1.0, 1.0])
    assert result.best_energy == -2.0
    assert result.num_samples == 1


def test_loopback_matches_in_process_exact(rng):
    for _ in range(3):
        couplings, h, offset = random_model(rng, 8)
        m = _model(couplings, h, offset)
        direct = ising.solve_exact(m)
        via_subprocess = ising.solve_external(m, _cfg("exact"))
        np.testing.assert_array_equal(via_subprocess.best, direct.best)
        assert via_subprocess.best_energy == direct.best_energy


def test_first_of_tied_reads_wins_and_every_read_counts():
    # zero fields, so E(s) = E(-s); the double answers a worse read, then -g, then g
    m = _model({(0, 1): -1.0, (1, 2): 0.5, (2, 3): -2.0}, [0.0] * 4)
    ground = ising.solve_exact(m).best
    result = ising.solve_external(m, _cfg("ties"))
    np.testing.assert_array_equal(result.best, -ground)
    assert result.best_energy == ising.energy(m, ground) == -3.5
    assert result.num_samples == 3


def test_spin_outside_domain_is_validation_error():
    m = _model({}, [0.0, 0.0])
    with pytest.raises(ising.InvalidSpinError, match="spin value"):
        ising.solve_external(m, _cfg("zeros"))


def test_malformed_json_response():
    m = _model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="JSON"):
        ising.solve_external(m, _cfg("badjson"))


def test_empty_sample_list():
    m = _model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="no samples"):
        ising.solve_external(m, _cfg("empty"))


def test_wrong_length_sample():
    m = _model({}, [0.0, 0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="length"):
        ising.solve_external(m, _cfg("short"))


def test_nonzero_exit_status():
    m = _model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="status 3"):
        ising.solve_external(m, _cfg("fail"))


def test_timeout():
    m = _model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerTimeoutError):
        ising.solve_external(m, _cfg("sleep", timeout_s=0.8))


def test_launch_failure():
    m = _model({}, [0.0, 0.0])
    cfg = ising.SamplerConfig(command="/nonexistent/sampler-binary")
    with pytest.raises(ising.SamplerLaunchError):
        ising.solve_external(m, cfg)


def test_command_from_environment(monkeypatch):
    monkeypatch.setenv(ising.ENV_EXTERNAL_SAMPLER, fake_sampler_cmd("allones"))
    m = _model({}, [-1.0, -1.0])
    result = ising.solve_external(m, ising.SamplerConfig(num_samples=1))
    assert result.best_energy == -2.0


def test_missing_command_is_config_error(monkeypatch):
    monkeypatch.delenv(ising.ENV_EXTERNAL_SAMPLER, raising=False)
    m = _model({}, [0.0, 0.0])
    with pytest.raises(ValueError, match=ising.ENV_EXTERNAL_SAMPLER):
        ising.solve_external(m, ising.SamplerConfig())


def test_request_round_trip_preserves_model(rng):
    couplings, h, _ = random_model(rng, 6)
    m = _model(couplings, h)
    rebuilt = ising.model_from_request(ising.model_to_request(m, 10))
    assert rebuilt.n == m.n
    assert rebuilt.J == m.J
    np.testing.assert_array_equal(rebuilt.h, m.h)
