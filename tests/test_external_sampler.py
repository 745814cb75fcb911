import numpy as np
import pytest

from qesa import ising

from conftest import fake_sampler_cmd, ising_model, random_model


def _cfg(mode, **kwargs):
    return ising.SamplerConfig(num_samples=4, command=fake_sampler_cmd(mode), **kwargs)


def test_allones_double_energy_recomputed_locally():
    m = ising_model({}, [-1.0, -1.0])
    result = ising.solve_external(m, _cfg("allones"))
    np.testing.assert_array_equal(result.best, [1.0, 1.0])
    assert result.best_energy == -2.0
    assert result.num_samples == 1


def test_loopback_matches_in_process_exact(rng):
    for _ in range(3):
        couplings, h, offset = random_model(rng, 8)
        m = ising_model(couplings, h, offset)
        direct = ising.solve_exact(m)
        via_subprocess = ising.solve_external(m, _cfg("exact"))
        np.testing.assert_array_equal(via_subprocess.best, direct.best)
        assert via_subprocess.best_energy == direct.best_energy


def test_first_of_tied_reads_wins_and_every_read_counts():
    # zero fields, so E(s) = E(-s); the double answers a worse read, then -g, then g
    m = ising_model({(0, 1): -1.0, (1, 2): 0.5, (2, 3): -2.0}, [0.0] * 4)
    ground = ising.solve_exact(m).best
    result = ising.solve_external(m, _cfg("ties"))
    np.testing.assert_array_equal(result.best, -ground)
    assert result.best_energy == ising.energy(m, ground) == -3.5
    assert result.num_samples == 3


def test_spin_outside_domain_is_validation_error():
    m = ising_model({}, [0.0, 0.0])
    with pytest.raises(ising.InvalidSpinError, match="spin value"):
        ising.solve_external(m, _cfg("zeros"))


def test_malformed_json_response():
    m = ising_model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="JSON"):
        ising.solve_external(m, _cfg("badjson"))


def test_empty_sample_list():
    m = ising_model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="no samples"):
        ising.solve_external(m, _cfg("empty"))


def test_wrong_length_sample():
    m = ising_model({}, [0.0, 0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="length"):
        ising.solve_external(m, _cfg("short"))


def test_nonzero_exit_status():
    m = ising_model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerProtocolError, match="status 3"):
        ising.solve_external(m, _cfg("fail"))


def test_timeout():
    m = ising_model({}, [0.0, 0.0])
    with pytest.raises(ising.SamplerTimeoutError):
        ising.solve_external(m, _cfg("sleep", timeout_s=0.8))


def test_launch_failure():
    m = ising_model({}, [0.0, 0.0])
    cfg = ising.SamplerConfig(command="/nonexistent/sampler-binary")
    with pytest.raises(ising.SamplerLaunchError):
        ising.solve_external(m, cfg)


def test_command_from_environment(monkeypatch):
    monkeypatch.setenv(ising.ENV_EXTERNAL_SAMPLER, fake_sampler_cmd("allones"))
    m = ising_model({}, [-1.0, -1.0])
    result = ising.solve_external(m, ising.SamplerConfig(num_samples=1))
    assert result.best_energy == -2.0


def test_missing_command_is_config_error(monkeypatch):
    monkeypatch.delenv(ising.ENV_EXTERNAL_SAMPLER, raising=False)
    m = ising_model({}, [0.0, 0.0])
    with pytest.raises(ValueError, match=ising.ENV_EXTERNAL_SAMPLER):
        ising.solve_external(m, ising.SamplerConfig())


def test_request_round_trip_preserves_model(rng):
    couplings, h, _ = random_model(rng, 6)
    m = ising_model(couplings, h)
    rebuilt = ising.model_from_request(ising.model_to_request(m, 10))
    assert rebuilt.n == m.n
    np.testing.assert_array_equal(rebuilt.W, m.W)
    np.testing.assert_array_equal(rebuilt.h, m.h)


@pytest.mark.parametrize("field, value, message", [
    ("J", [[1, 0, 0.5]], r"coupling key \(1, 0\) violates 0 <= i < j < n=3"),
    ("J", [[1, 1, 0.5]], r"coupling key \(1, 1\) violates 0 <= i < j < n=3"),
    ("J", [[0, 3, 0.5]], r"coupling key \(0, 3\) violates 0 <= i < j < n=3"),
    ("h", [0.0, 0.0], r"h has shape \(2,\), expected \(3,\)"),
    ("n", 0, "n must be a positive integer, got 0"),
])
def test_request_decoder_rejects_out_of_range_fields(field, value, message):
    doc = {"n": 3, "h": [0.0, 0.0, 0.0], "J": [[0, 1, 0.5]], "num_samples": 1}
    doc[field] = value
    with pytest.raises(ValueError, match=message):
        ising.model_from_request(doc)
