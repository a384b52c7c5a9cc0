import math

import numpy as np
import pytest

from magnon_blockade.model import HilbertSpec, ModelParams, build_dissipators, ladder_operators
from magnon_blockade.steady_state import build_liouvillian, generator_parts
from oracles import build_effective_hamiltonian, single_excitation_energies


def fig2_params(drive=0.05, phase=0.0, fock_cutoff=2):
    return ModelParams(
        n_modes=1,
        delta=35.0,
        coupling=35.0,
        probe_rabi=3 * drive,
        drive_rabi=drive,
        phase=phase,
        decay=0.5,
        fock_cutoff=fock_cutoff,
    )


class TestModelParams:
    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError, match="n_modes"):
            ModelParams(0, 1.0, 1.0, 0.1, 0.1, 0.0, 1.0)

    def test_rejects_zero_decay(self):
        with pytest.raises(ValueError, match="decay"):
            ModelParams(1, 1.0, 1.0, 0.1, 0.1, 0.0, 0.0)

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ModelParams(1, 1.0, -1.0, 0.1, 0.1, 0.0, 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("decay", math.nan), ("delta", math.inf), ("coupling", math.nan),
         ("probe_rabi", math.inf), ("drive_rabi", math.nan), ("phase", -math.inf)],
    )
    def test_rejects_nonfinite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            fig2_params().with_(**{field: value})

    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValueError, match="^fock_cutoff .*no excitation sector"):
            ModelParams(1, 1.0, 1.0, 0.1, 0.1, 0.0, 1.0, fock_cutoff=0)

    @pytest.mark.parametrize(
        "field, value", [("n_modes", 1.5), ("n_modes", 2.0), ("fock_cutoff", 2.5),
                         ("fock_cutoff", 2.0), ("fock_cutoff", "2")],
    )
    def test_rejects_non_integer_fields(self, field, value):
        # Checked for every ModelParams by its HilbertSpec, before N or the
        # cutoff reaches an engine; N = 1.5 would scale J by sqrt(1.5).
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            fig2_params().with_(**{field: value})
        spec = {"n_modes": 1, "fock_cutoff": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            HilbertSpec(**spec)

    def test_numpy_integers_share_the_cached_parts(self):
        assert HilbertSpec(np.int64(2), np.int32(2)) == HilbertSpec(2, 2)
        assert generator_parts(HilbertSpec(np.int64(2), 2)) is generator_parts(HilbertSpec(2, 2))
        p = ModelParams(np.int64(2), 20.0, 20.0, 0.1, 0.1, 0.0, 1.0, np.int64(2))
        assert build_liouvillian(p).parts is generator_parts(HilbertSpec(2, 2))

    def test_hilbert_spec_is_modes_and_cutoff(self):
        p = ModelParams(2, 1.0, 1.0, 0.1, 0.1, 0.0, 1.0, fock_cutoff=3)
        assert p.hilbert_spec() == HilbertSpec(2, 3)
        assert p.with_(n_modes=3, fock_cutoff=1).hilbert_spec() == HilbertSpec(3, 1)

    def test_with_returns_modified_copy(self):
        p = fig2_params()
        q = p.with_(phase=0.01)
        assert q.phase == 0.01
        assert p.phase == 0.0
        assert q.coupling == p.coupling


class TestEffectiveHamiltonian:
    def test_hermitian(self):
        p = fig2_params(phase=0.3)
        h = build_effective_hamiltonian(p)
        assert np.array_equal(h, h.conj().T)

    def test_zero_parameters_zero_matrix(self):
        p = ModelParams(1, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, fock_cutoff=2)
        h = build_effective_hamiltonian(p)
        assert np.array_equal(h, np.zeros_like(h))

    def test_matches_operator_formula(self):
        p = ModelParams(2, 3.0, 1.5, 0.2, 0.4, 0.7, 1.0, fock_cutoff=2)
        spec = p.hilbert_spec()
        sm, modes = ladder_operators(spec)
        sp_ = sm.conj().T
        expected = p.delta * (sp_ @ sm)
        expected = expected + p.probe_rabi * (
            np.exp(-1j * p.phase) * sp_ + np.exp(1j * p.phase) * sm
        )
        for m in modes:
            expected = expected + p.delta * (m.conj().T @ m)
            expected = expected + p.coupling * (m @ sp_ + m.conj().T @ sm)
            expected = expected + p.drive_rabi * (m.conj().T + m)
        h = build_effective_hamiltonian(p)
        assert np.allclose(h, expected, atol=1e-14)

    def test_probe_phase_enters_offdiagonal(self):
        p = ModelParams(1, 0.0, 0.0, 2.0, 0.0, 0.4, 1.0, fock_cutoff=1)
        h = build_effective_hamiltonian(p)
        # Basis |g0>, |g1>, |e0>, |e1>: <g0|H|e0> carries exp(+i theta).
        assert np.isclose(h[0, 2], 2.0 * np.exp(1j * 0.4))


class TestDissipators:
    def test_channel_count_and_rates(self):
        p = ModelParams(3, 1.0, 1.0, 0.1, 0.1, 0.0, 0.7, fock_cutoff=1)
        spec = p.hilbert_spec()
        channels = [(o, p.decay) for o in build_dissipators(spec)]
        assert len(channels) == 4
        assert all(o.shape == (spec.dim, spec.dim) and rate == 0.7 for o, rate in channels)

    def test_channel_operators(self):
        p = fig2_params(fock_cutoff=2)
        spec = p.hilbert_spec()
        channels = [(o, p.decay) for o in build_dissipators(spec)]
        # sigma_minus (x) I_3 and I_2 (x) a at cutoff 2.
        a = np.diag(np.sqrt([1.0, 2.0]), k=1)
        assert np.array_equal(channels[0][0], np.kron([[0, 1], [0, 0]], np.eye(3)))
        assert np.array_equal(channels[1][0], np.kron(np.eye(2), a))


class TestSingleExcitationEnergies:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_bright_pair_and_dark_states(self, n_modes):
        p = ModelParams(n_modes, 7.0, 3.0, 0.1, 0.1, 0.0, 0.5)
        energies = np.sort(single_excitation_energies(p))
        split = math.sqrt(n_modes) * 3.0
        expected = np.sort([7.0 - split] + [7.0] * (n_modes - 1) + [7.0 + split])
        assert np.allclose(energies, expected, atol=1e-10)
