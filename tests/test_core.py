"""Validation, parameterizations, constructors, random sampling, and the
dephasing average."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xstates as xs
from xstates import core
from xstates.errors import (
    CoherenceBoundViolated,
    InfeasibleState,
    NegativePopulation,
    NotXShaped,
    TraceError,
    ValidationError,
)
from conftest import random_states


class TestValidate:
    def test_bell_boundary_is_valid(self):
        x = xs.validate(0.5, 0.0, 0.0, 0.5, w=0.5)
        assert x.w == 0.5
        assert abs(x.w) == pytest.approx(math.sqrt(x.a * x.d), abs=1e-15)

    def test_coherence_bound_violation(self):
        with pytest.raises(CoherenceBoundViolated) as exc:
            xs.validate(0.25, 0.25, 0.25, 0.25, z=0.3)
        assert exc.value.which == "z"
        assert exc.value.bound == pytest.approx(0.25)

    def test_generic_interior_state(self):
        x = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15)
        assert math.sqrt(x.b * x.c) == pytest.approx(0.24494897427831780, abs=1e-15)
        assert math.sqrt(x.a * x.d) == pytest.approx(0.2, abs=1e-15)

    def test_trace_error(self):
        with pytest.raises(TraceError):
            xs.validate(0.5, 0.5, 0.5, 0.0)

    def test_negative_population(self):
        with pytest.raises(NegativePopulation):
            xs.validate(1.1, -0.1, 0.0, 0.0)

    def test_tiny_negative_clamped(self):
        x = xs.validate(1.0 + 5e-15, -5e-15, 0.0, 0.0)
        assert x.b == 0.0

    def test_population_tolerance_boundary(self):
        # the literal values pin POPULATION_TOL = 1e-14 from both sides
        with pytest.raises(NegativePopulation):
            xs.validate(-1e-13, 0.4, 0.3, 0.3 + 1e-13)
        assert xs.validate(-1e-15, 0.4, 0.3, 0.3 + 1e-15).a == 0.0

    def test_coherence_clamped_to_boundary(self):
        bound = math.sqrt(0.25 * 0.25)
        x = xs.validate(0.25, 0.25, 0.25, 0.25, z=bound + 5e-13)
        assert abs(x.z) == pytest.approx(bound, abs=1e-15)

    @staticmethod
    def noisy_params(start: int, n: int, noise: float) -> list:
        """Random states with complex coherences, a quarter of them with w
        on its positivity bound, plus ``noise`` times a normal deviate on
        every parameter."""
        x = xs.random_xstates(12, start, start + n, complex_phases=True)
        on_bound = np.arange(start, start + n) % 4 == 0
        w = np.where(on_bound, np.sqrt(x.a * x.d) * x.w / np.abs(x.w), x.w)
        re, im = noise * np.random.default_rng(start).normal(size=(2, 6, n))
        return [p + re[k] + (1j * im[k] if p.dtype.kind == "c" else 0.0)
                for k, p in enumerate([x.a, x.b, x.c, x.d, x.z, w])]

    @staticmethod
    def one_by_one(params):
        """The states validate gives each element alone, up to the first one
        it rejects, and that element's index and error."""
        states = []
        for i in range(len(params[0])):
            try:
                states.append(xs.validate(*(p[i].item() for p in params)))
            except ValidationError as exc:
                return states, (i, exc)
        return states, None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(1, 40),
           st.sampled_from([0.0, 1e-15, 1e-13, 1e-11]),
           st.sampled_from([None, "trace", "negative", "z", "w", "nan", "inf"]), st.data())
    def test_batch_is_each_element_alone(self, start, n, noise, fault, data):
        params = self.noisy_params(start, n, noise)
        if fault:
            i = data.draw(st.integers(0, n - 1))
            if fault == "trace":
                params[0][i] += 1e-9
            elif fault == "negative":
                params[1][i], params[0][i] = -1e-13, params[0][i] + params[1][i] + 1e-13
            elif fault in ("z", "w"):
                params[4 if fault == "z" else 5][i] *= 1.5
            else:
                params[data.draw(st.integers(0, 5))][i] = float(fault)
        states, failure = self.one_by_one(params)
        if failure is None:
            batch, expected = xs.validate(*params), xs.stack(states)
            for k in "abcdzw":
                assert getattr(batch, k).tobytes() == getattr(expected, k).tobytes(), k
            return
        i, alone = failure
        with pytest.raises(ValidationError) as info:
            xs.validate(*params)
        assert type(info.value) is type(alone) and str(info.value) == str(alone)
        assert info.value.index == i and alone.index is None

    def test_batch_clamps_as_each_element_alone(self):
        # coherences on their bound plus rounding-sized noise: about half of
        # them round past it and are clamped
        params = self.noisy_params(0, 400, 1e-15)
        states, failure = self.one_by_one(params)
        assert failure is None
        batch = xs.validate(*params)
        for k in "abcdzw":
            assert getattr(batch, k).tobytes() == getattr(xs.stack(states), k).tobytes(), k
        clamped = [i for i, x in enumerate(states) if x.w != params[5][i]]
        assert len(clamped) > 20


class TestNormalizePhases:
    def test_modulus_extraction(self):
        x = xs.validate(0.25, 0.25, 0.25, 0.25, z=0.1 * np.exp(1j * np.pi / 3))
        pn = xs.normalize_phases(x)
        assert pn.state.z == pytest.approx(0.1)
        assert pn.z_phase == pytest.approx(np.pi / 3)

    def test_identity_on_real_states(self):
        x = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15)
        pn = xs.normalize_phases(x)
        assert pn.state == x
        assert pn.z_phase == 0.0 and pn.w_phase == 0.0

    def test_restore_round_trip(self):
        for x in random_states(50, seed=3, complex_phases=True):
            back = xs.normalize_phases(x).restore()
            assert complex(back.z) == pytest.approx(complex(x.z), abs=1e-14)
            assert complex(back.w) == pytest.approx(complex(x.w), abs=1e-14)

    def test_measures_invariant_under_phases(self):
        # correlations depend only on the coherence moduli
        for x in random_states(1000, seed=5, complex_phases=True):
            y = xs.normalize_phases(x).state
            assert xs.concurrence(x) == pytest.approx(xs.concurrence(y), abs=1e-10)
            assert xs.negativity(x) == pytest.approx(xs.negativity(y), abs=1e-10)
            assert xs.fef(x) == pytest.approx(xs.fef(y), abs=1e-10)
            assert xs.purity(x) == pytest.approx(xs.purity(y), abs=1e-10)
            assert xs.mid(x) == pytest.approx(xs.mid(y), abs=1e-10)
            assert xs.approx_discord(x).q == pytest.approx(xs.approx_discord(y).q, abs=1e-10)
            assert xs.geometric_discord(x) == pytest.approx(xs.geometric_discord(y), abs=1e-10)
            gx = xs.entropy(xs.eigenvalues(x))
            gy = xs.entropy(xs.eigenvalues(y))
            assert gx == pytest.approx(gy, abs=1e-10)


class TestFromMatrix:
    def test_x_mask_is_the_eight_x_positions(self):
        pattern = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)}
        assert {(int(i), int(j)) for i, j in np.argwhere(xs.core.X_MASK)} == pattern

    def test_product_projector(self):
        x = xs.from_matrix(np.diag([1.0, 0, 0, 0]).astype(complex))
        assert (x.a, x.b, x.c, x.d) == (1.0, 0.0, 0.0, 0.0)

    def test_bell_projector(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        x = xs.from_matrix(np.outer(v, v.conj()))
        assert x.a == pytest.approx(0.5)
        assert complex(x.w) == pytest.approx(0.5 + 0j)

    def test_off_pattern_entry_rejected(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(NotXShaped) as exc:
            xs.from_matrix(m)
        assert exc.value.entry in ((0, 1), (1, 0))

    def test_matrix_round_trip(self):
        for x in random_states(50, seed=7, complex_phases=True):
            y = xs.from_matrix(x.to_matrix())
            assert y.a == pytest.approx(x.a, abs=1e-14)
            assert complex(y.z) == pytest.approx(complex(x.z), abs=1e-14)
            assert complex(y.w) == pytest.approx(complex(x.w), abs=1e-14)

    def test_pattern_threshold_is_relative_to_frobenius_norm(self):
        base = xs.werner(0.5).to_matrix()
        norm = np.linalg.norm(base)
        below = base.copy()
        below[0, 1] = below[1, 0] = 0.9e-10 * norm
        xs.from_matrix(below)  # accepted just under the threshold
        above = base.copy()
        above[0, 1] = above[1, 0] = 1.1e-10 * norm
        with pytest.raises(NotXShaped):
            xs.from_matrix(above)


class TestFano:
    def test_bell_phi0(self):
        f = xs.to_fano(xs.bell(0))
        assert (f.A3, f.B3) == (0.0, 0.0)
        assert (f.C1, f.C2, f.C3) == (1.0, -1.0, 1.0)

    def test_maximally_mixed(self):
        f = xs.to_fano(xs.werner(0.0))
        assert (f.A3, f.B3, f.C1, f.C2, f.C3, f.C12, f.C21) == (0,) * 7

    def test_werner_half(self):
        f = xs.to_fano(xs.werner(0.5))
        assert (f.A3, f.B3) == (0.0, 0.0)
        assert (f.C1, f.C2, f.C3) == (0.5, -0.5, 0.5)

    def test_round_trip_identity(self):
        for x in random_states(200, seed=11, complex_phases=True):
            y = xs.from_fano(xs.to_fano(x))
            for field in "abcd":
                assert getattr(y, field) == pytest.approx(getattr(x, field), abs=1e-12)
            assert complex(y.z) == pytest.approx(complex(x.z), abs=1e-12)
            assert complex(y.w) == pytest.approx(complex(x.w), abs=1e-12)

    def test_fano_matches_dense_pauli_traces(self):
        # independent route: trace against explicit Pauli tensor products
        from xstates.dynamics import pauli_tensor

        for x in random_states(20, seed=13, complex_phases=True):
            m = x.to_matrix()
            f = xs.to_fano(x)
            assert f.A3 == pytest.approx(np.trace(m @ pauli_tensor(3, 0)).real, abs=1e-12)
            assert f.B3 == pytest.approx(np.trace(m @ pauli_tensor(0, 3)).real, abs=1e-12)
            assert f.C1 == pytest.approx(np.trace(m @ pauli_tensor(1, 1)).real, abs=1e-12)
            assert f.C2 == pytest.approx(np.trace(m @ pauli_tensor(2, 2)).real, abs=1e-12)
            assert f.C3 == pytest.approx(np.trace(m @ pauli_tensor(3, 3)).real, abs=1e-12)
            assert f.C12 == pytest.approx(np.trace(m @ pauli_tensor(1, 2)).real, abs=1e-12)
            assert f.C21 == pytest.approx(np.trace(m @ pauli_tensor(2, 1)).real, abs=1e-12)

    def test_phase_normalized_invariants(self):
        for x in random_states(100, seed=17, complex_phases=True):
            f = xs.to_fano(xs.normalize_phases(x).state)
            assert f.C12 == pytest.approx(0.0, abs=1e-12)
            assert f.C21 == pytest.approx(0.0, abs=1e-12)
            assert f.C1 >= abs(f.C2) - 1e-12

    def test_record_contract(self):
        f = xs.FanoParams(0.1, -0.2, 0.3, 0.4, 0.5)
        assert (f.C12, f.C21) == (0.0, 0.0)
        assert xs.FanoParams._fields == ("A3", "B3", "C1", "C2", "C3", "C12", "C21")
        with pytest.raises(AttributeError):
            f.C1 = 0.0

    def test_infeasible_coordinates_rejected(self):
        with pytest.raises(InfeasibleState):
            xs.from_fano(xs.FanoParams(A3=0.0, B3=0.0, C1=2.0, C2=0.0, C3=0.0))

    @pytest.mark.parametrize("n", [1, 3, 100])
    def test_batch_equals_each_element_bit_for_bit(self, n):
        batch = xs.random_xstates(1, 0, n, complex_phases=True)
        f = xs.to_fano(batch)
        got = xs.from_fano(f)
        singles = [xs.from_fano(xs.FanoParams(*(v[i] for v in f))) for i in range(n)]
        for k in "abcdzw":
            want = np.array([getattr(y, k) for y in singles], dtype=getattr(got, k).dtype)
            assert getattr(got, k).shape == (n,)
            assert getattr(got, k).tobytes() == want.tobytes(), k
            # the round trip, within the rounding of the two linear maps
            assert np.abs(getattr(got, k) - getattr(batch, k)).max() <= 1e-15, k

    def test_batch_names_its_infeasible_element(self):
        f = xs.to_fano(xs.random_xstates(1, 0, 5))
        c1 = f.C1.copy()
        c1[3] = 2.0
        with pytest.raises(InfeasibleState) as batch_err:
            xs.from_fano(f._replace(C1=c1))
        assert batch_err.value.index == 3
        with pytest.raises(InfeasibleState) as single_err:
            xs.from_fano(xs.FanoParams(*(v[3] for v in f._replace(C1=c1))))
        assert single_err.value.index is None
        assert str(batch_err.value) == str(single_err.value)


class TestConstructors:
    def test_bell_parameters(self):
        assert xs.bell(0) == xs.XState(0.5, 0.0, 0.0, 0.5, 0j, 0.5 + 0j)
        assert xs.bell(1) == xs.XState(0.0, 0.5, 0.5, 0.0, 0.5 + 0j, 0j)
        assert xs.bell(2).z == -0.5
        assert xs.bell(3).w == -0.5

    def test_bell_matrices_match_vectors(self):
        from conftest import BELL_VECTORS

        for i in range(4):
            proj = np.outer(BELL_VECTORS[i], BELL_VECTORS[i].conj())
            assert np.abs(xs.bell(i).to_matrix() - proj).max() < 1e-15

    def test_bell_index_out_of_range(self):
        with pytest.raises(ValueError):
            xs.bell(4)

    def test_bell_purity_and_concurrence(self):
        for i in range(4):
            assert xs.purity(xs.bell(i)) == pytest.approx(1.0, abs=1e-15)
            assert xs.concurrence(xs.bell(i)) == pytest.approx(1.0, abs=1e-15)

    def test_werner_limits(self):
        assert xs.werner(0.0) == xs.XState(0.25, 0.25, 0.25, 0.25, 0j, 0j)
        assert xs.werner(1.0, 2) == xs.bell(2)

    def test_werner_half(self):
        x = xs.werner(0.5)
        assert (x.a, x.b, x.c, x.d) == (0.375, 0.125, 0.125, 0.375)
        assert x.w == 0.25

    def test_werner_range(self):
        with pytest.raises(ValueError):
            xs.werner(1.5)

    def test_bell_diagonal_corners(self):
        assert xs.bell_diagonal(0, 0, 0) == xs.werner(0.0)
        x = xs.bell_diagonal(1, -1, 1)
        assert (x.a, x.d, complex(x.w)) == (0.5, 0.5, 0.5 + 0j)

    def test_bell_diagonal_infeasible(self):
        with pytest.raises(InfeasibleState):
            xs.bell_diagonal(0.9, 0.9, 0.9)

    def test_bell_diagonal_boundary_within_tolerance(self):
        # a Bell weight at exactly -1e-12 is admitted and clamped
        x = xs.bell_diagonal(0.0, 0.0, -1.0 - 4e-12)
        assert x.a == 0.0 and x.d == 0.0

    def test_bell_diagonal_fano_round_trip(self):
        f = xs.to_fano(xs.bell_diagonal(0.3, -0.2, 0.4))
        assert (f.A3, f.B3) == (0.0, 0.0)
        assert (f.C1, f.C2, f.C3) == pytest.approx((0.3, -0.2, 0.4), abs=1e-15)


class TestRandomStates:
    def test_always_valid(self):
        for x in random_states(500, seed=23):
            assert abs(x.a + x.b + x.c + x.d - 1.0) < 1e-12
            assert abs(x.z) <= math.sqrt(x.b * x.c) + 1e-12
            assert abs(x.w) <= math.sqrt(x.a * x.d) + 1e-12

    def test_deterministic_per_pair(self):
        assert xs.random_xstate(42, 0) == xs.random_xstate(42, 0)
        assert xs.random_xstate(42, 0) != xs.random_xstate(42, 1)
        assert xs.random_xstate(42, 0) != xs.random_xstate(43, 0)

    def test_population_mean_is_simplex_uniform(self):
        mean_a = np.mean([xs.random_xstate(1, i).a for i in range(10_000)])
        assert mean_a == pytest.approx(0.25, abs=0.01)

    def test_random_pure_normalized(self):
        for i in range(20):
            psi = xs.random_pure(9, i)
            assert np.linalg.norm(psi.vector()) == pytest.approx(1.0, abs=1e-12)

    def test_random_pure_frozen_values(self):
        # made with one fresh Philox generator per (seed, index)
        frozen = {
            (1, 0): (0.3983576489019289 + 0.2060682212129902j,
                     0.29661974535461294 - 0.27807903385086635j,
                     -0.0959840859811704 - 0.6551184429574413j,
                     0.17260253851551777 - 0.406633857418626j),
            (9, 7): (0.014367103098678273 - 0.2936753859067167j,
                     0.7353718467795421 - 0.09564768681510172j,
                     -0.32690618207203476 - 0.08900095616231471j,
                     0.027712781513872235 - 0.49806756639847805j),
            (123456789, 4242): (-0.3413229849144149 - 0.3401550602964592j,
                                0.2154010504229444 - 0.5092829787287193j,
                                -0.36859867701941623 - 0.00425942023530618j,
                                0.34764159480820445 - 0.4530878327385593j),
        }
        for (seed, index), amplitudes in frozen.items():
            psi = xs.random_pure(seed, index)
            assert (psi.alpha, psi.beta, psi.gamma, psi.delta) == amplitudes


def fresh_stream_state(seed: int, index: int, complex_phases: bool) -> xs.XState:
    """The random X state of (seed, index) drawn from a fresh generator on the
    Philox stream with key [seed, index] and built with scalar arithmetic."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    e = rng.standard_exponential(4)
    a, b, c, d = e / e.sum()
    u = rng.random(2)
    z = complex(u[0] * math.sqrt(b * c))
    w = complex(u[1] * math.sqrt(a * d))
    if complex_phases:
        ph = rng.random(2) * 2.0 * math.pi
        z *= complex(math.cos(ph[0]), math.sin(ph[0]))
        w *= complex(math.cos(ph[1]), math.sin(ph[1]))
    return xs.validate(a, b, c, d, z, w)


class TestRandomBatches:
    @pytest.mark.parametrize("complex_phases", [False, True])
    @pytest.mark.parametrize("seed, start, stop",
                             [(1, 0, 10_000), (77, 4321, 5321), (2**64 - 1, 0, 100),
                              (0, 1000, 1300)])
    def test_batch_equals_each_index_bit_for_bit(self, seed, start, stop, complex_phases):
        batch = xs.random_xstates(seed, start, stop, complex_phases=complex_phases)
        assert batch.a.shape == (stop - start,) and batch.z.dtype == np.complex128
        singles = [xs.random_xstate(seed, i, complex_phases) for i in range(start, stop)]
        fresh = [fresh_stream_state(seed, i, complex_phases) for i in range(start, stop)]
        for k in "abcdzw":
            got = getattr(batch, k)
            for reference in (singles, fresh):
                want = np.array([getattr(x, k) for x in reference], dtype=got.dtype)
                assert got.tobytes() == want.tobytes(), k

    def test_each_index_restarts_its_stream(self):
        # uneven draws, a buffered 32-bit half included, must not reach the
        # next index's stream
        indices = [7, 3, 7, 2**63, 0]
        for k, (index, rng) in enumerate(zip(indices, core._streams(5, indices))):
            fresh = np.random.Generator(np.random.Philox(key=np.array([5, index], np.uint64)))
            got = (rng.integers(2**32, dtype=np.uint32, size=k + 1), rng.random(k))
            want = (fresh.integers(2**32, dtype=np.uint32, size=k + 1), fresh.random(k))
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_uint64_rejected(self, seed):
        draws = (lambda: xs.random_xstate(seed, 0), lambda: xs.random_xstates(seed, 0, 3),
                 lambda: xs.random_pure(seed, 0))
        for draw in draws:
            with pytest.raises(ValueError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
                draw()

    def test_single_state_has_python_fields(self):
        x = xs.random_xstate(3, 5, complex_phases=True)
        assert {type(v) for v in (x.a, x.b, x.c, x.d)} == {float}
        assert type(x.z) is complex and type(x.w) is complex

    def test_unstack_inverts_stack(self):
        states = [xs.random_xstate(8, i, complex_phases=True) for i in range(30)]
        assert xs.unstack(xs.stack(states)) == states

    def test_campaign_sample_reproduces(self):
        # the maximum error of acceptance criterion 1's 10^4 states
        assert xs.approx_error_campaign(10_000, seed=1, grid=64).max_err == 7.588153671004294e-4


def numpy_exponential(word: int):
    """numpy's standard_exponential of a Philox buffer that starts with
    ``word`` (then all-ones words), and how many words it took."""
    bits = np.random.Philox(0)
    state = bits.state
    state["buffer"], state["buffer_pos"] = (word,) + (2**64 - 1,) * 3, 0
    bits.state = state
    value = np.random.Generator(bits).standard_exponential()
    after = bits.state
    blocks = after["state"]["counter"][0] - state["state"]["counter"][0]
    return value, after["buffer_pos"] + 4 * blocks


def exponential_word(box: int, ri: int) -> int:
    # the low three bits are not read
    return (ri << 11) | (box << 3) | 5


@pytest.fixture
def fresh_ziggurat(monkeypatch):
    """Forgets the cached ziggurat tables before and after the test (before
    monkeypatch undoes its patches), so tables read under a patch do not
    outlive it."""
    core._ziggurat.cache_clear()
    yield
    core._ziggurat.cache_clear()


class TestWholeArraySampling:
    @pytest.mark.parametrize("seed, index", [(0, 0), (1, 2**40 + 3), (2**64 - 1, 2**64 - 1),
                                             (123456789, 77)])
    def test_words_equal_random_raw(self, seed, index):
        words = core._philox_words(seed, index, 1)[:, 0]
        raw = np.random.Philox(key=np.array([seed, index], np.uint64)).random_raw(8)
        assert words.tobytes() == raw.tobytes()

    def test_fast_path_brackets_every_threshold(self):
        tables = core._ziggurat()
        accept, margin = tables[1], core._ZIGGURAT_MARGIN
        for box in range(2, 256):
            edge = int(accept[box])
            # just inside the margin, at its edge, and as far past the threshold
            for ri, fast in ((edge - 1, True), (edge, False), (edge + 2 * margin, False)):
                word = exponential_word(box, ri)
                value, takes = core._exponentials(np.array([word], np.uint64), tables)
                want, used = numpy_exponential(word)
                assert bool(takes[0]) is fast, (box, ri)
                if fast:
                    assert (value[0], used) == (want, 1), (box, ri)
                if ri > edge + margin:
                    assert used > 1, (box, ri)  # numpy rejects it

    def test_boxes_0_and_1_and_the_tail_fall_back(self):
        top = 2**53 - 1
        words = [exponential_word(0, 1), exponential_word(0, top), exponential_word(1, 0),
                 exponential_word(1, 1), exponential_word(1, top)]
        _, fast = core._exponentials(np.array(words, np.uint64), core._ziggurat())
        assert not fast.any()
        # box 0 past its threshold is the tail, which takes another word
        assert numpy_exponential(exponential_word(0, top))[1] > 1

    def test_corrupted_table_samples_per_index(self, fresh_ziggurat, monkeypatch, caplog):
        # a margin far below zero accepts words numpy rejects
        monkeypatch.setattr(core, "_ZIGGURAT_MARGIN", -2**52)
        n = core.SAMPLING_CROSSOVER
        with caplog.at_level(logging.WARNING, logger="xstates"):
            batches = [xs.random_xstates(3, 0, n), xs.random_xstates(3, n, 2 * n)]
        assert core._ziggurat() is None
        assert [r.levelno for r in caplog.records if r.name == "xstates"] == [logging.WARNING]
        fresh = [fresh_stream_state(3, i, False) for i in range(2 * n)]
        for k in "abcdzw":
            got = np.concatenate([getattr(b, k) for b in batches])
            assert got.tobytes() == np.array([getattr(x, k) for x in fresh]).tobytes(), k

    @pytest.mark.parametrize("complex_phases", [False, True])
    @pytest.mark.parametrize("n", [0, core.SAMPLING_CROSSOVER - 1, core.SAMPLING_CROSSOVER])
    def test_sizes_about_the_crossover(self, monkeypatch, n, complex_phases):
        core._ziggurat()  # its first-use check computes words too
        calls, words = [], core._philox_words
        monkeypatch.setattr(core, "_philox_words",
                            lambda *args: calls.append(args) or words(*args))
        start = 2**64 - n  # the last indices
        batch = xs.random_xstates(6, start, 2**64, complex_phases)
        assert len(calls) == (n >= core.SAMPLING_CROSSOVER)
        fresh = [fresh_stream_state(6, i, complex_phases) for i in range(start, 2**64)]
        for k in "abcdzw":
            got = getattr(batch, k)
            assert got.shape == (n,)
            assert got.tobytes() == np.array([getattr(x, k) for x in fresh], got.dtype).tobytes()

    @pytest.mark.parametrize("start, stop, message", [
        (-1, 0, r"index range \[-1, 0\) is outside \[0, 2\*\*64\)"),
        (-1, core.SAMPLING_CROSSOVER, r"index range \[-1, \d+\) is outside"),
        (2**64 - 1, 2**64 + 1, r"index range \[18446744073709551615, 18446744073709551617\) is"),
        (2**64 - core.SAMPLING_CROSSOVER, 2**64 + 1, r"index range \[\d+, 18446744073709551617\)"),
        (5, 3, r"index range \[5, 3\) has stop < start"),
        (core.SAMPLING_CROSSOVER + 5, 3, r"index range \[\d+, 3\) has stop < start"),
    ])
    def test_index_outside_uint64_rejected(self, start, stop, message):
        with pytest.raises(ValueError, match=message):
            xs.random_xstates(1, start, stop)

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_single_index_outside_uint64_rejected(self, index):
        with pytest.raises(ValueError, match=rf"{index}"):
            xs.random_xstate(1, index)
        with pytest.raises(ValueError, match=rf"index {index} is outside \[0, 2\*\*64\)"):
            xs.random_pure(1, index)


class TestDephasing:
    def test_zero_time_is_projector(self):
        psi = xs.random_pure(1, 0)
        v = psi.vector()
        assert np.abs(xs.dephase_average(psi, 0.0) - np.outer(v, v.conj())).max() < 1e-15

    def test_uniform_superposition_attenuation(self):
        psi = xs.PureCoefficients(0.5, 0.5, 0.5, 0.5)
        m = xs.dephase_average(psi, math.log(4.0))
        # single-phase coherences scale by exp(-t/2) = 1/2, the double one by exp(-2t) = 1/16
        assert m[0, 1] == pytest.approx(0.25 * 0.5, abs=1e-15)
        assert m[0, 2] == pytest.approx(0.25 * 0.5, abs=1e-15)
        assert m[1, 3] == pytest.approx(0.25 * 0.5, abs=1e-15)
        assert m[0, 3] == pytest.approx(0.25 / 16.0, abs=1e-15)
        assert m[1, 2] == pytest.approx(0.25, abs=1e-15)

    def test_long_time_limit_is_x_shaped(self):
        for i in range(20):
            psi = xs.random_pure(2, i)
            x = xs.from_matrix(xs.dephase_average(psi, 50.0))
            lim = xs.x_limit(psi)
            assert x.a == pytest.approx(lim.a, abs=1e-8)
            assert complex(x.z) == pytest.approx(complex(lim.z), abs=1e-8)
            assert abs(x.w) < 1e-8

    def test_trace_preserving_and_positive(self):
        for i in range(100):
            psi = xs.random_pure(4, i)
            for t in (0.1, 1.0, 10.0):
                m = xs.dephase_average(psi, t)
                assert np.trace(m).real == pytest.approx(1.0, abs=1e-13)
                assert np.abs(m - m.conj().T).max() < 1e-14
                assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            xs.dephase_average(xs.random_pure(1, 1), -0.1)


class TestXLimit:
    def test_product_state(self):
        x = xs.x_limit(xs.PureCoefficients(1, 0, 0, 0))
        assert (x.a, x.b, x.c, x.d) == (1.0, 0.0, 0.0, 0.0)

    def test_entanglement_destroyed_on_ad_branch(self):
        r = 1 / math.sqrt(2)
        x = xs.x_limit(xs.PureCoefficients(r, 0, 0, r))
        assert x.w == 0
        assert xs.concurrence(x) == 0.0

    def test_decoherence_free_bc_branch(self):
        r = 1 / math.sqrt(2)
        x = xs.x_limit(xs.PureCoefficients(0, r, r, 0))
        assert complex(x.z) == pytest.approx(0.5 + 0j, abs=1e-15)
        assert xs.concurrence(x) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dephase_average_limit(self):
        for i in range(30):
            psi = xs.random_pure(6, i)
            lim = xs.x_limit(psi)
            avg = xs.from_matrix(xs.dephase_average(psi, 1e3))
            assert avg.a == pytest.approx(lim.a, abs=1e-8)
            assert avg.b == pytest.approx(lim.b, abs=1e-8)
            assert complex(avg.z) == pytest.approx(complex(lim.z), abs=1e-8)


class TestPackage:
    def test_every_export_resolves(self):
        missing = [name for name in xs.__all__ if not hasattr(xs, name)]
        assert missing == []
        assert len(set(xs.__all__)) == len(xs.__all__)
