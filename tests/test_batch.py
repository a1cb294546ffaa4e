"""Batches: every measure on ``stack(states)`` equals the measure on each
state, and each state's value equals the frozen per-state values of the
implementation that preceded the batch closed forms."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xstates as xs
from xstates import fileio
from test_oracle import phase_normalized_states
from test_output_bytes import edge_states

# Values of every function below on batch_corpus(), computed one state at a
# time by the implementation at git commit 28e63fb (before the closed forms
# were written batch-first). The oracle's q_min, theta, min_conditional_entropy
# and classical_correlation were re-recorded when the oracle stopped rescanning
# states whose optimum is an endpoint: theta at such a flat endpoint had moved
# by up to 1e-6, and the others by up to 1.2e-15.
PARENT_VALUES = Path(__file__).parent / "data" / "parent_values.npz"

# scalar fields of a report, an approximate discord and an oracle result
REPORT_FIELDS = (
    "concurrence", "negativity", "fef", "fef_fidelity", "schmidt_number",
    "geometric_discord_general", "geometric_discord_paper", "approx_discord",
    "classical_correlation", "mutual_information", "mid",
)
APPROX_FIELDS = ("q", "n1", "n2", "classical_correlation", "mutual_information")
ORACLE_FIELDS = ("q_min", "theta", "min_conditional_entropy", "classical_correlation",
                 "mutual_information")


def batch_corpus():
    """1034 states: random ones with real and with complex phases, pure,
    diagonal, Bell, Werner (among them the maximally mixed state) and
    Bell-diagonal ones."""
    states = [xs.random_xstate(71, i) for i in range(640)]
    states += [xs.random_xstate(72, i, complex_phases=True) for i in range(300)]
    rng = np.random.default_rng(73)
    for k in range(20):  # pure: one block carries a rank-one state
        p = rng.uniform(0.05, 0.95)
        coh = math.sqrt(p * (1 - p)) * complex(math.cos(k), math.sin(k))
        states.append(xs.validate(p, 0, 0, 1 - p, w=coh) if k % 2
                      else xs.validate(0, p, 1 - p, 0, z=coh))
    for _ in range(15):  # diagonal
        pops = rng.standard_exponential(4)
        states.append(xs.validate(*(pops / pops.sum())))
    states += [xs.bell(i) for i in range(4)]
    states += [xs.werner(eps, i % 4) for i, eps in enumerate((0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0))]
    for c in rng.uniform(-1, 1, size=(150, 3)):  # Bell-diagonal, where mmm_discord exists
        try:
            states.append(xs.bell_diagonal(*c))
        except xs.errors.InfeasibleState:
            pass
    return states


def per_state_values(x) -> dict:
    """Every value the batch is compared on, for one state or a batch."""
    rep = xs.report(x)
    ad = xs.approx_discord(x)
    orc = xs.discord_oracle(x)
    out = {f"report.{k}": getattr(rep, k) for k in REPORT_FIELDS}
    out["report.schmidt_values"] = rep.schmidt_values
    out.update({f"approx.{k}": getattr(ad, k) for k in APPROX_FIELDS})
    out.update({f"oracle.{k}": getattr(orc, k) for k in ORACLE_FIELDS})
    out["entropy"] = xs.entropy(xs.eigenvalues(x))
    out["concurrence"] = xs.concurrence(x)
    out["negativity"] = xs.negativity(x)
    return out


@pytest.fixture(scope="module")
def states():
    return batch_corpus()


@pytest.fixture(scope="module")
def singles(states):
    rows = [per_state_values(x) for x in states]
    return {k: np.array([row[k] for row in rows]) for k in rows[0]}, [
        xs.report(x).mmm_discord for x in states]


class TestStack:
    def test_fields_are_arrays_over_the_states(self, states):
        b = xs.stack(states)
        assert b.a.shape == b.z.shape == (len(states),)
        assert b.z.dtype == np.complex128
        assert b.swap_qubits().b[7] == states[7].c
        assert np.array_equal(b.to_matrix()[5], states[5].to_matrix())

    def test_batch_equals_each_state(self, states, singles):
        values, mmm = singles
        batch = per_state_values(xs.stack(states))
        assert batch.keys() == values.keys()
        for key, single in values.items():
            got = np.asarray(batch[key])
            if key == "report.schmidt_values":
                got = got.T  # values on axis 0
            assert got.shape == single.shape, key
            assert np.abs(got - single).max() <= 1e-14, key
        batch_mmm = list(xs.report(xs.stack(states)).mmm_discord)
        assert [v is None for v in batch_mmm] == [v is None for v in mmm]
        assert sum(v is not None for v in mmm) >= 40
        assert max(abs(u - v) for u, v in zip(batch_mmm, mmm) if v is not None) <= 1e-14

    def test_each_state_equals_parent(self, singles):
        values, mmm = singles
        ref = np.load(PARENT_VALUES)
        for key, single in values.items():
            assert np.abs(single - ref[key]).max() <= 1e-12, key
        defined = np.array([v is not None for v in mmm])
        assert np.array_equal(defined, ref["report.mmm_defined"])
        got = np.array([v for v in mmm if v is not None])
        assert np.abs(got - ref["report.mmm_discord"][defined]).max() <= 1e-12

    def test_batch_report_serializes_null_mmm(self):
        rep = xs.report(xs.stack([xs.werner(0.5), xs.validate(0.4, 0.3, 0.2, 0.1, z=0.1)]))
        d = rep.to_dict()
        assert d["mmm_discord"][1] is None
        assert d["mmm_discord"][0] == pytest.approx(0.26248318376373436, abs=1e-12)
        assert "null" in fileio.dumps(d) and "nan" not in fileio.dumps(d)

    def test_batch_mmm_discord_rejects_any_non_mmm_state(self):
        with pytest.raises(xs.errors.NotMMM):
            xs.mmm_discord(xs.stack([xs.werner(0.5), xs.validate(0.4, 0.3, 0.2, 0.1)]))


_FRACTIONS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
_EDGE_STATES = st.sampled_from(edge_states())


@st.composite
def states_with_edges(draw):
    """A state of :func:`edge_states`, or one with populations and coherence
    fractions of their bounds that land on 0, 1/2 and 1 as often as
    anywhere else, and coherence phases on and off the axes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_EDGE_STATES)
    pops = [draw(_FRACTIONS) for _ in range(4)]
    total = sum(pops)
    if total == 0.0:
        pops, total = [1.0, 1.0, 1.0, 1.0], 4.0
    a, b, c, d = (p / total for p in pops)
    fz, fw, turn_z, turn_w = (draw(_FRACTIONS) for _ in range(4))
    z = fz * math.sqrt(b * c) * cmath.exp(2j * math.pi * turn_z)
    w = fw * math.sqrt(a * d) * cmath.exp(2j * math.pi * turn_w)
    return xs.validate(a, b, c, d, z=z, w=w)


def public_values(x) -> dict:
    """Every public measure of a state or a batch, keyed ``name/side``."""
    ss = xs.schmidt_spectrum(xs.normalize_phases(x).state)
    out = {
        "concurrence": xs.concurrence(x), "negativity": xs.negativity(x), "fef": xs.fef(x),
        "mid": xs.mid(x), "purity": xs.purity(x), "eigenvalues": xs.eigenvalues(x),
        "entropy": xs.entropy(xs.eigenvalues(x)), "schmidt_spectrum": ss.values,
        "schmidt_number": xs.schmidt_number(ss),
    }
    for side in "AB":
        for variant in ("general", "paper"):
            out[f"geometric_discord.{variant}/{side}"] = xs.geometric_discord(
                x, side=side, variant=variant)
        ad = xs.approx_discord(x, side=side)
        out.update({f"approx_discord.{k}/{side}": getattr(ad, k) for k in APPROX_FIELDS})
        rep = xs.report(x, side=side).to_dict()
        out.update({f"report.{k}/{side}": v for k, v in rep.items() if k != "side"})
    return out


BATCH_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


class TestDiscordProperties:
    @BATCH_PROPERTY
    @given(phase_normalized_states())
    def test_oracle_between_zero_and_approx(self, x):
        # Q is a difference of entropies of order one, so it vanishes only to
        # rounding (-1.1e-16 on the product state a = 13/15, b = 2/15)
        q = xs.discord_oracle(x).q_min
        assert -1e-12 <= q <= xs.approx_discord(x).q + 1e-12

    @BATCH_PROPERTY
    @given(phase_normalized_states())
    def test_report_side_swap_symmetry(self, x):
        ra = xs.report(x, side="A")
        rb = xs.report(x.swap_qubits(), side="B")
        for key in ("approx_discord", "classical_correlation", "mutual_information",
                    "geometric_discord_general", "geometric_discord_paper", "mid"):
            assert getattr(ra, key) == pytest.approx(getattr(rb, key), abs=1e-12), key
        assert (ra.mmm_discord is None) == (rb.mmm_discord is None)

    @BATCH_PROPERTY
    @given(st.lists(states_with_edges(), min_size=1, max_size=4))
    def test_q_plus_c_is_i(self, states):
        for x in (*states, xs.stack(states)):
            for side in "AB":
                ad, orc = xs.approx_discord(x, side=side), xs.discord_oracle(x, side=side)
                for q, c, i in ((ad.q, ad.classical_correlation, ad.mutual_information),
                                (orc.q_min, orc.classical_correlation, orc.mutual_information)):
                    assert np.abs(q + c - i).max() <= 1e-12

    @BATCH_PROPERTY
    @given(states_with_edges(), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
    def test_measures_unchanged_under_local_phases(self, x, phi, psi):
        y = xs.validate(x.a, x.b, x.c, x.d,
                        z=x.z * cmath.exp(1j * phi), w=x.w * cmath.exp(1j * psi))
        vx, vy = public_values(x), public_values(y)
        for side in "AB":
            vx[f"oracle/{side}"] = xs.discord_oracle(x, side=side).q_min
            vy[f"oracle/{side}"] = xs.discord_oracle(y, side=side).q_min
        for key, value in vx.items():
            if value is None or vy[key] is None:
                assert value is vy[key], key
            else:
                assert np.abs(np.asarray(value) - np.asarray(vy[key])).max() <= 1e-12, key


IDENTITY_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


class TestSingleStateBytes:
    """One state's value of every public measure serializes to the same bytes
    as its element of the ``stack`` batch, negative zeros included."""

    @IDENTITY_PROPERTY
    @given(st.lists(states_with_edges(), min_size=1, max_size=6))
    def test_single_state_equals_batch_element(self, states):
        batch = {k: np.asarray(v) for k, v in public_values(xs.stack(states)).items()}
        for i, x in enumerate(states):
            for key, single in public_values(x).items():
                element = batch[key][..., i][()]
                assert fileio.dumps(single) == fileio.dumps(element), key
        mmm = [x for x in states if xs.report(x).mmm_discord is not None]
        if mmm:
            batch_mmm = xs.mmm_discord(xs.stack(mmm)).tolist()
            assert [fileio.dumps(xs.mmm_discord(x)) for x in mmm] == [
                fileio.dumps(v) for v in batch_mmm]

    @pytest.mark.parametrize("side", "AB")
    def test_report_lines_equal_batch_lines(self, side):
        # the range holds random_xstate(7, 482), whose approximate discord
        # moves in the last bits when one state squares with libm's pow
        n = 2000
        batch = xs.random_xstates(7, 0, n)
        table = xs.report(batch, side=side).to_dict()
        table["schmidt_values"] = [list(v) for v in zip(*table["schmidt_values"])]
        table["side"] = [side] * n
        for i, x in enumerate(xs.unstack(batch)):
            row = {k: v[i] for k, v in table.items()}
            assert fileio.dumps(xs.report(x, side=side).to_dict()) == fileio.dumps(row), i
