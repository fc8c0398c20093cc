import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklang import CoinAssignment, NonUnitaryError, PortGraph
from walklang import coins

from helpers import haar_unitary, reference_unitarity_defect


def test_hadamard_entries():
    h = coins.hadamard()
    r = 1 / np.sqrt(2)
    assert np.allclose(h, [[r, r], [r, -r]], atol=0)
    assert np.allclose(h @ [1, 0], [r, r], atol=1e-15)


def test_hadamard_is_involution():
    h = coins.hadamard()
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)


def test_hadamard_rotates_minus_state():
    h = coins.hadamard()
    out = h @ (np.array([1, -1]) / np.sqrt(2))
    assert np.allclose(out, [0, 1], atol=1e-15)


def test_grover_two_is_pauli_x():
    assert np.array_equal(coins.grover(2), coins.pauli_x())


def test_grover_entries():
    g = coins.grover(4)
    assert g[0, 0] == pytest.approx(-0.5)
    assert g[0, 1] == pytest.approx(0.5)
    g6 = coins.grover(6)
    assert g6[2, 2] == pytest.approx((2 - 6) / 6)
    assert coins.unitarity_defect(g6) < 1e-12


def test_grover_rejects_dimension_zero():
    with pytest.raises(ValueError):
        coins.grover(0)


def test_grover_half_transfer():
    g = coins.grover(4)
    x = 0.37
    out = g @ np.array([x, x, 0, 0])
    assert np.allclose(out, [0, 0, x, x], atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_grover_lone_port_split(m):
    # a single occupied port of a degree-4 hub reflects -1/2 of its
    # amplitude and passes 1/2 along each of the other three ports
    x = 1 / np.sqrt(2 * m)
    out = coins.grover(4) @ np.array([x, 0, 0, 0])
    assert np.allclose(out, np.array([-1, 1, 1, 1]) / (2 * np.sqrt(2 * m)), atol=1e-15)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_grover_transfer_even_dimensions(d):
    rng = np.random.default_rng(d)
    g = coins.grover(d)
    for _ in range(20):
        ports = rng.choice(d, size=d // 2, replace=False)
        x = complex(rng.normal(), rng.normal())
        vec = np.zeros(d, dtype=np.complex128)
        vec[ports] = x
        out = g @ vec
        other = np.setdiff1d(np.arange(d), ports)
        assert np.max(np.abs(out[ports])) < 1e-15 * max(1.0, abs(x))
        assert np.max(np.abs(out[other] - x)) < 1e-15 * max(1.0, abs(x))


def test_pauli_x_swaps():
    sx = coins.pauli_x()
    assert np.array_equal(sx @ [1, 0], [0, 1])
    assert np.array_equal(sx @ sx, np.eye(2))


def test_pass_through_coin_moves_to_leaving_pair():
    c = coins.tensor(coins.pauli_x(), coins.identity(2))
    alpha = 0.5
    assert np.allclose(c @ [alpha, 0, 0, 0], [0, 0, alpha, 0], atol=0)
    assert np.allclose(c @ [0, alpha, 0, 0], [0, 0, 0, alpha], atol=0)


def test_tensor_identity():
    assert np.array_equal(
        coins.tensor(coins.identity(2), coins.identity(3)), np.eye(6)
    )


def test_tensor_pauli_hadamard():
    out = coins.tensor(coins.pauli_x(), coins.hadamard()) @ np.array([0, 0, 1, 0])
    r = 1 / np.sqrt(2)
    assert np.allclose(out, [r, r, 0, 0], atol=1e-15)


def test_tensor_rejects_non_unitary_factor():
    with pytest.raises(NonUnitaryError):
        coins.tensor(np.array([[1, 0], [0, 2]]), coins.identity(2))


def test_permutation_identity_and_swap():
    assert np.array_equal(coins.permutation([0, 1, 2]), np.eye(3))
    assert np.array_equal(coins.permutation([1, 0]), coins.pauli_x())


def test_permutation_routes_ports():
    m = coins.permutation([2, 3, 0, 1])
    out = m @ np.array([0.6, 0.8, 0, 0])
    assert np.allclose(out, [0, 0, 0.6, 0.8], atol=0)


def test_permutation_rejects_non_permutation():
    # a repeat, an entry out of range, or an entry that is not an integer id: a bool
    # or a float is none even where the entries sort to 0..d-1
    for perm in ([0, 0, 1], [0, 2], [False, True], [1.0, 0.0], [np.True_, 0], [0, 1.5],
                 ["0", "1"]):
        with pytest.raises(ValueError, match=r"is not a permutation of 0\.\.\d$"):
            coins.permutation(perm)
    # numpy integers are entries
    taken = coins.permutation([np.int64(1), np.uint8(0)])
    assert np.array_equal(taken, coins.permutation([1, 0]))
    assert coins.unitarity_defect(taken) == 0.0


def custom_coins(block) -> CoinAssignment:
    """A caller's own coin block at both ends of ``len(block)`` parallel edges."""
    return CoinAssignment(PortGraph([(0, 1)] * len(block)), [block, block])


def test_custom_accepts_hadamard_and_grover():
    for block in (coins.hadamard(), coins.grover(6)):
        taken = custom_coins(block).matrices[0]
        assert taken.dtype == np.complex128 and np.array_equal(taken, block)


def test_custom_rejects_with_measured_defect():
    with pytest.raises(NonUnitaryError, match="coin at vertex 0") as err:
        custom_coins(np.array([[1, 0], [0, 2]]))
    assert err.value.defect == pytest.approx(3.0)


@given(st.integers(1, 9))
def test_grover_is_unitary(d):
    assert coins.unitarity_defect(coins.grover(d)) < 1e-12


def test_custom_rejects_nan():
    with pytest.raises(NonUnitaryError):
        custom_coins([[np.nan]])


def test_tensor_rejects_nan_factor():
    with pytest.raises(NonUnitaryError, match="left factor"):
        coins.tensor([[np.nan]], [[1.0]])


def test_degree_zero_coins_and_blocks_are_refused():
    for make, name in ((coins.identity, "identity"), (coins.grover, "Grover"),
                       (lambda d: coins.permutation(list(range(d))), "permutation")):
        with pytest.raises(ValueError, match=f"^{name} coin needs dimension >= 1, got 0$"):
            make(0)
    for shape in ((0, 0), (3, 0, 0), (0, 2, 2), (2,), (2, 3)):
        with pytest.raises(ValueError, match=r"^expected a non-empty stack of square matrices"):
            coins.unitarity_defect(np.zeros(shape))


@given(st.integers(1, 140), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-13, 1e-11, 1e-6]))
@settings(max_examples=40, deadline=None)
def test_stacked_defect_is_the_worst_per_block_defect(d, k, seed, scale):
    # one column of one block of a Haar stack is scaled by 1 + scale, which moves
    # only that column's diagonal entry of U†U: from 1e-11 on the stack fails
    rng = np.random.default_rng(seed)
    stack = np.stack([haar_unitary(rng, d) for _ in range(k)])
    stack[rng.integers(k), :, rng.integers(d)] *= 1.0 + scale
    each = [coins.unitarity_defect(block) for block in stack]
    whole = [reference_unitarity_defect(block) for block in stack]
    assert coins.unitarity_defect(stack) == max(each)
    passes = [e <= coins.UNITARY_TOL for e in each]
    assert passes == [w <= coins.UNITARY_TOL for w in whole]
    assert all(passes) == (scale < 1e-12)
    if d <= coins.PANEL:  # one panel is the whole product
        assert each == whole


@given(st.integers(1, 140), st.integers(1, 3), st.data(),
       st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, np.inf)]))
@settings(max_examples=60, deadline=None)
def test_one_non_finite_entry_anywhere_rejects_the_stack(d, k, data, bad):
    stack = np.stack([coins.grover(d)] * k)
    stack[data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, d - 1)),
          data.draw(st.integers(0, d - 1))] = bad
    with np.errstate(invalid="ignore"):  # inf * 0 inside the product
        defect = coins.unitarity_defect(stack)
        with pytest.raises(NonUnitaryError):
            coins.check_unitary(stack, "stack")
    assert isinstance(defect, float) and not np.isfinite(defect)


def test_defect_memory_stays_below_half_the_block():
    block = coins.grover(512)
    tracemalloc.start()
    try:
        defect = coins.unitarity_defect(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defect < 1e-12
    assert peak < 0.5 * block.nbytes
