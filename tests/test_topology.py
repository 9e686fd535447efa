import numpy as np
import pytest

from qlocal.topology import (
    Topology,
    build_gd,
    build_script_gd,
    check_even_d,
    corner_nodes,
    disjoint_copies,
    input_nodes,
    is_count,
    neighborhood,
    ring_distance,
)
from qlocal.verify import parities


def test_ring_counts():
    ring = build_gd(4)
    assert ring.num_nodes == 12
    assert len(ring.edges) == 12
    assert all(len(ring.neighbors(u)) == 2 for u in ring.nodes)


def test_augmented_ring_counts():
    g = build_script_gd(2)
    assert g.num_nodes == 9
    assert len(g.edges) == 9
    assert [len(g.neighbors(u)) for u in (6, 7, 8)] == [1, 1, 1]
    # each input node hangs off its corner
    assert g.neighbors(6) == frozenset({0})
    assert g.neighbors(7) == frozenset({2})
    assert g.neighbors(8) == frozenset({4})


@pytest.mark.parametrize("bad_d", [0, 1, 3, -2])
def test_odd_d_rejected(bad_d):
    with pytest.raises(ValueError):
        build_gd(bad_d)


@pytest.mark.parametrize("bad_d", [4.0, "4", True])
def test_non_integer_d_rejected(bad_d):
    with pytest.raises(ValueError, match="even integer"):
        check_even_d(bad_d)


def test_one_integer_rule_for_counts():
    # numpy integers pass, as range() takes them; bools, floats and strings do not
    assert is_count(3, 0) and is_count(np.int64(4), 2)
    check_even_d(np.int64(4))
    for bad in (True, np.True_, 1.0, "3", -1):
        assert not is_count(bad, 0), bad


def test_side_partition_at_d4():
    # an even label feeds m_even; an odd one the parity of its own side
    for i in range(12):
        want = [0, 0, 0, 0]
        want[1 + i // 4 if i % 2 else 0] = 1
        assert parities(4, tuple(int(j == i) for j in range(12))) == tuple(want)
    assert corner_nodes(4) == (0, 4, 8)
    assert input_nodes(4) == (12, 13, 14)


def test_ring_distance_wraps():
    assert ring_distance(2, 0, 5) == 1
    assert ring_distance(4, 1, 11) == 2
    assert ring_distance(4, 3, 3) == 0


def test_validation_errors():
    with pytest.raises(ValueError):
        Topology([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Topology([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        Topology([0, 0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        Topology([0, 1, 2], [(0, 1)])  # disconnected
    t = Topology([0, 1, 2], [(0, 1)], allow_disconnected=True)
    assert not t.is_connected()
    # the empty graph and a lone node are connected
    assert Topology([], []).is_connected()
    assert Topology([0], []).is_connected()


def test_neighborhood_and_distance():
    g = build_script_gd(2)
    assert neighborhood(g, 0, 0) == {0}
    assert neighborhood(g, 0, 1) == {0, 1, 5, 6}
    with pytest.raises(ValueError):
        neighborhood(g, 99, 1)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        neighborhood(g, 0, -1)


def test_disjoint_copies():
    g = disjoint_copies(build_gd(2), 3)
    assert g.num_nodes == 18
    assert len(g.edges) == 18
    assert g.neighbors((1, 0)) == frozenset({(1, 1), (1, 5)})
    for k in (0, True, 2.0):
        with pytest.raises(ValueError, match="k must be an integer"):
            disjoint_copies(build_gd(2), k)
