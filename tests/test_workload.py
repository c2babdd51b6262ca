"""Unit tests for the synthetic workload generator and its naming."""

import hashlib

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.workload.generator import SyntheticWorkload, generate_workload
from repro.workload.naming import format_workload_name, parse_workload_name


class TestNaming:
    def test_parse_standard(self):
        p = parse_workload_name("65-4-3")
        assert p == {"mesh": 65, "mean_degree": 4.0, "mean_distance": 3.0}

    def test_parse_fractional(self):
        p = parse_workload_name("65-4-1.5")
        assert p["mean_distance"] == 1.5

    def test_parse_mesh_form(self):
        p = parse_workload_name("65mesh")
        assert p == {"mesh": 65, "mean_degree": None, "mean_distance": None}

    def test_roundtrip(self):
        for name in ("65-4-3", "65-4-1.5", "20-2-2", "65mesh"):
            p = parse_workload_name(name)
            assert format_workload_name(
                p["mesh"], p["mean_degree"], p["mean_distance"]
            ) == name

    @pytest.mark.parametrize("bad", ["", "65-4", "a-b-c", "65-4-3-2", "-4-3", "xmesh"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_workload_name(bad)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            parse_workload_name("0-4-3")
        with pytest.raises(ValidationError):
            parse_workload_name("65-4-0")


class TestGenerator:
    def test_name_forms_equivalent(self):
        a = generate_workload("20-3-2", seed=5)
        b = generate_workload(20, 3, 2, seed=5)
        assert a.matrix.allclose(b.matrix)

    def test_deterministic_by_seed(self):
        a = generate_workload("20-3-2", seed=5)
        b = generate_workload("20-3-2", seed=5)
        assert a.matrix.allclose(b.matrix)

    def test_seeds_differ(self):
        a = generate_workload("20-3-2", seed=5)
        b = generate_workload("20-3-2", seed=6)
        assert not a.matrix.allclose(b.matrix)

    def test_lower_triangular_with_diagonal(self, small_workload):
        m = small_workload.matrix
        assert m.is_lower_triangular()
        assert m.has_full_diagonal()

    def test_size(self, small_workload):
        assert small_workload.n == 400

    def test_mean_degree_roughly_respected(self):
        wl = generate_workload("40-4-2", seed=11)
        # each Poisson(4) link lands as one strict-lower entry (some lost
        # to dedup/self-loops) — the realised mean should be in range.
        mean_links = wl.dependence_counts().mean()
        assert 2.0 < mean_links < 6.0

    def test_locality(self):
        """Most links connect points within a few Manhattan units."""
        wl = generate_workload("30-3-1.5", seed=13)
        m = wl.matrix
        mesh = wl.mesh
        rows = m.row_of_nnz()
        strict = m.indices < rows
        r, c = rows[strict], m.indices[strict]
        dist = np.abs(r % mesh - c % mesh) + np.abs(r // mesh - c // mesh)
        assert np.median(dist) <= 3

    def test_mesh_workload_structure(self):
        wl = generate_workload("10mesh")
        m = wl.matrix
        assert wl.name == "10mesh"
        assert m.nrows == 100
        # row 11 (= point (1,1)) depends on 10 (west) and 1 (south)
        cols, _ = m.row(11)
        assert set(cols.tolist()) == {1, 10, 11}

    def test_dataclass_fields(self, small_workload):
        assert isinstance(small_workload, SyntheticWorkload)
        assert small_workload.mean_degree == 3.0
        assert small_workload.mean_distance == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            generate_workload(10, -1, 2)
        with pytest.raises(ValidationError):
            generate_workload(10, 2, 0)

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_max_distance_must_be_positive_integer(self, bad):
        with pytest.raises(ValidationError, match="max_distance"):
            generate_workload(10, 2, 2, max_distance=bad)

    @pytest.mark.parametrize("args", [(9, 4, None), (9, None, 3)])
    def test_half_specified_rejected(self, args):
        with pytest.raises(ValidationError, match="mean_degree and mean_distance"):
            generate_workload(*args)


# SHA-256 of the little-endian indptr / indices / data bytes.  The draw
# order is the output, so any change to how the generator consumes its
# Generator shows here; the boundary-heavy, clipped and degree-0 cases
# cover the ring filter, the max_distance clip and the no-link rows.
GOLDEN = [
    (("65-4-3",), {},
     "b2c5e0882507b8cd2ae4a94668ad6a67e2d46d69a138f94d87805d59532361fb",
     "5258cdcdaccdac2582a5a045aab08a8234cb1d3e751de6f5afc721aea4468b86",
     "1caeb396fddb13805cc9a92b04ea8fafc2d4ca390cadb819c1252d743e02ab0f"),
    (("20-3-2",), {"seed": 5},
     "698b1c29040871026b299d0d8ab2346a56d5da55c2dedc1aff85cb51e41b1673",
     "cca1fefe986fa65a7c52f8622a04b22bd0ff63e088d6cdaa5a467b6cdf2f6a21",
     "4c4b84d164856207b118ee6c1686cc700a679c92a11be505736e7f99d96960ba"),
    (("33-8-5",), {"seed": 3},
     "ebe9a3707e0701a810d53eaf84deffeaf76172fe4b34e75d1d2f4a34083d0dbb",
     "e8c35c837587e6910e677a8206529a93b00dcc90b820bee5cfe21f4bc185d09e",
     "7b9a39d7aae09f69128a776728ba9f2417b8bcb38ad535a187175f84a7d6bcfe"),
    ((10, 2.0, 50.0), {"seed": 1, "max_distance": 3},
     "2333859ef1fd0f38d254482f12360d0a208db49690fa8bf396f6c72ded442488",
     "c287e6d50e04e0949cc31b7dc58fc369f701f738abe6944892093fa1eefc83b6",
     "cd683f6e69e9ecbac61985388a8ca380e18f7e7b7f7e93f2d8257411c5e6a6a4"),
    ((5, 0.0, 1.0), {"seed": 2},
     "a6e3249a788fb10466f1b15f60c591c90c3b3c6d91f5aed3636bb3a1208d5f49",
     "2a0a16a7ce85c211f6b6e8a758e7ec09f9fd77e230e81d74c30a857dd51e2de6",
     "3030823012c88c9561ba27927ec14fcd2540d642d4ecd0a4d1650b315234fdf2"),
    (("10mesh",), {},
     "611ec7e7a8fff0fe2ec11da567d2499df7d82cd5a026d9725809f2770897e30b",
     "7a1fcda02859a774a0229f3fdc3aaf653338482c81c3c7bac13395c43956b54d",
     "1a352e7a7a2be6e36137fefd25dc0961009d49b3d4a1bf033b3ce3680bc555b8"),
]


@pytest.mark.parametrize("args,kwargs,indptr,indices,data", GOLDEN,
                         ids=["65-4-3", "20-3-2-seed5", "33-8-5-seed3", "clipped",
                              "degree-0", "10mesh"])
def test_golden_digests(args, kwargs, indptr, indices, data):
    m = generate_workload(*args, **kwargs).matrix
    digest = [hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()
              for a in (m.indptr, m.indices, m.data)]
    assert digest == [indptr, indices, data]
