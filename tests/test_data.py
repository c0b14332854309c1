import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clogitrep import data
from clogitrep.data import Cluster, DataError, Dataset, read_csv, screen_dataset
from clogitrep.simulate import SimConfig, generate_dataset
from packing_oracle import (assert_packed_like, csv_clusters,
                            simulated_clusters, unpack)


def make_cluster(ys):
    ys = np.asarray(ys)
    return Cluster(np.arange(len(ys), dtype=float)[:, None], ys)


class TestCluster:
    def test_outcome_sum(self):
        assert make_cluster([1, 0, 1]).outcome_sum == 2

    def test_rejects_nonbinary(self):
        with pytest.raises(DataError):
            make_cluster([0, 2])

    def test_rejects_fractional(self):
        with pytest.raises(DataError):
            Cluster(np.zeros((2, 1)), [0.7, 1.0])

    def test_rejects_nonfinite_covariate(self):
        with pytest.raises(DataError):
            Cluster(np.array([[np.inf], [0.0]]), np.array([1, 0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            Cluster(np.zeros((2, 1)), np.array([1, 0, 1]))


class TestScreening:
    def test_drops_concordant(self):
        clusters = [make_cluster([0, 0]), make_cluster([1, 0]),
                    make_cluster([1, 1])]
        ds = screen_dataset(clusters)
        assert ds.n_clusters == 1
        assert ds.dropped_concordant == 2
        assert ds.n_individuals == 2

    def test_identity_passthrough(self):
        clusters = [make_cluster([1, 0]), make_cluster([0, 1])]
        ds = screen_dataset(clusters)
        assert ds.n_clusters == 2
        assert ds.dropped_concordant == 0

    def test_non_cluster_item_named(self):
        # the (covariates, outcomes) pair is not a Cluster
        with pytest.raises(DataError, match="item 1 is not a Cluster"):
            screen_dataset([make_cluster([1, 0]),
                            (np.eye(2), np.array([1, 0]))])

    def test_all_concordant_errors(self):
        with pytest.raises(DataError, match="no discordant clusters"):
            screen_dataset([make_cluster([0, 0]), make_cluster([1, 1])])

    def test_dataset_rejects_concordant_directly(self):
        with pytest.raises(DataError):
            Dataset.from_arrays([0, 0], [1, 1], [[0.0], [1.0]])

    def test_blocks_pack_each_size_in_order(self):
        clusters = [make_cluster([1, 0, 0]), make_cluster([0, 1]),
                    make_cluster([1, 1, 0]), make_cluster([1, 0])]
        ds = screen_dataset(clusters)
        assert [b.index.tolist() for b in ds.blocks] == [[0, 2], [1, 3]]
        for b in ds.blocks:
            for row, j in enumerate(b.index):
                np.testing.assert_array_equal(b.X[row],
                                              clusters[j].covariates)
                np.testing.assert_array_equal(b.y[row], clusters[j].outcomes)
                assert b.T[row] == clusters[j].outcome_sum
        assert ds.n_individuals == 10


class TestCsvReader:
    def test_reads_and_groups(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\n"
                        "a,1,1.0\na,0,0.0\n"
                        "b,0,1.0\nb,1,0.0\n"
                        "c,1,1.0\nc,1,0.5\n")
        ds = read_csv(path)
        assert ds.n_clusters == 2
        assert ds.dropped_concordant == 1
        assert unpack(ds)[0].covariates[0, 0] == 1.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,y,x1\na,1,1.0\n")
        with pytest.raises(DataError, match="line 1"):
            read_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\na,1,1.0\na,0,oops\n")
        with pytest.raises(DataError, match="line 3"):
            read_csv(path)

    def test_nonbinary_outcome(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\na,2,1.0\n")
        with pytest.raises(DataError, match="line 2"):
            read_csv(path)

    def test_reads_and_groups_like_oracle(self, tmp_path):
        # interleaved ids, mixed sizes, blank lines, quoting and padding
        path = tmp_path / "d.csv"
        path.write_text('cluster_id, y ,x1,x2\n'
                        'a,1,1.0,2\n'
                        ' b ,0, 0.5 ,-1\n'
                        '"a",0,"2.5",3e-1\n'
                        '\n'
                        'c, 1,1_000,0\n'
                        'b,1,-0.0,4\n'
                        '"c",0,7,8\n'
                        'd,1,1,1\n'
                        '  \n'
                        'a,0,-3,9.5\n'
                        'c,1,0.25,0.125\n'
                        'e,0,1,2\ne,1,3,4\n')
        ds = read_csv(path)
        assert [b.index.tolist() for b in ds.blocks] == [[0, 2], [1, 3]]
        assert ds.blocks[0].X[1, 0, 0] == 1000.0
        assert_packed_like(ds, csv_clusters(path))

    def test_error_in_second_chunk_reports_line(self, tmp_path):
        n = data._CHUNK_ROWS + 200
        lines = ["cluster_id,y,x1"] + [f"c{i // 2},{i % 2},{i * 0.5}"
                                       for i in range(n)]
        # line _CHUNK_ROWS + 11, in the second chunk, is blank
        lines.insert(data._CHUNK_ROWS + 10, "")
        bad = data._CHUNK_ROWS + 57  # a later line of the second chunk
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        assert_packed_like(read_csv(path), csv_clusters(path))
        lines[bad - 1] = lines[bad - 1] + "x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line {bad}: malformed"):
            read_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_nonfinite_covariate_reports_line(self, tmp_path, value):
        path = tmp_path / "d.csv"
        path.write_text(f"cluster_id,y,x1\na,1,1.0\na,0,{value}\n")
        with pytest.raises(DataError, match="line 3: covariate value is not "
                                            "finite"):
            read_csv(path)

    def test_first_bad_line_wins(self, tmp_path):
        # a covariate error held for conversion precedes a later outcome error
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\na,1,1.0\na,0,oops\nb,7,1.0\n")
        with pytest.raises(DataError, match="line 3: malformed"):
            read_csv(path)

    def test_outcome_not_integer(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\na,1,1.0\na,0.5,0.0\n")
        with pytest.raises(DataError, match="line 3: outcome '0.5' is not an "
                                            "integer"):
            read_csv(path)

    def test_outcome_not_binary(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\na,1,1.0\na,-1,0.0\n")
        with pytest.raises(DataError, match="line 3: outcome must be 0 or 1"):
            read_csv(path)

    def test_outcome_uses_int_semantics(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\na, 1,1.0\na,+0 ,0.0\n")
        ds = read_csv(path)
        assert ds.blocks[0].y.tolist() == [[1, 0]]

    def test_field_count_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cluster_id,y,x1\na,1,1.0\na,0\n")
        with pytest.raises(DataError, match="line 3: expected 3 fields, got 2"):
            read_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_multiline_field_reports_physical_line(self, tmp_path, newline):
        # the quoted field of the record on line 2 runs on to line 3
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            fh.write(newline.join(["cluster_id,y,x1", 'a,1,"1.0', '"',
                                   "a,0,oops", ""]))
        with pytest.raises(DataError, match="line 4: malformed"):
            read_csv(path)

    def test_multiline_field_in_second_chunk_reports_physical_line(
            self, tmp_path):
        lines = ["cluster_id,y,x1"] + [f"c{i // 2},{i % 2},{i}"
                                       for i in range(data._CHUNK_ROWS + 40)]
        lines[5] = lines[5][:lines[5].rindex(",") + 1] + '"7\n"'
        lines[data._CHUNK_ROWS + 20] += "x"
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line {data._CHUNK_ROWS + 22}: "
                                            "malformed"):
            read_csv(path)


@pytest.mark.parametrize("y,x,reader_reason", [
    ("2", "1.0", None),
    ("-1", "1.0", None),
    ("0.5", "1.0", "outcome '0.5' is not an integer"),
    ("1", "nan", None),
    ("1", "inf", None),
    ("1", "1e400", None),
    ("1", "", "expected 3 fields, got 2"),  # a short row: no covariate
])
def test_one_rule_set(tmp_path, y, x, reader_reason):
    """A bad third row is rejected by Cluster, Dataset.from_arrays and
    read_csv alike.  Where the rule is one on values, the reader gives the
    from_arrays message, prefixed by the file and line."""
    X = [[0.0], [1.0]] + ([[float(x)]] if x else [])
    outcomes = [0.0, 1.0, float(y)]
    with pytest.raises(DataError) as from_cluster:
        Cluster(X, outcomes)
    with pytest.raises(DataError) as from_arrays:
        Dataset.from_arrays([0, 0, 0], outcomes, X)
    assert str(from_cluster.value) == str(from_arrays.value)
    path = tmp_path / "d.csv"
    path.write_text("cluster_id,y,x1\na,0,0.0\na,1,1.0\n"
                    + (f"a,{y},{x}\n" if x else f"a,{y}\n"))
    with pytest.raises(DataError) as from_reader:
        read_csv(path)
    assert str(from_reader.value) == (
        f"{path}: line 4: {reader_reason or from_arrays.value}")


def test_dataset_and_blocks_compare_by_identity(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("cluster_id,y,x1\na,1,1.0\na,0,0.5\nb,0,2.0\nb,1,0.0\n")
    a, b = read_csv(path), read_csv(path)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.blocks[0] == a.blocks[0] and a.blocks[0] != b.blocks[0]
    assert len({a.blocks[0], b.blocks[0]}) == 2


class TestPackingOracle:
    @pytest.mark.parametrize("J,K,seed", [(100, 3, 0), (40, 5, 3), (60, 2, 7)])
    def test_generate_dataset(self, J, K, seed):
        cfg = SimConfig(J=J, K=K, seed=seed)
        for index in range(3):
            assert_packed_like(generate_dataset(cfg, index),
                               simulated_clusters(cfg, index))

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=6),
                    min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_random_layouts(self, layouts, rnd):
        """Clusters of random sizes and outcomes, rows interleaved at random:
        read_csv, from_arrays and screen_dataset all pack like the oracle."""
        clusters = [Cluster(np.arange(len(ys) * 2.0).reshape(-1, 2) + 10 * j,
                            np.array(ys)) for j, ys in enumerate(layouts)]
        labels = rnd.sample(range(10**6), len(clusters))
        # a random interleaving that keeps each cluster's rows in order
        order = [j for j, c in enumerate(clusters) for _ in range(c.size)]
        rnd.shuffle(order)
        seen = [0] * len(clusters)
        rows = []
        for j in order:
            rows.append((labels[j], clusters[j].outcomes[seen[j]],
                         clusters[j].covariates[seen[j]]))
            seen[j] += 1
        by_appearance = [clusters[j] for j in dict.fromkeys(order)]
        if all(c.is_concordant for c in clusters):
            with pytest.raises(DataError, match="no discordant"):
                screen_dataset(clusters)
            return
        assert_packed_like(screen_dataset(clusters), clusters)
        assert_packed_like(Dataset.from_arrays(
            [r[0] for r in rows], [r[1] for r in rows],
            np.array([r[2] for r in rows])), by_appearance)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w") as fh:
                fh.write("cluster_id,y,x1,x2\n")
                for label, y, x in rows:
                    fh.write(f"id{label},{y},{float(x[0])!r},{float(x[1])!r}\n")
            assert_packed_like(read_csv(path), by_appearance)
