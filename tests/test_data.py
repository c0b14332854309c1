import numpy as np
import pytest

from clogitrep.data import Cluster, DataError, Dataset, read_csv, screen_dataset


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

    def test_all_concordant_errors(self):
        with pytest.raises(DataError, match="no discordant clusters"):
            screen_dataset([make_cluster([0, 0]), make_cluster([1, 1])])

    def test_dataset_rejects_concordant_directly(self):
        with pytest.raises(DataError):
            Dataset(clusters=(make_cluster([1, 1]),))

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
        assert ds.clusters[0].covariates[0, 0] == 1.0

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
