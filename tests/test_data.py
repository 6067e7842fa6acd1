import re

import numpy as np
import pytest

from particle_em.config import read_config_file
from particle_em.data import (
    MAX_FLOAT64S,
    AdjacencyNetwork,
    content_lines,
    generate_toy_data,
    load_csv,
    load_edgelist,
    train_test_split,
)
from particle_em.exceptions import ConfigError, ParseError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,label\n1,2,yes\n3,4,no\n")
        ds = load_csv(path, "label", "yes")
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.y, [1, 0])
        assert ds.feature_names == ["a", "b"]

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,label\n")
        ds = load_csv(path, "label", "1")
        assert ds.n == 0 and ds.d == 2

    def test_missing_values_dropped_and_counted(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,label\n1,?,1\n2,3,1\n,5,0\n6,7,0\n")
        ds = load_csv(path, "label", "1")
        assert ds.n == 2
        assert ds.dropped_rows == 2

    def test_rows_of_empty_cells_skipped_and_not_counted(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,label\n1,2,1\n,,\n , ,\n3,4,0\n")
        ds = load_csv(path, "label", "1")
        assert (ds.n, ds.dropped_rows) == (2, 0)

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,label\n1,2,1\n1,oops,0\n")
        with pytest.raises(ParseError, match=r"row 3.*'b'.*oops"):
            load_csv(path, "label", "1")

    @pytest.mark.parametrize("cell", ["NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = write(tmp_path / "d.csv", f"a,b,label\n1,2,1\n1,{cell},0\n")
        with pytest.raises(ParseError, match=rf"row 3, column 'b': non-finite cell '{re.escape(cell)}'"):
            load_csv(path, "label", "1")
        # 'nan' itself stays a missing token: its row is dropped
        ds = load_csv(write(tmp_path / "d.csv", "a,b,label\n1,2,1\n1,nan,0\n"), "label", "1")
        assert (ds.n, ds.dropped_rows) == (1, 1)

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,label\n1,2,1\n")
        with pytest.raises(ParseError, match="nope"):
            load_csv(path, "nope", "1")

    def test_label_only_csv_gives_rows_without_features(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", "label\n1\n0\n1\n"), "label", "1")
        assert ds.X.shape == (3, 0) and ds.X.dtype == np.float64 and ds.feature_names == []
        np.testing.assert_array_equal(ds.y, [1, 0, 1])

    def test_drop_columns(self, tmp_path):
        path = write(tmp_path / "d.csv", "id,a,label\n9,1,1\n8,2,0\n")
        ds = load_csv(path, "label", "1", drop_columns=("id",))
        assert ds.feature_names == ["a"]
        np.testing.assert_array_equal(ds.X, [[1.0], [2.0]])


@pytest.mark.parametrize("text,read,message", [
    ("", lambda path, tmp: load_csv(path, "label", "1"), ": empty file, expected a header row"),
    ("a,label\n1,0\n2,1,3\n", lambda path, tmp: load_csv(path, "label", "1"), ": row 3: expected 2 cells, got 3"),
    ("n1 first\nn2\n", lambda path, tmp: load_edgelist(write(tmp / "edges.txt", "n1 n2\n"), path),
     ": line 2: expected 'name label', got 'n2'"),
], ids=["csv_empty_file", "csv_row_length", "labels_line_without_label"])
def test_readers_name_each_malformed_file(tmp_path, text, read, message):
    path = write(tmp_path / "input.txt", text)
    with pytest.raises(ParseError, match=f"^{re.escape(path + message)}$"):
        read(path, tmp_path)


def test_content_lines_skip_blank_and_comment_lines(tmp_path):
    path = write(tmp_path / "f.txt", "# head\n\n  a = 1  \n\t\n  # indented comment\nb c # not a comment\n")
    assert list(content_lines(path)) == [(3, "a = 1"), (6, "b c # not a comment")]


#: one case per reader: the file's text after the mark, how to read it, and what that text alone reads as
BOM_CASES = {
    "config": ("model = toy\n", lambda path, tmp: read_config_file(path), {"model": "toy"}),
    "edgelist": ("a b\nb c\nc a\na d\n", lambda path, tmp: load_edgelist(path).node_labels,
                 ["a", "b", "c", "d"]),
    "labels": ("a first\nb second\n",
               lambda path, tmp: load_edgelist(write(tmp / "edges.txt", "a b\n"), path).node_labels,
               ["first", "second"]),
    "csv": ("label,a\n1,2\n0,3\n", lambda path, tmp: load_csv(path, "label", "1").X.tolist(), [[2.0], [3.0]]),
}


@pytest.mark.parametrize("name", BOM_CASES)
def test_readers_read_a_leading_byte_order_mark_as_nothing(tmp_path, name):
    text, read, expected = BOM_CASES[name]
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read(str(path), tmp_path) == expected


def test_a_byte_order_mark_leaves_the_bad_line_number(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xef\xbb\xbfa,label\n1,0\n2,\xe9\n")
    for read in (lambda: list(content_lines(str(path))), lambda: load_csv(str(path), "label", "1")):
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: byte 0xe9 is not UTF-8 text$"):
            read()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_readers_name_the_line_that_is_not_utf8(tmp_path, newline):
    # text is decoded in chunks, so the failing read is past the bad line; a line ends where the text read ends it
    path = tmp_path / "f.txt"
    path.write_bytes(newline.join([b"a,label", *[b"1,0"] * 5000, b"2,\xe9", b"3,1"]))
    for read in (lambda: list(content_lines(str(path))), lambda: load_csv(str(path), "label", "1")):
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 5002: byte 0xe9 is not UTF-8 text$"):
            read()


class TestTrainTestSplit:
    def make(self, n=10, d=3, seed=0):
        rng = np.random.default_rng(seed)
        from particle_em.data import TabularDataset

        return TabularDataset(
            X=rng.standard_normal((n, d)) * 3 + 1,
            y=(rng.random(n) < 0.5).astype(int),
            feature_names=[f"f{i}" for i in range(d)],
        )

    def test_sizes(self):
        train, test = train_test_split(self.make(10), 0.2, 0)
        assert (train.n, test.n) == (8, 2)

    def test_ceil_split_size(self):
        train, test = train_test_split(self.make(683), 0.2, 1)
        assert test.n == 137 and train.n == 546

    def test_deterministic(self):
        ds = self.make(20)
        t1, s1 = train_test_split(ds, 0.3, 5)
        t2, s2 = train_test_split(ds, 0.3, 5)
        np.testing.assert_array_equal(t1.X, t2.X)
        np.testing.assert_array_equal(s1.y, s2.y)

    def test_disjoint_and_covering(self):
        ds = self.make(25)
        train, test = train_test_split(ds, 0.2, 3)
        combined = np.concatenate([train.denormalized(), test.denormalized()])
        assert combined.shape[0] == 25
        original = np.sort(ds.X.ravel())
        np.testing.assert_allclose(np.sort(combined.ravel()), original, rtol=1e-12)

    def test_train_columns_standardized(self):
        train, test = train_test_split(self.make(50), 0.2, 7)
        np.testing.assert_allclose(train.X.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(train.X.std(axis=0), 1.0, atol=1e-9)

    def test_test_rows_use_train_statistics(self):
        ds = self.make(40)
        train, test = train_test_split(ds, 0.25, 9)
        np.testing.assert_array_equal(train.feature_means, test.feature_means)
        # test columns are generally not exactly standardized
        assert not np.allclose(test.X.mean(axis=0), 0.0, atol=1e-12)

    def test_constant_column_fallback(self):
        ds = self.make(12)
        ds.X[:, 1] = 4.0
        train, test = train_test_split(ds, 0.25, 2)
        assert train.feature_stds[1] == 1.0
        np.testing.assert_allclose(train.X[:, 1], 0.0, atol=1e-12)

    def test_denormalizing_an_unnormalized_dataset_is_refused(self):
        with pytest.raises(ValueError, match="^dataset is not normalized$"):
            self.make().denormalized()

    def test_normalization_round_trip(self):
        ds = self.make(30)
        train, _ = train_test_split(ds, 0.2, 4)
        recovered = np.sort(train.denormalized().ravel())
        subset = np.sort(train.X.ravel() * 0 + recovered)  # same shape sanity
        assert recovered.shape == subset.shape
        # every recovered row appears among the originals
        original_rows = {tuple(np.round(r, 9)) for r in ds.X}
        for row in train.denormalized():
            assert tuple(np.round(row, 9)) in original_rows

    def test_rejects_empty_and_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(self.make(10), 1.5, 0)
        from particle_em.data import TabularDataset

        empty = TabularDataset(X=np.empty((0, 2)), y=np.empty(0, dtype=int), feature_names=["a", "b"])
        with pytest.raises(ValueError):
            train_test_split(empty, 0.2, 0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, float("nan")])
    def test_bad_fraction_is_a_config_error(self, fraction):
        with pytest.raises(ConfigError, match=rf"^test_fraction must be in \(0, 1\), got {fraction}$"):
            train_test_split(self.make(10), fraction, 0)

    @pytest.mark.parametrize("n, fraction", [(0, 0.2), (1, 0.2), (1, 0.01), (4, 0.9)])
    def test_rejects_a_split_without_training_rows(self, n, fraction):
        # ceil(n * fraction) test rows leave none to train on, or to take normalization statistics from
        message = f"{n} data row(s) leave no training row at test_fraction {fraction}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_test_split(self.make(n), fraction, 0)

    def test_one_training_row_is_enough(self):
        train, test = train_test_split(self.make(5), 0.8, 0)
        assert (train.n, test.n) == (1, 4)


class TestGenerateToyData:
    def test_sample_mean_near_theta_true(self):
        # Var(x_i) = 2, so the sample mean is within 3*sqrt(2/n) w.h.p.
        n = 100_000
        x, _ = generate_toy_data(n, 1.0, 0)
        assert abs(x.mean() - 1.0) <= 3.0 * np.sqrt(2.0 / n)

    def test_deterministic(self):
        x1, z1 = generate_toy_data(50, 2.0, 9)
        x2, z2 = generate_toy_data(50, 2.0, 9)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(z1, z2)

    def test_experiment_scale(self):
        x, z = generate_toy_data(100, 1.0, 3)
        assert x.shape == (100,) and z.shape == (100,)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            generate_toy_data(0, 1.0, 0)

    def test_rejects_every_bad_parameter_at_once(self):
        with pytest.raises(ConfigError) as err:
            generate_toy_data(0, float("nan"), 0)
        assert err.value.violations == [f"toy_dim (d_z) must be >= 1 and at most {MAX_FLOAT64S}, got 0",
                                        "theta_true must be finite, got nan"]

    @pytest.mark.parametrize("d_z", [MAX_FLOAT64S + 1, 2 * 10**18, np.iinfo(np.intp).max + 1])
    def test_rejects_more_values_than_one_array_holds(self, d_z):
        # numpy bounds an array's bytes, not its values, by intp max: 2e18 values fit in intp, not their bytes
        with pytest.raises(ConfigError, match=f"got {d_z}$"):
            generate_toy_data(d_z, 1.0, 0)


class TestLoadEdgelist:
    def test_undirected_dedup(self, tmp_path):
        path = write(tmp_path / "e.txt", "a b\nb a\n")
        net = load_edgelist(path)
        assert net.n == 2 and len(net.edges) == 1

    def test_self_loop_dropped_with_counter(self, tmp_path):
        path = write(tmp_path / "e.txt", "a a\na b\n")
        net = load_edgelist(path)
        assert net.dropped_self_loops == 1
        assert len(net.edges) == 1

    def test_degree_sequence(self, tmp_path):
        path = write(tmp_path / "e.txt", "a b\nb c\n")
        net = load_edgelist(path)
        np.testing.assert_array_equal(net.degrees(), [1, 2, 1])

    def test_comma_separated_and_comments(self, tmp_path):
        path = write(tmp_path / "e.txt", "# comment\na,b\n\nc b\n")
        net = load_edgelist(path)
        assert net.n == 3 and len(net.edges) == 2

    def test_parse_error_names_line(self, tmp_path):
        path = write(tmp_path / "e.txt", "a b\na b c\n")
        with pytest.raises(ParseError, match="line 2"):
            load_edgelist(path)

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n", "a a\nb b\n"], ids=["empty", "comments", "self-loops"])
    def test_no_edge_is_a_parse_error(self, tmp_path, text):
        path = write(tmp_path / "e.txt", text)
        with pytest.raises(ParseError, match="no edge"):
            load_edgelist(path)

    def test_labels_file(self, tmp_path):
        path = write(tmp_path / "e.txt", "n1 n2\n")
        labels = write(tmp_path / "l.txt", "n1 Alice\nn2 Bob\n")
        net = load_edgelist(path, labels)
        assert net.node_labels == ["Alice", "Bob"]

    def test_adjacency_shape(self, tmp_path):
        path = write(tmp_path / "e.txt", "a b\nb c\n")
        Y = load_edgelist(path).to_adjacency()
        np.testing.assert_array_equal(Y, Y.T)
        assert Y.sum() == 4.0


def test_adjacency_network_roundtrip():
    net = AdjacencyNetwork(n=3, edges={(0, 1), (1, 2)}, node_labels=["a", "b", "c"])
    Y = net.to_adjacency()
    assert Y[0, 1] == Y[1, 0] == 1.0
    assert Y[0, 2] == 0.0
    np.testing.assert_array_equal(np.diag(Y), np.zeros(3))
