import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import maxlinbn
from maxlinbn import (
    Dag,
    MaxLinError,
    MissingEdgeWeight,
    NoiseSpec,
    VertexOutOfRange,
    gmle_edge_weights,
)
from maxlinbn.cli import run
from maxlinbn.formats import (
    dag_from_dict,
    dag_to_dict,
    fmt17,
    format_table,
    load_dag,
    read_samples,
    save_dag,
    write_samples,
)

from conftest import DIAMOND_WEIGHTS


def csv_writer_reference(x) -> str:
    """Sample CSV as ``csv.writer`` writes it with ``fmt17`` cells."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"x{j}" for j in range(1, x.shape[1] + 1)])
    for row in x:
        writer.writerow([fmt17(v) for v in row])
    return buf.getvalue()


@pytest.fixture
def diamond_json(tmp_path, diamond):
    path = tmp_path / "diamond.json"
    save_dag(str(path), diamond, dict(DIAMOND_WEIGHTS))
    return str(path)


class TestFormats:
    def test_dag_roundtrip_with_weights(self, tmp_path, diamond):
        path = tmp_path / "g.json"
        save_dag(str(path), diamond, dict(DIAMOND_WEIGHTS))
        g, weights = load_dag(str(path))
        assert g == diamond
        assert weights == DIAMOND_WEIGHTS

    def test_dag_roundtrip_unweighted_with_names(self, tmp_path):
        g = Dag(2, [(1, 2)], names=["rain", "river"])
        path = tmp_path / "g.json"
        save_dag(str(path), g)
        g2, weights = load_dag(str(path))
        assert g2 == g and g2.names == ("rain", "river") and weights is None

    def test_partial_weights_rejected(self):
        obj = {"d": 3, "edges": [{"from": 1, "to": 2, "weight": 0.5}, {"from": 2, "to": 3}]}
        with pytest.raises(MissingEdgeWeight):
            dag_from_dict(obj)

    def test_malformed_edge_rejected(self):
        from maxlinbn import MaxLinError

        with pytest.raises(MaxLinError):
            dag_from_dict({"d": 2, "edges": [{"source": 1, "target": 2}]})

    @pytest.mark.parametrize("label", [1.9, 1.0, True, "1", None])
    def test_non_integer_vertex_id_rejected(self, label):
        with pytest.raises(VertexOutOfRange, match="vertex labels must be integers"):
            dag_from_dict({"d": 2, "edges": [{"from": label, "to": 2}]})
        with pytest.raises(VertexOutOfRange, match="vertex labels must be integers"):
            dag_from_dict({"d": 2, "edges": [{"from": 2, "to": label, "weight": 0.5}]})

    def test_sample_csv_roundtrip_is_exact(self, tmp_path, diamond_model):
        x = diamond_model.sample(50, NoiseSpec.frechet(1.0, 7))
        path = tmp_path / "s.csv"
        write_samples(str(path), x)
        assert np.array_equal(read_samples(str(path)), x)

    @pytest.mark.parametrize(
        "x",
        [
            np.array([[5e-324, 1.7976931348623157e308, 0.1], [1.0, 2.5e-310, 0.7200000000000001]]),
            np.array([[0.30000000000000004]]),
            np.arange(1.0, 7.0).reshape(6, 1) / 3.0,
            np.exp(np.random.default_rng(4).normal(size=(50, 7)) * 30.0),
        ],
    )
    def test_sample_csv_matches_csv_writer_bytes(self, tmp_path, x):
        expected = csv_writer_reference(x)
        path = tmp_path / "s.csv"
        write_samples(str(path), x)
        assert path.read_bytes() == expected.encode()
        buf = io.StringIO()
        write_samples(buf, x)
        assert buf.getvalue() == expected
        y = read_samples(str(path))
        assert y.dtype == np.float64 and np.array_equal(y, x)

    def test_sample_csv_tolerates_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n\n 1.5 , 2\r\n\n3,4e-3")
        assert np.array_equal(read_samples(str(path)), [[1.5, 2.0], [3.0, 4e-3]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty sample file"),
            ("x1,x2\r\n", "no observations"),
            ("x1,x2\r\n\r\n\r\n", "no observations"),
            ("x1,x2\r\n1,abc\r\n", "abc"),
            ("x1,x2\r\n1,2\r\n3\r\n", "number of columns"),
            ("x1,x2,x3\r\n1,2\r\n3,4\r\n", "header names 3 columns, the rows have 2"),
            ("x1\r\n1,2\r\n", "header names 1 columns, the rows have 2"),
        ],
    )
    def test_malformed_sample_csv_rejected(self, tmp_path, recwarn, text, message):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(MaxLinError, match=message) as info:
            read_samples(str(path))
        assert str(path) in str(info.value)
        assert len(recwarn) == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,x2\r\n1,2\r\n\r\n3\r\n", "the number of columns changed from 2 to 1 at observation 2"),
            ("x1,x2\r\n1,abc\r\n", "could not convert string to float: 'abc'"),
            ("x1,x2\r\n1,2\r\n3\r\n4,abc\r\n", "could not convert string to float: 'abc'"),
            ("x1,x2\r\n1,2\r\n3\r\n4,5,6\r\n", "the number of columns changed from 2 to 1 at observation 2"),
            ("x1,x2\r\n1,2\r\n  \r\n", "could not convert string to float: '  '"),
            ("x1,x2\r\n1,,2\r\n", "could not convert string to float: ''"),
            ("x1,x2\r\n#1,2\r\n", "could not convert string to float: '#1'"),
        ],
    )
    def test_malformed_sample_csv_message_is_exact(self, tmp_path, recwarn, text, message):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with pytest.raises(MaxLinError) as info:
            read_samples(str(path))
        assert str(info.value) == f"{path}: {message}"
        assert len(recwarn) == 0

    def test_sample_csv_single_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1\r\n5\r\n")
        y = read_samples(str(path))
        assert y.shape == (1, 1) and y[0, 0] == 5.0

    def test_sample_csv_quoted_cells_read_as_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b'"x1","x2"\r\n"1.5",2\r\n')
        assert np.array_equal(read_samples(str(path)), [[1.5, 2.0]])

    def test_read_samples_memory_is_one_array(self, tmp_path):
        n, d = 20000, 50
        x = np.random.default_rng(5).lognormal(size=(n, d))
        path = str(tmp_path / "s.csv")
        write_samples(path, x)
        tracemalloc.start()
        try:
            y = read_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(y, x)
        # the result itself takes n * d * 8 bytes
        assert peak < 2 * n * d * 8

    def test_sample_csv_roundtrip_property(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        path = str(tmp_path / "s.csv")
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

        @hypothesis.settings(max_examples=50, deadline=None)
        @hypothesis.given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2), elements=positive))
        def roundtrip(x):
            write_samples(path, x)
            assert np.array_equal(read_samples(path), x)

        roundtrip()

    def test_fmt17_roundtrips(self):
        for v in (0.1, 0.7200000000000001, 1e-300, 123456.789):
            assert float(fmt17(v)) == v

    def test_table_dimensions(self):
        table = format_table(np.eye(3))
        assert len(table.splitlines()) == 3

    def test_dag_to_dict_sorted_edges(self, diamond):
        obj = dag_to_dict(diamond, dict(DIAMOND_WEIGHTS))
        assert [(e["from"], e["to"]) for e in obj["edges"]] == sorted(diamond.edges)


class TestCli:
    def test_closure(self, diamond_json, capsys):
        assert run(["--json", "closure", "--dag", diamond_json]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["B"][3] == [max(0.3, 0.9 * 0.8), 0.6, 0.9, 1.0]

    def test_query_both_methods(self, tmp_path, diamond_tail, capsys):
        path = tmp_path / "g.json"
        save_dag(str(path), diamond_tail)
        assert run(["query", "--dag", str(path), "--left", "2", "--right", "3", "--given", "1"]) == 0
        out = capsys.readouterr().out
        assert "d-separated: true" in out and "m-separated: true" in out
        assert run(["query", "--dag", str(path), "--left", "2", "--right", "3", "--given", "1,5"]) == 0
        out = capsys.readouterr().out
        assert "d-separated: false" in out and "m-separated: false" in out

    def test_equiv(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_dag(str(a), Dag(3, [(1, 2), (2, 3)]))
        save_dag(str(b), Dag(3, [(3, 2), (2, 1)]))
        assert run(["equiv", "--dag1", str(a), "--dag2", str(b)]) == 0
        assert "markov-equivalent: true" in capsys.readouterr().out

    def test_statements(self, tmp_path, markov_props_dag, capsys):
        path = tmp_path / "g.json"
        save_dag(str(path), markov_props_dag)
        assert run(["--json", "statements", "--dag", str(path), "--kind", "ordered"]) == 0
        stmts = json.loads(capsys.readouterr().out)
        assert {"a": [5], "b": [1, 3, 4], "given": [2]} in stmts

    def test_sample_estimate_roundtrip_matches_library(
        self, tmp_path, diamond_json, diamond_model, capsys
    ):
        csv_path = tmp_path / "s.csv"
        assert (
            run(
                [
                    "sample",
                    "--model",
                    diamond_json,
                    "--n",
                    "100",
                    "--noise",
                    "frechet",
                    "--alpha",
                    "1.0",
                    "--seed",
                    "7",
                    "--out",
                    str(csv_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            run(
                [
                    "--json",
                    "estimate",
                    "--dag",
                    diamond_json,
                    "--samples",
                    str(csv_path),
                    "--estimator",
                    "gmle",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        printed_c = np.asarray(json.loads(lines[0])["C_hat"])
        x = diamond_model.sample(100, NoiseSpec.frechet(1.0, 7))
        expected = gmle_edge_weights(diamond_model.graph, x)
        assert np.array_equal(printed_c, expected)

    def test_minimize(self, tmp_path, diamond_model, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"B": diamond_model.B.tolist()}))
        assert run(["minimize", "--matrix", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["d"] == 4
        assert {(e["from"], e["to"]) for e in obj["edges"]} == set(DIAMOND_WEIGHTS)

    def test_learn(self, tmp_path, diamond_json, capsys):
        csv_path = tmp_path / "s.csv"
        run(["sample", "--model", diamond_json, "--n", "400", "--seed", "3", "--out", str(csv_path)])
        capsys.readouterr()
        assert run(["--json", "learn", "--samples", str(csv_path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert {(e["from"], e["to"]) for e in obj["dag"]["edges"]} == set(DIAMOND_WEIGHTS)
        assert np.asarray(obj["multiplicity"]).shape == (4, 4)

    @pytest.mark.parametrize("atom_rtol", ["-1", "nan", "1.0"])
    def test_learn_rejects_atom_rtol_outside_unit_interval(self, tmp_path, capsys, atom_rtol):
        csv_path = tmp_path / "s.csv"
        write_samples(str(csv_path), np.array([[1.0, 0.5], [2.0, 1.0], [3.0, 2.0]]))
        assert run(["learn", "--samples", str(csv_path), "--atom-rtol", atom_rtol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: atom_rtol") and captured.err.count("\n") == 1
        assert run(["--json", "learn", "--samples", str(csv_path), "--atom-rtol", "0.0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["multiplicity"] == [[3, 1], [2, 3]]

    @pytest.mark.parametrize(
        "text", ["", "x1,x2\r\n", "x1,x2\r\n1,abc\r\n", "x1,x2\r\n1,2\r\n3\r\n", "x1,x2,x3\r\n1,2\r\n"]
    )
    def test_malformed_sample_csv_exits_1_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert run(["learn", "--samples", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_glr2_point_and_sample(self, tmp_path, capsys):
        assert run(["--json", "glr2", "--c", "0.9", "--c-star", "0.7", "--x1", "1.0", "--x2", "0.9"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"rho_forward": 1.0, "rho_backward": 0.0}
        csv_path = tmp_path / "two.csv"
        write_samples(str(csv_path), np.array([[1.0, 0.7], [2.0, 1.5], [1.0, 0.9]]))
        assert run(["--json", "glr2", "--c", "0.8", "--samples", str(csv_path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"rho_hat_vs_c": 0.5, "rho_c_vs_hat": 0.0, "c_hat": 0.7}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--c", "inf", "--c-star", "1", "--x1", "1", "--x2", "2"],
            ["--c", "1", "--c-star", "nan", "--x1", "1", "--x2", "2"],
            ["--c", "1", "--c-star", "0.5", "--x1", "inf", "--x2", "2"],
            ["--c", "inf", "--samples", "TWO_CSV"],
        ],
    )
    def test_glr2_non_finite_input_exits_1_with_one_line(self, tmp_path, capsys, argv):
        csv_path = tmp_path / "two.csv"
        write_samples(str(csv_path), np.array([[1.0, 0.7], [2.0, 1.5]]))
        argv = [str(csv_path) if a == "TWO_CSV" else a for a in argv]
        assert run(["glr2", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "noise",
        [
            ["--alpha", "inf"],
            ["--alpha", "nan"],
            ["--alpha", "1e-300"],
            ["--noise", "lognormal", "--mu", "nan"],
            ["--noise", "lognormal", "--sigma", "inf"],
            ["--noise", "lognormal", "--sigma", "1e308"],
        ],
    )
    def test_sample_without_support_exits_1_with_one_line(self, tmp_path, diamond_json, capsys, noise):
        out = tmp_path / "x.csv"
        argv = ["sample", "--model", diamond_json, "--n", "50", "--seed", "1", "--out", str(out)]
        assert run(argv + noise) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_domain_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps({"d": 2, "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 1}]}))
        assert run(["query", "--dag", str(path), "--left", "1", "--right", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert run(["closure", "--dag", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["closure", "--dag", "{dir}"], ["learn", "--samples", "{dir}"]],
    )
    def test_directory_path_exits_1_with_one_line(self, tmp_path, capsys, argv):
        assert run([a.format(dir=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_non_integer_vertex_id_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"d": 2, "edges": [{"from": 1.9, "to": 2, "weight": 0.5}]}')
        assert run(["closure", "--dag", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and "1.9" in captured.err

    def test_closure_needs_weights(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_dag(str(path), Dag(2, [(1, 2)]))
        assert run(["closure", "--dag", str(path)]) == 1

    def test_usage_error_exits_2(self, capsys):
        assert run(["query", "--left", "1"]) == 2
        assert run(["sample", "--model", "x.json", "--n", "5"]) == 2  # seed required
        assert run([]) == 2

    def test_sample_to_stdout(self, diamond_json, capsys):
        assert run(["sample", "--model", diamond_json, "--n", "3", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("x1,")
        assert len(lines) == 4

    def test_parser_state_does_not_leak_between_calls(self, tmp_path, diamond_tail, capfd):
        path = tmp_path / "g.json"
        save_dag(str(path), diamond_tail)
        calls = [
            ["--json", "query", "--dag", str(path), "--left", "2", "--right", "3", "--given", "1"],
            ["query", "--dag", str(path), "--left", "2", "--right", "3"],
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(maxlinbn.__file__)))
        fresh = []
        for argv in calls:
            script = f"import sys; from maxlinbn.cli import run; sys.exit(run({argv!r}))"
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0
            fresh.append(proc.stdout)
        in_process = []
        for argv in calls:
            assert run(argv) == 0
            in_process.append(capfd.readouterr().out)
        assert in_process == fresh

    @pytest.mark.parametrize(
        "command, obj",
        [
            ("query", {"d": 3, "edges": 5}),
            ("query", {"d": 3, "edges": [], "names": 5}),
            ("query", {"d": 2, "edges": [{"from": 1, "to": 2, "weight": [1]}]}),
            ("minimize", {"A": [[1]]}),
            ("minimize", {"B": {"row": 1}}),
        ],
    )
    def test_malformed_json_exits_1_with_one_line(self, tmp_path, capsys, command, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        if command == "query":
            argv = ["query", "--dag", str(path), "--left", "1", "--right", "2"]
        else:
            argv = ["minimize", "--matrix", str(path)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "rows", ["[[1, 0], [1e400, 1]]", "[[1, 0, 0], [0, 1, 0], [1, 1e400, 1]]"]
    )
    def test_non_finite_coefficient_exits_1(self, tmp_path, capsys, recwarn, rows):
        path = tmp_path / "b.json"
        path.write_text(rows)
        assert run(["minimize", "--matrix", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "non-finite" in captured.err and captured.err.count("\n") == 1
        assert len(recwarn) == 0

    def test_non_finite_weight_exits_1(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"d": 2, "edges": [{"from": 1, "to": 2, "weight": 1e400}]}')
        assert run(["closure", "--dag", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
