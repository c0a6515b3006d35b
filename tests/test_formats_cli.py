import json

import pytest

from sbvol import formats
from sbvol.cli import main
from sbvol import cli, toric
from sbvol.errors import DegenerateInputError, InternalConsistencyError
from sbvol.families import bounds_table, dilated_simplex, hpt, simplex_product
from sbvol.polytope import hull
from sbvol.subdivision import distance_height, interior_cells, regular_subdivision


class TestInterchange:
    def test_round_trip_bit_exact(self):
        p = hpt()
        text = formats.dumps(formats.polytope_to_dict(p, "hpt"))
        name, q = formats.load_polytope(text)
        assert name == "hpt" and q == p
        assert formats.dumps(formats.polytope_to_dict(q, name)) == text

    def test_negative_coordinates(self):
        p = hull([(-3, 5), (2, -7), (0, 0)])
        _, q = formats.load_polytope(formats.dumps(formats.polytope_to_dict(p)))
        assert q == p

    def test_malformed(self):
        with pytest.raises(Exception):
            formats.load_polytope("{}")
        with pytest.raises(Exception):
            formats.load_polytope("not json")

    def test_fraction_strings(self):
        from fractions import Fraction

        assert formats.fraction_str(Fraction(7, 5)) == "7/5"
        assert formats.fraction_str(Fraction(4, 2)) == "2"
        assert formats.parse_fraction("7/5") == Fraction(7, 5)
        assert formats.parse_fraction(3) == 3

    def test_subdivision_flags_read_off_the_masks(self):
        # The cell entries, flags included, are those of the cells themselves,
        # and writing them builds no cell.
        p = hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 2), (2, 1, 2)])
        s = regular_subdivision(p, {x: (x[0] * x[1] + x[2] ** 2) % 3 for x in p.lattice_points()})
        doc = formats.subdivision_to_dict(s)
        assert all(c is None for c in s.cells._cells)
        inner = set(interior_cells(s))
        assert doc["cells"] == [
            {
                "vertices": [list(v) for v in c.vertices],
                "dim": c.dim(),
                "boundary": c not in inner,
                "maximal": c in s.maximal_cells,
            }
            for c in s.cells
        ]
        assert sum(c["maximal"] for c in doc["cells"]) == len(s.maximal_cells) > 1
        assert {c["boundary"] for c in doc["cells"]} == {True, False}


class TestCli:
    def write_polytope(self, tmp_path, p, name="poly"):
        path = tmp_path / f"{name}.json"
        path.write_text(formats.dumps(formats.polytope_to_dict(p, name)))
        return str(path)

    def test_width_command(self, tmp_path, capsys):
        path = self.write_polytope(tmp_path, dilated_simplex(4, 3))
        assert main(["width", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["width"] == 4

    def test_compute_all(self, tmp_path, capsys):
        path = self.write_polytope(tmp_path, hpt(), "hpt")
        assert main(["compute", "--input", path, "--all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class_group"]["invariant_factors"] == [2, 2]
        assert doc["condition_m"]["holds"] is True
        assert doc["fine_interior"]["empty"] is True

    def test_compute_all_runs_one_smith_form(self, tmp_path, capsys, monkeypatch):
        # The class group report and condition (M) share the polytope's group.
        calls = []
        smith_form = toric.smith_form

        def counted(m):
            calls.append(m)
            return smith_form(m)

        monkeypatch.setattr(toric, "smith_form", counted)
        path = self.write_polytope(tmp_path, hpt(), "hpt")
        assert main(["compute", "--input", path, "--all"]) == 0
        assert len(calls) == 1

    def test_construct_and_fine_interior(self, tmp_path, capsys):
        out = str(tmp_path / "p.json")
        assert main(["construct", "--family", "dilated_simplex", "--args", "3", "2", "--output", out]) == 0
        assert main(["fine-interior", "--input", out]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == [["1", "1"]]

    @pytest.mark.parametrize(
        "mode, witnesses",
        [("reduced", [[1, 0, 1], [0, 1, 1], [0, 1, 1]]), ("unrestricted", [[2, 0, 0], [1, 1, 0], [1, 0, 1]])],
    )
    def test_condition_m_command(self, tmp_path, capsys, mode, witnesses):
        path = self.write_polytope(tmp_path, dilated_simplex(2, 2), "t")
        assert main(["condition-m", "--input", path, "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "name": "t",
            "mode": mode,
            "holds": True,
            "rays": [[-1, -1], [0, 1], [1, 0]],
            "witnesses": witnesses,
        }

    def test_class_group_command(self, tmp_path, capsys):
        path = self.write_polytope(tmp_path, dilated_simplex(2, 2), "t")
        assert main(["class-group", "--input", path]) == 0
        degree = {"free": [1], "torsion": []}
        assert json.loads(capsys.readouterr().out) == {
            "name": "t",
            "free_rank": 1,
            "invariant_factors": [],
            "rays": [[-1, -1], [0, 1], [1, 0]],
            "ray_degrees": [degree, degree, degree],
            "ample": {"free": [2], "torsion": []},
        }
        path = self.write_polytope(tmp_path, hpt(), "hpt")
        assert main(["class-group", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["invariant_factors"] == [2, 2]

    @pytest.mark.parametrize("p", [dilated_simplex(3, 2), dilated_simplex(4, 3), hpt()])
    def test_compute_sections_match_their_subcommands(self, tmp_path, capsys, p):
        path = self.write_polytope(tmp_path, p)
        assert main(["compute", "--input", path, "--fine-interior", "--condition-m"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["fine-interior", "--input", path]) == 0
        fi = json.loads(capsys.readouterr().out)
        assert main(["condition-m", "--input", path]) == 0
        cm = json.loads(capsys.readouterr().out)
        assert report["fine_interior"] == {k: fi[k] for k in ("empty", "dim", "is_lattice", "vertices")}
        assert report["condition_m"] == {k: cm[k] for k in ("holds", "mode", "witnesses")}

    def test_construct_simplex_product(self, capsys):
        assert main(["construct", "--family", "simplex_product", "--args", "2", "3", "3", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        p = simplex_product([(2, 3), (3, 4)])
        assert doc == formats.polytope_to_dict(p, "simplex_product")
        assert doc["ambient_dim"] == 7 and len(doc["vertices"]) == 20
        assert main(["construct", "--family", "simplex_product", "--args", "2", "3", "3"]) == 2
        assert capsys.readouterr().err == "error: simplex_product takes pairs: d1 n1 d2 n2 ...\n"

    def test_bounds_table_document(self, capsys):
        assert main(["bounds-table", "--n-min", "3", "--n-max", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "hypersurface"
        assert doc["rows"] == [
            {"n": 3, "degree": 5, "N_min": 5, "N_max_baseline": 9, "N_max": 13},
            {"n": 4, "degree": 6, "N_min": 10, "N_max_baseline": 18, "N_max": 30},
        ]
        assert {"N": 13, "d": 5, "status": "new"} in doc["grid"]
        assert {"N": 9, "d": 5, "status": "paper-baseline"} in doc["grid"]
        _, grid = bounds_table(range(3, 5), "hypersurface")
        assert doc["grid"] == [{"N": n, "d": d, "status": status} for n, d, status in grid]

    def test_subdivide_distance(self, tmp_path, capsys):
        big = self.write_polytope(tmp_path, dilated_simplex(4, 3), "big")
        small = self.write_polytope(tmp_path, hull([(0, 0, 0), (0, 0, 2), (0, 4, 0), (4, 0, 0)]), "small")
        assert main(["subdivide", "--input", big, "--recipe", "distance", "--target", small]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert any(c["maximal"] for c in doc["cells"])

    @pytest.mark.parametrize("command", ["subdivide", "ledger"])
    def test_distance_target_of_a_lower_dimensional_polytope(self, tmp_path, capsys, command):
        # the target is given in ambient coordinates and read in the polytope's chart
        p = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0)])
        big = self.write_polytope(tmp_path, p, "big")
        inside = self.write_polytope(tmp_path, hull([(1, 0, 0), (0, 1, 0)]), "inside")
        argv = [command, "--input", big, "--recipe", "distance", "--target"]
        assert main(argv + [inside]) == 0
        doc = json.loads(capsys.readouterr().out)
        q, chart = p.normalize_full_dimensional()
        target = hull([chart.to_chart(v) for v in ((1, 0, 0), (0, 1, 0))])
        s = regular_subdivision(q, distance_height(q, target))
        if command == "subdivide":
            assert doc["valid"] is True and len(s.maximal_cells) == 4
            assert doc["cells"] == json.loads(formats.dumps(formats.subdivision_to_dict(s)))["cells"]
        else:
            assert doc["verdict"] == "unobstructed"
        off = self.write_polytope(tmp_path, hull([(1, 0, 0), (0, 1, 1)]), "off")
        assert main(argv + [off]) == 2
        assert "--target must lie in the affine span of --input" in capsys.readouterr().err
        plane = self.write_polytope(tmp_path, hull([(1, 0), (0, 1)]), "plane")
        assert main(argv + [plane]) == 2
        assert "--target must lie in Q^3" in capsys.readouterr().err

    def test_ledger_command(self, tmp_path, capsys):
        big = self.write_polytope(tmp_path, dilated_simplex(2, 2), "p")
        assert main(["ledger", "--input", big, "--recipe", "trivial", "--seeds", "none"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "unobstructed"

    def test_bounds_grid(self, capsys):
        assert main(["bounds-table", "--n-min", "3", "--n-max", "3", "--grid"]) == 0
        out = capsys.readouterr().out
        assert "N\td\tstatus" in out
        assert "13\t5\tnew" in out
        assert "9\t5\tpaper-baseline" in out

    def test_usage_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["width", "--input", str(bad)]) == 2

    def test_float_coordinate_rejected(self, tmp_path):
        text = '{"ambient_dim": 2, "vertices": [[0, 0], [1.5, 0], [0, 1]]}'
        with pytest.raises(DegenerateInputError):
            formats.load_polytope(text)
        path = tmp_path / "float.json"
        path.write_text(text)
        assert main(["width", "--input", str(path)]) == 2

    def test_bool_and_string_coordinates_rejected(self, tmp_path):
        text = '{"ambient_dim": 2, "vertices": [[0, 0], [true, 0], [0, "3"]]}'
        with pytest.raises(DegenerateInputError):
            formats.load_polytope(text)
        path = tmp_path / "coerced.json"
        path.write_text(text)
        assert main(["width", "--input", str(path)]) == 2

    def test_zero_denominator_height_rejected(self, tmp_path):
        big = self.write_polytope(tmp_path, dilated_simplex(1, 2), "big")
        doc = {"heights": [[[0, 0], "1/0"], [[1, 0], "0"], [[0, 1], "0"]]}
        with pytest.raises(DegenerateInputError):
            formats.heights_from_doc(doc)
        heights = tmp_path / "heights.json"
        heights.write_text(json.dumps(doc))
        assert main(["subdivide", "--input", big, "--heights", str(heights)]) == 2

    def subdivide_with_heights(self, tmp_path, extra):
        """sbvol subdivide on 2 * simplex2: zero heights plus the extra rows."""
        p = dilated_simplex(2, 2)
        big = self.write_polytope(tmp_path, p, "big")
        rows = [[list(x), "0"] for x in p.lattice_points()] + extra
        heights = tmp_path / "heights.json"
        heights.write_text(json.dumps({"heights": rows}))
        return main(["subdivide", "--input", big, "--heights", str(heights)])

    def test_height_point_outside_the_polytope_exit_2(self, tmp_path, capsys):
        assert self.subdivide_with_heights(tmp_path, []) == 0
        capsys.readouterr()
        assert self.subdivide_with_heights(tmp_path, [[[5, 5], "1"]]) == 2
        assert "[5, 5] is not a lattice point" in capsys.readouterr().err

    def test_height_point_from_another_space_exit_2(self, tmp_path, capsys):
        assert self.subdivide_with_heights(tmp_path, [[[1, 2, 3], "1"]]) == 2
        assert "[1, 2, 3] is not in Z^2" in capsys.readouterr().err

    def test_height_point_listed_twice_exit_2(self, tmp_path, capsys):
        assert self.subdivide_with_heights(tmp_path, [[[0, 0], "1"]]) == 2
        assert "[0, 0] twice" in capsys.readouterr().err
        with pytest.raises(DegenerateInputError, match="twice"):
            formats.heights_from_doc({"heights": [[[0, 0], "0"], [[0, 0], "1"]]})

    def test_target_from_another_space_exit_2(self, tmp_path, capsys):
        big = self.write_polytope(tmp_path, dilated_simplex(2, 2), "big")
        target = self.write_polytope(tmp_path, hull([(0, 0, 5), (1, 0, 5)]), "target")
        assert main(["ledger", "--input", big, "--recipe", "distance", "--target", target]) == 2
        assert "Q^2" in capsys.readouterr().err

    def test_internal_error_exit_3(self, tmp_path, monkeypatch, capsys):
        def broken(p, delta):
            raise InternalConsistencyError("min-norm point is not optimal over the hull")

        monkeypatch.setattr(cli, "distance_height", broken)
        big = self.write_polytope(tmp_path, dilated_simplex(2, 2), "big")
        small = self.write_polytope(tmp_path, hull([(0, 0)]), "small")
        assert main(["subdivide", "--input", big, "--recipe", "distance", "--target", small]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_help_lists_exit_codes(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "2 usage or input error; 3 internal consistency error" in out

    def test_negative_max_points_exit_2(self, tmp_path, capsys):
        path = self.write_polytope(tmp_path, hpt(), "hpt")
        assert main(["compute", "--input", path, "--all", "--max-points", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --max-points: must be a non-negative int, got '-5'\n")

    @pytest.mark.parametrize(
        "report", ["--width", "--classify", "--fine-interior", "--class-group", "--condition-m", "--hodge"]
    )
    def test_bad_budget_exits_2_at_parse_time_whatever_the_report(self, tmp_path, capsys, report):
        # The value is checked before any report runs, so one that reads no
        # lattice-point table rejects it too.
        path = self.write_polytope(tmp_path, hpt(), "hpt")
        for value in ("-5", "1.5", "x"):
            assert main(["compute", "--input", path, report, "--max-points", value]) == 2
            assert "error: argument --max-points: must be a non-negative int" in capsys.readouterr().err
        assert main(["condition-m", "--input", path, "--budget", "-1"]) == 2
        assert "error: argument --budget: must be a non-negative int" in capsys.readouterr().err
        assert main(["compute", "--input", path, "--width", "--max-points", "0"]) == 0

    @pytest.mark.parametrize(
        "mode, routine, dim, constraints",
        [("reduced", "reduced_witnesses", 6, 2), ("unrestricted", "LatticePolytope.lattice_points", 5, 6)],
    )
    def test_condition_m_budget_caps_the_scan_of_either_mode(
        self, tmp_path, capsys, mode, routine, dim, constraints
    ):
        path = self.write_polytope(tmp_path, hpt(), "hpt")
        assert main(["condition-m", "--input", path, "--mode", mode, "--budget", "0"]) == 2
        assert capsys.readouterr().err == (
            f"error: {routine}: integer point scan spent 2 nodes, over its"
            f" budget of 0 (dimension {dim}, {constraints} constraints)\n"
        )
        assert main(["condition-m", "--input", path, "--mode", mode]) == 0

    @pytest.mark.parametrize("report", ["--classify", "--hodge", "--all"])
    def test_max_points_caps_the_scan_of_every_report_that_reads_it(self, tmp_path, capsys, report):
        path = self.write_polytope(tmp_path, dilated_simplex(3, 3), "t")
        assert main(["compute", "--input", path, report, "--max-points", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: LatticePolytope.lattice_points: integer point scan spent 3 nodes, over its"
            " budget of 2 (dimension 3, 4 constraints)\n"
        )

    def test_max_points_starts_no_scan_for_a_report_that_reads_none(self, tmp_path):
        path = self.write_polytope(tmp_path, hull([(0, 0), (3, 0)]), "segment")
        assert main(["compute", "--input", path, "--hodge", "--max-points", "1"]) == 0

    def test_polytope_document_not_an_object_exit_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["compute", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_construct_missing_argument_exit_2(self, capsys):
        assert main(["construct", "--family", "tpq", "--args", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: tpq: missing")

    def test_construct_extra_argument_exit_2(self, capsys):
        assert main(["construct", "--family", "hpt", "--args", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: hpt: too many")

    def test_construct_non_integer_argument_exit_2(self, capsys):
        assert main(["construct", "--family", "tpq", "--args", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: --args takes integers")

    def test_missing_file_exit_2(self):
        assert main(["width", "--input", "/nonexistent/nope.json"]) == 2

    def test_verify_paper_subset(self, capsys):
        assert main(["verify-paper", "--only", "bound-tables"]) == 0
        out = capsys.readouterr().out
        assert "PASS bound-tables" in out

    def test_verify_paper_unknown_filter(self, capsys):
        assert main(["verify-paper", "--only", "zzz-no-such"]) == 2

    def test_successive_calls_share_one_parser(self, tmp_path, capsys):
        # One parser serves every call in a process; each call still returns
        # its own exit code and output, and no parsed default carries over.
        path = self.write_polytope(tmp_path, dilated_simplex(2, 2))
        assert main(["compute", "--input", path, "--no-such-flag"]) == 2
        usage = capsys.readouterr()
        assert usage.out == "" and "unrecognized arguments: --no-such-flag" in usage.err
        assert main(["compute", "--input", path, "--width"]) == 0
        width = json.loads(capsys.readouterr().out)
        assert sorted(width) == ["ambient_dim", "dim", "name", "width", "width_certificate"]
        assert main(["compute", "--input", path, "--all"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert {"classification", "fine_interior", "hodge_row", "width"} <= set(full)
        assert full["width"] == width["width"] == 2
        assert main(["construct", "--family", "tpq", "--args", "2", "5"]) == 0
        assert main(["construct", "--family", "hpt"]) == 0
        capsys.readouterr()
        assert cli.build_parser().parse_args(["construct", "--family", "hpt"]).args == ()
        assert cli.build_parser() is cli.build_parser()

    def test_deterministic_output(self, tmp_path, capsys):
        path = self.write_polytope(tmp_path, dilated_simplex(2, 2))
        main(["compute", "--input", path, "--width"])
        first = capsys.readouterr().out
        main(["compute", "--input", path, "--width"])
        second = capsys.readouterr().out
        assert first == second
