"""Command-line front end: config parsing, modes, exit codes, determinism."""

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deadcore as dc
from deadcore import GridFunction, GridSpec, ReactionSpec, TailModel, cli, make_grid
from deadcore.cli import _KEYS, MODES, ConfigError, main, read_config


def write_config(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


SOLVE_KEYS = dict(h="1/16", a="1", R="2", s="0.75", gamma="0.2", amplitude="1")


class TestReadConfig:
    def test_parses_comments_and_fractions(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\nh = 1/16  # spacing\n\ngamma = 0.2\n")
        cfg = read_config(str(path))
        assert cfg == {"h": "1/16", "gamma": "0.2"}

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("h = 1/16\njust words\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2"):
            read_config(str(path))

    def test_duplicate_key_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("h = 1\nh = 2\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            read_config(str(path))

    def test_empty_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("h =\n")
        with pytest.raises(ConfigError, match="empty key or value"):
            read_config(str(path))


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("no equals sign\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "bad.cfg:1" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **SOLVE_KEYS, pairs="5")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_required_keys_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", h="1/16", a="1")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "missing required" in capsys.readouterr().err

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **SOLVE_KEYS, max_iter="1")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_slimit_exits_3_on_an_unconverged_nonlocal_solve(self, tmp_path, capsys):
        # the ramp's local reference, u = 0, converges in one iteration, but
        # the two nonlocal solves end at residuals 0.91 and 0.61: the run
        # writes no distance of theirs and exits 3
        keys = dict(h="1/64", a="1", R="2", gamma="0.2", s_list="0.75,0.9", amplitude="4", max_iter="1")
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        rows, local_rep = dc.s_limit_study(
            grid, [0.75, 0.9], ReactionSpec(gamma=0.2), dc.odd_exterior_builder(grid, "ramp", 4.0), dc.SolverConfig(max_iter=1)
        )
        assert local_rep.converged and not any(row.report.converged for row in rows)
        cfg = write_config(tmp_path / "sl.cfg", **keys)
        out = tmp_path / "out"
        assert main(["slimit", "--config", cfg, "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_overflowing_data_exits_3(self, tmp_path, capsys):
        # the energy overflows to NaN at the first iterate: exit 0 with
        # converged=true before the solver stopped at non-finite values; the
        # exit code reports it, and numpy prints no overflow warning
        cfg = write_config(tmp_path / "c.cfg", **SOLVE_KEYS, tail="power:1e300,-0.5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_bad_grid_parameters_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg", h="0.3", a="1", s="0.75", gamma="0.2"
        )
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2

    def test_division_by_zero_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **{**SOLVE_KEYS, "h": "1/0"})
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "division by zero" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    @pytest.mark.parametrize(
        "mode, keys, message",
        [
            # 2^47 + 1 nodes: numpy refuses the PiB at once, before any work
            ("solve", dict(h="1/35184372088832", a="1", s="0.75", gamma="0.2"), ""),
            ("compare", dict(h="1/35184372088832", a="1", s="0.75", gamma="0.2"), ""),
            # 41 nodes, but h^(-2s) = 1e450 overflows a double
            ("solve", dict(h="1e-300", a="1e-299", s="0.75", gamma="0.2"), "h^(-2s) overflows"),
            ("slimit", dict(h="1e-300", a="1e-299", gamma="0.2", s_list="0.75"), "h^(-2s) overflows"),
            # the local operator's 2/h^2: h^2 underflows to 0.0
            ("solve-local", dict(h="1e-300", a="1e-299", gamma="0.2", left="1", right="1"), "h^-2 overflows"),
            # h^(-2s) = 1e200 at s = 0.5 passes, but slimit's local reference needs 2/h^2 = 2e400
            ("slimit", dict(h="1e-200", a="1e-199", gamma="0.2", s_list="0.5"), "h^-2 overflows"),
        ],
        ids=["memory-solve", "memory-compare", "scale-solve", "scale-slimit", "scale-solve-local",
             "scale-slimit-local"],
    )
    def test_grids_beyond_the_machine_exit_2(self, tmp_path, capsys, mode, keys, message, dry_run):
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path / "c.cfg", **keys)
        assert main([mode, "--config", cfg, "--out", out, *dry_run]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_validate_checks_the_grid(self, tmp_path, capsys, dry_run):
        cfg = write_config(tmp_path / "c.cfg", h="0.3", a="1", s="0.75", gamma="0.2")
        code = main(["validate", "--config", cfg, "--out", str(tmp_path / "o"), *dry_run])
        assert code == 2
        assert "status=ok" not in capsys.readouterr().out


_NUMBER = st.one_of(
    st.sampled_from(["1/16", "1", "2", "0.75", "0.2", "1/0", "0/0", "1/2/3", "1e400", "1e-320", ""]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-5, 300), st.integers(-5, 300)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.text(max_size=12),
)
_CONFIG_TEXT = st.tuples(
    st.fixed_dictionaries({}, optional={k: _NUMBER for k in ("h", "a", "R", "s", "gamma")}),
    st.dictionaries(
        st.sampled_from(sorted(_KEYS)) | st.text(max_size=6),
        _NUMBER,
        max_size=4,
    ),
    st.lists(st.text(max_size=20), max_size=2),
).map(lambda t: "".join(f"{k} = {v}\n" for k, v in {**t[0], **t[1]}.items()) + "\n".join(t[2]))


class TestAnyConfigText:
    """validate and --dry-run exit with 0, 2 or 3 on any config text."""

    @given(text=_CONFIG_TEXT)
    @example(text="s = 0.75\ngamma = 0.2\nh = 1/0\na = 1\n")
    @example(text="s = 0.75\ngamma = 0.2\nh = 1e-320\na = 1\n")
    @example(text="s = 0.75\ngamma = 0.2\nh = 1/16\na = 1\nR = 2\ntail = power:1,-1.5\n")
    @example(text="s = 0.75\ngamma = 0.2\nh = 1/16\na = 1\nR = 2\ntail = power:1,-2\n")
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exit_code_is_0_2_or_3(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.cfg")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            out = os.path.join(tmp, "out")
            for argv in (["validate"], ["solve", "--dry-run"]):
                try:
                    code = main([*argv, "--config", path, "--out", out])
                except SystemExit as exc:
                    code = exc.code
                assert code in (0, 2, 3)


class TestModes:
    def test_solve_writes_solution_and_sidecar(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **SOLVE_KEYS)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        csv = out / "run_solve.csv"
        meta = out / "run_solve.meta"
        assert csv.exists() and meta.exists()
        assert csv.read_text().startswith("# tail=zero\nx,u\n")
        meta_map = dict(
            line.split("=", 1) for line in meta.read_text().strip().splitlines()
        )
        assert meta_map["converged"] == "true"
        assert meta_map["seed"] == "0"

    def test_solve_csv_round_trip_is_exact(self, tmp_path):
        # .17g reads back to the same double; h = 0.1 and 1/24 are not
        # x[1] - x[0] of their own nodes
        tail = TailModel.power(0.7, 2.25)
        for text, h, a, R in [("0.1", 0.1, 2.0, 4.0), ("1/24", 1 / 24, 1.0, 2.0)]:
            grid = make_grid(GridSpec(h=h, a=a, R=R))
            g = GridFunction(grid, dc.odd_exterior_builder(grid, "ramp", 1.0).values, tail)
            u = dc.solve(dc.assemble(grid, 0.75), g, ReactionSpec(gamma=0.2)).solution
            cfg = write_config(tmp_path / "run.cfg", **{**SOLVE_KEYS, "h": text, "a": a, "R": R, "tail": tail.encode()})
            out = tmp_path / "out"
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            first, header, *rows = (out / "run_solve.csv").read_text().splitlines()
            assert first == f"# tail={tail.encode()}" and header == "x,u"
            x, values = np.array([[float(field) for field in row.split(",")] for row in rows]).T
            assert x.tobytes() == grid.x.tobytes()
            assert values.tobytes() == u.values.tobytes()

    def test_solve_local(self, tmp_path):
        cfg = write_config(
            tmp_path / "loc.cfg", h="1/32", a="1", gamma="0.2", left="-0.5", right="0.5"
        )
        out = tmp_path / "out"
        assert main(["solve-local", "--config", cfg, "--out", str(out)]) == 0
        meta = (out / "loc_solve-local.meta").read_text()
        assert "s=1\n" in meta

    def test_exponent_local(self, tmp_path):
        kappa = 0.1916288597136449
        cfg = write_config(
            tmp_path / "exp.cfg",
            h="1/128",
            a="1",
            gamma="0.2",
            operator="local",
            left=f"{-kappa}",
            right=f"{kappa}",
        )
        out = tmp_path / "out"
        assert main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        exp_csv = (out / "exp_exponent.csv").read_text().splitlines()
        assert exp_csv[0] == "s,gamma,x0,slope,target,relative_gap,r2"
        slope = float(exp_csv[1].split(",")[3])
        assert slope == pytest.approx(2.5, rel=0.05)
        assert (out / "exp_branching.csv").exists()
        assert "slope=" in (out / "exp_exponent.meta").read_text()

    @pytest.mark.parametrize(
        "left, right, branching",
        [("-0.1916288597136449", "0.1916288597136449", "true"), ("1", "1", "false")],
        ids=["kappa", "no_branching_point"],
    )
    def test_exponent_meta_says_whether_x0_is_a_branching_point(self, tmp_path, left, right, branching):
        # -kappa, kappa branches at 0; 1, 1 has no branching point, and the
        # fit runs at the configured x0
        cfg = write_config(tmp_path / "exp.cfg", h="1/128", a="1", gamma="0.2", operator="local", left=left, right=right)
        out = tmp_path / "out"
        assert main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        meta = dict(line.split("=", 1) for line in (out / "exp_exponent.meta").read_text().splitlines())
        assert meta["branching"] == branching
        branching_rows = (out / "exp_branching.csv").read_text().splitlines()[1:]
        assert bool(branching_rows) == (branching == "true")

    def test_blowup(self, tmp_path):
        # h = 1/32 keeps the rescaled lattice h/r at the warning threshold
        cfg = write_config(
            tmp_path / "bl.cfg", **{**SOLVE_KEYS, "h": "1/32"}, r="1/2"
        )
        out = tmp_path / "out"
        assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "bl_blowup.csv").read_text()
        assert text.startswith("# tail=zero\nx,u\n")

    def test_compare(self, tmp_path):
        cfg = write_config(
            tmp_path / "cmp.cfg", h="1/16", a="1", R="2", s="0.75", gamma="0.2", pairs="2"
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        lines = (out / "cmp_compare.csv").read_text().splitlines()
        assert lines[0] == "pair,violation,passed"
        assert len(lines) == 3
        meta = (out / "cmp_compare.meta").read_text()
        assert "pairs=2\n" in meta and "failures=0\n" in meta and "seed=3\n" in meta

    def test_liouville(self, tmp_path):
        cfg = write_config(tmp_path / "lv.cfg", **SOLVE_KEYS)
        out = tmp_path / "out"
        assert main(["liouville", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "lv_liouville.csv").read_text().splitlines()
        assert lines[0] == "r,q"
        assert "classification=" in (out / "lv_liouville.meta").read_text()

    def test_slimit(self, tmp_path):
        cfg = write_config(
            tmp_path / "sl.cfg",
            h="1/64",
            a="1",
            R="2",
            gamma="0.2",
            s_list="0.75,0.9",
            amplitude="4",
        )
        out = tmp_path / "out"
        assert main(["slimit", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sl_slimit.csv").read_text().splitlines()
        assert lines[0] == "s,distance"
        assert len(lines) == 3

    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "v.cfg", **SOLVE_KEYS)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        assert "status=ok" in capsys.readouterr().out
        assert (out / "v_validate.meta").exists()

    def test_validate_bad_params_exits_2_but_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "v.cfg", h="1/16", a="1", s="0.3", gamma="0.2")
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "status=error" in captured.out
        assert (out / "v_validate.meta").exists()


def _validate(tmp_path, s, gamma):
    """Run ``deadcore validate`` on s and gamma: its exit code and the lines of its .meta."""
    cfg = write_config(tmp_path / "v.cfg", s=s, gamma=gamma)
    out = tmp_path / "out"
    code = main(["validate", "--config", cfg, "--out", str(out)])
    return code, (out / "v_validate.meta").read_text().splitlines()


class TestValidateParams:
    """validate reports s and gamma against the solver's ranges, or the two rates."""

    def test_good_parameters_ok(self, tmp_path, capsys):
        code, meta = _validate(tmp_path, "0.75", "0.2")
        assert code == 0
        assert capsys.readouterr().out.splitlines() == meta[:1]
        assert meta == [
            "status=ok s=0.75 gamma=0.20000000000000001 growth=1.875 schauder=1.7", "seed=0"
        ]

    def test_no_regime_is_printed(self, tmp_path, capsys):
        # below, inside and above the band 1 - gamma <= s <= 1 - gamma/2 alike
        for s in ("0.75", "0.85", "0.95"):
            code, meta = _validate(tmp_path, s, "0.2")
            assert code == 0
            (line,) = capsys.readouterr().out.splitlines()
            assert [field.partition("=")[0] for field in line.split()] == ["status", "s", "gamma", "growth", "schauder"]

    def test_old_indeterminate_band_prints_one_ok_line(self, tmp_path, capsys):
        # (0.85, 0.2) used to add a status=warning line and nu=indeterminate
        code, meta = _validate(tmp_path, "0.85", "0.2")
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines() == meta[:1] and len(meta) == 2
        assert out.startswith("status=ok ") and "nu=" not in out and "warning" not in out

    def test_row_values_consistent(self, tmp_path, capsys):
        code, _ = _validate(tmp_path, "0.8", "0.25")
        assert code == 0
        fields = dict(field.split("=") for field in capsys.readouterr().out.split())
        assert float(fields["growth"]) == dc.growth_exponent(0.8, 0.25)
        assert float(fields["schauder"]) == dc.schauder_exponent(0.8, 0.25)

    def test_bad_gamma(self, tmp_path, capsys):
        code, meta = _validate(tmp_path, "0.75", "0.5")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == meta[:1] == [
            "status=error message=gamma must lie strictly in (0, 1/3), got 0.5"
        ]
        assert "invalid parameters" in captured.err

    def test_bad_s(self, tmp_path, capsys):
        code, meta = _validate(tmp_path, "0.3", "0.2")
        assert code == 2
        assert capsys.readouterr().out.splitlines() == meta[:1] == [
            "status=error message=s must lie in [0.5, 0.999), got 0.3"
        ]


class TestDryRun:
    def test_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", **SOLVE_KEYS)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--dry-run"]) == 0
        assert "dry-run" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad", [dict(h="0.3"), dict(s="5", gamma="0.9")], ids=["grid", "s-gamma"]
    )
    def test_checks_parameters_like_a_run(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "c.cfg", **{**SOLVE_KEYS, **bad})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert main(["solve", "--config", cfg, "--out", str(out), "--dry-run"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, keys, bad",
        [
            ("solve-local", dict(left="-1", right="1"), dict(gamma="0.9")),
            ("exponent", {}, dict(s="5")),
            ("exponent", dict(operator="local", left="-1", right="1"), dict(gamma="0.5")),
            ("exponent", {}, dict(operator="fractional")),
            ("blowup", dict(r="0.5"), dict(s="0.3")),
            ("compare", dict(pairs="3"), dict(s="1")),
            ("liouville", {}, dict(h="0.3")),
            ("slimit", dict(s_list="0.75,0.9"), dict(s_list="0.75,5")),
        ],
        ids=["solve-local", "exponent", "exponent-local", "exponent-operator",
             "blowup", "compare", "liouville", "slimit"],
    )
    def test_every_mode_checks_its_parameters(self, tmp_path, capsys, mode, keys, bad):
        # at h = 1/16 exponent's default fit window [8h, a/4] is empty
        base = dict(h="1/64" if mode == "exponent" else "1/16", a="1", R="2", gamma="0.2")
        if mode not in ("solve-local", "slimit") and keys.get("operator") != "local":
            base["s"] = "0.75"
        good = write_config(tmp_path / "good.cfg", **{**base, **keys})
        bad = write_config(tmp_path / "bad.cfg", **{**base, **keys, **bad})
        out = str(tmp_path / "out")
        # blowup's rescaled window on this grid is coarse, and GridSpec says so
        coarse = (
            pytest.warns(UserWarning, match="coarse grid") if mode == "blowup" else contextlib.nullcontext()
        )
        with coarse:
            assert main([mode, "--config", good, "--out", out, "--dry-run"]) == 0
        assert main([mode, "--config", bad, "--out", out, "--dry-run"]) == 2

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(deriv_order="2"), "deriv_order must be 0 or 1"),
            (dict(fit_k=str(10**12)), "exceeds the grid's 257 nodes"),
            (dict(fit_k="3"), "at least 4 radii"),
            (dict(fit_rmax="1e300"), "grid width 2R"),
        ],
        ids=["deriv-order-2", "huge-fit-k", "small-fit-k", "huge-fit-rmax"],
    )
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_exponent_checks_its_fit(self, tmp_path, capsys, bad, message, dry_run):
        # deriv_order = 2 used to write a wrong target and exit 0, and a huge
        # fit_k to die allocating its radii; both are rejected before solving
        keys = dict(h="1/64", a="1", R="2", s="0.75", gamma="0.2", amplitude="4")
        cfg = write_config(tmp_path / "e.cfg", **keys, **bad)
        out = tmp_path / "out"
        assert main(["exponent", "--config", cfg, "--out", str(out), *dry_run]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(deriv_order="2"), "deriv_order must be 0 or 1"),
            (dict(fit_k=str(10**12)), "exceeds the grid's 257 nodes"),
        ],
        ids=["deriv-order-2", "huge-fit-k"],
    )
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_validate_checks_the_fit(self, tmp_path, capsys, bad, message, dry_run):
        # validate accepts exponent's keys, so it makes exponent's checks
        keys = dict(h="1/64", a="1", R="2", s="0.75", gamma="0.2")
        cfg = write_config(tmp_path / "v.cfg", **keys, **bad)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out), *dry_run]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert "status=ok" not in captured.out

    def test_validate_dry_run_prints_without_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "v.cfg", **SOLVE_KEYS)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out), "--dry-run"]) == 0
        assert "status=ok" in capsys.readouterr().out
        assert not out.exists()


# a config of each mode that passes --dry-run; TestDryRunMatchesTheRun adds one bad key
_BASES = {
    "solve": SOLVE_KEYS,
    "solve-local": dict(h="1/64", a="1", gamma="0.2", left="-1", right="1"),
    "exponent": dict(h="1/64", a="1", R="2", s="0.75", gamma="0.2", amplitude="4"),
    "blowup": dict(SOLVE_KEYS, h="1/32", r="1/2"),
    "compare": dict(h="1/16", a="1", R="2", s="0.75", gamma="0.2", pairs="2"),
    "slimit": dict(h="1/64", a="1", R="2", gamma="0.2", s_list="0.75,0.9"),
    "liouville": dict(h="1/16", a="1", R="2", s="0.75", gamma="0.2"),
}


class TestDryRunMatchesTheRun:
    """A bad value of any key, and a fit window or blow-up the grid cannot
    hold, fail --dry-run and the run alike, before anything is written."""

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            ("solve", "amplitude", "abc"),
            ("solve", "amplitude", "nan"),
            ("solve", "max_iter", "1.5"),
            ("solve", "max_iter", "0"),
            ("solve", "residual_tol", "abc"),
            ("solve", "residual_tol", "nan"),
            ("solve", "tail", "bogus"),
            ("solve", "data", "bogus"),
            ("compare", "pairs", "x"),
            ("compare", "pairs", "-3"),
            ("compare", "pairs", "0"),
            ("blowup", "r", "abc"),
            ("blowup", "r", "2"),
            ("blowup", "x0", "abc"),
            ("blowup", "x0", "0.01"),
            ("solve-local", "left", "abc"),
            # its load left/h^2 = 4.1e308 overflows at h = 1/64
            ("solve-local", "left", "1e305"),
            ("exponent", "fit_rmin", "abc"),
            ("exponent", "fit_rmin", "1/64"),
            ("exponent", "fit_rmax", "1/32"),
            # beyond R = 2: the fit window holds no node
            ("exponent", "x0", "100"),
            # a/h = 8: only two doubling radii, 4h and 8h
            ("liouville", "h", "1/8"),
        ],
    )
    def test_both_exit_2_and_write_nothing(self, tmp_path, capsys, mode, key, value):
        out = str(tmp_path / "out")
        good = write_config(tmp_path / "good.cfg", **_BASES[mode])
        assert main([mode, "--config", good, "--out", out, "--dry-run"]) == 0
        bad = write_config(tmp_path / "bad.cfg", **{**_BASES[mode], key: value})
        coarse = (mode, key, value) == ("liouville", "h", "1/8")  # h > a/16
        with pytest.warns(UserWarning, match="coarse grid") if coarse else contextlib.nullcontext():
            assert main([mode, "--config", bad, "--out", out, "--dry-run"]) == 2
            assert main([mode, "--config", bad, "--out", out]) == 2
        assert not os.path.exists(out)

    def test_slimit_needs_no_fit_window(self, tmp_path, capsys):
        # slimit fits no growth rate: a/h = 32, whose default fit window
        # [8h, a/4] is empty, passes --dry-run and runs
        cfg = write_config(tmp_path / "sl.cfg", **{**_BASES["slimit"], "h": "1/32"})
        out = tmp_path / "out"
        assert main(["slimit", "--config", cfg, "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()
        assert main(["slimit", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = (out / "sl_slimit.csv").read_text().splitlines()
        assert header == "s,distance"
        assert [row.split(",")[0] for row in rows] == ["0.75", "0.90000000000000002"]

    @pytest.mark.parametrize(
        "operator, key, value",
        [
            ("local", "s", "0.75"),
            ("local", "data", "plateau"),
            ("local", "amplitude", "100"),
            ("local", "tail", "const:1"),
            ("nonlocal", "left", "-0.5"),
            ("nonlocal", "right", "0.5"),
        ],
    )
    def test_exponent_takes_only_its_operators_keys(self, tmp_path, capsys, operator, key, value):
        # each was accepted and ignored: exponent.csv came out byte-identical
        # with and without it
        base = dict(h="1/64", a="1", R="2", gamma="0.2", operator=operator)
        base.update(dict(left="-0.5", right="0.5") if operator == "local" else dict(s="0.75", amplitude="4"))
        out = str(tmp_path / "out")
        good = write_config(tmp_path / "good.cfg", **base)
        assert main(["exponent", "--config", good, "--out", out, "--dry-run"]) == 0
        bad = write_config(tmp_path / "bad.cfg", **{**base, key: value})
        for dry_run in (["--dry-run"], []):
            assert main(["exponent", "--config", bad, "--out", out, *dry_run]) == 2
            assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("p", ["-1.5", "-2"], ids=["p=-2s", "p<-2s"])
@pytest.mark.parametrize("argv", [["solve"], ["solve", "--dry-run"], ["validate"]], ids=["run", "dry-run", "validate"])
def test_power_tail_without_finite_load_exits_2(tmp_path, capsys, argv, p):
    # at s = 0.75 a power tail needs p > -1.5: the run used to die with a
    # ZeroDivisionError (p = -1.5) or converge on a meaningless load (p = -2)
    cfg = write_config(tmp_path / "c.cfg", **SOLVE_KEYS, tail=f"power:1,{p}")
    out = tmp_path / "out"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "grows too fast" in captured.err and "Traceback" not in captured.err
    assert "status=ok" not in captured.out
    assert not out.exists()


_REPORT_KEYS = ["s", "gamma", "mode", "residual", "iterations", "energy", "converged"]
# mode: (a tiny config, the extras of its .meta); validate and compare write no report
_TINY = {
    "solve": (SOLVE_KEYS, {"seed"}),
    "solve-local": (dict(h="1/16", a="4", R="8", gamma="0.2", mode="one_phase", left="0", right="1"), {"seed"}),
    "exponent": (_BASES["exponent"], {"branching", "seed", "slope", "r2"}),
    "blowup": (_BASES["blowup"], {"seed", "r"}),
    "compare": (_BASES["compare"], None),
    "liouville": (_BASES["liouville"], {"seed", "classification"}),
    "slimit": (dict(h="1/32", a="2", R="4", gamma="0.2", s_list="0.75,0.9", amplitude="4"), {"seed", "s_list"}),
    "validate": (SOLVE_KEYS, None),
}


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        for mode in MODES:  # each run twice, on a tiny config
            keys, extras = _TINY[mode]
            cfg = write_config(tmp_path / "run.cfg", **keys)
            out1, out2 = tmp_path / mode / "o1", tmp_path / mode / "o2"
            assert main([mode, "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0, mode
            assert main([mode, "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0, mode
            names = sorted(os.listdir(out1))
            # each mode's exact file set: validate writes only its .meta
            files = [f"run_{mode}.meta"] if mode == "validate" else [f"run_{mode}.csv", f"run_{mode}.meta"]
            if mode == "exponent":
                files.insert(0, "run_branching.csv")
            assert names == sorted(os.listdir(out2)) == files, mode
            for name in names:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
            meta = (out1 / f"run_{mode}.meta").read_text().splitlines()
            meta_keys = [line.split("=", 1)[0] for line in meta]
            if mode == "compare":
                assert meta_keys == ["pairs", "failures", "seed"]
            elif mode == "validate":
                assert meta_keys[:-1] == ["status"] * (len(meta) - 1) and meta[-1] == "seed=5"
            else:
                # the report's keys, free_boundary when present, then the extras sorted
                fb = ["free_boundary"] if mode == "solve-local" else []
                assert meta_keys == _REPORT_KEYS + fb + sorted(extras), mode


class TestJobs:
    def test_parallel_configs(self, tmp_path):
        cfg1 = write_config(tmp_path / "a.cfg", **SOLVE_KEYS)
        cfg2 = write_config(tmp_path / "b.cfg", **{**SOLVE_KEYS, "amplitude": "2"})
        out = tmp_path / "out"
        code = main(
            ["solve", "--config", cfg1, "--config", cfg2, "--out", str(out), "--jobs", "2"]
        )
        assert code == 0
        assert (out / "a_solve.csv").exists()
        assert (out / "b_solve.csv").exists()

    def test_pool_has_no_more_workers_than_configs(self, tmp_path, monkeypatch):
        # a stand-in executor: records the pool size and runs the tasks in process
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
        cfgs = [write_config(tmp_path / f"{k}.cfg", **SOLVE_KEYS) for k in "ab"]
        argv = ["solve", "--config", cfgs[0], "--config", cfgs[1], "--out", str(tmp_path), "--dry-run"]
        assert main(argv + ["--jobs", "64"]) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    def test_repeated_config_stem_exits_2_and_writes_nothing(self, tmp_path, capsys, dry_run):
        # a/run.cfg and b/run.cfg both write run_solve.*: the second run used
        # to overwrite the first, and with --jobs 2 the two writes raced
        for sub, amplitude in (("a", "1"), ("b", "2")):
            (tmp_path / sub).mkdir()
            write_config(tmp_path / sub / "run.cfg", **{**SOLVE_KEYS, "amplitude": amplitude})
        out = tmp_path / "out"
        argv = ["solve", "--config", str(tmp_path / "a" / "run.cfg"), "--config", str(tmp_path / "b" / "run.cfg")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)] + ["--dry-run"] * dry_run)
        assert exc.value.code == 2
        assert "stem" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "run.cfg", **SOLVE_KEYS)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys, dry_run):
        # numpy's campaign generator takes no negative seed
        cfg = write_config(tmp_path / "run.cfg", **_BASES["compare"])
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", cfg, "--out", str(out), "--seed", "-1"] + ["--dry-run"] * dry_run)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_worst_exit_code_wins(self, tmp_path, capsys):
        good = write_config(tmp_path / "good.cfg", **SOLVE_KEYS)
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", good, "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert (out / "good_solve.csv").exists()


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        """The declared `deadcore` console script runs `validate` and exits 0.

        An installed script on PATH is run as is.  Without an install, the
        target declared in pyproject.toml is run the way the generated
        wrapper runs it, in a child process with the inherited environment.
        """
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["deadcore"]
        module, func = target.split(":")
        exe = shutil.which("deadcore")
        if exe is not None:
            cmd = [exe]
        else:
            wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
            cmd = [sys.executable, "-c", wrapper]
        cfg = write_config(tmp_path / "v.cfg", **SOLVE_KEYS)
        proc = subprocess.run(
            [*cmd, "validate", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "status=ok" in proc.stdout
