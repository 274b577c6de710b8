"""Scenario config, sweep orchestration, output, and CLI tests."""

import json
import math
import shutil
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

import holomimo.sweep as sweep_module
from holomimo import (
    AngularPowerSpectrum,
    build_lattice,
    config_from_dict,
    load_config,
    preset,
    render,
    run_sweep,
    sample_channel,
    su_capacity,
)
from holomimo.cli import main
from holomimo.config import PRESET_NAMES, bundled_cdl_path
from holomimo.coupling import HALF_WAVE_EFFICIENCY
from holomimo.errors import ConfigError, UnknownPreset
from holomimo.sweep import CSV_HEADER, SweepResult
from holomimo.synthesis import harmonic_channels
from draw_coefficients_oracle import draw_coefficients

BASE = {
    "carrier_ghz": 3.5,
    "bs_aperture": 2.0,
    "ue_aperture": 1.0,
    "spacing_list": [0.5],
    "spectrum_spec": {"kind": "isotropic"},
    "pattern_spec": {"kind": "uniform"},
    "efficiency_spec": {"kind": "relative_eta", "eta": 1.0},
    "snr_db": 0.0,
    "realizations": 4,
    "users": 1,
    "seed": 11,
}


def make_config(**overrides):
    return config_from_dict({**BASE, **overrides})


class TestConfig:
    def test_round_trip(self):
        config = make_config()
        assert config_from_dict(config.to_dict()) == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({**BASE, "bogus": 1})

    def test_missing_key_rejected(self):
        data = dict(BASE)
        del data["snr_db"]
        with pytest.raises(ConfigError, match="missing config keys"):
            config_from_dict(data)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown spectrum_spec keys"):
            make_config(spectrum_spec={"kind": "isotropic", "oops": 2})

    def test_missing_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="missing keys"):
            make_config(efficiency_spec={"kind": "relative_eta"})

    def test_spacing_must_divide_apertures(self):
        with pytest.raises(ConfigError, match="does not divide"):
            make_config(spacing_list=[0.3])

    # 1e-300 squares to 0 and 1e-160 leaves the concentration infinite.
    @pytest.mark.parametrize("spread", [25.0, 1e-160, 1e-300])
    def test_spread_validity_enforced(self, spread):
        with pytest.raises(ConfigError, match="angular-spread"):
            make_config(
                spectrum_spec={
                    "kind": "cdl",
                    "path": bundled_cdl_path(),
                    "asd_deg": spread,
                    "asa_deg": 10.0,
                }
            )

    @pytest.mark.parametrize("key", ["carrier_ghz", "spacing", "asd_deg", "eta"])
    def test_integer_past_the_float_range_rejected(self, key):
        # A JSON integer is unbounded, and 10**400 has no float.
        huge = 10**400
        overrides = {
            "carrier_ghz": {"carrier_ghz": huge},
            "spacing": {"spacing_list": [huge]},
            "asd_deg": {"spectrum_spec": {"kind": "cdl", "path": "t.csv",
                                          "asd_deg": huge, "asa_deg": 10.0}},
            "eta": {"efficiency_spec": {"kind": "relative_eta", "eta": huge}},
        }[key]
        with pytest.raises(ConfigError):
            make_config(**overrides)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(BASE))
        assert load_config(path) == make_config()

    def test_relative_spec_paths_resolve_against_the_config_file(self, tmp_path):
        folder = tmp_path / "configs"
        folder.mkdir()
        absolute = str(tmp_path / "table.csv")
        path = folder / "c.json"
        path.write_text(json.dumps({
            **BASE,
            "spectrum_spec": {"kind": "cdl", "path": absolute, "asd_deg": 10.0,
                              "asa_deg": 10.0},
            "pattern_spec": {"kind": "file", "path": "pattern.csv"},
            "efficiency_spec": {"kind": "sparams", "bs_path": "s/bs.csv",
                                "ue_path": "../ue.csv"},
        }))
        config = load_config(path)
        assert config.spectrum_spec["path"] == absolute
        assert config.spectrum_spec["asd_deg"] == 10.0
        assert config.pattern_spec == {"kind": "file",
                                       "path": str(folder / "pattern.csv")}
        assert config.efficiency_spec == {
            "kind": "sparams",
            "bs_path": str(folder / "s" / "bs.csv"),
            "ue_path": str(folder / ".." / "ue.csv"),
        }

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_validate(self, name):
        config = preset(name)
        assert config.carrier_ghz == 3.5
        assert config.bs_aperture == 4.0 and config.ue_aperture == 1.0
        assert config.spacing_list == (0.5, 0.25, 0.125)
        assert config.snr_db == 0.0
        assert config.realizations == 1000

    def test_multiuser_preset(self):
        assert preset("fig4-multiuser").users == 10

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("nope")


class TestSingleUserSweep:
    def test_degenerate_sweep_equals_direct_capacity(self):
        from holomimo import (
            AngularPowerSpectrum,
            ElementPattern,
            build_coupling_profile,
            build_plan,
            build_planar_array,
            build_variance_table,
        )

        config = make_config(realizations=1)
        result = run_sweep(config)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.std_bits == 0.0

        iso = AngularPowerSpectrum.isotropic()
        bs = build_planar_array(2.0, 2.0, 0.5, 0.5)
        ue = build_planar_array(1.0, 1.0, 0.5, 0.5)
        eta = 1.0 * HALF_WAVE_EFFICIENCY
        plan = build_plan(
            bs, ue,
            build_coupling_profile(bs, ElementPattern.uniform(), eta),
            build_coupling_profile(ue, ElementPattern.uniform(), eta),
        )
        variances = build_variance_table(build_lattice(2.0, 2.0, iso),
                                         build_lattice(1.0, 1.0, iso))
        # The sweep water-fills the harmonic-domain matrix of the same draw,
        # so it matches that exactly; the element-domain channel has the same
        # singular values up to rounding.
        harmonic = su_capacity(
            harmonic_channels(plan, draw_coefficients(variances, config.seed, 0)), 0.0
        )
        assert row.mean_bits == harmonic.value_bits
        element = su_capacity(sample_channel(plan, variances, config.seed, 0), 0.0)
        assert row.mean_bits == pytest.approx(element.value_bits, rel=1e-12, abs=0.0)

    def test_same_seed_bitwise_identical(self):
        a = render(run_sweep(make_config()), "csv")
        b = render(run_sweep(make_config()), "csv")
        assert a == b

    def test_rows_follow_spacing_list_order(self):
        config = make_config(spacing_list=[0.5, 0.25], realizations=2)
        result = run_sweep(config)
        assert [r.spacing_wl for r in result.rows] == [0.5, 0.25]

    def test_jobs_do_not_change_results(self):
        config = make_config(realizations=6)
        serial = render(run_sweep(config, jobs=1), "csv")
        parallel = render(run_sweep(config, jobs=3), "csv")
        assert serial == parallel

    def test_mean_stable_under_doubling_realizations(self):
        # statistical regression guard: doubling the draw count moves the
        # mean by less than 3 standard errors
        small = run_sweep(make_config(realizations=40)).rows[0]
        large = run_sweep(make_config(realizations=80)).rows[0]
        se = small.std_bits / math.sqrt(small.realizations)
        assert abs(small.mean_bits - large.mean_bits) < 3.0 * se


class TestMultiUserSweep:
    def test_two_user_sweep_runs(self):
        config = make_config(users=2, realizations=2)
        result = run_sweep(config)
        row = result.rows[0]
        assert row.realizations == 2
        assert row.mean_bits > 0
        assert row.not_converged == 0

    def test_multiuser_beats_strongest_single_user(self):
        # with a common budget the sum capacity is at least any one user's
        config = make_config(users=2, realizations=1, seed=3)
        mu_row = run_sweep(config).rows[0]
        assert mu_row.mean_bits > 0.0

    def test_dispatch_on_users(self):
        assert run_sweep(make_config(realizations=2)).rows[0].realizations == 2
        assert (
            run_sweep(make_config(users=2, realizations=1)).rows[0].realizations == 1
        )

    def test_same_seed_identical(self):
        config = make_config(users=2, realizations=2)
        a = render(run_sweep(config, jobs=1), "csv")
        b = render(run_sweep(config, jobs=2), "csv")
        assert a == b


class TestOutput:
    """Every ``holo`` output goes through one writer: an ``--out`` file holds
    the bytes that stdout gets, UTF-8 with LF line endings."""

    def test_empty_result_renders_the_header_only(self):
        assert render(SweepResult(rows=(), config=make_config())) == CSV_HEADER + "\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format must be csv or json"):
            render(SweepResult(rows=(), config=make_config()), "yaml")

    def test_json_round_trip_exact(self):
        result = run_sweep(make_config(realizations=3))
        loaded = json.loads(render(result, "json"))
        assert loaded["rows"] == [asdict(row) for row in result.rows]
        assert loaded["config"] == result.config.to_dict()

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "--end", "bs"],
            ["capacity", "su", "--format", "csv"],
            ["capacity", "su", "--format", "json"],
            ["sweep", "--preset", "fig3-isotropic", "--realizations", "2",
             "--format", "json"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")),
    )
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary, argv):
        if argv[0] != "sweep":
            config = tmp_path / "config.json"
            config.write_text(json.dumps(BASE))
            argv = [*argv, "--config", str(config)]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == stdout
        assert stdout.endswith(b"\n") and b"\r" not in stdout


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**BASE, **overrides}))
        return path

    def test_lattice_command(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["lattice", "--config", str(config), "--end", "ue"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ix,iy,integral"
        assert len(out) == 6  # header + five harmonics of the 1-wavelength end

    def test_synth_command(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "h.csv"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert b"\r" not in out.read_bytes()
        lines = out.read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 4 * 16  # 4 receive x 16 transmit elements
        # entries must be plain parseable numbers that round-trip exactly
        row, col, re, im = lines[1].split(",")
        assert (int(row), int(col)) == (0, 0)
        assert math.isfinite(float(re)) and math.isfinite(float(im))

    def test_capacity_su_command(self, tmp_path, capsys):
        config = self.write_config(tmp_path, realizations=2)
        assert main(["capacity", "su", "--config", str(config)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        assert len(out) == 2

    def test_capacity_at_the_top_of_the_snr_range_is_finite_or_an_error(
        self, tmp_path, capsys
    ):
        # 3082 dB is a budget of 1.6e308: the budget times a channel gain
        # overflows, and so does I + sum_k H_k^H Q_k H_k.
        config = self.write_config(
            tmp_path, bs_aperture=1.5, snr_db=3082.0, realizations=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["capacity", "su", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row = dict(zip(CSV_HEADER.split(","), captured.out.splitlines()[1].split(",")))
        assert math.isfinite(float(row["mean_bits"]))
        assert math.isfinite(float(row["std_bits"]))
        config = self.write_config(
            tmp_path, bs_aperture=1.5, snr_db=3082.0, realizations=2, users=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["capacity", "mu", "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_capacity_mu_requires_multiple_users(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["capacity", "mu", "--config", str(config)]) == 2

    def test_sweep_preset_command(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--preset", "fig3-isotropic", "--seed", "5",
                "--realizations", "2", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + three spacings
        assert lines[1].endswith(",2,5")

    def test_relative_cdl_path_runs_from_any_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        folder = tmp_path / "configs"
        folder.mkdir()
        shutil.copyfile(bundled_cdl_path(), folder / "cdl_b.csv")
        cdl = {"kind": "cdl", "path": "cdl_b.csv", "asd_deg": 10.0, "asa_deg": 20.0}
        config = self.write_config(folder, spectrum_spec=cdl, realizations=2)
        reference = self.write_config(
            tmp_path, spectrum_spec={**cdl, "path": bundled_cdl_path()},
            realizations=2,
        )
        assert main(["capacity", "su", "--config", str(reference)]) == 0
        expected = capsys.readouterr().out
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["capacity", "su", "--config", str(config)]) == 0
        assert capsys.readouterr().out == expected
        monkeypatch.chdir(tmp_path)
        assert main(["capacity", "su", "--config", "configs/config.json"]) == 0
        assert capsys.readouterr().out == expected

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BASE, "bogus": 1}))
        assert main(["capacity", "su", "--config", str(path)]) == 2

    def test_missing_input_file_exits_3(self, tmp_path):
        config = self.write_config(
            tmp_path,
            spectrum_spec={
                "kind": "cdl",
                "path": str(tmp_path / "missing.csv"),
                "asd_deg": 10.0,
                "asa_deg": 10.0,
            },
        )
        assert main(["capacity", "su", "--config", str(config)]) == 3

    @pytest.mark.parametrize(
        "spec_name, header, body",
        [
            ("efficiency_spec", "row,col,re,im", ["0,0,0.1,0", "-1,0,0.2,0"]),
            ("efficiency_spec", "row,col,re,im", ["0,0,0.1,0", "0,0,0.2,0"]),
            ("pattern_spec", "element_index,theta_deg,phi_deg,re,im",
             [f"3,{t},{p},1,0" for t in (0, 90) for p in (-180, 0)]),
        ],
        ids=["sparams-negative-row", "sparams-duplicate", "pattern-index-gap"],
    )
    def test_malformed_index_file_exits_3(self, tmp_path, capsys, spec_name,
                                          header, body):
        data = tmp_path / "input.csv"
        data.write_text("\n".join([header, *body]) + "\n")
        spec = (
            {"kind": "sparams", "bs_path": str(data), "ue_path": str(data)}
            if spec_name == "efficiency_spec"
            else {"kind": "file", "path": str(data)}
        )
        config = self.write_config(tmp_path, **{spec_name: spec})
        assert main(["capacity", "su", "--config", str(config)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def bad_file_error(self, tmp_path, capsys, which, content):
        """Exit code and stderr of ``capacity su`` when the config, the CDL
        table, the pattern file or the S-parameter files (``which``) hold
        ``content``; stdout stays empty and stderr is one ``error:`` line."""
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        cdl = {"kind": "cdl", "path": str(bad), "asd_deg": 10.0, "asa_deg": 20.0}
        overrides = {
            "cdl-table": {"spectrum_spec": cdl},
            "pattern": {"pattern_spec": {"kind": "file", "path": str(bad)}},
            "sparams": {"efficiency_spec": {"kind": "sparams", "bs_path": str(bad),
                                            "ue_path": str(bad)}},
        }.get(which, {})
        config = self.write_config(tmp_path, **overrides)
        if which == "config":
            config.write_bytes(content)
        code = main(["capacity", "su", "--config", str(config)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        return code, captured.err

    @pytest.mark.parametrize(
        "which, code",
        [("config", 2), ("cdl-table", 3), ("pattern", 3), ("sparams", 3)],
    )
    def test_undecodable_file_exits_with_its_code(self, tmp_path, capsys,
                                                  which, code):
        assert self.bad_file_error(tmp_path, capsys, which, b"\xff\xfe")[0] == code

    @pytest.mark.parametrize(
        "which, code, header",
        [("config", 2, None),
         ("cdl-table", 3, "cluster_id,power_db,aod_deg,zod_deg,aoa_deg,zoa_deg"),
         ("pattern", 3, "element_index,theta_deg,phi_deg,re,im"),
         ("sparams", 3, "row,col,re,im")],
        ids=["config-nested", "cdl-table-oversized-field",
             "pattern-oversized-field", "sparams-oversized-field"],
    )
    def test_unparsable_file_exits_with_its_code(self, tmp_path, capsys,
                                                 which, code, header):
        # JSON nested past the recursion limit, or a CSV field past the csv
        # module's 131072-character limit in the first data row.
        if header is None:
            content = b"[" * 100_000
        else:
            width = len(header.split(","))
            content = f"{header}\n{'0' * 131_073}{',0' * (width - 1)}\n".encode()
        got, err = self.bad_file_error(tmp_path, capsys, which, content)
        assert got == code
        if header is not None:
            assert "bad.csv:2: " in err

    @pytest.mark.parametrize("power_db, message", [(4000, "overflows a float"),
                                                   (-4000, "gives it weight 0")])
    def test_cluster_power_outside_the_float_range_exits_3(self, tmp_path, capsys,
                                                           power_db, message):
        # 10^(4000/10) overflows a float, and 10^(-4000/10) is 0.
        rows = Path(bundled_cdl_path()).read_text().splitlines()
        fields = rows[3].split(",")
        rows[3] = ",".join([fields[0], str(power_db), *fields[2:]])
        content = "\n".join(rows).encode() + b"\n"
        code, err = self.bad_file_error(tmp_path, capsys, "cdl-table", content)
        assert code == 3
        assert err.startswith(f"error: {tmp_path / 'bad.csv'}: cluster 3: "
                              f"power_db {power_db} ") and message in err

    @pytest.mark.parametrize("spread, code", [(1e-300, 2), (1e-160, 2), (1e-150, 4)])
    def test_a_spread_exits_2_unless_its_concentration_is_finite(self, tmp_path, capsys,
                                                                spread, code):
        # Above ~1.6e-152 degrees the concentration is finite; the CDL-B
        # departure clusters, all behind the aperture, are then 0 on the
        # visible hemisphere: exit 4.
        config = self.write_config(tmp_path, spectrum_spec={
            "kind": "cdl", "path": bundled_cdl_path(), "asd_deg": spread, "asa_deg": 20.0,
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["capacity", "su", "--config", str(config)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("spacing, apertures", [
        (1e-309, {"ue_aperture": 1.0}),
        (1e-308, {"bs_aperture": 1.5, "ue_aperture": 1.5}),
    ])
    def test_a_spacing_too_small_for_an_array_exits_2(self, tmp_path, capsys,
                                                      spacing, apertures):
        # 1/1e-309 overflows to inf; 1.5/1e-308 is a finite integral 1.5e308,
        # far past the largest array index.
        config = self.write_config(tmp_path, spacing_list=[spacing], **apertures)
        assert main(["capacity", "su", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_synth_writes_the_pinned_bytes(self, tmp_path):
        # A dipole pattern on 1.5-wavelength apertures at 1/4 wavelength: 6 x 6
        # elements per end, twice the 3 harmonics per axis.
        config = self.write_config(
            tmp_path, bs_aperture=1.5, ue_aperture=1.5, spacing_list=[0.5, 0.25],
            pattern_spec={"kind": "dipole"},
            efficiency_spec={"kind": "relative_eta", "eta": 0.9}, realizations=1, seed=7,
        )
        out = tmp_path / "h.csv"
        assert main(["synth", "--config", str(config), "--spacing-index", "1",
                     "--realization", "2", "--out", str(out)]) == 0
        pinned = Path(__file__).parent / "data" / "synth_dipole_1p5wl_quarter.csv"
        assert out.read_bytes() == pinned.read_bytes()

    def test_sweep_reads_no_cdl_sidecar(self, tmp_path, capsys):
        # A sweep takes its spreads from the config and reads no sidecar,
        # so a malformed one next to the table cannot fail it.
        table = tmp_path / "cdl.csv"
        shutil.copyfile(bundled_cdl_path(), table)
        table.with_suffix(".json").write_bytes(b"[" * 100_000)
        config = self.write_config(tmp_path, spectrum_spec={
            "kind": "cdl", "path": str(table), "asd_deg": 10.0, "asa_deg": 20.0,
        })
        assert main(["capacity", "su", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""

    def test_numerical_failure_exits_4(self, tmp_path):
        # the broadside-null pattern on a single-mode receive aperture
        # produces an exactly zero channel
        config = self.write_config(
            tmp_path, pattern_spec={"kind": "dipole"}, realizations=1
        )
        assert main(["capacity", "su", "--config", str(config)]) == 4

    @pytest.mark.parametrize("mode,users", [("su", 1), ("mu", 3)])
    def test_dark_receive_spectrum_exits_4(self, tmp_path, capsys, mode, users):
        # Arrival clusters 5 and 15 degrees from the antipode with a
        # 5-degree spread: the 1-wavelength end's spectrum is 0 in floating
        # point on the whole hemisphere, which no lattice is needed to see.
        table = tmp_path / "dark.csv"
        table.write_text(
            "cluster_id,power_db,aod_deg,zod_deg,aoa_deg,zoa_deg\n"
            "1,0,20,45,30,175\n2,-3,-40,30,-60,165\n"
        )
        spectrum = {"kind": "cdl", "path": str(table), "asd_deg": 10.0,
                    "asa_deg": 5.0}
        config = self.write_config(tmp_path, spectrum_spec=spectrum, users=users)
        assert main(["capacity", mode, "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "vanish" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_receive_total_below_the_normal_range_exits_4(self, tmp_path, capsys):
        # One arrival cluster 36.4 degrees behind the horizon with a 5-degree
        # spread leaves the 2-wavelength end two cells with a subnormal total
        # (~4e-323), too few bits to split the end's variance between them;
        # scaling by it once made the variance table infinite.
        table = tmp_path / "behind.csv"
        table.write_text(
            "cluster_id,power_db,aod_deg,zod_deg,aoa_deg,zoa_deg\n"
            "1,0,20,90,30,143.6\n"
        )
        spectrum = {"kind": "cdl", "path": str(table), "asd_deg": 10.0,
                    "asa_deg": 5.0}
        config = self.write_config(tmp_path, spectrum_spec=spectrum, ue_aperture=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["capacity", "su", "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "vanished" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["capacity", "su"], ["capacity", "mu"],
                                         ["synth", "--out", "h.csv"]])
    def test_a_pattern_file_fails_before_the_variance_table(
        self, tmp_path, capsys, command
    ):
        # The arrival spectrum of test_receive_total_below_the_normal_range
        # gives the 2-wavelength end a subnormal total, which only the
        # variance table rejects (exit 4); the plans, and with them an
        # undecodable pattern file (exit 3), come first.
        table = tmp_path / "behind.csv"
        table.write_text(
            "cluster_id,power_db,aod_deg,zod_deg,aoa_deg,zoa_deg\n"
            "1,0,20,90,30,143.6\n"
        )
        bad = tmp_path / "pattern.csv"
        bad.write_bytes(b"\xff\xfe")
        spectrum = {"kind": "cdl", "path": str(table), "asd_deg": 10.0,
                    "asa_deg": 5.0}
        argv = [str(tmp_path / a) if a == "h.csv" else a for a in command]
        for pattern, code in (({"kind": "uniform"}, 4),
                              ({"kind": "file", "path": str(bad)}, 3)):
            config = self.write_config(
                tmp_path, spectrum_spec=spectrum, ue_aperture=2.0,
                pattern_spec=pattern, users=2 if command[-1] == "mu" else 1,
            )
            assert main([*argv, "--config", str(config)]) == code
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1

    def test_multi_user_solver_breakdown_exits_4(self, tmp_path, capsys):
        # Each user keeps the 9 receive harmonics of the 2-wavelength UE in
        # the disk, so two users' 18 rows span the 9 of the BS.  At 150 dB,
        # I + sum_k H_k^H Q_k H_k then loses positive definiteness in
        # floating point; the same config runs at 100 dB.
        overrides = {"spacing_list": [0.5, 0.25], "efficiency_spec": {"kind": "hannan"},
                     "realizations": 2, "users": 2, "seed": 5, "ue_aperture": 2.0}
        config = self.write_config(tmp_path, **overrides, snr_db=100.0)
        assert main(["capacity", "mu", "--config", str(config)]) == 0
        capsys.readouterr()
        config = self.write_config(tmp_path, **overrides, snr_db=150.0)
        assert main(["capacity", "mu", "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "positive definite" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_users_below_the_transmit_span_certify_at_150_db(self, tmp_path, capsys):
        # Two users of one row each at the 1-wavelength UE: the solve runs in
        # their 2-dimensional span, where the coupled matrix stays positive
        # definite at the budget that broke it down in all 13 transmit
        # harmonics of the 2-wavelength BS.
        config = self.write_config(
            tmp_path, spacing_list=[0.5, 0.25], efficiency_spec={"kind": "hannan"},
            realizations=2, users=2, seed=5, snr_db=150.0,
        )
        assert main(["capacity", "mu", "--config", str(config), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["not_converged"] == 0
            assert math.isfinite(row["mean_bits"]) and row["mean_bits"] > 0

    def test_lattice_command_reads_no_pattern_or_sparams_file(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        config = self.write_config(
            tmp_path, pattern_spec={"kind": "file", "path": missing},
            efficiency_spec={"kind": "sparams", "bs_path": missing,
                             "ue_path": missing},
        )
        assert main(["lattice", "--config", str(config)]) == 0

    def test_lattice_command_integrates_a_1_wavelength_end(self, tmp_path, capsys):
        # Sweeps see the 1-wavelength end as the indicator of its broadside
        # cell; ``holo lattice`` still prints the quadrature integrals.
        config = self.write_config(tmp_path)
        assert main(["lattice", "--config", str(config), "--end", "ue"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        quadrature = build_lattice(1.0, 1.0, AngularPowerSpectrum.isotropic())
        assert rows == [
            [str(index.ix), str(index.iy), format(value, ".9g")]
            for index, value in zip(quadrature.indices, quadrature.marginal_integrals)
        ]
        assert float(rows[2][2]) == pytest.approx(2.0 * math.pi, rel=1e-6)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"carrier_ghz": math.nan},
            {"bs_aperture": math.nan},
            {"snr_db": math.nan},
            {"snr_db": math.inf},
            {"spacing_list": [0.5, math.nan]},
            {"realizations": 1.7},
            {"users": True},
            {"seed": 0.5},
            {"seed": False},
            {"seed": -1},
            {"seed": 2**64},
            {"carrier_ghz": "3.5"},
            {"realizations": "3"},
            {"spacing_list": ["0.5"]},
            {"seed": "7"},
            {"snr_db": 4000.0},
            {"snr_db": -4000.0},
            {"efficiency_spec": {"kind": "relative_eta", "eta": 1.2}},
            {"efficiency_spec": {"kind": "relative_eta", "eta": -0.1}},
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_bad_numbers_exit_2(self, tmp_path, capsys, overrides):
        config = self.write_config(tmp_path, **overrides)
        assert main(["capacity", "su", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "spec_name, spec",
        [
            ("spectrum_spec", {"asd_deg": "ten"}),
            ("spectrum_spec", {"asd_deg": True}),
            ("spectrum_spec", {"asa_deg": math.inf}),
            ("spectrum_spec", {"asa_deg": [20.0]}),
            ("efficiency_spec", {"kind": "relative_eta", "eta": "x"}),
            ("efficiency_spec", {"kind": "relative_eta", "eta": math.nan}),
            ("efficiency_spec", {"kind": "relative_eta", "eta": False}),
            ("spectrum_spec", {"path": 3}),
            ("pattern_spec", {"kind": "file", "path": None}),
            ("efficiency_spec", {"kind": "sparams", "bs_path": "s.csv", "ue_path": 1}),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(
            f"{k}={x}" for k, x in v.items() if k != "kind"
        ),
    )
    def test_bad_spec_values_exit_2(self, tmp_path, capsys, spec_name, spec):
        cdl = {"kind": "cdl", "path": bundled_cdl_path(), "asd_deg": 10.0,
               "asa_deg": 20.0}
        base = cdl if spec_name == "spectrum_spec" else {}
        config = self.write_config(tmp_path, **{spec_name: {**base, **spec}})
        assert main(["capacity", "su", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert spec_name in captured.err

    def test_sparams_with_several_spacings_exits_2(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        spec = {"kind": "sparams", "bs_path": str(data / "sparams_bs_3x3.csv"),
                "ue_path": str(data / "sparams_ue_2x2.csv")}
        config = self.write_config(tmp_path, bs_aperture=1.5, efficiency_spec=spec,
                                   spacing_list=[0.5, 0.25])
        assert main(["capacity", "su", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: efficiency_spec kind 'sparams' needs exactly one spacing, got 2\n"
        )

    def test_sparams_order_unlike_the_element_count_exits_4(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        spec = {"kind": "sparams", "bs_path": str(data / "sparams_ue_2x2.csv"),
                "ue_path": str(data / "sparams_ue_2x2.csv")}
        config = self.write_config(tmp_path, bs_aperture=1.5, efficiency_spec=spec)
        assert main(["capacity", "su", "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 4 efficiencies for 9 elements\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["synth", "--out", "h.csv", "--realization", "-1"], "--realization"),
            (["synth", "--out", "h.csv", "--realization", str(2**64)],
             "--realization"),
            (["capacity", "su", "--jobs", "0"], "--jobs"),
            (["capacity", "su", "--jobs", "-3"], "--jobs"),
            (["sweep", "--preset", "fig3-cdlb", "--jobs", "0"], "--jobs"),
            (["sweep", "--preset", "fig3-cdlb", "--jobs", "-3"], "--jobs"),
        ],
        ids=lambda v: v if isinstance(v, str) else "_".join(v[:1] + v[-2:]),
    )
    def test_out_of_range_counts_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "h.csv"
        argv = [str(out) if a == "h.csv" else a for a in argv]
        if argv[0] != "sweep":
            argv += ["--config", str(self.write_config(tmp_path))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be >= ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_negative_sweep_seed_exits_2(self, tmp_path, capsys):
        # Streams key the seed modulo 2**64; -1 must not run as 2**64 - 1.
        out = tmp_path / "r.csv"
        argv = ["sweep", "--preset", "fig3-cdlb", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_integral_float_count_is_accepted(self):
        assert make_config(realizations=2.0).realizations == 2

    def test_json_numbers_of_either_type_are_accepted(self):
        config = make_config(carrier_ghz=3, spacing_list=[1, 0.5], snr_db=-2,
                             efficiency_spec={"kind": "relative_eta", "eta": 1})
        assert config.carrier_ghz == 3.0 and isinstance(config.carrier_ghz, float)
        assert config.spacing_list == (1.0, 0.5) and config.snr_db == -2.0
        assert config.efficiency_spec["eta"] == 1

    def test_realizations_and_users_go_up_to_2_to_the_32(self):
        config = make_config(realizations=2**32, users=2**32)
        assert (config.realizations, config.users) == (2**32, 2**32)

    @pytest.mark.parametrize("count", [2**32 + 1, 2**63 - 1, 2**64])
    def test_huge_realization_counts_exit_2(self, tmp_path, capsys, count):
        # Past 2**32 a multi-user stream key (r << 32) | k would wrap onto an
        # earlier realization's; at 2**63 - 1 the chunk bounds overflowed
        # into NaN rows, and at 2**64 numpy's integer cast raised.
        config = self.write_config(tmp_path, realizations=count)
        for argv in (["sweep", "--preset", "fig3-cdlb", "--realizations", str(count)],
                     ["capacity", "su", "--config", str(config)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: realizations must be from 1 to 2**32, got {count}\n")

    def test_users_past_2_to_the_32_exit_2_before_any_drop(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_drop(*args):
            raise AssertionError("users dropped")

        monkeypatch.setattr(sweep_module, "drop_users", no_drop)
        config = self.write_config(tmp_path, users=2**32 + 1)
        assert main(["capacity", "mu", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: users must be from 1 to 2**32, got {2**32 + 1}\n"
