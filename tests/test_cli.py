import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrep
from qrep.cli import _grid, build_parser, main

QREP_ROOT = str(Path(qrep.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(*args, cwd=None):
    # -W error: a warning on any CLI path fails the test, as in-process ones do.
    # The child imports the qrep under test from any working directory.
    path = os.pathsep.join(filter(None, (QREP_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "qrep", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_kernel_interp_csv_layout(tmp_path):
    out = tmp_path / "k.csv"
    r = run_cli(
        "kernel", "--family", "interp", "--alpha", "0.5", "--lam", "0",
        "--n", "1024", "--length", "40", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re,im,abs"
    assert len(lines) == 1025
    first = lines[1].split(",")
    assert float(first[0]) == -20.0


def test_kernel_corr_even_abs_column(tmp_path):
    out = tmp_path / "k.csv"
    r = run_cli(
        "kernel", "--family", "corr-even", "--gamma", "0",
        "--n", "512", "--length", "64", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    scale = 1.0 / (2.0 * math.sqrt(math.pi))
    for row in rows:
        x, mag = float(row[0]), float(row[3])
        if x != 0.0:
            assert mag == pytest.approx(scale / math.sqrt(abs(x)), rel=1e-12)
        else:
            assert mag == 0.0


def test_kernel_nyquist_guard_exit_code():
    r = run_cli("kernel", "--family", "interp", "--alpha", "0.999",
                "--n", "128", "--length", "40")
    assert r.returncode == 2
    assert "nyquist_chirp_step" in r.stderr


def test_kernel_refuses_unresolved_chirp_before_sampling():
    # cot(5e-324) overflows; the sampler would warn and emit non-finite samples
    r = run_cli("kernel", "--family", "rotation", "--theta", "5e-324",
                "--n", "64", "--length", "16")
    assert r.returncode == 2
    assert r.stderr.startswith("qrep: nyquist_chirp_step:")
    assert "Traceback" not in r.stderr


def test_kernel_interp_point_mass_is_exempt_from_chirp_guard():
    r = run_cli("kernel", "--family", "interp", "--alpha", "1", "--n", "64", "--length", "16")
    assert r.returncode == 0, r.stderr


def test_kernel_rotation_theta_zero_exit_code():
    r = run_cli("kernel", "--family", "rotation", "--theta", "0")
    assert r.returncode == 2
    assert "rotation_theta_range" in r.stderr
    assert "Traceback" not in r.stderr


def test_transform_interp_past_position_chirp_limit(tmp_path):
    # alpha/(1-alpha) = 9 exceeds the position-side bound 2 pi/(n dx^2) = 1.6 here
    out = tmp_path / "t.csv"
    r = run_cli("transform", "--rep", "interp:alpha=0.9", "--n", "64", "--length", "16",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["norm_out"] == pytest.approx(meta["norm_in"], abs=1e-12)


def test_transform_momentum_peak(tmp_path):
    out = tmp_path / "t.csv"
    r = run_cli("transform", "--rep", "momentum", "--state", "gaussian:s=1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    mags = np.array([float(row[3]) for row in rows])
    lams = np.array([float(row[0]) for row in rows])
    assert lams[np.argmax(mags)] == 0.0
    assert mags.max() == pytest.approx(np.pi**-0.25, abs=1e-9)
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["norm_in"] == pytest.approx(1.0, abs=1e-12)
    assert meta["norm_out"] == pytest.approx(1.0, abs=1e-12)


def test_transform_interp_alpha_zero_matches_momentum_modulus(tmp_path):
    out_m = tmp_path / "m.csv"
    out_i = tmp_path / "i.csv"
    assert run_cli("transform", "--rep", "momentum", "--out", str(out_m)).returncode == 0
    assert run_cli("transform", "--rep", "interp:alpha=0", "--out", str(out_i)).returncode == 0
    mags_m = [line.split(",")[3] for line in out_m.read_text().splitlines()[1:]]
    mags_i = [line.split(",")[3] for line in out_i.read_text().splitlines()[1:]]
    for a, b in zip(mags_m, mags_i):
        assert float(a) == pytest.approx(float(b), abs=1e-15)


def test_transform_correlation_even_state(tmp_path):
    out = tmp_path / "c.csv"
    r = run_cli(
        "transform", "--rep", "correlation", "--state", "hermite:k=1",
        "--u-min", "-14", "--u-max", str(math.log(18.0)), "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    even_max = max(
        abs(complex(float(r_[2]), float(r_[3]))) for r_ in rows if r_[1] == "even"
    )
    assert even_max <= 1e-14
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["tail_mass"] < 1e-4


def test_transform_correlation_default_window_sees_the_state(tmp_path):
    out = tmp_path / "c.csv"
    r = run_cli("transform", "--rep", "correlation", "--state", "gaussian:s=1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["tail_mass"] <= 1e-6


@pytest.mark.parametrize("window", [(), ("--u-min", "-14", "--u-max", str(math.log(18.0)))],
                         ids=["default", "given"])
def test_correlation_sidecar_names_the_lattice_size(tmp_path, window):
    # the state sets the lattice, so the sidecar reports its size: half the
    # table's rows, one per gamma and parity
    out = tmp_path / "c.csv"
    r = run_cli("transform", "--rep", "correlation", "--state", "gaussian:c=2", *window,
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = out.read_text().splitlines()[1:]
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert list(meta) == ["norm_in", "norm_out", "tail_mass", "n_gamma"]
    assert meta["n_gamma"] == len(rows) // 2 and len(rows) % 2 == 0
    assert meta["n_gamma"] == (4096 if not window else 2048)


def _readme_cli_commands() -> list[list[str]]:
    """The commands of the README's CLI block, one argv each."""
    block = README.read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_command_runs(argv, tmp_path):
    assert argv[0] == "qrep"
    r = run_cli(*argv[1:], cwd=tmp_path)
    assert r.returncode == 0, r.stderr


def test_moments_json(tmp_path):
    out = tmp_path / "m.json"
    r = run_cli("moments", "--state", "gaussian:s=1,c=2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert payload["lhs"] == pytest.approx(1.25, abs=1e-8)
    assert payload["rhs"] == pytest.approx(1.25, abs=1e-8)
    assert payload["schrodinger_saturated"] is True
    assert payload["heisenberg_saturated"] is False


def test_moments_plain_gaussian():
    r = run_cli("moments", "--state", "gaussian:s=1")
    payload = json.loads(r.stdout)
    assert payload["lhs"] == pytest.approx(0.25, abs=1e-8)
    assert payload["heisenberg_saturated"] is True


def test_moments_hermite():
    r = run_cli("moments", "--state", "hermite:k=1")
    payload = json.loads(r.stdout)
    assert payload["lhs"] == pytest.approx(2.25, abs=1e-8)
    assert payload["rhs"] == pytest.approx(0.25, abs=1e-9)


def test_moments_config_file(tmp_path):
    cfg = tmp_path / "state.json"
    cfg.write_text(json.dumps({"state": "gaussian", "s": 1.0, "c": 2.0}))
    r = run_cli("moments", "--config", str(cfg))
    payload = json.loads(r.stdout)
    assert payload["schrodinger_saturated"] is True


def test_verify_single_suite_exit_zero(tmp_path):
    out = tmp_path / "v.json"
    r = run_cli("verify", "--suite", "commutators", "--out", str(out))
    assert r.returncode == 0, r.stderr
    records = json.loads(out.read_text())
    assert all(rec["passed"] for rec in records)
    names = {rec["name"] for rec in records}
    assert "xp_commutator" in names and "rotation_commutator" in names


def test_verify_unknown_suite_usage_error():
    r = run_cli("verify", "--suite", "nosuch")
    assert r.returncode == 2


def test_invalid_state_spec_exit_code():
    r = run_cli("moments", "--state", "squeezed:r=1")
    assert r.returncode == 2
    assert "state_spec_name" in r.stderr


@pytest.mark.parametrize(
    "args,config,code",
    [
        (["moments", "--state", "hermite:k=inf"], None, "hermite_order_range"),
        (["moments", "--state", "hermite:k=nan"], None, "hermite_order_range"),
        (["moments", "--state", "gaussian:s=abc"], None, "state_spec_value"),
        (["transform", "--rep", "interp:alpha=abc"], None, "rep_spec_value"),
        (["transform", "--rep", "interp:alpha=0.5,beta=2"], None, "rep_spec_field"),
        (["transform", "--rep", "momentum:alpha=0.3"], None, "rep_spec_field"),
        (["moments"], '{"s": 1.0}', "config_format"),
        (["moments"], "[1, 2]", "config_format"),
        (["moments"], "not json", "config_format"),
        (["transform", "--rep", "momentum"], '{"state": "gaussian", "s": "abc"}',
         "state_spec_value"),
        (["moments"], '{"state": "hermite", "k": 1e400}', "hermite_order_range"),
        (["moments", "--state", "hermite:k=2.5"], None, "hermite_order_range"),
        (["moments", "--state", "hermite:k=13"], None, "hermite_order_range"),
        (["moments", "--length", "nan"], None, "grid_length_positive"),
        (["moments", "--length", "inf"], None, "grid_length_positive"),
        (["transform", "--rep", "correlation", "--u-min", "nan", "--u-max", "1"], None,
         "log_window_order"),
        (["transform", "--rep", "correlation", "--u-min=-inf", "--u-max", "1"], None,
         "log_window_order"),
        (["transform", "--rep", "correlation", "--u-min", "-800", "--u-max", "2.89"], None,
         "log_window_underflow"),
        (["transform", "--rep", "momentum", "--u-min", "-3", "--u-max", "1"], None,
         "rep_spec_field"),
        (["transform", "--rep", "interp:alpha=0.5", "--u-max", "1"], None, "rep_spec_field"),
        (["transform", "--rep", "momentum", "--state", "gaussian:s=1"],
         '{"state": "gaussian", "s": 1.0}', "state_source"),
        (["moments", "--state", "gaussian:s=1"], '{"state": "gaussian", "s": 1.0}',
         "state_source"),
        (["moments", "--state", "gaussian:x0=30", "--n", "64", "--length", "16"], None,
         "gaussian_contained"),
        (["moments", "--state", "gaussian:c=1e308", "--n", "64", "--length", "16"], None,
         "gaussian_phase_finite"),
        (["kernel", "--family", "rotation", "--theta", "1.5", "--lam", "1e200", "--n", "64",
          "--length", "16"], None, "kernel_phase_finite"),
        (["kernel", "--family", "corr-even", "--gamma", "1e308"], None, "kernel_phase_finite"),
        (["kernel", "--family", "interp", "--alpha", "1", "--lam", "100"], None,
         "point_mass_range"),
        (["kernel", "--family", "plane-wave", "--p", "1", "--gamma", "2", "--n", "16",
          "--length", "16"], None, "kernel_parameter"),
    ],
)
def test_bad_spec_input_exits_with_code(tmp_path, args, config, code):
    if config is not None:
        cfg = tmp_path / "state.json"
        cfg.write_text(config)
        args = [*args, "--config", str(cfg)]
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.startswith(f"qrep: {code}:"), r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "plane-wave", "--alpha", "0.3"],
        ["--family", "position-in-momentum", "--theta", "1"],
        ["--family", "interp", "--alpha", "0.3", "--theta", "1"],
        ["--family", "rotation", "--theta", "1.5", "--eps", "4"],
        ["--family", "corr-odd", "--eps", "4"],
        ["--family", "fresnel", "--eps", "4", "--alpha", "0.3"],
        ["--family", "fresnel", "--eps", "4", "--lam", "1"],
    ],
    ids=" ".join,
)
def test_kernel_refuses_an_option_its_family_does_not_read(args):
    # each family reads the eigenvalue and its own parameter option, no other;
    # fresnel is the lambda = 0 member of X + (eps/2) P
    r = run_cli("kernel", *args, "--n", "16", "--length", "16")
    assert r.returncode == 2
    assert r.stderr.startswith("qrep: kernel_parameter:"), r.stderr
    assert "Traceback" not in r.stderr


# sha256 of each family's table at n = 16, length 16, as printed when the
# eigenvalue had one option per family: --p, --a, --lam (interp, rotation),
# --gamma and none (fresnel, which reads only lambda = 0).
FAMILY_TABLE_DIGESTS = [
    (["plane-wave"], "2", "eba5606f0f8139382682325c2d5694690d72942f27da2a6dce0c51ae7198182f"),
    (["position-in-momentum"], "-1.25",
     "7d2768cb673de1a5d5323c0b1222ca350a47fa9ce40100f5a7ea99ed38c951c4"),
    (["interp", "--alpha", "0.2"], "0.7",
     "8e6f9d478c33db57720cd17ebfa97bfb15f5c4a3d3129cbc5b9faa5ad13ea378"),
    (["rotation", "--theta", "1.5"], "-0.4",
     "9d0f702dc0ed8df8767cbacbd2c27a9a3430bc6239dd09a7c8d3569b3c878c4b"),
    (["corr-even"], "1.5", "6bd42df5929aa75982117ae3585dbfa873f9b7adbdfd7ad3c1a78ec13a443e96"),
    (["corr-odd"], "-0.75", "de840f5cf9bc28ce3513dfcc17be1c746e9c587e5d337e54176c4e3022a8e664"),
    (["fresnel", "--eps", "5.0"], "0",
     "bcd39e13d9328ce9fec80da4702176bd886b43411870a17974e229dd37d828b6"),
]


@pytest.mark.parametrize("spelling", ["--lam", "--lambda", "--p", "--a", "--gamma"])
@pytest.mark.parametrize("family,value,digest", FAMILY_TABLE_DIGESTS,
                         ids=[f[0][0] for f in FAMILY_TABLE_DIGESTS])
def test_every_eigenvalue_spelling_prints_the_family_table(capsys, family, value, digest,
                                                           spelling):
    rc = main(["kernel", "--family", *family, spelling, value, "--n", "16", "--length", "16"])
    assert rc == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


EIGENVALUE_SPELLINGS = ["--lam", "--lambda", "--p", "--a", "--gamma"]


@pytest.mark.parametrize("second", EIGENVALUE_SPELLINGS)
@pytest.mark.parametrize("first", EIGENVALUE_SPELLINGS)
def test_kernel_refuses_a_second_eigenvalue_in_any_spelling(capsys, first, second):
    # the spellings share one dest, where the last one used to win silently
    rc = main(["kernel", "--family", "plane-wave", first, "1", second, "2",
               "--n", "16", "--length", "16"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == (f"qrep: kernel_parameter: give the eigenvalue once, got {first} 1.0 "
                   f"and {second} 2.0\n")


def test_kernel_help_lists_one_eigenvalue_option(capsys):
    with pytest.raises(SystemExit):
        main(["kernel", "--help"])
    text = capsys.readouterr().out
    assert "--lam LAM, --lambda LAM, --p LAM, --a LAM, --gamma LAM" in text
    # the value options: the eigenvalue, one parameter per family, then the common ones
    assert re.findall(r"^  (--[a-z]+) [A-Z]+", text, re.M) == [
        "--lam", "--alpha", "--theta", "--eps", "--n", "--length", "--out"]


@pytest.mark.parametrize(
    "args,code",
    [
        (["kernel", "--family", "plane-wave", "--out", "{missing}/x.csv"], "output_write"),
        (["kernel", "--family", "plane-wave", "--out", "{dir}"], "output_write"),
        (["moments", "--config", "{missing}/c.json"], "config_read"),
    ],
)
def test_os_error_exits_with_code(tmp_path, args, code):
    # the message names the requested path, never the temporary file
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path / "dir")}
    (tmp_path / "dir").mkdir()
    args = [a.format(**paths) for a in args]
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.startswith(f"qrep: {code}: cannot "), r.stderr
    assert args[-1] in r.stderr
    assert ".qrep-" not in r.stderr
    assert "Traceback" not in r.stderr
    left = [p.name for p in tmp_path.rglob(".qrep-*")]
    assert not left, left


def test_verify_eigen_residuals_on_coarse_grid_exit_zero():
    # the finite-difference residuals run on fixed grids, so a coarse base
    # grid cannot fail them
    r = run_cli("verify", "--suite", "eigen_residuals", "--n", "256", "--length", "40")
    assert r.returncode == 0, r.stderr


def test_transform_correlation_refuses_uncontained_state():
    # |psi| = 2.5e-5 at the domain edge
    r = run_cli("transform", "--rep", "correlation", "--state", "gaussian:s=1.5,x0=1,p0=-0.5",
                "--n", "64", "--length", "16")
    assert r.returncode == 2
    assert r.stderr.startswith("qrep: boundary_decay:")
    assert "Traceback" not in r.stderr


def test_invalid_grid_exit_code():
    r = run_cli("moments", "--state", "gaussian:s=1", "--n", "1000")
    assert r.returncode == 2
    assert "power_of_two" in r.stderr


def test_grid_size_limit_exits_before_allocating():
    # 2^50 points would not fit in memory; the CLI refuses before building the grid
    r = run_cli("moments", "--n", str(2**50))
    assert r.returncode == 2
    assert r.stderr.startswith("qrep: grid_size_limit:"), r.stderr
    assert "Traceback" not in r.stderr


def test_grid_helper_accepts_the_benchmark_grid():
    args = build_parser().parse_args(["moments", "--n", str(2**18), "--length", "640"])
    g = _grid(args)
    assert (g.n, g.length) == (2**18, 640.0)


@pytest.mark.parametrize("cmd", [["moments"], ["transform", "--rep", "momentum"]])
def test_unresolved_momentum_edge_exit_code(cmd):
    # contained in position, but |phi| is 0.16 at the momentum edge pi/dx
    r = run_cli(*cmd, "--state", "gaussian:c=15", "--n", "256", "--length", "40")
    assert r.returncode == 2
    assert r.stderr.startswith("qrep: momentum_decay:")
    assert "Traceback" not in r.stderr


def test_no_partial_file_on_error(tmp_path):
    out = tmp_path / "k.csv"
    r = run_cli("kernel", "--family", "fresnel", "--eps", "1e-9", "--out", str(out))
    assert r.returncode == 2
    assert not out.exists()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["moments"], ["verify", "--suite", "limits"]])
def test_format_is_only_for_tabular_output(command):
    # moments and verify always write JSON
    r = run_cli(*command, "--format", "json")
    assert r.returncode == 2
    assert "unrecognized arguments: --format" in r.stderr


def test_kernel_json_format():
    r = run_cli("kernel", "--family", "plane-wave", "--p", "0", "--n", "16",
                "--length", "16", "--format", "json")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    assert len(rows) == 16
    assert set(rows[0]) == {"x", "re", "im", "abs"}
    assert rows[0]["x"] == -8.0


def test_csv_reproducible(tmp_path):
    a = run_cli("kernel", "--family", "plane-wave", "--p", "1.5", "--n", "64",
                "--length", "16")
    b = run_cli("kernel", "--family", "plane-wave", "--p", "1.5", "--n", "64",
                "--length", "16")
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "golden,args",
    [
        (
            "kernel_plane_wave_n16.csv",
            ["kernel", "--family", "plane-wave", "--p", "0.785398163397448279",
             "--n", "16", "--length", "16"],
        ),
        (
            "kernel_interp_n16.csv",
            ["kernel", "--family", "interp", "--alpha", "0.25", "--lam", "0.5",
             "--n", "16", "--length", "16"],
        ),
        (
            "kernel_fresnel_n16.csv",
            ["kernel", "--family", "fresnel", "--eps", "4.0", "--n", "16",
             "--length", "16"],
        ),
        (
            "transform_momentum_n64.csv",
            ["transform", "--rep", "momentum", "--state", "gaussian:s=1",
             "--n", "64", "--length", "16"],
        ),
        (
            "moments_gaussian_c2.json",
            ["moments", "--state", "gaussian:s=1,c=2"],
        ),
    ],
)
def test_golden_outputs(golden, args):
    # byte-for-byte schema pins; regenerate deliberately if formats change
    r = run_cli(*args)
    assert r.returncode == 0, r.stderr
    expected = (GOLDEN / golden).read_text()
    assert r.stdout == expected


def test_verify_all_exits_zero_slow(tmp_path):
    out = tmp_path / "all.json"
    r = run_cli("verify", "--suite", "all", "--out", str(out))
    assert r.returncode == 0, r.stderr
    records = json.loads(out.read_text())
    suites = {rec["suite"] for rec in records}
    assert len(suites) == 8
    assert all(rec["passed"] for rec in records)


def test_import_loads_no_scipy():
    # Importing scipy.interpolate takes longer than the rest of a small CLI
    # call, and the library needs nothing from SciPy.
    code = (
        "import sys, qrep, qrep.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
