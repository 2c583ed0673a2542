import numpy as np
import pytest

from mslqr import bench
from mslqr.cli import main
from mslqr.dre import SolverConfig


def tiny_config(tmp_path, name="tiny.csv", **kw):
    cfg = bench.ExperimentConfig(
        preset="custom", j_min=0, j_max=1, j_ref=2, epsilon=2.0 ** -2,
        solver=SolverConfig(T=0.5, n_t=8, substeps=2),
        output=str(tmp_path / name))
    for key, val in kw.items():
        setattr(cfg, key, val)
    return cfg


# -- observed_order ----------------------------------------------------------

def test_observed_order_halving():
    assert bench.observed_order([4.0, 1.0], [2.0, 1.0]) == [pytest.approx(2.0)]


def test_observed_order_stagnation():
    assert bench.observed_order([0.3, 0.3], [1.0, 0.5]) == [pytest.approx(0.0)]


def test_observed_order_fractional():
    out = bench.observed_order([1.0, 0.35], [0.5, 0.25])
    assert out == [pytest.approx(np.log2(1 / 0.35), rel=1e-12)]


def test_observed_order_validation():
    with pytest.raises(ValueError):
        bench.observed_order([1.0], [1.0])
    with pytest.raises(ValueError):
        bench.observed_order([1.0, -1.0], [1.0, 0.5])


# -- presets and config files ----------------------------------------------

def test_presets_exist():
    for name in ("grid", "stripes", "lshape", "grid-full", "stripes-full"):
        cfg = bench.preset_config(name)
        cfg.validate()
    with pytest.raises(ValueError):
        bench.preset_config("nope")


def test_parse_number_dyadic():
    assert bench._parse_number("2^-5") == 2.0 ** -5
    assert bench._parse_number("2**-7") == 2.0 ** -7
    assert bench._parse_number("1e-3") == 1e-3


def test_parse_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("""
[experiment]
preset = stripes
j_max = 2
j_ref = 4
output = out.csv

[kappa]
width = 2^-4
n_stripes = 5

[solver]
n_t = 32
T = 0.5
""")
    cfg = bench.parse_config(str(path))
    assert cfg.preset == "stripes"
    assert cfg.kappa_type == "stripes"
    assert cfg.j_max == 2 and cfg.j_ref == 4
    assert cfg.stripe_width == 2.0 ** -4
    assert cfg.n_stripes == 5
    assert cfg.solver.n_t == 32 and cfg.solver.T == 0.5
    assert cfg.output == "out.csv"


def test_config_validation_rejects_bad_levels(tmp_path):
    cfg = tiny_config(tmp_path, j_ref=1)
    with pytest.raises(ValueError):
        cfg.validate()


# -- experiment runs ----------------------------------------------------------

def read_csv(path):
    rows, comments = [], []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return header, rows, comments


def test_single_level_run_no_orders(tmp_path):
    cfg = tiny_config(tmp_path, j_max=0)
    rec = bench.run_experiment(cfg)
    assert len(rec.levels) == 1
    assert rec.orders == {}
    header, rows, comments = read_csv(cfg.output)
    assert header == bench.CSV_COLUMNS
    assert len(rows) == 1
    assert not any("order" in c for c in comments)


def test_experiment_record_and_csv(tmp_path):
    cfg = tiny_config(tmp_path)
    rec = bench.run_experiment(cfg)
    assert len(rec.levels) == 2
    header, rows, comments = read_csv(cfg.output)
    assert len(rows) == 2
    hs = [float(r["H"]) for r in rows]
    assert hs[0] == 2 * hs[1]
    assert all(float(r[c]) >= 0 for r in rows for c in header[2:6])
    assert any(c.startswith("# order_L2_lod=") for c in comments)
    # errors decrease and multiscale beats plain coarse Galerkin here
    assert float(rows[1]["err_L2_lod"]) <= float(rows[0]["err_L2_lod"])


def test_csv_deterministic_outside_timings(tmp_path):
    cfg1 = tiny_config(tmp_path, "a.csv")
    cfg2 = tiny_config(tmp_path, "b.csv")
    bench.run_experiment(cfg1)
    bench.run_experiment(cfg2)

    def stripped(path):
        header, rows, comments = read_csv(path)
        keep = [c for c in header if c not in bench.TIMING_COLUMNS]
        return ([{c: r[c] for c in keep} for r in rows], comments)

    assert stripped(cfg1.output) == stripped(cfg2.output)


def test_lshape_preset_smoke(tmp_path):
    cfg = bench.preset_config("lshape")
    cfg.j_min, cfg.j_max, cfg.j_ref = 0, 0, 2
    cfg.solver = SolverConfig(T=0.5, n_t=8, substeps=2)
    cfg.output = str(tmp_path / "l.csv")
    rec = bench.run_experiment(cfg)
    assert rec.levels[0].n_coarse == 5
    assert rec.levels[0].err_L2_lod <= rec.levels[0].err_L2_fem


# -- command line -------------------------------------------------------------

def write_cli_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"""
[experiment]
preset = grid
j_min = 0
j_max = 1
j_ref = 2
output = {tmp_path / "cli.csv"}

[kappa]
epsilon = 2^-2

[solver]
n_t = 8
substeps = 2
T = 0.5
""")
    return path


def test_cli_run(tmp_path, capsys):
    path = write_cli_config(tmp_path)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "level 0" in out and "level 1" in out
    assert (tmp_path / "cli.csv").exists()


def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("grid", "stripes", "lshape"):
        assert name in out


def test_cli_dump_kappa(tmp_path, capsys):
    path = write_cli_config(tmp_path)
    out = tmp_path / "kappa.txt"
    assert main(["dump-kappa", str(path), str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert float(lines[0]) == 0.25
    assert len(lines) == 5                       # epsilon + 4 rows
    assert all(len(l.split()) == 4 for l in lines[1:])


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("section, line, named", [
    ("experiment", "outptu = mine.csv", "outptu"),
    ("solver", "substep = 8", "substep"),
    ("kapa", "epsilon = 2^-2", "kapa"),
    ("experiment", "domain = u_shape", "u_shape"),
    ("solver", "compress_tol = 1", "compress_tol"),
    ("kappa", "type = stripe", "stripe"),
])
def test_cli_rejects_bad_config(tmp_path, capsys, monkeypatch, section, line,
                                named):
    def no_mesh(domain):
        raise AssertionError("a mesh was built before the config was checked")

    monkeypatch.setattr("mslqr.bench.build_base_mesh", no_mesh)
    path = write_cli_config(tmp_path)
    text = path.read_text()
    header = f"[{section}]\n"
    path.write_text(text.replace(header, header + line + "\n")
                    if header in text else text + header + line + "\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "cli.csv").exists()
