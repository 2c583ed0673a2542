import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mslqr import assembly as asm
from mslqr import bench
from mslqr import mesh as mm
from mslqr import dre, lod, norms
from mslqr.cli import main
from mslqr.dre import SolverConfig

EXPECTED = Path(__file__).parents[1] / "perfbench" / "expected.json"


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


def test_norm_factors_built_once_per_study(tmp_path, monkeypatch):
    # the mass and stiffness Cholesky factors serve both levels' pairs
    calls = []
    real_splu = norms.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(norms, "splu", counted)
    rec = bench.run_experiment(tiny_config(tmp_path))
    assert len(rec.levels) == 2
    assert len(calls) == 2


def test_every_factorization_follows_the_spd_rule(tmp_path, monkeypatch):
    # every sparse factor of a study pivots on the diagonal; SuperLU keeps
    # the given order only of a matrix already permuted by a mesh's nested
    # dissection, and orders every other one by minimum degree
    given, calls = [], []
    real_permuted = asm.permuted

    def spied_permuted(A, order):
        given.append(real_permuted(A, order))
        return given[-1]

    monkeypatch.setattr(asm, "permuted", spied_permuted)
    for module in (dre, lod, norms):
        def spied(A, module=module, real=module.splu, **kwargs):
            calls.append((module.__name__, A, kwargs))
            return real(A, **kwargs)

        monkeypatch.setattr(module, "splu", spied)
    bench.run_experiment(tiny_config(tmp_path))
    assert {name for name, _, _ in calls} == {
        "mslqr.dre", "mslqr.lod", "mslqr.norms"}
    specs = set()
    for name, A, kwargs in calls:
        assert kwargs.get("diag_pivot_thresh") == 0.0, name
        assert kwargs.get("options") == {"SymmetricMode": True}, name
        permuted = any(B.shape == A.shape and (B != A).nnz == 0
                       for B in given)
        want = "NATURAL" if permuted else "MMD_AT_PLUS_A"
        assert kwargs.get("permc_spec") == want, name
        specs.add(want)
    assert specs == {"NATURAL", "MMD_AT_PLUS_A"}


def test_bad_output_path_fails_before_any_mesh(tmp_path, monkeypatch):
    refined = []
    monkeypatch.setattr(bench, "refine_uniform", refined.append)
    cfg = tiny_config(tmp_path, output=str(tmp_path / "missing" / "out.csv"))
    with pytest.raises(OSError, match=re.escape(cfg.output)):
        bench.run_experiment(cfg)
    assert refined == []


def test_desk_grid_numbers_match_the_benchmark_record(tmp_path):
    # the benchmark's desk-grid shape on seed 1009, against its record
    with open(EXPECTED) as fh:
        want = json.load(fh)["desk-grid"]["1009"]
    base = replace(bench.preset_config("grid"), seed=1009)
    cfg = replace(base, j_max=1, solver=replace(base.solver, n_t=16),
                  output=str(tmp_path / "grid.csv"))
    rec = bench.run_experiment(cfg)
    got = {"n_ref": rec.n_ref, "rank_reference": rec.rank_reference}
    for j, lvl in enumerate(rec.levels, start=cfg.j_min):
        for key in ("err_L2_fem", "err_L2_lod", "err_V_fem", "err_V_lod",
                    "n_coarse", "rank_final"):
            got[f"level{j}.{key}"] = getattr(lvl, key)
    for name, orders in rec.orders.items():
        for i, v in enumerate(orders):
            got[f"{name}.{i}"] = v
    assert got.keys() == want.keys()
    for key, v in want.items():
        if isinstance(v, int):
            assert got[key] == v, key
        else:
            assert got[key] == pytest.approx(v, rel=1e-10, abs=0), key


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


def l_shape_level(j):
    m = mm.build_base_mesh(mm.l_shape())
    for _ in range(j):
        m = mm.refine_uniform(m)
    return m


def test_lshape_control_square_lies_in_domain():
    # the preset's control square lies in the L, so its input column
    # integrates the square's area; the square it replaced lay in the
    # removed quadrant and gave a zero column
    m = l_shape_level(4)
    system = bench.build_system(m, asm.kappa_constant(1.0), "l_shape")
    assert system.B.sum() == pytest.approx(0.04, rel=1e-12)
    old = asm.assemble_input_squares(m, [(0.65, 0.65, 0.85, 0.85)])
    assert old.sum() == 0.0


def test_build_system_rejects_square_outside_domain(monkeypatch):
    # a control square that covers no domain area fails, naming the
    # square, before the mass and stiffness matrices are assembled
    outside = (0.65, 0.65, 0.85, 0.85)
    monkeypatch.setattr(bench, "control_squares",
                        lambda kind: [(0.15, 0.15, 0.35, 0.35), outside])
    assembled = []
    monkeypatch.setattr(bench, "assemble_mass",
                        lambda *a, **k: assembled.append("M"))
    monkeypatch.setattr(bench, "assemble_stiffness",
                        lambda *a, **k: assembled.append("S"))
    with pytest.raises(ValueError, match=r"\(0\.65, 0\.65, 0\.85, 0\.85\)"):
        bench.build_system(l_shape_level(2), asm.kappa_constant(1.0),
                           "l_shape")
    assert assembled == []


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
    ("experiment", "workers = 2", "workers"),   # removed knob
    ("solver", "quad_nodes = 4", "quad_nodes"),  # removed alias
    ("kappa", "lo = nan", "lo=nan"),
    ("kappa", "type = stripes\nvalue = nan", "nan"),
    ("kappa", "type = constant\nconstant = inf", "inf"),
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
