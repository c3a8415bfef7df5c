"""CSV and SVG text: the array-at-once formatting equals the per-value reference."""

import csv
import io
import math
import os
import pathlib
import struct
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgd1d import (
    Boundary,
    Classification,
    Diagnostics,
    GasModel,
    Mesh,
    MeshState,
    RiemannSetup,
    SchemeConfig,
    SchemeKind,
    Trajectory,
    Variant,
    riemann_initial,
    run_simulation,
    sweep_region,
)
from qgd1d import cli, output
from qgd1d.errors import LengthMismatch
from qgd1d.output import profile_svg, region_map_svg, write_diagnostics_csv, write_snapshot_csv

MODEL = GasModel(1.0, 2.0)


def _reference_fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(float(x))
    return str(x)


def _reference_csv(header, rows):
    """One csv.writer row per record, each value through _reference_fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_reference_fmt(v) for v in row])
    return buf.getvalue()


def _reference_polyline(frame, xs, ys, dash=""):
    """Every point of the polyline, one at a time through px and py."""
    return _polyline_of([(frame.px(x), frame.py(y)) for x, y in zip(xs, ys)], dash)


def _run_ends_polyline(frame, xs, ys, dash=""):
    """_reference_polyline less each point whose pixel y equals both its neighbours' bit
    for bit and whose pixel x lies between theirs, ascending."""
    pts = [(frame.px(x), frame.py(y)) for x, y in zip(xs, ys)]
    bits = [struct.pack("<d", y) for _, y in pts]
    return _polyline_of([p for i, p in enumerate(pts)
                         if not (0 < i < len(pts) - 1 and bits[i - 1] == bits[i] == bits[i + 1]
                                 and pts[i - 1][0] <= p[0] <= pts[i + 1][0])], dash)


def _polyline_of(pts, dash):
    text = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{text}" fill="none" stroke="black" stroke-width="1.5"{dash_attr}/>'


def _polyline_points(svg):
    """The (x, y) texts of each polyline of an SVG document, which must parse as XML."""
    root = ElementTree.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    return [[tuple(p.split(",")) for p in line.get("points").split(" ")]
            for line in root.iter("{http://www.w3.org/2000/svg}polyline")]


def _assert_only_run_points_dropped(svg, every_point_svg):
    """Each polyline of svg is the one of every_point_svg less some points, the first and
    last kept; each dropped point's y text equals those of the kept points around it, and
    its x lies between theirs.  Returns the number of points kept."""
    kept_total = 0
    for kept, full in zip(_polyline_points(svg), _polyline_points(every_point_svg), strict=True):
        assert kept[0] == full[0] and kept[-1] == full[-1]
        j = 0
        for x, y in full:
            if j < len(kept) and (x, y) == kept[j]:
                j += 1
                continue
            (x0, y0), (x1, y1) = kept[j - 1], kept[j]
            assert y0 == y == y1 and float(x0) <= float(x) <= float(x1), (x, y)
        assert j == len(kept)
        kept_total += len(kept)
    return kept_total


def _awkward_state():
    mesh = Mesh(n=9, h=0.125, x_min=-0.5, boundary=Boundary.OUTFLOW)
    rho = np.array([1e-300, 0.1, 1.0 / 3.0, 2.0, 5e-324, 1.7976931348623157e308, 0.5, 3.0, 7.25])
    u = np.array([-0.0, 0.0, 1e-300, math.inf, -math.inf, math.nan, -1.5, 1e22, 2.0 / 3.0])
    return MeshState(mesh, rho, u)


def test_snapshot_csv_equals_per_value_reference(tmp_path):
    state = _awkward_state()
    path = tmp_path / "snapshot.csv"
    write_snapshot_csv(str(path), state)
    want = _reference_csv(["x", "rho", "u"], zip(state.mesh.nodes, state.rho, state.u))
    assert path.read_text(encoding="utf-8") == want
    assert want.splitlines()[1] == "-0.5,1e-300,-0.0"


def test_snapshots_sharing_a_mesh_equal_per_value_reference(tmp_path):
    # the node text of the first call is passed back to the later ones, as cmd_solve does;
    # each value column is formatted once per distinct bit pattern
    n = 4000
    mesh = Mesh(n=n, h=1.0 / 3.0 / n, x_min=-0.7, boundary=Boundary.OUTFLOW)
    rng = np.random.default_rng(11)
    runs = np.repeat([1.0, 0.1, 1.0 / 3.0, 0.1], n // 4)                 # long constant runs
    tiny_huge = np.resize([5e-324, 2.5e-320, 1e-300, 1.7976931348623157e308, math.inf], n)
    signed_zeros = np.resize([0.0, -0.0, -0.0, 0.0, 5e-324, -5e-324, 2.5e-320], n)
    specials = np.resize([math.nan, -math.nan, math.inf, -math.inf, 1e-300, 0.0, -0.0], n)
    distinct = rng.standard_normal(n) ** 3                               # no two values equal
    states = [MeshState(mesh, runs, signed_zeros), MeshState(mesh, tiny_huge, specials),
              MeshState(mesh, np.exp(distinct), distinct), MeshState(mesh, runs, specials)]
    x_text = None
    for idx, state in enumerate(states):
        path = tmp_path / f"snapshot_{idx:04d}.csv"
        x_text = write_snapshot_csv(str(path), state, x_text)
        want = _reference_csv(["x", "rho", "u"], zip(mesh.nodes, state.rho, state.u))
        assert path.read_text(encoding="utf-8") == want, idx
    assert len(np.unique(distinct)) == n
    assert "\n-0.7,1.0,0.0\n" in (tmp_path / "snapshot_0000.csv").read_text()
    assert (tmp_path / "snapshot_0000.csv").read_text().splitlines()[2].endswith(",-0.0")


def _one_ulp_apart(*values):
    return [w for v in values for w in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf))]


# small pools, so that runs of values equal but for their bits often meet:
# positive densities, with subnormals, one-ulp neighbours and +inf
_RHO_POOL = [5e-324, 2.5e-320, *_one_ulp_apart(0.1, 1.0), 1.7976931348623157e308, math.inf]
# velocities, with both zeros, both NaNs and both infinities
_U_POOL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, -5e-324, *_one_ulp_apart(1.0 / 3.0)]


def _runs_of(pool, longest=50, min_size=1, max_size=40):
    """A column of runs of 1..longest equal entries, each a value of pool."""
    run = st.tuples(st.integers(1, longest), st.sampled_from(pool))
    return st.lists(run, min_size=min_size, max_size=max_size).map(
        lambda runs: np.repeat([v for _, v in runs], [k for k, _ in runs]))


@settings(max_examples=150, deadline=None)
@given(_runs_of(_RHO_POOL), _runs_of(_U_POOL))
@example(np.ones(4), np.array([0.0, -0.0, -0.0, 0.0]))
def test_snapshot_csv_of_runs_equals_per_value_reference(tmp_path_factory, rho, u):
    # rho and u change at independent nodes, so a row run ends where either column changes
    n = max(3, min(len(rho), len(u)))
    rho, u = np.resize(rho, n), np.resize(u, n)
    mesh = Mesh(n=n, h=1.0 / 3.0 / n, x_min=-0.7, boundary=Boundary.OUTFLOW)
    path = tmp_path_factory.mktemp("runs") / "snapshot.csv"
    x_text = None
    for state in (MeshState(mesh, rho, u), MeshState(mesh, rho[::-1], u[::-1])):
        x_text = write_snapshot_csv(str(path), state, x_text)
        want = _reference_csv(["x", "rho", "u"], zip(mesh.nodes, state.rho, state.u))
        assert path.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("length", [8, 10, 0])
def test_snapshot_csv_rejects_node_text_of_another_length(tmp_path, length):
    state = _awkward_state()
    path = tmp_path / "snapshot.csv"
    with pytest.raises(LengthMismatch, match=f"{length} entries for a mesh of 9 nodes"):
        write_snapshot_csv(str(path), state, ["0.0"] * length)
    assert not path.exists()


def test_diagnostics_csv_equals_per_value_reference(tmp_path):
    mesh = Mesh(n=40, h=0.025, boundary=Boundary.OUTFLOW)
    x = mesh.nodes
    initial = MeshState(mesh, np.where(x < 0.5, 1.0, 0.1), np.where(x < 0.5, 0.1, 0.0))
    for beta in (0.4, 6.0):
        cfg = SchemeConfig(alpha=0.4, beta=beta, alpha_s=4.0 / 3.0, scheme=SchemeKind.STANDARD)
        traj = run_simulation(initial, MODEL, cfg, t_end=0.2)
        path = tmp_path / f"diagnostics-{beta}.csv"
        write_diagnostics_csv(str(path), traj)
        d = traj.diagnostics
        want = _reference_csv(["t", "mass", "momentum", "min_rho", "max_abs_u"],
                              zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u))
        assert path.read_text(encoding="utf-8") == want


_AWKWARD = [0.0, -0.0, -0.0, 0.0, 5e-324, -5e-324, 2.5e-320, 1e-300, math.nan, -math.nan,
            math.nan, math.inf, math.inf, -math.inf, 1.7976931348623157e308, 1.0 / 3.0]


@pytest.mark.parametrize("columns", [
    [_AWKWARD, _AWKWARD[::-1], np.roll(_AWKWARD, 3), np.repeat(_AWKWARD[:8], 2), [-0.0] * 16],
    [np.linspace(-1.0, 1.0, 7), np.geomspace(1e-300, 1e300, 7), [1e-300] * 7,
     [0.0, -0.0] * 3 + [0.0], [math.inf] * 3 + [-math.inf] * 4],
    list(np.random.default_rng(3).standard_normal((5, 9000)) ** 3),
], ids=["awkward", "spans", "distinct"])
def test_float_csv_text_equals_per_value_reference(tmp_path, columns):
    # diagnostics.csv holds t and four columns of any floats: -0.0 beside 0.0,
    # both NaNs and infinities, subnormals, and rows equal in all but t
    t, mass, momentum, min_rho, max_abs_u = (np.asarray(c, dtype=float) for c in columns)
    traj = Trajectory([], Diagnostics(t, mass, momentum, min_rho, max_abs_u, max_abs_u),
                      overflow=False, steps=t.size - 1, tv=np.zeros(0))
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(str(path), traj)
    want = _reference_csv(["t", "mass", "momentum", "min_rho", "max_abs_u"],
                          zip(t, mass, momentum, min_rho, max_abs_u))
    assert path.read_text(encoding="utf-8") == want


def test_write_table_equals_per_value_reference(tmp_path):
    # every kind of value the small tables hold: float reprs (np.float64 among them),
    # None, bools, ints and the verdict and variant names
    header = ["alpha", "beta", "verdict", "variant", "score", "ok", "gap"]
    names = [(c.value, v.value) for c in Classification for v in Variant]
    values = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e22, 1.0 / 3.0,
              np.float64(-0.0), np.float64(math.inf), np.float64(math.nan), np.float64(0.1),
              None, True, False, 0, 25000]
    rows = [(values[i % 17], values[(i + 5) % 17], verdict, variant, values[(i + 11) % 17],
             bool(i % 2), None if i % 3 else values[i % 17])
            for i, (verdict, variant) in enumerate(names * 6)]
    path = tmp_path / "table.csv"
    output.write_table(str(path), header, rows)
    text = path.read_text(encoding="utf-8")
    assert text == _reference_csv(header, rows)
    assert text.splitlines()[1] == "-0.0,5e-324,conservative,qgd,0.1,False,-0.0"
    output.write_table(str(path), header, [])
    assert path.read_text(encoding="utf-8") == ",".join(header) + "\n"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        output.atomic_write_text(str(tmp_path / "atomic.csv"), "a,b\n")
        with open(tmp_path / "plain.csv", "w") as f:
            f.write("a,b\n")
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "atomic.csv").st_mode & 0o777
    assert mode == 0o666 & ~umask == os.stat(tmp_path / "plain.csv").st_mode & 0o777
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.csv", "plain.csv"]


def test_atomic_write_takes_any_name_a_plain_open_takes(tmp_path):
    name = "a" * 246 + ".csv"                     # 250 bytes, under the usual 255-byte limit
    with open(tmp_path / name, "w") as f:
        f.write("old\n")
    output.atomic_write_text(str(tmp_path / name), "a,b\n")
    assert (tmp_path / name).read_text(encoding="utf-8") == "a,b\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_failed_atomic_write_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "table.csv"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        output.atomic_write_text(str(target), "a,b\n", "\ud800\n")   # a lone surrogate
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_profile_svg_equals_per_point_polyline(monkeypatch):
    mesh = Mesh(n=300, h=1.0 / 299.0, x_min=-0.3, boundary=Boundary.OUTFLOW)
    x = mesh.nodes
    rng = np.random.default_rng(6)
    state = MeshState(mesh, 1.0 + 0.3 * np.sin(7.0 * x) + 1e-3 * rng.uniform(size=300),
                      -0.2 * np.cos(3.0 * x))
    got = profile_svg(state, title="t=0.1")
    assert [len(line) for line in _polyline_points(got)] == [300, 300]
    monkeypatch.setattr(output._Frame, "polyline", _reference_polyline)
    assert got == profile_svg(state, title="t=0.1")
    # the pixel values themselves, not only their 2-decimal text
    frame = output._Frame(70, 40, 520, 240, (float(x[0]), float(x[-1])), (0.6, 1.4))
    assert frame.px(x).tolist() == [frame.px(v) for v in x]
    assert frame.py(state.rho).tolist() == [frame.py(v) for v in state.rho]


def test_region_map_svg_equals_per_point_polyline(monkeypatch):
    setup = RiemannSetup(rho_left=1.0, u_left=0.1, rho_right=0.1, u_right=0.0,
                         x0=0.0, x_min=-0.5, x_max=0.5, h=0.02, t_end=0.05)
    cfg = SchemeConfig(alpha=0.4, beta=1.0, alpha_s=4.0 / 3.0, regularization=Variant.FULL_QGD,
                       scheme=SchemeKind.ENTHALPY)
    region = sweep_region(setup, MODEL, cfg, alphas=[0.3, 0.5, 0.9], betas=[0.5, 1.2],
                          beta_mode="relative", record_every=5)
    got = region_map_svg(region, title="demo")
    assert [len(line) for line in _polyline_points(got)] == [3, 3, 3]
    monkeypatch.setattr(output._Frame, "polyline", _reference_polyline)
    assert got == region_map_svg(region, title="demo")


@settings(max_examples=60, deadline=None)
@given(_runs_of([*_one_ulp_apart(1.0, 0.1), 0.41439, 0.2], longest=400, min_size=3, max_size=8),
       _runs_of([-0.0, 0.0, 5e-324, *_one_ulp_apart(0.1), 1.1], longest=400, max_size=8))
def test_profile_svg_of_runs_equals_per_point_polyline(rho, u):
    # Riemann-like: long uniform runs and a few smooth nodes; one-ulp neighbours and both
    # zeros give distinct values of one pixel text
    n = len(rho)
    front = slice(n // 3, n // 3 + 7)
    rho[front] = np.linspace(rho[front][0], 0.3, len(rho[front]))
    mesh = Mesh(n=n, h=1.0 / n, x_min=-0.5, boundary=Boundary.OUTFLOW)
    state = MeshState(mesh, rho, np.resize(u, n))
    got = profile_svg(state, title="t=0.1")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(output._Frame, "polyline", _run_ends_polyline)
        assert got == profile_svg(state, title="t=0.1")
        patch.setattr(output._Frame, "polyline", _reference_polyline)
        _assert_only_run_points_dropped(got, profile_svg(state, title="t=0.1"))


@pytest.mark.parametrize("xs, kept", [
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "0.00,1.00 5.00,1.00"),
    ([0.0, 1.0, 1.0, 1.0, 2.0, 2.0], "0.00,1.00 2.00,1.00"),            # repeated x ascends
    ([0.0, 2.0, 1.0, 3.0, 4.0, 5.0], "0.00,1.00 2.00,1.00 1.00,1.00 5.00,1.00"),   # x turns back
    ([5.0, 4.0, 3.0, 2.0, 1.0, 0.0], "5.00,1.00 4.00,1.00 3.00,1.00 2.00,1.00 1.00,1.00 0.00,1.00"),
    ([0.0, 1.0, math.nan, 3.0, 4.0, 5.0], "0.00,1.00 1.00,1.00 nan,1.00 3.00,1.00 5.00,1.00"),
], ids=["ascending", "repeated", "turning", "descending", "nan"])
def test_polyline_drops_a_point_only_between_ascending_neighbours(xs, kept):
    frame = output._Frame(-0.0, 0.0, 1.0, 1.0, (0.0, 1.0), (0.0, 1.0))    # px(x) is x
    ys = np.zeros(len(xs))                      # py(0.0) is 1.0
    assert frame.polyline(xs, ys) == _run_ends_polyline(frame, xs, ys) == _polyline_of(
        [tuple(map(float, p.split(","))) for p in kept.split(" ")], "")


def test_solve_large_profile_keeps_the_ends_of_its_runs():
    # the benchmark's solve-large state: two end runs over most of its 25 000 nodes
    cfg = cli.apply_overrides(cli.load_config(str(pathlib.Path(__file__).parents[1] / "configs"
                                                  / "riemann_demo.json")),
                              ["scheme.kind=standard", "mesh.n=25000", "mesh.h=8e-5",
                               "experiment.t_end=0.02"])
    setup = cli.build_setup(cfg)
    traj = run_simulation(riemann_initial(setup, cli.build_mesh(cfg)), cli.build_model(cfg),
                          cli.build_scheme(cfg), setup.t_end, record_every=200)
    state = traj.snapshots[-1][1]
    got = profile_svg(state, title="t = 0.02")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(output._Frame, "polyline", _reference_polyline)
        every_point = profile_svg(state, title="t = 0.02")
    assert _assert_only_run_points_dropped(got, every_point) < 2_000
    assert len(got.encode()) <= 30_000 < len(every_point.encode())


def test_profile_svg_of_awkward_values_parses_as_xml():
    # both zeros, subnormals, ±inf, NaN and 1.8e308 map to well-formed, if meaningless,
    # pixels, with no warning; NaN pixel ys of one bit pattern make a run, as equal finite ones do
    lines = _polyline_points(profile_svg(_awkward_state(), title="t = 0"))
    assert [(line[0][0], line[-1][0]) for line in lines] == [("70.00", "590.00")] * 2
    assert [[y for _, y in line] for line in lines] == [["280.00", "280.00", "nan", "280.00", "280.00"],
                                                        ["nan", "nan"]]
