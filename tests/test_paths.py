import io
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftlab.collocation import BasisConfig
from driftlab.errors import DataFormatError, InsufficientDataError
from driftlab.kalman import ou_to_ssm
from driftlab.models import DiffusionSpec, OuParams
from driftlab.observe import (
    NoisyObservationSet,
    ObservationModel,
    ObservationSet,
    read_noisy_csv,
    read_observations_csv,
)
from driftlab.paths import (
    Path,
    TimeGrid,
    quadratic_variation,
    read_csv_table,
    series_arrays,
    write_path_csv,
)
from driftlab.rng import stream
from driftlab.simulate import euler_advance


def test_grid_times():
    g = TimeGrid(0.0, 1.0, 4)
    assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])
    assert g.dt == 0.25


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_path_requires_increasing_times():
    with pytest.raises(ValueError):
        Path(times=[0.0, 0.0, 1.0], values=[1.0, 2.0, 3.0])


def test_path_requires_finite_values():
    with pytest.raises(ValueError):
        Path(times=[0.0, 1.0], values=[1.0, np.inf])


BAD_TIMES = [  # (times, the row the error names)
    ([np.nan, 1.0, 2.0], 0),
    ([0.0, np.nan, 2.0], 1),
    ([0.0, 1.0, np.nan], 2),
    ([0.0, 1.0, np.inf], 2),
    ([-np.inf, 1.0, 2.0], 0),
    ([0.0, np.inf, np.inf], 1),
    ([0.0, 2.0, 1.0], 2),
]

# every constructor that takes a time axis; a TimeGrid is built over each gap
TIME_AXIS_CONSTRUCTORS = {
    "TimeGrid": lambda t: [TimeGrid(a, b, 1) for a, b in zip(t[:-1], t[1:])],
    "Path": lambda t: Path(times=t, values=np.zeros(len(t))),
    "ObservationSet": lambda t: ObservationSet(times=t, values=np.ones(len(t))),
    "NoisyObservationSet": lambda t: NoisyObservationSet(times=t, y_values=np.ones(len(t))),
    "ou_to_ssm": lambda t: ou_to_ssm(OuParams(1.0, 0.0, 0.5),
                                     ObservationModel("gaussian", 0.3), t),
    "BasisConfig": lambda t: BasisConfig(knots=t),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", TIME_AXIS_CONSTRUCTORS.values(),
                         ids=TIME_AXIS_CONSTRUCTORS.keys())
@pytest.mark.parametrize("times, row", BAD_TIMES)
def test_every_time_axis_rejects_nonfinite_and_unordered_times(build, times, row):
    with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
        build(times)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("times, row", BAD_TIMES)
def test_time_axis_error_names_the_first_offending_row(times, row):
    with pytest.raises(ValueError, match=re.escape(f"(row {row}: t = {times[row]!r})")):
        series_arrays(times, np.zeros(len(times)))


def test_series_arrays_checks_rows_and_values():
    times, values = series_arrays([0, 1], [[1, 2], [3, 4]])
    assert times.dtype == values.dtype == float
    with pytest.raises(ValueError, match="one row per time"):
        series_arrays([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="times must be 1-D"):
        series_arrays([[0.0, 1.0]])
    with pytest.raises(ValueError, match="observation values must be finite"):
        ObservationSet(times=[0.0, 1.0], values=[1.0, np.nan])


def test_quadratic_variation_constant_path():
    p = Path(times=[0, 1, 2], values=[3.0, 3.0, 3.0])
    assert quadratic_variation(p) == 0.0


def test_quadratic_variation_direct_sum():
    p = Path(times=[0, 1, 2], values=[0.0, 1.0, 0.0])
    assert quadratic_variation(p) == 2.0


def test_quadratic_variation_needs_two_points():
    with pytest.raises(InsufficientDataError):
        quadratic_variation(Path(times=[0.0], values=[1.0]))


def test_quadratic_variation_brownian_motion():
    # QV of standard BM over [0,1] is 1; realized QV at dt=1e-4 within 5%
    bm = DiffusionSpec(drift=lambda x, th: 0.0 * x,
                       diffusion=lambda x, th: np.ones_like(x),
                       theta=[0.0], x0=[0.0])
    grid = TimeGrid(0.0, 1.0, 10_000)
    values = np.empty((grid.n_steps + 1, 1))
    euler_advance(bm, bm.x0, grid.dt, stream(123).standard_normal((grid.n_steps, 1)), out=values)
    assert abs(quadratic_variation(Path(times=grid.times(), values=values)) - 1.0) < 0.05


def test_quadratic_variation_sums_coordinates():
    p = Path(times=[0, 1], values=np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert quadratic_variation(p) == 5.0


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=30))
def test_csv_round_trip_is_lossless(values):
    times = np.arange(len(values), dtype=float)
    path = Path(times=times, values=np.asarray(values))
    buf = io.StringIO()
    write_path_csv(path, buf)
    buf.seek(0)
    back = read_csv_table(buf)
    assert np.array_equal(back[:, 0], path.times)
    assert np.array_equal(back[:, 1:], path.values)


def test_csv_header_names_columns():
    path = Path(times=[0.0, 1.0], values=np.array([[1.0, 2.0], [3.0, 4.0]]))
    buf = io.StringIO()
    write_path_csv(path, buf)
    assert buf.getvalue().splitlines()[0] == "t,x1,x2"


READERS = (read_csv_table, read_observations_csv, read_noisy_csv)


@pytest.mark.parametrize("reader", READERS)
def test_header_only_csv_is_a_typed_error(reader):
    with pytest.raises(DataFormatError, match="no data rows"):
        reader(io.StringIO("t,x\n\n"))


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("text, line", [
    ("t,x\n0,1\n1,2,3\n", 3),      # ragged row
    ("t,x\n0,1\n\n2,abc\n", 4),    # non-numeric field after a blank line
])
def test_bad_row_names_its_line(reader, text, line):
    with pytest.raises(DataFormatError, match=f"line {line}:"):
        reader(io.StringIO(text))


@pytest.mark.parametrize("header", ["", "x,t", "t"])
def test_bad_header_is_a_typed_error(header):
    with pytest.raises(DataFormatError, match="line 1:"):
        read_csv_table(io.StringIO(header + "\n0,1\n"))


@given(st.sampled_from(["t,x", "t,x,y", "t", ""]),
       st.lists(st.text(alphabet=",0123456789.-e nx", max_size=12), max_size=6))
def test_csv_readers_fail_only_with_typed_errors(header, rows):
    # arbitrary rows either parse or raise DataFormatError; a plain ValueError
    # may come only from the Path / observation-set validators, after the
    # table itself parsed (never numpy's shape errors or an IndexError)
    text = "\n".join([header] + rows)
    for reader in READERS:
        try:
            reader(io.StringIO(text))
        except DataFormatError:
            pass
        except ValueError:
            read_csv_table(io.StringIO(text))
