"""Movement-model preset: discrete-time integrated random walk with
heavy-tailed observation errors.

Velocity performs a Gaussian random walk and position accumulates velocity;
observations are the positions plus scaled Student-t noise, which keeps
occasional wild fixes from dragging the filtered track without any manual
outlier screening.  The state starts at rest at the origin.
"""

from __future__ import annotations

import numpy as np

from .observe import ObservationModel, projection_link
from .particle import DiscreteKernel


def position_indices(n_coords: int) -> np.ndarray:
    """State layout is (position, velocity) per coordinate."""
    return 2 * np.arange(n_coords)


def preset_integrated_rw_t(step_sd: float, t_scale: float, t_dof: float,
                           n_coords: int = 1) -> tuple:
    """Integrated random walk state model plus a Student-t observation model.

    Per coordinate: v_{k+1} = v_k + Normal(0, step_sd^2) and
    p_{k+1} = p_k + v_{k+1}, from x0 = 0.  Returns (kernel, observation_model)
    ready for ``particle_filter``.
    """
    if not step_sd >= 0:
        raise ValueError("step_sd must be nonnegative")
    if not (t_scale > 0 and t_dof > 0):
        raise ValueError("t_scale and t_dof must be positive")

    def propagate(states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = np.array(states, dtype=float)
        eps = step_sd * rng.standard_normal((len(out), n_coords))
        out[:, 1::2] += eps  # velocities
        out[:, 0::2] += out[:, 1::2]  # positions
        return out

    kernel = DiscreteKernel(x0=np.zeros(2 * n_coords), propagate=propagate)
    om = ObservationModel(kind="student_t", scale=t_scale, dof=t_dof,
                          link=projection_link(position_indices(n_coords)))
    return kernel, om


def gaussian_position_model(scale: float, n_coords: int = 1) -> ObservationModel:
    """Gaussian observation model on the same position coordinates, for
    side-by-side comparison with the Student-t preset."""
    return ObservationModel(kind="gaussian", scale=scale,
                            link=projection_link(position_indices(n_coords)))
