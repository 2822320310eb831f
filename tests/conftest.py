"""Seeded random generators shared by the tests: the acceptance gate's own,
under the names the tests use."""

from air.acceptance import (  # noqa: F401
    _random_diagram as random_matrix_diagram,
    _random_generic_config as random_generic_config,
    _random_stokes_config as random_stokes_config,
    _random_zeta as random_generic_zeta,
)
