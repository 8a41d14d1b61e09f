"""Exact combinatorics of color chord diagrams.

Gluings of 2n circle points, their two-colored diagrams over the fixed
alternating pattern, isomorphism under even rotations, boundary cycle
tracing with surface classification, streaming enumeration with a
brute-force orbit census, and the matching closed-form counts.

Each module's ``__all__`` is its list of public names; the package
re-exports every one of them and adds only ``__version__``.
"""

from . import census, counting, cycles, diagram, errors, render, spin
from .census import *  # noqa: F403
from .counting import *  # noqa: F403
from .cycles import *  # noqa: F403
from .diagram import *  # noqa: F403
from .errors import *  # noqa: F403
from .render import *  # noqa: F403
from .spin import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += diagram.__all__
__all__ += cycles.__all__
__all__ += spin.__all__
__all__ += census.__all__
__all__ += counting.__all__
__all__ += render.__all__
__all__ += errors.__all__
