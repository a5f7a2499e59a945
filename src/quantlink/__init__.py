"""quantlink: rates and energy-rate trade-offs of hybrid MIMO receivers with few-bit ADCs.

The package simulates a narrowband link where a hybrid analog/digital
transmitter talks to a receiver that combines in the RF domain and quantizes
each chain with b-bit ADCs.  It provides clustered channel generation, analog
precoder design by alternating projection, channel-inversion and SVD baseband
precoding, exact and bounding rate expressions, a receiver power model, and a
seeded Monte-Carlo experiment harness with CSV output.

The package re-exports every name in each submodule's ``__all__``.
"""

from . import analog, channel, digital, harness, power, quantizers, rates
from .analog import *  # noqa: F403
from .channel import *  # noqa: F403
from .digital import *  # noqa: F403
from .harness import *  # noqa: F403
from .power import *  # noqa: F403
from .quantizers import *  # noqa: F403
from .rates import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (analog, channel, digital, harness, power, quantizers, rates)
    for name in module.__all__
)
