"""Discrete-event simulation kernel.

A compact, from-scratch, SimPy-flavoured kernel: processes are Python
generators that yield :class:`Event` objects and are resumed when those
events fire.  The Copernicus network simulation and the scheduler
performance model (paper Figs. 7-9) both run on this kernel.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> def clock(env, out):
...     while env.now < 2:
...         out.append(env.now)
...         yield env.timeout(1)
>>> ticks = []
>>> _ = env.process(clock(env, ticks))
>>> env.run()
>>> ticks
[0, 1]
"""

from repro.des.core import (
    Environment,
    Event,
    Process,
    Timeout,
    AllOf,
    AnyOf,
    Interrupt,
    SimulationStopped,
)
from repro.des.resources import Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationStopped",
    "Store",
]
