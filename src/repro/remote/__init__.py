"""§5.8: supporting resource-limited devices.

The densest measurement deployments (RIPE Atlas, SamKnows, BISmark) run on
~400 MHz MIPS boxes with tens of MB of RAM, while bdrmap proper needs the
full IP→AS mapping, stop sets, and alias state (~150 MB).  The paper's
solution: the device runs only the prober (scamper) and calls back to a
centrally-operated controller that holds all state and drives the
measurement interactively.

This package reproduces that architecture: a :class:`Prober` that executes
single measurement commands with O(1) state, a wire :mod:`protocol` with
byte accounting, and a :class:`RemoteBdrmap` controller that runs the exact
same pipeline as the local one with every probe dispatched over the
channel.
"""

from .protocol import (
    Channel,
    Command,
    Reply,
    encode,
    decode,
    pack_frame,
    unpack_frame,
)
from .prober import Prober
from .controller import RemoteBdrmap, RemoteStats

__all__ = [
    "Channel",
    "Command",
    "Reply",
    "encode",
    "decode",
    "pack_frame",
    "unpack_frame",
    "Prober",
    "RemoteBdrmap",
    "RemoteStats",
]
