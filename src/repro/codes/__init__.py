"""The XOR array codes behind the RAID 6 and vertical-code baselines.

Contents
--------
* :mod:`~repro.codes.evenodd` / :mod:`~repro.codes.rdp` — the two
  classic XOR-only RAID 6 codes the paper cites as baselines.
* :mod:`~repro.codes.xcode` — X-Code, the vertical MDS code.

Each code encodes a data block and decodes it from at most two erased
columns; the layouts in :mod:`repro.core.layouts` call them directly.
Single parity is a plain row XOR and needs no code object.
"""

from .evenodd import EvenOdd, is_prime, smallest_prime_at_least
from .rdp import RDP
from .xcode import XCode

__all__ = [
    "EvenOdd",
    "RDP",
    "XCode",
    "is_prime",
    "smallest_prime_at_least",
]
