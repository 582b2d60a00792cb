"""Named, seeded random-number streams.

Every stochastic component asks the registry for a stream by name
(e.g. ``"pipe.loss/10.0.0.7"`` or ``"bt.choker/10.1.2.3"``). Stream
seeds are derived deterministically from the root seed and the name, so

* two runs with the same root seed are bit-identical, and
* adding a new consumer does not perturb existing streams (unlike
  sharing one global ``random.Random``).
"""

from __future__ import annotations

import random
from typing import Dict

# CPython's builtin BLAKE2 is the object ``hashlib.blake2b`` names; importing
# ``hashlib`` would map OpenSSL's libcrypto (3.6 MB RSS) into every process.
try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without the builtin module
    from hashlib import blake2b


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(root_seed, name)``.

    Uses BLAKE2b rather than ``hash()`` so results are stable across
    interpreter runs and PYTHONHASHSEED values.
    """
    h = blake2b(digest_size=8)
    h.update(str(root_seed).encode("ascii"))
    h.update(b"\x00")
    h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)
