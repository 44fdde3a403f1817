"""Precomputed per-pair link table for a hardware graph.

:meth:`HardwareGraph.link` resolves one pair at a time through a
``frozenset``-keyed dict, and every caller that needs the Eq. 2 link
class re-runs :func:`~repro.topology.links.classify_xyz` on the result.
That is fine for one-off queries, but the allocation hot path
(:mod:`repro.policies.scan`) asks for every pair of every candidate
subset of every allocation, and the simulated NCCL microbenchmark
(:mod:`repro.comm.rings`) asks again for every placed job — the same
answers, recomputed millions of times per simulated trace.

:class:`LinkTable` computes the answers once per topology: flat
row-major arrays of link class, bandwidth, channel count, per-channel
bandwidth and NVLink-ness over all ``n²`` ordered GPU pairs.  Hot loops
grab the flat tuples plus the GPU→row index and do pure integer
arithmetic; casual callers can use the by-id accessors.  The table is
cached on the graph via :attr:`HardwareGraph.link_table` (hardware
graphs are immutable after construction, so the cache never staleness).

For the vectorized batch-scoring engine (:mod:`repro.scoring.batch`)
the same answers are also exposed as dense, read-only numpy arrays —
:attr:`LinkTable.codes_matrix`, :attr:`LinkTable.bandwidth_matrix` and
their flat ``n²`` counterparts — so an ``(M, E)`` matrix of pair
indices resolves to link classes and bandwidths with a single
``np.take`` per attribute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from .links import (
    LinkType,
    bandwidth_of,
    channels_of,
    classify_xyz,
    is_nvlink,
    per_channel_bandwidth,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .hardware import HardwareGraph

#: Integer codes for the Eq. 2 link-class axes ("x", "y", "z").
X, Y, Z = 0, 1, 2

#: Axis letter for each integer code, ``CODE_TO_AXIS[X] == "x"``.
CODE_TO_AXIS: Tuple[str, str, str] = ("x", "y", "z")

_AXIS_TO_CODE = {"x": X, "y": Y, "z": Z}


class LinkTable:
    """Dense pairwise link properties of one :class:`HardwareGraph`.

    All per-pair attributes are flat row-major tuples of length ``n²``
    over the *table rows* (``0 … n-1``, ascending GPU id); entry
    ``row(u) * n + row(v)`` describes the ``u``–``v`` link.  Diagonal
    entries are filled with the PCIe fallback but are meaningless —
    hardware graphs have no self-links.
    """

    __slots__ = (
        "gpus",
        "n",
        "index",
        "codes",
        "bandwidths",
        "channels",
        "per_channel",
        "nvlink",
        "_codes_np",
        "_bandwidths_np",
    )

    def __init__(self, hardware: "HardwareGraph") -> None:
        self.gpus: Tuple[int, ...] = hardware.gpus
        self.n: int = len(self.gpus)
        self.index: Dict[int, int] = {g: i for i, g in enumerate(self.gpus)}
        n = self.n
        codes = [Z] * (n * n)
        bws = [0.0] * (n * n)
        chans = [1] * (n * n)
        per_chan = [0.0] * (n * n)
        nvl = [False] * (n * n)
        for i, u in enumerate(self.gpus):
            for j in range(i + 1, n):
                v = self.gpus[j]
                link = hardware.link(u, v)
                code = _AXIS_TO_CODE[classify_xyz(link)]
                bw = bandwidth_of(link)
                ch = channels_of(link)
                pc = per_channel_bandwidth(link)
                nv = is_nvlink(link)
                for p in (i * n + j, j * n + i):
                    codes[p] = code
                    bws[p] = bw
                    chans[p] = ch
                    per_chan[p] = pc
                    nvl[p] = nv
        self.codes: Tuple[int, ...] = tuple(codes)
        self.bandwidths: Tuple[float, ...] = tuple(bws)
        self.channels: Tuple[int, ...] = tuple(chans)
        self.per_channel: Tuple[float, ...] = tuple(per_chan)
        self.nvlink: Tuple[bool, ...] = tuple(nvl)
        self._codes_np: Optional[np.ndarray] = None
        self._bandwidths_np: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # dense numpy views (the batch-scoring engine's inputs)
    # ------------------------------------------------------------------ #
    @property
    def codes_flat(self) -> np.ndarray:
        """Flat ``(n²,)`` int64 array of Eq. 2 link-class codes.

        Entry ``row(u) * n + row(v)`` is the :data:`X`/:data:`Y`/:data:`Z`
        code of the ``u``–``v`` link.  Built lazily on first access,
        then cached; the array is marked read-only so shared views can
        never be mutated behind the cache.
        """
        if self._codes_np is None:
            arr = np.array(self.codes, dtype=np.int64)
            arr.flags.writeable = False
            self._codes_np = arr
        return self._codes_np

    @property
    def bandwidths_flat(self) -> np.ndarray:
        """Flat ``(n²,)`` float64 array of pairwise peak bandwidths (GB/s).

        Indexed like :attr:`codes_flat`.  Lazily built, cached and
        read-only.
        """
        if self._bandwidths_np is None:
            arr = np.array(self.bandwidths, dtype=np.float64)
            arr.flags.writeable = False
            self._bandwidths_np = arr
        return self._bandwidths_np

    @property
    def codes_matrix(self) -> np.ndarray:
        """Read-only ``(n, n)`` view of :attr:`codes_flat`."""
        return self.codes_flat.reshape(self.n, self.n)

    @property
    def bandwidth_matrix(self) -> np.ndarray:
        """Read-only ``(n, n)`` view of :attr:`bandwidths_flat`."""
        return self.bandwidths_flat.reshape(self.n, self.n)

    def rows_of(self, gpus) -> np.ndarray:
        """Table-row indices of an iterable of GPU ids, as an int array."""
        index = self.index
        return np.array([index[g] for g in gpus], dtype=np.intp)

    # ------------------------------------------------------------------ #
    # by-GPU-id accessors (convenience; hot loops index the flat tuples)
    # ------------------------------------------------------------------ #
    def flat(self, u: int, v: int) -> int:
        """Flat index of the ``u``–``v`` pair (GPU ids, not rows)."""
        return self.index[u] * self.n + self.index[v]

    def code(self, u: int, v: int) -> int:
        """Eq. 2 link-class code (:data:`X`/:data:`Y`/:data:`Z`)."""
        return self.codes[self.flat(u, v)]

    def axis(self, u: int, v: int) -> str:
        """Eq. 2 link-class axis letter (``"x"``/``"y"``/``"z"``)."""
        return CODE_TO_AXIS[self.code(u, v)]

    def bandwidth(self, u: int, v: int) -> float:
        """Peak bandwidth in GB/s between ``u`` and ``v``."""
        return self.bandwidths[self.flat(u, v)]

    def num_channels(self, u: int, v: int) -> int:
        """NVLink channel (brick) count of the ``u``–``v`` link."""
        return self.channels[self.flat(u, v)]

    def channel_bandwidth(self, u: int, v: int) -> float:
        """Per-channel bandwidth of the ``u``–``v`` link (GB/s)."""
        return self.per_channel[self.flat(u, v)]

    def has_nvlink(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` share a direct NVLink."""
        return self.nvlink[self.flat(u, v)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkTable(gpus={self.n})"
