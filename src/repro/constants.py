"""Library-wide constants.

Values that the paper fixes (``MAXDOV``), plus the byte-level modelling
constants used to translate polygon counts into storage sizes.  The byte
constants are the single source of truth for every experiment that reports
dataset or index sizes.
"""

from __future__ import annotations

#: Paper, Section 3.3: the spherical projection of an object seen from
#: outside its bounding box never exceeds half the sphere, so the LoD
#: blending factor of equation 6 saturates at ``DoV / MAXDOV`` with
#: ``MAXDOV = 0.5``.
MAXDOV = 0.5

#: Size of one disk page in bytes.  4 KiB matches common filesystem pages.
PAGE_SIZE = 4096

#: Bytes occupied by one stored polygon (three vertices at three float32
#: coordinates each, plus a packed normal/material word).  Used to model the
#: "heavy-weight" model data sizes of the paper's 400 MB - 1.6 GB datasets.
BYTES_PER_POLYGON = 40

#: Bytes of a serialized pointer (page id) in the storage schemes.
SIZE_POINTER = 4

#: Bytes of a serialized integer (node offset) in the storage schemes.
SIZE_INTEGER = 4

#: Default R-tree fan-out (maximum entries per node).  The paper does not
#: report its fan-out; 8 keeps trees of a few hundred to a few thousand
#: objects 3-4 levels deep, matching the height range its formulas assume
#: and giving the internal-LoD termination real opportunities.
DEFAULT_FANOUT = 8

#: Default minimum fill factor for non-root R-tree nodes.
DEFAULT_MIN_FILL = 0.4

#: Default ratio ``s`` between an internal LoD's polygon count and the sum
#: of its children's polygon counts (Section 3.3's ``s``).  Small values
#: make internal LoDs cheap and the eq.-4 termination test easy to pass.
DEFAULT_LOD_RATIO = 0.2

#: Number of LoD levels stored per object (finest first).
DEFAULT_OBJECT_LOD_LEVELS = 3

#: The eta range the paper evaluates: "As threshold values smaller than
#: 0.008 generate very good visual fidelity, we shall use eta values in
#: [0, 0.008]."
ETA_RANGE = (0.0, 0.008)

#: Eta grid used by the figure-7/8 sweeps (matches Table 3's sample points).
ETA_GRID = (0.0, 0.00005, 0.0001, 0.0002, 0.0003, 0.0005, 0.001, 0.002,
            0.004, 0.008)
