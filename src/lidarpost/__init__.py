"""Post-processing toolkit for LiDAR 3D detection.

Oriented-box geometry, point-cloud preparation, voxelization, target
assignment, detection ensembling, multi-object tracking, and the AP/APH and
MOTA/MOTP metrics that score them, plus JSONL/binary file formats and a CLI.
Names are imported from their module, for example
``from lidarpost.ensemble import nms``; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
