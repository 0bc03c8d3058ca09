"""Post-processing toolkit for LiDAR 3D detection.

Oriented-box geometry, point-cloud preparation, voxelization, target
assignment, detection ensembling, multi-object tracking, and the AP/APH and
MOTA/MOTP metrics that score them, plus JSONL/binary file formats and a CLI.
"""

from .assigner import (
    AnchorLabel,
    AssignmentResult,
    adaptive_assign,
    fixed_assign,
)
from .ensemble import (
    box_vote,
    ensemble_pair,
    grid_search_weight,
    merge_sources,
    nms,
    soft_nms,
)
from .geometry import (
    Box3D,
    DetectionSet,
    Label,
    bev_iou,
    heading_error,
    iou3d,
    iou_matrix,
    wrap_angle,
)
from .io import (
    FormatError,
    InputError,
    ValidationError,
    read_boxes,
    read_points,
    write_boxes,
    write_points,
)
from .matching import hungarian
from .metrics import (
    Difficulty,
    MatchLedger,
    MotResult,
    average_precision,
    match_frame,
    mota_motp,
    split_difficulty,
)
from .pointcloud import (
    Axis,
    PointCloud,
    RangeSpec,
    concat_frames,
    crop_range,
    flip,
    global_rotate,
    global_scale,
    sample_augmentation,
)
from .tracker import (
    Tracker,
    TrackerConfig,
    TrackState,
    associate,
    correct_heading_flip,
    predict,
    update,
)
from .voxelizer import (
    VoxelConfig,
    VoxelGrid,
    VoxelMode,
    voxel_coords,
    voxelize_dynamic,
    voxelize_hard,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorLabel",
    "AssignmentResult",
    "Axis",
    "Box3D",
    "DetectionSet",
    "Difficulty",
    "FormatError",
    "InputError",
    "Label",
    "MatchLedger",
    "MotResult",
    "PointCloud",
    "RangeSpec",
    "Tracker",
    "TrackerConfig",
    "TrackState",
    "ValidationError",
    "VoxelConfig",
    "VoxelGrid",
    "VoxelMode",
    "adaptive_assign",
    "associate",
    "average_precision",
    "bev_iou",
    "box_vote",
    "concat_frames",
    "correct_heading_flip",
    "crop_range",
    "ensemble_pair",
    "fixed_assign",
    "flip",
    "global_rotate",
    "global_scale",
    "grid_search_weight",
    "heading_error",
    "hungarian",
    "iou3d",
    "iou_matrix",
    "match_frame",
    "merge_sources",
    "mota_motp",
    "nms",
    "predict",
    "read_boxes",
    "read_points",
    "sample_augmentation",
    "soft_nms",
    "split_difficulty",
    "update",
    "voxel_coords",
    "voxelize_dynamic",
    "voxelize_hard",
    "wrap_angle",
    "write_boxes",
    "write_points",
]
