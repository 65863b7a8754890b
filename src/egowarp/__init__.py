"""Differentiable rigid-warping toolkit for view synthesis supervision.

Numpy implementations, with analytic gradients throughout, of the geometry
underlying self-supervised depth and ego-motion training: SE(3) pose algebra,
pinhole reprojection, bilinear inverse warping, the photometric /
explainability / smoothness loss stack, additive attention gating, depth and
trajectory metrics, a synthetic plane-scene oracle, and a coarse-to-fine
photometric pose aligner.
"""

from types import ModuleType as _ModuleType

from .align import (
    AlignOptions,
    AlignPairReport,
    AlignReport,
    align_pose,
    align_pose_pair,
    perturb_pose,
)
from .attention import (
    AttentionGateParams,
    FeatureMap,
    ag_backward,
    ag_forward,
    alpha_to_loss_mask,
    resample_gating,
)
from .camera import (
    CameraIntrinsics,
    reproject_grid,
    reproject_jacobian_grid,
)
from .exceptions import (
    AmbiguousLogError,
    AssociationError,
    DegenerateInputError,
    DegenerateSnippetError,
)
from .fileio import (
    read_depth,
    read_image,
    read_intrinsics,
    read_pfm,
    read_pose,
    read_report,
    read_timestamps,
    read_trajectory,
    write_depth,
    write_image,
    write_intrinsics,
    write_pfm,
    write_pose,
    write_report,
    write_timestamps,
    write_trajectory,
)
from .gradcheck import COMPONENTS, GradCheckReport, grad_check
from .losses import (
    LossGradients,
    LossWeights,
    WeightMask,
    explainability_reg,
    loss_gradients,
    multiscale_smoothness,
    photometric_l1,
    smoothness,
    total_loss,
)
from .metrics import (
    AteResult,
    DepthMetrics,
    Trajectory,
    ate_snippet,
    depth_metrics,
    median_scale_align,
)
from .pyramid import (
    depth_pyramid,
    downsample2x,
    downscale_intrinsics,
    image_pyramid,
    intrinsics_pyramid,
    upsample2x,
)
from .se3 import (
    Pose6DoF,
    Rotation,
    SE3Transform,
    bf_consistency_grad,
    bf_consistency_loss,
    bf_residual_jacobian,
    compose,
    exp_so3,
    hat,
    inverse,
    log_so3,
    retract_pose,
)
from .synthetic import (
    PlaneSpec,
    RenderedPair,
    SceneSpec,
    default_intrinsics,
    make_scene,
    psnr,
    render_pair,
    render_view,
)
from .warp import (
    DepthMap,
    ImageBuffer,
    ValidityMask,
    inverse_warp,
    pixel_grid,
    warp_jacobians,
)

__version__ = "0.1.0"

# The public API is the imports above: every public name bound here that is
# not a submodule, in case-insensitive order.
__all__ = sorted(
    (name for name, obj in globals().items()
     if not name.startswith("_") and not isinstance(obj, _ModuleType)),
    key=str.lower,
)
