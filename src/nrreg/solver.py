"""Registration solvers: the inner splitting loop with closed-form updates,
the reweighted outer loop, and the comparison baselines."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import correspondence as corrmod
from .geometry import Shape, build_edge_graph, compute_vertex_normals, mean_edge_length
from .operators import (
    SystemMatrices,
    SystemStructure,
    TransformStack,
    assemble_system,
    block_shrink,
    factorize_system,
    project_rotations,
    rotation_rhs,
    shrink,
    solve_X,
)

# data-auxiliary update C = f(G1, Y1, mu1) of each inner-loop variant; "l2"
# has no inner loop (register sends it to solve_l2_baseline)
DATA_UPDATES = {
    "dual_sparse": lambda G1, Y1, mu1: shrink(G1 - Y1 / mu1, 1.0 / mu1),
    # quadratic data term: exact minimizer, no shrinkage
    "snr": lambda G1, Y1, mu1: (mu1 * G1 - Y1) / (2.0 + mu1),
    "group_sparse": lambda G1, Y1, mu1: block_shrink(G1 - Y1 / mu1, 1.0 / mu1),
}
VARIANTS = (*DATA_UPDATES, "l2")


@dataclass
class SolverConfig:
    """All tunables of the registration pipeline.

    ``register`` solves in a frame scaled to unit bounding-box diagonal, which
    makes the reweighting floors ``eps_data`` / ``eps_smooth`` and the
    tolerances scale-meaningful.
    """

    alpha: float = 1.0            # smoothness weight
    beta: float = 0.1             # rotation-penalty weight
    mu1_init: float = 1.0
    mu2_init: float = 1.0
    rho1: float = 2.0             # penalty growth per inner iteration
    rho2: float = 2.0
    eps_data: float = 0.01
    eps_smooth: float = 0.01
    outer_iters: int = 20
    inner_iters: int = 20
    inner_tol: float = 1e-6
    outer_tol: float = 1e-7       # mean displacement, fraction of bbox diagonal
    reweight_start_tol: float = 2e-3  # displacement level that ends acquisition
    variant: str = "dual_sparse"
    reweight: bool = True
    max_dist_factor: float = 3.0  # closest-point gate, multiples of target l_bar
    max_normal_angle: float = 60.0
    knn_k: int = 6

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and np.isnan(value):
                raise ValueError(f"{f.name} must not be NaN")
        if self.rho1 <= 1 or self.rho2 <= 1:
            raise ValueError("rho1 and rho2 must be > 1")
        if self.mu1_init <= 0 or self.mu2_init <= 0:
            raise ValueError("penalty initializers must be positive")
        if self.eps_data <= 0 or self.eps_smooth <= 0:
            raise ValueError("reweighting floors must be positive")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        for name in ("inner_tol", "outer_tol", "reweight_start_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.max_dist_factor <= 0:
            raise ValueError("max_dist_factor must be positive (inf: no gate)")
        if self.max_normal_angle <= 0:
            raise ValueError("max_normal_angle must be positive")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "l2" and self.alpha == 0:
            # each vertex block of V^T W^2 V has rank 1: only the smoothness
            # term makes the l2 system nonsingular
            raise ValueError("alpha must be > 0 for the l2 variant")
        return self


@dataclass
class AdmmState:
    """Final iterate and history of one inner-loop run."""

    X: TransformStack
    C: np.ndarray
    A: np.ndarray
    R: np.ndarray          # (N, 3, 3)
    Y1: np.ndarray
    Y2: np.ndarray
    mu1: float
    mu2: float
    residuals: list = field(default_factory=list)  # (r_data, r_smooth) per iter
    n_iters: int = 0
    converged: bool = False


def evaluate_energy(X, sys, R, alpha, beta):
    """Per-term energies of the weighted model: l1 data, l1 smoothness,
    squared rotation deviation, and the weighted total."""
    data = float(np.abs(sys.data_residual(X)).sum())
    smooth = float(np.abs(sys.smooth_residual(X)).sum())
    if R is None:
        R = project_rotations(X)
    orth = float(np.sum((X.linear_parts() - R) ** 2))
    total = data + alpha * smooth + beta * orth
    return {"data": data, "smooth": smooth, "orth": orth, "total": total}


def admm_solve(sys, X_init, cfg):
    """Inner alternating loop: closed-form updates of the data auxiliary, the
    smoothness auxiliary, the per-vertex rotations and the transforms, then
    multiplier and penalty updates, until both primal residuals (Frobenius
    norm over sqrt(rows)) drop below ``inner_tol``.
    """
    n, ne = sys.n, sys.n_edges
    X = X_init
    Y1 = np.zeros((n, 3))
    Y2 = np.zeros((ne, 3))
    mu1, mu2 = cfg.mu1_init, cfg.mu2_init
    R = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    C = np.zeros((n, 3))
    A = np.zeros((ne, 3))
    history = []
    converged = False
    wU = sys.w_data[:, None] * sys.U_f
    data_update = DATA_UPDATES[cfg.variant]
    VT, BT = sys.structure.VT, sys.structure.BT
    G1 = sys.data_residual(X)
    G2 = sys.smooth_residual(X)
    k = 0
    for k in range(1, cfg.inner_iters + 1):
        C = data_update(G1, Y1, mu1)
        A = shrink(G2 - Y2 / mu2, cfg.alpha / mu2)
        if cfg.beta > 0:
            R = project_rotations(X)
        # transform update: exact minimizer of the augmented Lagrangian in X;
        # the rotation penalty enters with coefficient 2*beta (gradient of the
        # squared Frobenius term)
        handle = factorize_system(mu1, mu2, 2.0 * cfg.beta, sys)
        rhs = VT @ (sys.w_data[:, None] * (Y1 + mu1 * (C + wU))) \
            + BT @ (sys.w_smooth[:, None] * (Y2 + mu2 * A))
        if cfg.beta > 0:
            rhs = rhs + 2.0 * cfg.beta * rotation_rhs(R)
        X = solve_X(handle, rhs)
        G1 = sys.data_residual(X)
        G2 = sys.smooth_residual(X)
        Y1 = Y1 + mu1 * (C - G1)
        Y2 = Y2 + mu2 * (A - G2)
        r1 = float(np.linalg.norm(C - G1) / np.sqrt(max(n, 1)))
        r2 = float(np.linalg.norm(A - G2) / np.sqrt(max(ne, 1)))
        history.append((r1, r2))
        mu1 *= cfg.rho1
        mu2 *= cfg.rho2
        if max(r1, r2) < cfg.inner_tol:
            converged = True
            break
    state = AdmmState(X=X, C=C, A=A, R=R, Y1=Y1, Y2=Y2, mu1=mu1, mu2=mu2,
                      residuals=history, n_iters=k, converged=converged)
    return X, state


def update_weights(X_prev, corr, sys, eps_data, eps_smooth):
    """Inverse-residual diagonal weights.

    Data weight i is 1 / (l1 residual of vertex i + eps) for matched vertices
    and 0 otherwise; smoothness weight for edge (i, j) is
    1 / (l1 of X_i v_i - X_j v_i + eps). Residuals use the previous outer
    iteration's transforms (identity on the first iteration).
    """
    pos = sys.V @ X_prev.stacked
    data_res = np.abs(pos - sys.U_f).sum(axis=1)
    w_data = np.where(corr.matched, 1.0 / (data_res + eps_data), 0.0)
    edge_res = np.abs(sys.B @ X_prev.stacked).sum(axis=1)
    w_smooth = 1.0 / (edge_res + eps_smooth)
    return w_data, w_smooth


def solve_l2_baseline(sys, alpha, held=None):
    """Classic quadratic baseline: min ||W(VX - U)||_F^2 + alpha ||B X||_F^2
    with binary match weights; one symmetric factorized solve.

    Returns ``(X, held)``, where ``held`` is the ``(mask, Factorization)``
    pair the solve used. The matrix depends only on the structure, alpha and
    the binary match mask; the matched targets enter only the right-hand
    side. So a ``held`` pair from an earlier call at the same alpha whose
    mask is bit-for-bit equal to this one is reused and returned as is;
    otherwise a new pair is factorized and returned.
    """
    mask = sys.w_data > 0
    w = mask.astype(float)
    if held is None or not np.array_equal(mask, held[0]):
        binary = replace(sys, w_data=w, w_smooth=np.ones(sys.n_edges))
        held = mask, factorize_system(1.0, alpha, 0.0, binary)
    return solve_X(held[1], sys.structure.VT @ (w[:, None] * sys.U_f)), held


@dataclass
class RegistrationResult:
    transforms: TransformStack      # in original (unnormalized) coordinates
    deformed: Shape
    log: list                       # one dict per outer iteration
    converged: bool
    landmarks: corrmod.CorrespondenceMap | None = None
    final_system: SystemMatrices | None = None   # normalized frame
    final_state: AdmmState | None = None         # None for the l2 variant
    normalization: tuple = (None, 1.0)           # (center, scale)


def _normalizer(template, target):
    lo = np.minimum(template.vertices.min(0), target.vertices.min(0))
    hi = np.maximum(template.vertices.max(0), target.vertices.max(0))
    scale = float(np.linalg.norm(hi - lo))
    if scale <= 0:
        scale = 1.0
    center = (lo + hi) / 2.0
    return center, scale


def _denormalize(X, center, scale):
    blocks = X.blocks.copy()
    lin = blocks[:, :, :3]
    blocks[:, :, 3] = center - np.einsum("nij,j->ni", lin, center) \
        + scale * blocks[:, :, 3]
    return TransformStack(blocks)


def _shape_with_optional_normals(vertices, faces, edges=None):
    shape = Shape(vertices=vertices, faces=faces, edges=edges)
    if faces is not None and len(faces):
        normals, _ = compute_vertex_normals(shape)
        shape = replace(shape, normals=normals)
    return shape


def register(template, target, landmarks, cfg):
    """Reweighted outer loop: refresh correspondences by closest point (merged
    with the fixed landmark set), update the inverse-residual weights,
    assemble the sparse system and solve for the transforms warm-started from
    the previous outer iteration.

    Returns a RegistrationResult with transforms mapped back to the original
    coordinate frame and a per-iteration log.
    """
    cfg.validate()
    if landmarks is None:
        landmarks = corrmod.CorrespondenceMap.empty(template.n_vertices)
    if landmarks.n != template.n_vertices:
        raise ValueError("landmark map length does not match template")

    center, scale = _normalizer(template, target)
    tmpl_v = (template.vertices - center) / scale
    targ_v = (target.vertices - center) / scale
    edges = template.edges if len(template.edges) else \
        build_edge_graph(template, cfg.knn_k)
    tmpl = replace(template, vertices=tmpl_v, edges=edges, normals=None)
    targ = _shape_with_optional_normals(targ_v, target.faces)
    if not len(targ.edges) and np.isfinite(cfg.max_dist_factor):
        # the refresh's distance gate needs the target's mean edge length;
        # build a faceless target's kNN graph once, not per outer iteration
        targ = replace(targ, edges=build_edge_graph(targ))
    # the distance gate's unit, the same at every outer iteration
    lbar = mean_edge_length(targ) if np.isfinite(cfg.max_dist_factor) else None

    structure = SystemStructure(tmpl.vertices, edges)
    held = state = None             # l2: (mask, Factorization) of the last solve
    X = TransformStack.identity(tmpl.n_vertices)
    log = []
    converged = False
    # inverse-residual weights approximate an l0 penalty, which exerts no
    # pull on distant landmark anchors; run plain-l1 (binary) weights until
    # the closest-point acquisition phase settles, then start reweighting
    reweight_on = False
    reweights = cfg.variant != "l2" and cfg.reweight
    for outer in range(1, cfg.outer_iters + 1):
        if not reweight_on and log and \
                log[-1]["mean_displacement"] < cfg.reweight_start_tol:
            reweight_on = True
        deformed_v = X.apply(tmpl_v)
        # the template's edges: Shape need not derive them again from faces
        deformed = _shape_with_optional_normals(deformed_v, template.faces, edges)
        refreshed = corrmod.closest_point_refresh(
            deformed, targ, cfg.max_dist_factor, cfg.max_normal_angle, lbar)
        corr = corrmod.merge(landmarks, refreshed)
        if corr.n_matched() == 0:
            raise RuntimeError(f"no correspondences at outer iteration {outer}")
        sys = assemble_system(tmpl, edges, corr, targ.vertices,
                              structure=structure)
        reweighted = reweights and reweight_on
        if reweighted:
            wd, ws = update_weights(X, corr, sys, cfg.eps_data, cfg.eps_smooth)
            sys = replace(sys, w_data=wd, w_smooth=ws)
        if cfg.variant == "l2":
            X_new, returned = solve_l2_baseline(sys, cfg.alpha, held)
            energies = evaluate_energy(X_new, sys, None, cfg.alpha, 0.0)
            inner, factorizations, history = 1, int(returned is not held), []
            held = returned
        else:
            X_new, state = admm_solve(sys, X, cfg)
            energies = evaluate_energy(X_new, sys, state.R, cfg.alpha, cfg.beta)
            # one factorization per inner iteration
            inner = factorizations = state.n_iters
            history = state.residuals
        res = history[-1] if history else (0.0, 0.0)
        disp = float(np.mean(np.linalg.norm(X_new.apply(tmpl_v) - deformed_v,
                                            axis=1)))
        log.append({
            "outer": outer,
            "inner": inner,
            "energies": energies,
            "residuals": {"data": res[0], "smooth": res[1]},
            "residual_history": list(history),
            "matched": corr.n_matched(),
            "mean_displacement": disp,
            "factorizations": factorizations,
            "reweighted": reweighted,
        })
        X = X_new
        if disp < cfg.outer_tol and (reweight_on or not reweights):
            converged = True
            break

    X_out = _denormalize(X, center, scale)
    deformed_shape = Shape(vertices=X_out.apply(template.vertices),
                           faces=template.faces, edges=template.edges)
    return RegistrationResult(transforms=X_out, deformed=deformed_shape,
                              log=log, converged=converged, landmarks=landmarks,
                              final_system=sys, final_state=state,
                              normalization=(center, scale))
