"""Registration solvers: the inner splitting loop with closed-form updates,
the reweighted outer loop, and the comparison baselines."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import correspondence as corrmod
from .geometry import (
    DEFAULT_KNN,
    Shape,
    build_edge_graph,
    mean_edge_length,
    with_normals,
)
from .operators import (
    SystemMatrices,
    SystemStructure,
    TransformStack,
    assemble_system,
    block_shrink,
    factorize_system,
    project_rotations,
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

# internals of the inner loop's penalty continuation and of both stopping
# rules; read at call time, so a test may patch them
MU_INIT = 1.0               # mu1 and mu2 both start here
RHO = 2.0                   # and both grow by this factor per inner iteration
INNER_TOL = 1e-6            # primal residual that ends the inner loop
OUTER_TOL = 1e-7            # mean displacement, fraction of bbox diagonal
REWEIGHT_START_TOL = 2e-3   # displacement level that ends acquisition


@dataclass
class SolverConfig:
    """The settings a run chooses; each is a ``register`` / ``compare`` flag
    and a ``--config`` key.

    ``register`` solves in a frame scaled to unit bounding-box diagonal, which
    makes the reweighting floors ``eps_data`` / ``eps_smooth`` and the
    module's tolerances scale-meaningful.
    """

    alpha: float = 1.0            # smoothness weight
    beta: float = 0.1             # rotation-penalty weight
    eps_data: float = 0.01
    eps_smooth: float = 0.01
    outer_iters: int = 20
    inner_iters: int = 20
    variant: str = "dual_sparse"
    reweight: bool = True
    max_dist_factor: float = 3.0  # closest-point gate, multiples of target l_bar
    knn_k: int = DEFAULT_KNN

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # the default's type is the field's: an int passes for a float,
            # and a bool only for a bool
            kind = type(f.default)
            accepted = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
            if not isinstance(value, accepted) or \
                    isinstance(value, bool) != (kind is bool):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and np.isnan(value):
                raise ValueError(f"{f.name} must not be NaN")
        if self.eps_data <= 0 or self.eps_smooth <= 0:
            raise ValueError("reweighting floors must be positive")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.max_dist_factor <= 0:
            raise ValueError("max_dist_factor must be positive (inf: no gate)")
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
    R: np.ndarray | None   # (N, 3, 3); None at beta = 0, which never projects
    Y1: np.ndarray
    Y2: np.ndarray
    mu1: float
    mu2: float
    residuals: list = field(default_factory=list)  # (r_data, r_smooth) per iter
    n_iters: int = 0
    converged: bool = False


def evaluate_energy(X, sys, R, alpha, beta):
    """Per-term energies of the weighted model: l1 data, l1 smoothness,
    squared deviation of the linear parts from ``R`` (from their nearest
    rotations when ``R`` is None), and the weighted total."""
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
    norm over sqrt(rows)) drop below ``INNER_TOL``; both penalties start at
    ``MU_INIT`` and grow by ``RHO`` per iteration.
    """
    n, ne = sys.structure.n, len(sys.w_smooth)
    X = X_init
    Y1 = np.zeros((n, 3))
    Y2 = np.zeros((ne, 3))
    mu1 = mu2 = MU_INIT
    R = None
    C = np.zeros((n, 3))
    A = np.zeros((ne, 3))
    history = []
    converged = False
    wU = sys.w_data[:, None] * sys.U_f
    data_update = DATA_UPDATES[cfg.variant]
    VT, BT = sys.structure.data_transpose, sys.structure.B.T
    G1 = sys.data_residual(X)
    G2 = sys.smooth_residual(X)
    k = 0
    for k in range(1, cfg.inner_iters + 1):
        C = data_update(G1, Y1, mu1)
        A = shrink(G2 - Y2 / mu2, cfg.alpha / mu2)
        # transform update: exact minimizer of the augmented Lagrangian in X;
        # the rotation penalty enters with coefficient 2*beta (gradient of the
        # squared Frobenius term), as 2*beta R_i^T in rows 0-2 of block i
        handle = factorize_system(mu1, mu2, 2.0 * cfg.beta, sys)
        rhs = VT(sys.w_data[:, None] * (Y1 + mu1 * (C + wU))) \
            + BT @ (sys.w_smooth[:, None] * (Y2 + mu2 * A))
        if cfg.beta > 0:
            R = project_rotations(X)
            rhs.reshape(n, 4, 3)[:, :3] += 2.0 * cfg.beta * R.transpose(0, 2, 1)
        X = solve_X(handle, rhs)
        G1 = sys.data_residual(X)
        G2 = sys.smooth_residual(X)
        Y1 = Y1 + mu1 * (C - G1)
        Y2 = Y2 + mu2 * (A - G2)
        r1 = float(np.linalg.norm(C - G1) / np.sqrt(max(n, 1)))
        r2 = float(np.linalg.norm(A - G2) / np.sqrt(max(ne, 1)))
        history.append((r1, r2))
        mu1 *= RHO
        mu2 *= RHO
        if max(r1, r2) < INNER_TOL:
            converged = True
            break
    state = AdmmState(X=X, C=C, A=A, R=R, Y1=Y1, Y2=Y2, mu1=mu1, mu2=mu2,
                      residuals=history, n_iters=k, converged=converged)
    return X, state


def update_weights(X_prev, sys, eps_data, eps_smooth):
    """Inverse-residual diagonal weights; ``sys`` has binary data and unit
    smoothness weights, as ``assemble_system`` makes it. Data weight i is
    1 / (l1 residual of vertex i + eps) where vertex i is matched
    (``sys.w_data`` > 0), else 0; smoothness weight for edge (i, j) is
    1 / (l1 of X_i v_i - X_j v_i + eps). Residuals use the previous outer
    iteration's transforms (identity on the first iteration).
    """
    data_res = np.abs(sys.data_residual(X_prev)).sum(axis=1)
    w_data = np.where(sys.w_data > 0, 1.0 / (data_res + eps_data), 0.0)
    edge_res = np.abs(sys.smooth_residual(X_prev)).sum(axis=1)
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
        binary = replace(sys, w_data=w, w_smooth=np.ones(len(sys.w_smooth)))
        held = mask, factorize_system(1.0, alpha, 0.0, binary)
    return solve_X(held[1], sys.structure.data_transpose(w[:, None] * sys.U_f)), held


@dataclass
class RegistrationResult:
    transforms: TransformStack      # in original (unnormalized) coordinates
    deformed: Shape
    log: list                       # one dict per outer iteration
    converged: bool
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
    if landmarks.mapping.max(initial=0) > target.n_vertices:
        raise ValueError(f"landmark target index {landmarks.mapping.max() - 1} "
                         f"out of range [0, {target.n_vertices})")

    center, scale = _normalizer(template, target)
    tmpl_v = (template.vertices - center) / scale
    targ_v = (target.vertices - center) / scale
    edges = template.edges if len(template.edges) else \
        build_edge_graph(template, cfg.knn_k)
    # a meshed target's own edges: Shape need not derive them again from faces
    meshed = target.faces is not None and len(target.faces)
    targ = with_normals(Shape(vertices=targ_v, faces=target.faces,
                              edges=target.edges if meshed else None))
    # one search tree over the fixed target serves its kNN graph and every
    # closest-point refresh (lazy: scipy.spatial would slow `import nrreg`)
    from scipy.spatial import cKDTree
    tree = cKDTree(targ.vertices)
    gate = np.inf
    if np.isfinite(cfg.max_dist_factor):
        # the gate is a multiple of the target's mean edge length; a faceless
        # target's kNN graph is built for it once, not per outer iteration
        if not len(targ.edges):
            targ = replace(targ, edges=build_edge_graph(targ, DEFAULT_KNN, tree))
        gate = cfg.max_dist_factor * mean_edge_length(targ)

    structure = SystemStructure(tmpl_v, edges)
    held = state = None             # l2: (mask, Factorization) of the last solve
    X = TransformStack.identity(template.n_vertices)
    log = []
    converged = False
    # inverse-residual weights approximate an l0 penalty, which exerts no
    # pull on distant landmark anchors; run plain-l1 (binary) weights until
    # the closest-point acquisition phase settles, then reweight to the end
    reweights = cfg.variant != "l2" and cfg.reweight
    reweighted = False
    deformed_v = X.apply(tmpl_v)
    for outer in range(1, cfg.outer_iters + 1):
        if reweights and log and \
                log[-1]["mean_displacement"] < REWEIGHT_START_TOL:
            reweighted = True
        # the template's edges: Shape need not derive them again from faces
        deformed = with_normals(Shape(vertices=deformed_v, faces=template.faces,
                                      edges=edges))
        refreshed = corrmod.closest_point_refresh(deformed, targ, gate,
                                                  tree=tree)
        corr = corrmod.merge(landmarks, refreshed)
        if corr.n_matched() == 0:
            raise RuntimeError(f"no correspondences at outer iteration {outer}")
        sys = assemble_system(structure, corr, targ.vertices)
        if reweighted:
            wd, ws = update_weights(X, sys, cfg.eps_data, cfg.eps_smooth)
            sys = replace(sys, w_data=wd, w_smooth=ws)
        if cfg.variant == "l2":
            if held is not None and not np.array_equal(sys.w_data > 0, held[0]):
                held = None     # a new mask: free the old factorization first
            factorizations = int(held is None)
            X_new, held = solve_l2_baseline(sys, cfg.alpha, held)
            energies = evaluate_energy(X_new, sys, None, cfg.alpha, 0.0)
            inner, history = 1, []
        else:
            X_new, state = admm_solve(sys, X, cfg)
            energies = evaluate_energy(X_new, sys, state.R, cfg.alpha, cfg.beta)
            # one factorization per inner iteration
            inner = factorizations = state.n_iters
            history = state.residuals
        new_v = X_new.apply(tmpl_v)
        disp = float(np.mean(np.linalg.norm(new_v - deformed_v, axis=1)))
        log.append({
            "outer": outer,
            "inner": inner,
            "energies": energies,
            "residual_history": list(history),
            "matched": corr.n_matched(),
            "mean_displacement": disp,
            "factorizations": factorizations,
            "reweighted": reweighted,
        })
        X, deformed_v = X_new, new_v
        if disp < OUTER_TOL and reweighted == reweights:
            converged = True
            break

    X_out = _denormalize(X, center, scale)
    deformed_shape = Shape(vertices=X_out.apply(template.vertices),
                           faces=template.faces, edges=template.edges)
    return RegistrationResult(transforms=X_out, deformed=deformed_shape,
                              log=log, converged=converged,
                              final_system=sys, final_state=state,
                              normalization=(center, scale))
