//! Optimization of the local unitaries: alternating sweeps, then a damped
//! Gauss–Newton (Levenberg–Marquardt) finish.
//!
//! **Sweeps.** With all but one local factor fixed, the trace objective is
//! linear in that factor: `tr(T^dag W) = tr(u E)` for a 2x2 environment `E`
//! obtained by partial contraction. The optimal unitary `u` is the polar
//! factor `V U^dag` of the SVD `E = U S V^dag`, achieving `s1 + s2`.
//! Sweeping all factors monotonically increases the objective and carries a
//! random start into the basin of a solution within a few dozen sweeps, but
//! near a solution on a Weyl-chamber edge the coordinate ascent only
//! creeps.
//!
//! **LM finish.** Once the residual `4 - |tr(T^dag W)|` is small, a
//! Levenberg–Marquardt solve over the three SU(2) generators of every
//! local factor plus the global phase minimizes `||W - e^{i phi} T||_F^2`,
//! which converges quadratically onto an exact decomposition. Runs that
//! end the sweep phase with a large residual skip it, so rejections stay
//! cheap. Random restarts make the search reliable enough to serve as a
//! *decision procedure* for decomposability (the approach NuOp takes with
//! generic optimizers, made deterministic and fast here): no step uses the
//! RNG except the restart points.

use crate::ansatz::build_ansatz;
use nsb_math::{haar_su2, max_trace_unitary, Complex64, Mat2, Mat4};
use rand::Rng;

/// Tuning knobs for the sweep phase; the LM finish has none.
#[derive(Clone, Copy, Debug)]
pub struct OptimizerConfig {
    /// Sweep budget per restart. A run that has not reached the handoff
    /// residual by then goes to the LM finish if its residual is below the
    /// LM gate, and is otherwise rejected.
    pub max_sweeps: usize,
    /// The sweep phase of a run ends after this many consecutive sweeps
    /// with improvement below `stall_tol`; the run then goes to the LM
    /// finish if its residual is small, and is otherwise rejected.
    pub stall_sweeps: usize,
    /// Sweep improvement threshold counting as "no progress".
    pub stall_tol: f64,
    /// Stop as converged once `4 - Re tr(T^dag W)` drops below this
    /// residual, in either phase. The default is tight enough that a
    /// converged result reconstructs the target to
    /// `sqrt(2e-12) ~ 1.4e-6` in Frobenius norm.
    pub target_residual: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            max_sweeps: 40,
            stall_sweeps: 8,
            stall_tol: 1e-15,
            target_residual: 1.0e-12,
        }
    }
}

/// Outcome of one optimization: locals, the achieved overlap and the
/// effort spent reaching it.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Optimized local pairs (`bases.len() + 1` of them).
    pub locals: Vec<(Mat2, Mat2)>,
    /// Achieved `|tr(T^dag W)| / 4` in `[0, 1]`.
    pub overlap: f64,
    /// Starting points tried, the identity start included.
    pub restarts: usize,
    /// Alternating sweeps over all starting points.
    pub sweeps: usize,
    /// LM step attempts, accepted or rejected, over all starting points.
    pub lm_iterations: usize,
}

/// Residual below which the sweeps hand a run to the LM finish.
const HANDOFF_RESIDUAL: f64 = 1e-4;
/// Largest residual the LM finish starts from. Runs that end the sweep
/// phase above it sit far from any solution and are rejected as they are.
const LM_GATE: f64 = 1e-2;
/// LM step attempts per run.
const LM_MAX_ITERATIONS: usize = 60;
/// Initial damping, relative to the unit diagonal of `J^T J` (every local
/// generator's Jacobian column has norm 1).
const LM_LAMBDA0: f64 = 1e-3;
/// Damping floor, so the damped normal matrix stays positive definite in
/// floating point when `J` is rank-deficient (gauge directions).
const LM_LAMBDA_MIN: f64 = 1e-12;
/// Damping at which the step has shrunk to nothing and the finish stops.
const LM_LAMBDA_MAX: f64 = 1e8;
/// An accepted step removing less than this share of the cost means the
/// run has settled on a nonzero local minimum: a rejection.
const LM_STALL_GAIN: f64 = 1e-3;
/// Real entries of the residual `W - e^{i phi} T` (16 complex).
const RES_LEN: usize = 32;

/// Reusable scratch buffers for the optimizer.
///
/// One `Workspace` threaded through a restart search makes the inner loops
/// allocation-free: candidate and best locals, the per-sweep suffix
/// products and the LM linear algebra all live in resizable buffers. A
/// capacity-growth counter backs debug assertions that the buffers stop
/// growing after the first restart warms them up.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Current-attempt locals.
    cand: Vec<(Mat2, Mat2)>,
    /// Best locals found so far.
    best: Vec<(Mat2, Mat2)>,
    /// Buffers used within one run.
    scratch: Scratch,
    /// Times any buffer had to grow its capacity.
    grows: usize,
}

/// Per-run buffers of the sweep and LM phases, for `n` locals and
/// `np = 6n + 1` LM parameters.
#[derive(Debug, Default)]
struct Scratch {
    /// Suffix products `A_k` (length `n`), rebuilt each sweep and LM step.
    suffix: Vec<Mat4>,
    /// LM trial locals (length `n`).
    trial: Vec<(Mat2, Mat2)>,
    /// Jacobian of the residual, column-major: `RES_LEN` reals per
    /// parameter.
    jac: Vec<f64>,
    /// Normal matrix `J^T J`, row-major `np x np`.
    normal: Vec<f64>,
    /// Cholesky factor of the damped normal matrix (lower triangle).
    chol: Vec<f64>,
    /// Gradient `J^T r` (length `np`).
    grad: Vec<f64>,
    /// LM step (length `np`).
    step: Vec<f64>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of buffer capacity growths so far. After the first restart of
    /// a search has warmed the buffers, this must stay constant — the
    /// restart loop debug-asserts exactly that.
    pub fn grows(&self) -> usize {
        self.grows
    }

    /// Sizes every buffer for an `n`-local ansatz, counting capacity growth.
    fn prepare(&mut self, n: usize) {
        let np = 6 * n + 1;
        let s = &mut self.scratch;
        if self.cand.capacity() < n
            || self.best.capacity() < n
            || s.suffix.capacity() < n
            || s.trial.capacity() < n
            || s.jac.capacity() < RES_LEN * np
            || s.normal.capacity() < np * np
            || s.chol.capacity() < np * np
            || s.grad.capacity() < np
            || s.step.capacity() < np
        {
            self.grows += 1;
        }
        let id = (Mat2::identity(), Mat2::identity());
        self.cand.resize(n, id);
        self.best.resize(n, id);
        s.suffix.resize(n, Mat4::identity());
        s.trial.resize(n, id);
        s.jac.resize(RES_LEN * np, 0.0);
        s.normal.resize(np * np, 0.0);
        s.chol.resize(np * np, 0.0);
        s.grad.resize(np, 0.0);
        s.step.resize(np, 0.0);
    }
}

/// Optimizes the locals for `target` over the fixed per-layer `bases`,
/// starting from the supplied initial locals.
pub fn optimize_locals(
    target: &Mat4,
    bases: &[Mat4],
    mut locals: Vec<(Mat2, Mat2)>,
    config: &OptimizerConfig,
) -> RunResult {
    assert_eq!(locals.len(), bases.len() + 1, "ansatz shape mismatch");
    let mut ws = Workspace::new();
    ws.prepare(locals.len());
    let run = optimize_slice(
        &target.adjoint(),
        bases,
        &mut locals,
        &mut ws.scratch,
        config,
    );
    RunResult {
        locals,
        overlap: run.overlap,
        restarts: 1,
        sweeps: run.sweeps,
        lm_iterations: run.lm_iterations,
    }
}

/// Outcome of [`optimize_slice`] from one starting point.
struct SliceRun {
    overlap: f64,
    sweeps: usize,
    lm_iterations: usize,
}

/// One run from the given starting locals, entirely in caller-provided
/// storage: sweeps until the run converges, is handed over or stalls, then
/// the LM finish when the residual is small enough to be worth it.
fn optimize_slice(
    t_dag: &Mat4,
    bases: &[Mat4],
    locals: &mut [(Mat2, Mat2)],
    scratch: &mut Scratch,
    config: &OptimizerConfig,
) -> SliceRun {
    let (mut tr, sweeps) = sweep(t_dag, bases, locals, &mut scratch.suffix, config);
    let mut lm_iterations = 0;
    let residual = 4.0 - tr;
    if residual > config.target_residual && residual < LM_GATE {
        (tr, lm_iterations) = lm_finish(t_dag, bases, locals, scratch, config.target_residual);
    }
    SliceRun {
        overlap: tr / 4.0,
        sweeps,
        lm_iterations,
    }
}

/// Fills `suffix[k] = L_{n-1} B_{n-2} ... L_{k+1}` (basis gates
/// interleaved, `suffix[n-1] = I`) from the current locals, so that
/// `W = suffix[k] B_k L_k C_k` with `C_k` the product before `L_k`.
fn fill_suffix(locals: &[(Mat2, Mat2)], bases: &[Mat4], suffix: &mut [Mat4]) {
    let n = locals.len();
    suffix[n - 1] = Mat4::identity();
    for k in (0..n - 1).rev() {
        let mut f = Mat4::kron(&locals[k + 1].0, &locals[k + 1].1);
        if k + 1 < n - 1 {
            f = bases[k + 1] * f;
        }
        suffix[k] = suffix[k + 1] * f;
    }
}

/// The alternating sweep phase. Returns `|tr(T^dag W)|` for the final
/// locals and the number of sweeps run.
///
/// Each sweep builds the suffix products once (right-to-left) and grows
/// the prefix `C_k` incrementally as factors are updated, instead of
/// rebuilding both from scratch for every `k` — ~`n(2n+1)` matmuls per
/// sweep drop to ~`7n`.
fn sweep(
    t_dag: &Mat4,
    bases: &[Mat4],
    locals: &mut [(Mat2, Mat2)],
    suffix: &mut [Mat4],
    config: &OptimizerConfig,
) -> (f64, usize) {
    let n = locals.len();
    debug_assert_eq!(n, bases.len() + 1, "ansatz shape mismatch");
    debug_assert_eq!(suffix.len(), n, "suffix buffer shape mismatch");
    let mut cur = objective(t_dag, locals, bases);
    let mut stalled = 0usize;
    let mut sweeps = 0;
    while sweeps < config.max_sweeps {
        sweeps += 1;
        fill_suffix(locals, bases, suffix);
        let mut c = Mat4::identity();
        let mut last_g = Mat4::identity();
        for k in 0..n {
            // G_k = C_k T^dag A_k where W = A_k L_k C_k; A_k includes the
            // basis gate between L_k and L_{k+1}.
            let a = if k < n - 1 {
                suffix[k] * bases[k]
            } else {
                suffix[k]
            };
            let g = c * *t_dag * a;
            // Update u then v with fresh environments; iterating the pair a
            // few times converges the local subproblem before moving on.
            for _ in 0..3 {
                let e_u = env_u(&g, &locals[k].1);
                locals[k].0 = max_trace_unitary(&e_u);
                let e_v = env_v(&g, &locals[k].0);
                locals[k].1 = max_trace_unitary(&e_v);
            }
            if k + 1 < n {
                c = Mat4::kron(&locals[k].0, &locals[k].1) * c;
                c = bases[k] * c;
            } else {
                last_g = g;
            }
        }
        // tr(T^dag W) = tr(K_{n-1} G_{n-1}) by cyclicity — no need to
        // rebuild the full ansatz just to measure progress.
        let next = (Mat4::kron(&locals[n - 1].0, &locals[n - 1].1) * last_g)
            .trace()
            .abs();
        let gain = next - cur;
        cur = next;
        let residual = 4.0 - cur;
        if residual < config.target_residual || residual < HANDOFF_RESIDUAL {
            break;
        }
        if gain < config.stall_tol {
            stalled += 1;
            if stalled >= config.stall_sweeps {
                break;
            }
        } else {
            stalled = 0;
        }
    }
    (cur, sweeps)
}

/// The LM finish: damped Gauss–Newton on `||W - e^{i phi} T||_F^2` over
/// left-multiplied SU(2) perturbations `exp(i d.sigma/2)` of every `u_k`
/// and `v_k` plus the phase `phi`. At the optimal phase the cost is
/// `2 (4 - |tr(T^dag W)|)`, so the finish stops at twice the target
/// residual. Only cost-decreasing steps are taken, so the trace never
/// drops. Returns `|tr(T^dag W)|` for the final locals and the number of
/// step attempts.
fn lm_finish(
    t_dag: &Mat4,
    bases: &[Mat4],
    locals: &mut [(Mat2, Mat2)],
    s: &mut Scratch,
    target_residual: f64,
) -> (f64, usize) {
    let np = 6 * locals.len() + 1;
    let target = t_dag.adjoint();
    let w = build_ansatz(locals, bases);
    let mut phi = (*t_dag * w).trace().arg();
    let mut cost = distance_sq(&w, &target, phi);
    let mut lambda = LM_LAMBDA0;
    // Growth factor of the damping over consecutive rejected steps.
    let mut nu = 2.0;
    let mut linearized = false;
    let mut iterations = 0;
    while iterations < LM_MAX_ITERATIONS && cost > 2.0 * target_residual {
        if !linearized {
            linearize(&target, bases, locals, phi, s);
            linearized = true;
        }
        iterations += 1;
        s.chol.copy_from_slice(&s.normal);
        for i in 0..np {
            s.chol[i * np + i] += lambda;
        }
        for (x, g) in s.step.iter_mut().zip(&s.grad) {
            *x = -g;
        }
        let solved = cholesky_solve(&mut s.chol, &mut s.step, np);
        let trial_cost = if solved {
            for ((trial, (u, v)), d) in s.trial.iter_mut().zip(&*locals).zip(s.step.chunks_exact(6))
            {
                *trial = (su2_exp(&d[..3]) * *u, su2_exp(&d[3..]) * *v);
            }
            distance_sq(
                &build_ansatz(&s.trial, bases),
                &target,
                phi + s.step[np - 1],
            )
        } else {
            f64::INFINITY
        };
        if trial_cost < cost {
            // Reduction the Gauss–Newton model predicted for this step:
            // -g.d + lambda |d|^2, using (J^T J + lambda I) d = -g.
            let predicted = lambda * dot(&s.step, &s.step) - dot(&s.grad, &s.step);
            let rho = (cost - trial_cost) / predicted;
            let settled = cost - trial_cost < LM_STALL_GAIN * cost;
            locals.copy_from_slice(&s.trial);
            phi += s.step[np - 1];
            cost = trial_cost;
            if settled {
                break;
            }
            // Nielsen's update: shrink the damping by up to 3x when the
            // model predicted the step well, keep it when it did not.
            lambda = (lambda * (1.0 - (2.0 * rho - 1.0).powi(3)).max(1.0 / 3.0)).max(LM_LAMBDA_MIN);
            nu = 2.0;
            linearized = false;
        } else {
            lambda *= nu;
            nu *= 2.0;
            if lambda > LM_LAMBDA_MAX {
                break;
            }
        }
    }
    let tr = (*t_dag * build_ansatz(locals, bases)).trace().abs();
    (tr, iterations)
}

/// Fills the Jacobian, normal matrix and gradient of the LM residual
/// `r = W - e^{i phi} T` at the current locals. Parameter `6k + j` is the
/// generator `G_j = i sigma_j / 2` on `u_k` (`j < 3`) or on `v_k`
/// (`j >= 3`), left-multiplied, so with `W = A_k B_k L_k C_k` its column is
/// `vec(A_k B_k G_j L_k C_k)`; the last parameter is `phi`.
fn linearize(target: &Mat4, bases: &[Mat4], locals: &[(Mat2, Mat2)], phi: f64, s: &mut Scratch) {
    let n = locals.len();
    let np = 6 * n + 1;
    let half_i = Complex64::imag(0.5);
    let paulis = [Mat2::x(), Mat2::y(), Mat2::z()];
    let id = Mat2::identity();
    let gens: [Mat4; 6] = std::array::from_fn(|j| {
        let p = paulis[j % 3].scale(half_i);
        if j < 3 {
            Mat4::kron(&p, &id)
        } else {
            Mat4::kron(&id, &p)
        }
    });
    fill_suffix(locals, bases, &mut s.suffix);
    let mut c = Mat4::identity();
    for (k, (u, v)) in locals.iter().enumerate() {
        let p = Mat4::kron(u, v) * c;
        let a = if k + 1 < n {
            s.suffix[k] * bases[k]
        } else {
            s.suffix[k]
        };
        for (j, g) in gens.iter().enumerate() {
            let col = 6 * k + j;
            write_column(&mut s.jac[col * RES_LEN..][..RES_LEN], &(a * (*g * p)));
        }
        c = if k + 1 < n { bases[k] * p } else { p };
    }
    // After the loop `c` is the full ansatz W.
    let phased = target.scale(Complex64::cis(phi));
    let mut res = [0.0; RES_LEN];
    write_column(&mut res, &(c - phased));
    write_column(
        &mut s.jac[(np - 1) * RES_LEN..][..RES_LEN],
        &phased.scale(-Complex64::I),
    );
    for i in 0..np {
        let ci = &s.jac[i * RES_LEN..][..RES_LEN];
        s.grad[i] = dot(ci, &res);
        for j in 0..=i {
            let d = dot(ci, &s.jac[j * RES_LEN..][..RES_LEN]);
            s.normal[i * np + j] = d;
            s.normal[j * np + i] = d;
        }
    }
}

/// Writes the 16 entries of `m` as interleaved real/imaginary parts.
fn write_column(out: &mut [f64], m: &Mat4) {
    for (idx, pair) in out.chunks_exact_mut(2).enumerate() {
        let z = m.at(idx / 4, idx % 4);
        pair[0] = z.re;
        pair[1] = z.im;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `||W - e^{i phi} T||_F^2`.
fn distance_sq(w: &Mat4, target: &Mat4, phi: f64) -> f64 {
    (*w - target.scale(Complex64::cis(phi))).norm().powi(2)
}

/// `exp(i d.sigma / 2)` for a generator vector `d` of length 3.
fn su2_exp(d: &[f64]) -> Mat2 {
    let h = [d[0] / 2.0, d[1] / 2.0, d[2] / 2.0];
    let theta = (h[0] * h[0] + h[1] * h[1] + h[2] * h[2]).sqrt();
    // sin(theta)/theta, with its Taylor series where the division would
    // lose precision.
    let sinc = if theta < 1e-6 {
        1.0 - theta * theta / 6.0
    } else {
        theta.sin() / theta
    };
    let (c, [x, y, z]) = (theta.cos(), h.map(|e| e * sinc));
    Mat2::from_rows([
        [Complex64::new(c, z), Complex64::new(y, x)],
        [Complex64::new(-y, x), Complex64::new(c, -z)],
    ])
}

/// Solves `A x = b` in place for a symmetric positive definite `n x n`
/// row-major `a` (overwritten by its Cholesky factor) and `b` (overwritten
/// by `x`). Returns false when a pivot is not positive.
fn cholesky_solve(a: &mut [f64], b: &mut [f64], n: usize) -> bool {
    for j in 0..n {
        let row_j = j * n..j * n + j;
        let d = a[j * n + j] - dot(&a[row_j.clone()], &a[row_j.clone()]);
        if d.is_nan() || d <= 0.0 {
            return false;
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            a[i * n + j] = (a[i * n + j] - dot(&a[i * n..i * n + j], &a[row_j.clone()])) / d;
        }
    }
    // Forward substitution L y = b, then back substitution L^T x = y.
    for i in 0..n {
        b[i] = (b[i] - dot(&a[i * n..i * n + i], &b[..i])) / a[i * n + i];
    }
    for i in (0..n).rev() {
        let later: f64 = (i + 1..n).map(|k| a[k * n + i] * b[k]).sum();
        b[i] = (b[i] - later) / a[i * n + i];
    }
    true
}

/// Runs the optimizer from `restarts` starting points (identity locals,
/// then Haar-random ones), returning the best result; stops early when
/// `target_overlap` is reached.
///
/// Allocates a fresh [`Workspace`] per call; hot callers should hold one and
/// use [`optimize_with_restarts_ws`] instead.
pub fn optimize_with_restarts<R: Rng + ?Sized>(
    target: &Mat4,
    bases: &[Mat4],
    restarts: usize,
    target_overlap: f64,
    config: &OptimizerConfig,
    rng: &mut R,
) -> RunResult {
    let mut ws = Workspace::new();
    optimize_with_restarts_ws(
        target,
        bases,
        restarts,
        target_overlap,
        config,
        rng,
        &mut ws,
    )
}

/// [`optimize_with_restarts`] with caller-owned scratch: every restart
/// reuses the workspace buffers, so after the first restart the search
/// performs no allocations (debug-asserted via [`Workspace::grows`]).
#[allow(clippy::too_many_arguments)] // same signature as optimize_with_restarts plus the scratch
pub fn optimize_with_restarts_ws<R: Rng + ?Sized>(
    target: &Mat4,
    bases: &[Mat4],
    restarts: usize,
    target_overlap: f64,
    config: &OptimizerConfig,
    rng: &mut R,
    ws: &mut Workspace,
) -> RunResult {
    let n = bases.len() + 1;
    ws.prepare(n);
    let warm_grows = ws.grows;
    let t_dag = target.adjoint();
    let mut best_overlap = f64::NEG_INFINITY;
    let (mut tried, mut sweeps, mut lm_iterations) = (0, 0, 0);
    for attempt in 0..restarts.max(1) {
        for pair in ws.cand.iter_mut() {
            *pair = if attempt == 0 {
                // First attempt starts from identity locals: cheap and
                // often already optimal for structured targets.
                (Mat2::identity(), Mat2::identity())
            } else {
                (haar_su2(rng), haar_su2(rng))
            };
        }
        let run = optimize_slice(&t_dag, bases, &mut ws.cand, &mut ws.scratch, config);
        debug_assert_eq!(
            ws.grows, warm_grows,
            "optimizer buffers grew after the warm-up"
        );
        tried += 1;
        sweeps += run.sweeps;
        lm_iterations += run.lm_iterations;
        if run.overlap > best_overlap {
            best_overlap = run.overlap;
            ws.best.copy_from_slice(&ws.cand);
        }
        if best_overlap >= target_overlap {
            break;
        }
    }
    RunResult {
        locals: ws.best.clone(),
        overlap: best_overlap,
        restarts: tried,
        sweeps,
        lm_iterations,
    }
}

/// `Re tr(T^dag W)` — the raw objective maximized by the sweeps. At
/// convergence it equals `|tr|` because the phase is absorbed into the
/// local factors.
fn objective(t_dag: &Mat4, locals: &[(Mat2, Mat2)], bases: &[Mat4]) -> f64 {
    let w = build_ansatz(locals, bases);
    (*t_dag * w).trace().abs()
}

/// Environment of `u` in `tr((u (x) v) G)`: returns `E` with the property
/// `tr((u (x) v) G) = tr(u E)`.
fn env_u(g: &Mat4, v: &Mat2) -> Mat2 {
    let mut e = Mat2::zero();
    for i in 0..2 {
        for j in 0..2 {
            let mut acc = Complex64::ZERO;
            for k in 0..2 {
                for l in 0..2 {
                    acc += v.at(k, l) * g.at(2 * j + l, 2 * i + k);
                }
            }
            e[(j, i)] = acc;
        }
    }
    e
}

/// Environment of `v` in `tr((u (x) v) G)`.
fn env_v(g: &Mat4, u: &Mat2) -> Mat2 {
    let mut e = Mat2::zero();
    for k in 0..2 {
        for l in 0..2 {
            let mut acc = Complex64::ZERO;
            for i in 0..2 {
                for j in 0..2 {
                    acc += u.at(i, j) * g.at(2 * j + l, 2 * i + k);
                }
            }
            e[(l, k)] = acc;
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::haar_su2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn environments_linearize_the_trace() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = nsb_math::haar_u4(&mut rng);
        let u = haar_su2(&mut rng);
        let v = haar_su2(&mut rng);
        let direct = (Mat4::kron(&u, &v) * g).trace();
        let via_u = {
            let e = env_u(&g, &v);
            (u * e).trace()
        };
        let via_v = {
            let e = env_v(&g, &u);
            (v * e).trace()
        };
        assert!((direct - via_u).abs() < 1e-10);
        assert!((direct - via_v).abs() < 1e-10);
    }

    #[test]
    fn recovers_local_target_with_zero_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let target = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let run = optimize_with_restarts(
            &target,
            &[],
            4,
            1.0 - 1e-12,
            &OptimizerConfig::default(),
            &mut rng,
        );
        assert!(run.overlap > 1.0 - 1e-10, "overlap {}", run.overlap);
    }

    #[test]
    fn recovers_dressed_basis_with_one_layer() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Mat4::sqrt_iswap();
        let dress = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let target = dress * b * Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let run = optimize_with_restarts(
            &target,
            &[b],
            6,
            1.0 - 1e-12,
            &OptimizerConfig::default(),
            &mut rng,
        );
        assert!(run.overlap > 1.0 - 1e-9, "overlap {}", run.overlap);
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        let b = Mat4::sqrt_iswap();
        let mut rng = StdRng::seed_from_u64(7);
        let dress = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let target = dress * b * Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let cfg = OptimizerConfig::default();
        let mut ws = Workspace::new();
        // Warm the workspace on an unrelated problem (different size).
        let mut warm_rng = StdRng::seed_from_u64(8);
        let _ = optimize_with_restarts_ws(
            &Mat4::swap(),
            &[b, b, b],
            2,
            1.0 - 1e-12,
            &cfg,
            &mut warm_rng,
            &mut ws,
        );
        let mut rng_a = StdRng::seed_from_u64(9);
        let reused =
            optimize_with_restarts_ws(&target, &[b], 4, 1.0 - 1e-12, &cfg, &mut rng_a, &mut ws);
        let mut rng_b = StdRng::seed_from_u64(9);
        let fresh = optimize_with_restarts(&target, &[b], 4, 1.0 - 1e-12, &cfg, &mut rng_b);
        // Same rng seed + same code path => bit-identical outcome, warm or
        // cold buffers.
        assert_eq!(reused.overlap.to_bits(), fresh.overlap.to_bits());
        assert_eq!(reused.locals.len(), fresh.locals.len());
        for ((ru, rv), (fu, fv)) in reused.locals.iter().zip(&fresh.locals) {
            assert!(ru.approx_eq(fu, 0.0) && rv.approx_eq(fv, 0.0));
        }
    }

    #[test]
    fn workspace_stops_growing_after_warmup() {
        let b = Mat4::cnot();
        let cfg = OptimizerConfig::default();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(14);
        let _ = optimize_with_restarts_ws(
            &Mat4::swap(),
            &[b, b, b],
            3,
            1.0 - 1e-12,
            &cfg,
            &mut rng,
            &mut ws,
        );
        let grows_after_first = ws.grows();
        for seed in 15..18 {
            let mut rng = StdRng::seed_from_u64(seed);
            let _ = optimize_with_restarts_ws(
                &Mat4::swap(),
                &[b, b, b],
                3,
                1.0 - 1e-12,
                &cfg,
                &mut rng,
                &mut ws,
            );
        }
        assert_eq!(
            ws.grows(),
            grows_after_first,
            "same-size searches must not grow the workspace again"
        );
    }

    #[test]
    fn edge_targets_finish_within_effort_ceiling() {
        // CPhase- and CNOT-class targets sit on a Weyl-chamber edge where
        // the sweeps alone only creep, and SWAP at three layers is the
        // deepest standard case. The sweep-only optimizer with kick polish
        // spent 66k-88k sweeps on each of these; with the LM finish they
        // take a few restarts' worth of sweeps and one run's LM budget.
        let cfg = OptimizerConfig::default();
        for (name, target, layers) in [
            ("cphase(pi/8)", Mat4::cphase(std::f64::consts::PI / 8.0), 2),
            ("cnot", Mat4::cnot(), 2),
            ("swap", Mat4::swap(), 3),
        ] {
            // The decomposer's search: seed, 12 restarts, error 1e-7.
            let mut rng = StdRng::seed_from_u64(0x5eed);
            let bases = vec![Mat4::sqrt_iswap(); layers];
            let run = optimize_with_restarts(&target, &bases, 12, 1.0 - 2e-8, &cfg, &mut rng);
            assert!(
                4.0 * (1.0 - run.overlap) < cfg.target_residual,
                "{name}: overlap {}",
                run.overlap
            );
            assert!(
                run.sweeps <= 4 * cfg.max_sweeps,
                "{name}: {} sweeps",
                run.sweeps
            );
            assert!(
                run.lm_iterations <= LM_MAX_ITERATIONS,
                "{name}: {} LM iterations",
                run.lm_iterations
            );
            assert!(run.restarts <= 4, "{name}: {} restarts", run.restarts);
        }
    }

    #[test]
    fn lm_jacobian_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let target = nsb_math::haar_u4(&mut rng);
        let bases = [Mat4::sqrt_iswap(), Mat4::cnot()];
        let locals: Vec<_> = (0..3)
            .map(|_| (haar_su2(&mut rng), haar_su2(&mut rng)))
            .collect();
        let phi = 0.4;
        let mut ws = Workspace::new();
        ws.prepare(locals.len());
        linearize(&target, &bases, &locals, phi, &mut ws.scratch);
        let np = 6 * locals.len() + 1;
        let residual = |params: &[f64]| {
            let moved: Vec<_> = locals
                .iter()
                .zip(params.chunks_exact(6))
                .map(|((u, v), d)| (su2_exp(&d[..3]) * *u, su2_exp(&d[3..]) * *v))
                .collect();
            let mut out = [0.0; RES_LEN];
            let w = build_ansatz(&moved, &bases);
            write_column(
                &mut out,
                &(w - target.scale(Complex64::cis(phi + params[np - 1]))),
            );
            out
        };
        let h = 1e-6;
        for p in 0..np {
            let mut plus = vec![0.0; np];
            let mut minus = vec![0.0; np];
            plus[p] = h;
            minus[p] = -h;
            let (rp, rm) = (residual(&plus), residual(&minus));
            for (i, col) in ws.scratch.jac[p * RES_LEN..][..RES_LEN].iter().enumerate() {
                let fd = (rp[i] - rm[i]) / (2.0 * h);
                assert!(
                    (fd - col).abs() < 1e-8,
                    "param {p} entry {i}: {fd} vs {col}"
                );
            }
        }
        // The normal matrix and gradient are J^T J and J^T r.
        let r0 = residual(&vec![0.0; np]);
        let col = |p: usize| &ws.scratch.jac[p * RES_LEN..][..RES_LEN];
        for i in 0..np {
            assert!((ws.scratch.grad[i] - dot(col(i), &r0)).abs() < 1e-12);
            for j in 0..np {
                assert!((ws.scratch.normal[i * np + j] - dot(col(i), col(j))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_solve_inverts_spd_system() {
        // A = M^T M + I for a fixed M, b = A x for a known x.
        let n = 5;
        let m: Vec<f64> = (0..n * n).map(|k| ((k * 7 % 11) as f64) - 5.0).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = (0..n).map(|k| m[k * n + i] * m[k * n + j]).sum::<f64>()
                    + if i == j { 1.0 } else { 0.0 };
            }
        }
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
        let mut b: Vec<f64> = (0..n).map(|i| dot(&a[i * n..][..n], &x)).collect();
        assert!(cholesky_solve(&mut a, &mut b, n));
        for (got, want) in b.iter().zip(&x) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        let mut not_pd = vec![1.0, 2.0, 2.0, 1.0];
        assert!(!cholesky_solve(&mut not_pd, &mut [1.0, 1.0], 2));
    }

    #[test]
    fn monotone_progress_on_hard_target() {
        // 2 layers of CNOT cannot make SWAP: overlap must stay below 1 but
        // the optimizer should still do clearly better than a random start.
        let mut rng = StdRng::seed_from_u64(6);
        let run = optimize_with_restarts(
            &Mat4::swap(),
            &[Mat4::cnot(), Mat4::cnot()],
            6,
            1.0 - 1e-12,
            &OptimizerConfig::default(),
            &mut rng,
        );
        assert!(run.overlap < 1.0 - 1e-3, "SWAP from 2 CNOTs is impossible");
        assert!(run.overlap > 0.5, "optimizer made no progress");
    }
}
