//! Power behaviour similarity clustering (paper §2.1.3, Algorithm 1).
//!
//! Divides a network's operators into **power blocks** — contiguous layer
//! ranges with similar power behaviour — producing the **power view** that
//! PowerLens instruments:
//!
//! 1. scale the depthwise features ([`powerlens_numeric::Scaler`]),
//! 2. quantify pairwise **power distance** with the *Mahalanobis distance*
//!    (the covariance matrix normalizes feature scales; its pseudo-inverse
//!    handles collinear features),
//! 3. blend in the **operator-spacing regularization** `exp(-λ·|i-j|)` so
//!    that only physically adjacent operators cluster together,
//! 4. run **DBSCAN**(ε, minPts) over the blended distance matrix,
//! 5. post-process (`processClusters`) so blocks are contiguous,
//!    non-overlapping, and cover the whole network.
//!
//! One faithful-to-intent deviation from the paper's pseudocode: Algorithm 1
//! line 12 literally *adds* `exp(-λ|i-j|)`, which is a proximity (large for
//! adjacent operators), to a distance. Taken literally this would push
//! adjacent operators apart, contradicting the stated motivation ("ensure
//! that only physically adjacent operators are considered"). We therefore
//! blend the *complement*: `α·D̂ + (1-α)·(1 - exp(-λ|i-j|))`, with `D̂` the
//! max-normalized Mahalanobis matrix, so adjacency reduces distance exactly
//! as the prose describes.
//!
//! # Example
//!
//! ```
//! use powerlens_cluster::{cluster_graph, ClusterParams};
//! use powerlens_dnn::zoo;
//!
//! let g = zoo::resnet34();
//! let view = cluster_graph(&g, &ClusterParams::default()).unwrap();
//! assert!(view.num_blocks() >= 1);
//! assert_eq!(view.blocks().last().unwrap().end, g.num_layers());
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use powerlens_dnn::Graph;
use powerlens_features::depthwise_features;
use powerlens_numeric::{
    covariance, euclidean, mahalanobis, pseudo_inverse, Matrix, NumericError, Scaler, Whitener,
};
use powerlens_obs as obs;

/// Hyperparameters of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// DBSCAN neighbourhood radius over the blended distance (ε).
    pub epsilon: f64,
    /// DBSCAN minimum neighbours for a core point (minPts).
    pub min_pts: usize,
    /// Blend weight between feature distance and spacing term (α).
    pub alpha: f64,
    /// Spacing decay rate (λ).
    pub lambda: f64,
    /// Local smoothing radius applied to the scaled features before the
    /// distance computation. DNN bodies interleave heterogeneous operators
    /// (conv / norm / activation) in short repeating units; without
    /// smoothing, DBSCAN chains *same-type* operators across the whole
    /// network instead of grouping *adjacent* ones. Averaging each layer's
    /// features over `2·radius + 1` neighbours turns the repeating unit into
    /// a stage-level power signature, which is what the paper's power blocks
    /// capture (its `processClusters` "adjusting size, shape, or membership"
    /// plays the same role).
    pub smooth_radius: usize,
}

impl Default for ClusterParams {
    /// Mid-range defaults; PowerLens normally *predicts* ε and minPts per
    /// network with the hyperparameter model.
    fn default() -> Self {
        ClusterParams {
            epsilon: 0.15,
            min_pts: 4,
            alpha: 0.7,
            lambda: 0.08,
            smooth_radius: 4,
        }
    }
}

/// Averages each row of `x` with its neighbours within `radius` rows
/// (truncated at the matrix edges). `radius == 0` returns `x` unchanged.
///
/// Edge windows are renormalized by their **actual** size `hi - lo`, not
/// the full `2·radius + 1`, so the first/last `radius` rows are true local
/// means rather than being biased toward zero — a constant input stays
/// constant everywhere, including the edges (see the edge-preservation
/// regression test).
///
/// Implemented as a column prefix-sum sliding window: each window sum is
/// the difference of two prefix values, so the cost is O(n·d) regardless
/// of the radius (the naive per-row rescan is O(n·d·radius)).
pub fn smooth_features(x: &Matrix, radius: usize) -> Matrix {
    if radius == 0 {
        return x.clone();
    }
    let n = x.rows();
    let d = x.cols();
    // prefix[(i+1)·d + j] = Σ_{r ≤ i} x[(r, j)], with an all-zero row 0.
    let mut prefix = vec![0.0; (n + 1) * d];
    for i in 0..n {
        let row = x.row(i);
        for j in 0..d {
            prefix[(i + 1) * d + j] = prefix[i * d + j] + row[j];
        }
    }
    let mut out = Matrix::zeros(n, d);
    for i in 0..n {
        let lo = i.saturating_sub(radius);
        let hi = (i + radius + 1).min(n);
        let span = (hi - lo) as f64;
        let out_row = out.row_mut(i);
        for j in 0..d {
            out_row[j] = (prefix[hi * d + j] - prefix[lo * d + j]) / span;
        }
    }
    out
}

/// One power block: the contiguous layer range `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PowerBlock {
    /// First layer id of the block (inclusive).
    pub start: usize,
    /// One past the last layer id (exclusive).
    pub end: usize,
}

impl PowerBlock {
    /// Number of layers in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the block contains no layers (never produced by
    /// [`process_clusters`]).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The power view: a partition of the network into contiguous power blocks
/// (the "logical intermediate representation" of §2.1.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerView {
    blocks: Vec<PowerBlock>,
    num_layers: usize,
}

impl PowerView {
    /// Builds a view from blocks; validates the partition.
    ///
    /// # Panics
    ///
    /// Panics if blocks are empty, overlapping, or leave gaps.
    pub fn new(blocks: Vec<PowerBlock>) -> Self {
        assert!(!blocks.is_empty(), "power view needs at least one block");
        let mut expected = 0;
        for b in &blocks {
            assert!(!b.is_empty(), "empty power block {b:?}");
            assert_eq!(b.start, expected, "blocks must tile the layer range");
            expected = b.end;
        }
        PowerView {
            blocks,
            num_layers: expected,
        }
    }

    /// The blocks in layer order.
    pub fn blocks(&self) -> &[PowerBlock] {
        &self.blocks
    }

    /// Number of power blocks (Table 1's "Block" column).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total layers covered.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The block containing layer `id`, if in range.
    pub fn block_of(&self, id: usize) -> Option<&PowerBlock> {
        self.blocks.iter().find(|b| b.start <= id && id < b.end)
    }

    /// Builds a view **without validating** the partition.
    ///
    /// Intended for deserializers and for the `powerlens-lint` test suite,
    /// which needs to construct overlapping / gapped views on purpose. Code
    /// paths that accept views from outside [`process_clusters`] should run
    /// the lint view pack over the result instead of trusting it.
    pub fn from_blocks_unchecked(blocks: Vec<PowerBlock>, num_layers: usize) -> Self {
        PowerView { blocks, num_layers }
    }
}

/// One blended element: `α · m/scale + (1-α) · spacing`, where `spacing`
/// is `1 - exp(-λ|i-j|)` for the pair.
fn blended(m: f64, spacing: f64, scale: f64, alpha: f64) -> f64 {
    alpha * m / scale + (1.0 - alpha) * spacing
}

/// Blends a raw Mahalanobis matrix with the operator-spacing term:
/// `α · d/scale + (1-α) · (1 - exp(-λ|i-j|))`, zero diagonal.
fn blend_spacing(d: &Matrix, d_max: f64, alpha: f64, lambda: f64) -> Matrix {
    let n = d.rows();
    let scale = if d_max > 0.0 { d_max } else { 1.0 };
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let spacing = 1.0 - (-lambda * (i as f64 - j as f64).abs()).exp();
                out[(i, j)] = blended(d[(i, j)], spacing, scale, alpha);
            }
        }
    }
    out
}

/// The scaled feature rows in whitened coordinates, where plain Euclidean
/// distance is the Mahalanobis distance of the scaled rows.
fn whiten(features: &Matrix) -> Result<Matrix, NumericError> {
    let x = Scaler::fit(features)?.transform(features)?;
    let cov = covariance(&x)?;
    Whitener::from_covariance(&cov)?.whiten(&x)
}

/// Computes the blended power-distance matrix (Algorithm 1 lines 1-12):
/// `α · D̂ + (1-α) · (1 - exp(-λ|i-j|))` with `D̂` the max-normalized
/// Mahalanobis distance over the *scaled* feature rows.
///
/// The Mahalanobis step whitens the scaled rows once
/// ([`powerlens_numeric::Whitener`]) and measures plain Euclidean distance
/// over whitened coordinates — O(n·d² + n²·d) instead of the per-pair
/// quadratic form's O(n²·d²). The build is sequential and allocates one
/// n×n buffer, the result: the raw distances fill its upper triangle, each
/// row is blended in place, and the triangle is mirrored tile by tile.
/// Callers parallelize across graphs (dataset workers, serve workers,
/// `plan-batch`), never inside one.
///
/// The spacing term depends only on the exact integer gap `|i-j|`, so it
/// comes from an n-entry table instead of one `exp` per pair — the same
/// bits as evaluating it per pair.
///
/// # Errors
///
/// Propagates numeric errors (empty input, non-finite features,
/// eigendecomposition failure).
pub fn power_distance_matrix(
    features: &Matrix,
    alpha: f64,
    lambda: f64,
) -> Result<Matrix, NumericError> {
    let started = Instant::now();
    let z = whiten(features)?;
    let n = z.rows();
    let mut out = Matrix::zeros(n, n);
    let mut d_max = 0.0f64;
    for i in 0..n {
        let zi = z.row(i);
        for (j, slot) in out.row_mut(i).iter_mut().enumerate().skip(i + 1) {
            let m = euclidean(zi, z.row(j));
            d_max = d_max.max(m);
            *slot = m;
        }
    }
    let scale = if d_max > 0.0 { d_max } else { 1.0 };
    let spacing: Vec<f64> = (0..n).map(|k| 1.0 - (-lambda * k as f64).exp()).collect();
    for i in 0..n {
        // Row i's upper part holds gaps 1, 2, ...: one contiguous pass.
        for (slot, &s) in out.row_mut(i)[i + 1..].iter_mut().zip(&spacing[1..]) {
            *slot = blended(*slot, s, scale, alpha);
        }
    }
    // Mirror the upper triangle in square tiles, so the column-order
    // writes stay within a few cache lines.
    const TILE: usize = 32;
    let data = out.as_mut_slice();
    for ti in (0..n).step_by(TILE) {
        for tj in (ti..n).step_by(TILE) {
            for i in ti..(ti + TILE).min(n) {
                for j in tj.max(i + 1)..(tj + TILE).min(n) {
                    data[j * n + i] = data[i * n + j];
                }
            }
        }
    }
    if obs::enabled() {
        obs::histogram("cluster.distance_ms", started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// The seed's per-pair Mahalanobis implementation of
/// [`power_distance_matrix`] — O(n²·d²), sequential.
///
/// Kept as the ground truth for the whitened fast path: property tests
/// assert element-wise agreement within 1e-9, and the criterion benches
/// quote the before/after.
///
/// # Errors
///
/// Propagates numeric errors (empty input, non-finite features,
/// eigendecomposition failure).
pub fn power_distance_matrix_reference(
    features: &Matrix,
    alpha: f64,
    lambda: f64,
) -> Result<Matrix, NumericError> {
    let x = Scaler::fit(features)?.transform(features)?;
    let cov = covariance(&x)?;
    let p = pseudo_inverse(&cov)?;
    let n = x.rows();
    let mut d = Matrix::zeros(n, n);
    let mut d_max: f64 = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let m = mahalanobis(x.row(i), x.row(j), &p)?;
            d[(i, j)] = m;
            d[(j, i)] = m;
            d_max = d_max.max(m);
        }
    }
    Ok(blend_spacing(&d, d_max, alpha, lambda))
}

/// DBSCAN over a precomputed distance matrix (Algorithm 1 line 13).
///
/// Returns one label per point: `Some(cluster)` or `None` for noise.
///
/// Boundary semantics match standard DBSCAN (and the paper's Algorithm 1):
/// the ε-neighbourhood `N(p) = {q : dist(p, q) ≤ ε}` **includes `p`
/// itself** (the diagonal is zero), and `p` is a core point iff
/// `|N(p)| ≥ minPts` — so a point with exactly `minPts - 1` *other*
/// neighbours is core, and one with `minPts - 2` others is not (see the
/// `min_pts` boundary regression tests).
///
/// # Panics
///
/// Panics if `dist` is not square.
pub fn dbscan(dist: &Matrix, epsilon: f64, min_pts: usize) -> Vec<Option<usize>> {
    assert_eq!(dist.rows(), dist.cols(), "distance matrix must be square");
    let n = dist.rows();
    let neighbours = |i: usize| -> Vec<usize> {
        (0..n).filter(|&j| dist[(i, j)] <= epsilon).collect() // includes i
    };
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut cluster = 0;
    let mut expansions: u64 = 0;
    for i in 0..n {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        let ns = neighbours(i);
        if ns.len() < min_pts {
            continue; // noise (may be adopted by a later cluster)
        }
        labels[i] = Some(cluster);
        let mut queue = ns;
        while let Some(q) = queue.pop() {
            expansions += 1;
            if labels[q].is_none() {
                labels[q] = Some(cluster);
            }
            if !visited[q] {
                visited[q] = true;
                let qn = neighbours(q);
                if qn.len() >= min_pts {
                    queue.extend(qn);
                }
            }
        }
        cluster += 1;
    }
    if obs::enabled() {
        obs::counter("cluster.dbscan.iterations", expansions);
        obs::counter("cluster.dbscan.clusters", cluster as u64);
    }
    labels
}

/// Post-processing (`processClusters`, Algorithm 1 line 14): converts raw
/// DBSCAN labels into contiguous, non-overlapping power blocks covering the
/// whole network.
///
/// * consecutive layers with the same label form a run;
/// * noise layers are absorbed into the preceding run (or the following one
///   at the start);
/// * runs shorter than `min_len` are merged into their neighbour so no
///   degenerate single-op blocks remain.
///
/// # Panics
///
/// Panics if `labels` is empty.
pub fn process_clusters(labels: &[Option<usize>], min_len: usize) -> PowerView {
    assert!(!labels.is_empty(), "no layers to post-process");
    // Build maximal runs of equal label, attaching noise to the open run.
    let mut runs: Vec<(Option<usize>, usize, usize)> = Vec::new(); // (label, start, end)
    for (i, &l) in labels.iter().enumerate() {
        match runs.last_mut() {
            Some((label, _, end)) if *end == i && (*label == l || l.is_none()) => {
                *end = i + 1;
            }
            _ => {
                // Leading noise opens an anonymous run that the next labelled
                // run will swallow.
                if l.is_none() {
                    if let Some((_, _, end)) = runs.last_mut() {
                        *end = i + 1;
                        continue;
                    }
                }
                runs.push((l, i, i + 1));
            }
        }
    }
    // Merge a leading anonymous run into the following one.
    if runs.len() > 1 && runs[0].0.is_none() {
        let (_, start, _) = runs.remove(0);
        runs[0].1 = start;
    }
    // Merge adjacent runs with the same label (noise in between was
    // absorbed above), then enforce the minimum block length.
    let mut blocks: Vec<PowerBlock> = Vec::new();
    let mut merged: Vec<(Option<usize>, usize, usize)> = Vec::new();
    let mut merges: u64 = 0;
    for run in runs {
        match merged.last_mut() {
            Some((label, _, end)) if *label == run.0 && run.0.is_some() => {
                *end = run.2;
                merges += 1;
            }
            _ => merged.push(run),
        }
    }
    for (_, start, end) in merged {
        if end - start < min_len {
            if let Some(prev) = blocks.last_mut() {
                prev.end = end;
                merges += 1;
                continue;
            }
        }
        blocks.push(PowerBlock { start, end });
    }
    if obs::enabled() {
        obs::counter("cluster.postprocess.merges", merges);
    }
    // A trailing short block may still exist if it was first; also the very
    // first block may be shorter than min_len when the whole net is tiny.
    PowerView::new(blocks)
}

/// The expensive, sweep-invariant middle of Algorithm 1: depthwise
/// features, smoothing, and the blended whitened distance matrix, computed
/// once and reused across every (ε, minPts) evaluation.
///
/// The matrix depends only on the features and on the *shape* parameters
/// (`alpha`, `lambda`, `smooth_radius`); the DBSCAN parameters (`epsilon`,
/// `min_pts`) only threshold it. A hyperparameter sweep — `plan_oracle`
/// scoring every scheme — therefore builds one `DistanceCache` and calls
/// [`DistanceCache::cluster`] per point, paying the O(n·d² + n²·d)
/// distance cost once instead of once per point. [`cluster_graph`] is
/// exactly `build` + `cluster`, so cached sweeps are result-identical to
/// from-scratch calls (see the sweep-incrementality property test).
///
/// Next to the matrix the cache keeps a neighbour index: every row's
/// columns sorted by distance bucket, built once with the matrix. Each
/// ε-neighbourhood a re-threshold asks for is then a row prefix found by
/// binary search plus one exactly-checked tie bucket, so a query costs the
/// size of its region, not a full row. The index takes 3 bytes per pair
/// on top of the matrix's 8, and caps a cache at 65,536 layers.
#[derive(Debug, Clone)]
pub struct DistanceCache {
    num_layers: usize,
    feature_dim: usize,
    alpha: f64,
    lambda: f64,
    smooth_radius: usize,
    dist: Matrix,
    index: NeighbourIndex,
}

/// Most layers a [`DistanceCache`] holds: its [`NeighbourIndex`] stores
/// columns as `u16`.
const MAX_LAYERS: usize = 1 << 16;

/// Bucket width divisor of [`quant_bucket`]. The blended distance is
/// bounded by `alpha + (1 - alpha) = 1`, so 170 buckets per unit spreads
/// real distances across ~170 of the 256 buckets with saturation headroom.
const QUANT_SCALE: f64 = 170.0;

/// Maps a distance to its index bucket: `d·170` truncated and saturated
/// into `0..=255` by the `as` cast, so every negative distance and `-inf`
/// land in bucket 0 and everything at or above 255/170 ≈ 1.5, `+inf`
/// included, in bucket 255. NaN (only reachable through
/// `from_parts_unchecked`) is sent to bucket 255 explicitly, where no
/// prefix can claim it.
///
/// Over non-NaN values the map is monotone (rounding `d·170` and the
/// saturating cast both are), which is all the index's exactness needs:
/// for `b = quant_bucket(d)` and ε's bucket `eb`,
/// - `b < eb` implies `d < ε` — definitely in, read as the row prefix;
/// - `b > eb` implies `d > ε` — definitely out, never read;
/// - `b == eb` is undecided, so the tie bucket alone compares `d <= ε`.
///
/// A NaN entry sits in bucket 255 and fails that comparison, and a NaN ε
/// splits at bucket 0 (see [`dbscan_scan`]), so neither admits a pair.
fn quant_bucket(d: f64) -> u8 {
    if d.is_nan() {
        u8::MAX
    } else {
        (d * QUANT_SCALE) as u8
    }
}

/// Every row of a distance matrix with its columns counting-sorted by
/// [`quant_bucket`], built once per matrix and read by every re-threshold.
///
/// Row `i` owns entries `i·n..(i+1)·n` of both arrays: `cols` lists the
/// row's columns in ascending bucket order (ascending column within one
/// bucket, as the counting sort is stable), and `buckets` holds each
/// entry's bucket, so the entries below a bucket form a prefix that a
/// binary search finds. That is 3 bytes per pair; columns are `u16`, which
/// caps a matrix at [`MAX_LAYERS`] rows.
#[derive(Debug, Clone)]
struct NeighbourIndex {
    n: usize,
    buckets: Vec<u8>,
    cols: Vec<u16>,
}

impl NeighbourIndex {
    /// Indexes the leading `n × n` block of `dist`, `n = dist.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `dist` has more than [`MAX_LAYERS`] rows or fewer columns
    /// than rows.
    fn build(dist: &Matrix) -> Self {
        let n = dist.rows();
        assert!(
            n <= MAX_LAYERS,
            "a distance index holds at most {MAX_LAYERS} rows, got {n}"
        );
        let mut buckets = vec![0u8; n * n];
        let mut cols = vec![0u16; n * n];
        let mut row_buckets = vec![0u8; n];
        for i in 0..n {
            // Counts per bucket, then each bucket's next free slot.
            let mut next = [0u32; 256];
            for (b, &d) in row_buckets.iter_mut().zip(&dist.row(i)[..n]) {
                *b = quant_bucket(d);
                next[usize::from(*b)] += 1;
            }
            let mut start = 0u32;
            for slot in next.iter_mut() {
                let count = *slot;
                *slot = start;
                start += count;
            }
            let row = i * n;
            for (j, &b) in row_buckets.iter().enumerate() {
                let k = row + next[usize::from(b)] as usize;
                next[usize::from(b)] += 1;
                buckets[k] = b;
                cols[k] = j as u16;
            }
        }
        NeighbourIndex { n, buckets, cols }
    }

    /// Row `i`'s ε-neighbourhood, split in two: the returned prefix holds
    /// the columns whose bucket lies below `eps_bucket`, and `ties` is
    /// refilled with the tie-bucket columns `j` that pass `dist[(i, j)] <=
    /// epsilon`.
    fn region<'a>(
        &'a self,
        dist: &Matrix,
        i: usize,
        epsilon: f64,
        eps_bucket: u8,
        ties: &mut Vec<u16>,
    ) -> &'a [u16] {
        let row = i * self.n..(i + 1) * self.n;
        let buckets = &self.buckets[row.clone()];
        let cols = &self.cols[row];
        let below = buckets.partition_point(|&b| b < eps_bucket);
        let d = dist.row(i);
        ties.clear();
        ties.extend(
            buckets[below..]
                .iter()
                .zip(&cols[below..])
                .take_while(|&(&b, _)| b == eps_bucket)
                .map(|(_, &j)| j)
                .filter(|&j| d[usize::from(j)] <= epsilon),
        );
        &cols[..below]
    }
}

/// Sweep-tuned [`dbscan`]: identical labels, restructured for the many
/// re-thresholds a [`DistanceCache`] serves. Three changes over the
/// reference:
///
/// - **Region queries read the [`NeighbourIndex`]**: a binary search on
///   the row's sorted buckets finds the prefix that lies below ε's bucket,
///   and only the tie bucket compares the exact `f64`. A query touches its
///   region plus `log n` bytes instead of a full row, and stays bit-exact
///   with respect to `d <= epsilon` (see [`quant_bucket`]).
/// - **Region queries reuse one scratch buffer** for the tie bucket
///   instead of allocating a fresh `Vec` per query.
/// - **Adoption happens at discovery and each point enters the queue at
///   most once**, instead of pushing whole neighbour lists (with
///   duplicates) and labelling at pop time. Equivalent, because within one
///   expansion every discovered point gets the same cluster id, and
///   expansions run to completion before the next seed — so "first cluster
///   to push" and "first cluster to discover" are the same cluster, and
///   the set of expanded core points is unchanged.
///
/// DBSCAN's outcome depends only on the *membership* of each
/// ε-neighbourhood (core status, core-core connectivity, and
/// first-reaching-cluster adoption are all set-level properties, and
/// clusters are discovered in ascending seed order either way), so the
/// bucket order in which the index lists a region changes no label. Both
/// implementations agree exactly — pinned across the production ε×minPts
/// grid by the `distance_cache_sweep_equals_from_scratch` property test
/// and on bucket edges, ties and non-finite values by
/// `index_matches_dbscan_on_edge_values`, which compare every cached
/// re-threshold against plain [`dbscan`] + [`process_clusters`].
fn dbscan_scan(
    dist: &Matrix,
    index: &NeighbourIndex,
    epsilon: f64,
    min_pts: usize,
) -> Vec<Option<usize>> {
    let n = index.n;
    // A NaN ε splits at bucket 0, whose exact check fails for every entry.
    let eps_bucket = if epsilon.is_nan() {
        0
    } else {
        quant_bucket(epsilon)
    };
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut cluster = 0;
    let mut expansions: u64 = 0;
    let mut queue: Vec<u16> = Vec::new();
    let mut ties: Vec<u16> = Vec::new();
    let absorb = |region: &[u16],
                  cluster: usize,
                  labels: &mut [Option<usize>],
                  visited: &mut [bool],
                  queue: &mut Vec<u16>| {
        for &r in region {
            let r = usize::from(r);
            if labels[r].is_none() {
                labels[r] = Some(cluster);
            }
            if !visited[r] {
                visited[r] = true;
                queue.push(r as u16);
            }
        }
    };
    // Each point is queried exactly once per run (either as an outer-loop
    // seed or when popped from the queue).
    for i in 0..n {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        let below = index.region(dist, i, epsilon, eps_bucket, &mut ties);
        if below.len() + ties.len() < min_pts {
            continue; // noise (may be adopted by a later cluster)
        }
        labels[i] = Some(cluster);
        queue.clear();
        absorb(below, cluster, &mut labels, &mut visited, &mut queue);
        absorb(&ties, cluster, &mut labels, &mut visited, &mut queue);
        while let Some(q) = queue.pop() {
            expansions += 1;
            let below = index.region(dist, usize::from(q), epsilon, eps_bucket, &mut ties);
            if below.len() + ties.len() < min_pts {
                continue; // border point: adopted, never expanded
            }
            absorb(below, cluster, &mut labels, &mut visited, &mut queue);
            absorb(&ties, cluster, &mut labels, &mut visited, &mut queue);
        }
        cluster += 1;
    }
    if obs::enabled() {
        obs::counter("cluster.dbscan.iterations", expansions);
        obs::counter("cluster.dbscan.clusters", cluster as u64);
    }
    labels
}

impl DistanceCache {
    /// Extracts features from `graph` and precomputes the blended distance
    /// matrix for the shape parameters in `params` (`epsilon` / `min_pts`
    /// are ignored here — they belong to [`DistanceCache::cluster`]).
    ///
    /// Emits the `cluster.feature_extract_ms` phase histogram when
    /// observability is on; [`power_distance_matrix`] emits
    /// `cluster.distance_ms`.
    ///
    /// # Errors
    ///
    /// [`NumericError::TooLarge`] for a graph of more than 65,536 layers,
    /// before the distance matrix is allocated; otherwise propagates
    /// numeric errors from the distance computation.
    pub fn build(graph: &Graph, params: &ClusterParams) -> Result<Self, NumericError> {
        let started = Instant::now();
        let x = depthwise_features(graph);
        if obs::enabled() {
            obs::histogram(
                "cluster.feature_extract_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
        }
        Self::from_features(&x, params)
    }

    /// Builds the cache from an already-extracted feature matrix (one row
    /// per layer).
    ///
    /// # Errors
    ///
    /// [`NumericError::TooLarge`] for more than 65,536 rows, before the
    /// distance matrix is allocated; otherwise propagates numeric errors
    /// from the distance computation.
    pub fn from_features(features: &Matrix, params: &ClusterParams) -> Result<Self, NumericError> {
        if features.rows() > MAX_LAYERS {
            return Err(NumericError::TooLarge {
                op: "DistanceCache",
                rows: features.rows(),
                max: MAX_LAYERS,
            });
        }
        let smoothed = smooth_features(features, params.smooth_radius);
        let dist = power_distance_matrix(&smoothed, params.alpha, params.lambda)?;
        Ok(Self::from_parts_unchecked(
            features.rows(),
            features.cols(),
            params,
            dist,
        ))
    }

    /// `true` when the cache was built with the same shape parameters
    /// (`alpha`, `lambda`, `smooth_radius`) — i.e. when its matrix is valid
    /// for clustering under `params`.
    pub fn matches(&self, params: &ClusterParams) -> bool {
        self.alpha == params.alpha
            && self.lambda == params.lambda
            && self.smooth_radius == params.smooth_radius
    }

    /// The cheap tail of Algorithm 1 over the cached matrix: DBSCAN with
    /// `params`' ε/minPts, then `processClusters`.
    ///
    /// Emits the `cluster.dbscan_ms` phase histogram when observability is
    /// on.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `params`' shape parameters differ from the
    /// ones the matrix was built with — a sweep varying `alpha`, `lambda`,
    /// or `smooth_radius` must rebuild the cache. (Release builds return a
    /// silently stale view; the `PL108` lint rule catches the structural
    /// half of this.)
    pub fn cluster(&self, params: &ClusterParams) -> PowerView {
        debug_assert!(
            self.matches(params),
            "DistanceCache built for (alpha {}, lambda {}, smooth {}) asked to cluster \
             with (alpha {}, lambda {}, smooth {})",
            self.alpha,
            self.lambda,
            self.smooth_radius,
            params.alpha,
            params.lambda,
            params.smooth_radius,
        );
        debug_assert_eq!(
            self.dist.rows(),
            self.num_layers,
            "DistanceCache matrix rows must equal the layer count"
        );
        let started = Instant::now();
        let labels = dbscan_scan(&self.dist, &self.index, params.epsilon, params.min_pts);
        let view = process_clusters(&labels, params.min_pts.max(2));
        if obs::enabled() {
            obs::histogram("cluster.dbscan_ms", started.elapsed().as_secs_f64() * 1e3);
        }
        view
    }

    /// Layer count (rows of the cached matrix).
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Dimensionality of the feature rows the matrix was computed from.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The cached blended distance matrix.
    pub fn distance(&self) -> &Matrix {
        &self.dist
    }

    /// Shape parameters the matrix was built with:
    /// `(alpha, lambda, smooth_radius)`.
    pub fn shape_params(&self) -> (f64, f64, usize) {
        (self.alpha, self.lambda, self.smooth_radius)
    }

    /// Assembles a cache **without validating** that `dist` matches the
    /// recorded dimensions.
    ///
    /// Intended for deserializers and for the `powerlens-lint` test suite,
    /// which needs to construct mismatched caches on purpose (`PL108`).
    /// Code paths that accept caches from outside [`DistanceCache::build`]
    /// should run `lint_distance_cache` over the result instead of
    /// trusting it.
    ///
    /// # Panics
    ///
    /// Panics if `dist` has more than 65,536 rows or fewer columns than
    /// rows: the neighbour index cannot hold it.
    pub fn from_parts_unchecked(
        num_layers: usize,
        feature_dim: usize,
        params: &ClusterParams,
        dist: Matrix,
    ) -> Self {
        let index = NeighbourIndex::build(&dist);
        DistanceCache {
            num_layers,
            feature_dim,
            alpha: params.alpha,
            lambda: params.lambda,
            smooth_radius: params.smooth_radius,
            dist,
            index,
        }
    }
}

/// Runs the complete Algorithm 1 on a graph: features → scaling →
/// Mahalanobis + spacing blend → DBSCAN → post-processing.
///
/// One-shot form of [`DistanceCache::build`] + [`DistanceCache::cluster`];
/// sweeps over ε/minPts should hold the cache and call `cluster` per point.
///
/// # Errors
///
/// Propagates numeric errors from the distance computation.
pub fn cluster_graph(graph: &Graph, params: &ClusterParams) -> Result<PowerView, NumericError> {
    let _span = obs::span("cluster_graph");
    Ok(DistanceCache::build(graph, params)?.cluster(params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;

    #[test]
    fn power_view_validates_partition() {
        let v = PowerView::new(vec![
            PowerBlock { start: 0, end: 3 },
            PowerBlock { start: 3, end: 7 },
        ]);
        assert_eq!(v.num_blocks(), 2);
        assert_eq!(v.num_layers(), 7);
        assert_eq!(v.block_of(3), Some(&PowerBlock { start: 3, end: 7 }));
        assert_eq!(v.block_of(7), None);
    }

    #[test]
    #[should_panic(expected = "tile the layer range")]
    fn power_view_rejects_gaps() {
        PowerView::new(vec![
            PowerBlock { start: 0, end: 3 },
            PowerBlock { start: 4, end: 7 },
        ]);
    }

    #[test]
    fn dbscan_two_obvious_clusters() {
        // Points 0-2 mutually close, 3-5 mutually close, far across.
        let mut d = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let same = (i < 3) == (j < 3);
                d[(i, j)] = if same { 0.1 } else { 10.0 };
            }
        }
        let labels = dbscan(&d, 0.5, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert!(labels.iter().all(|l| l.is_some()));
    }

    #[test]
    fn dbscan_marks_outliers_noise() {
        let mut d = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    d[(i, j)] = if i < 3 && j < 3 { 0.1 } else { 50.0 };
                }
            }
        }
        let labels = dbscan(&d, 1.0, 2);
        assert!(labels[3].is_none());
        assert!(labels[0].is_some());
    }

    #[test]
    fn dbscan_core_at_exactly_min_pts_neighbours() {
        // Boundary semantics: N(p) includes p itself. With min_pts = 3,
        // a point with exactly 2 *other* in-range neighbours (|N| = 3) is
        // core; a point with only 1 other (|N| = 2) is not.
        let mut d = Matrix::zeros(5, 5);
        for i in 0..5 {
            for j in 0..5 {
                if i == j {
                    continue;
                }
                // {0,1,2} mutually close; {3,4} a close pair far from the rest.
                let same = (i < 3) == (j < 3);
                d[(i, j)] = if same { 0.1 } else { 10.0 };
            }
        }
        let labels = dbscan(&d, 0.5, 3);
        // |N| = 3 = min_pts exactly: core, clustered.
        assert!(labels[0].is_some() && labels[1].is_some() && labels[2].is_some());
        assert_eq!(labels[0], labels[2]);
        // |N| = 2 < min_pts: not core, not adopted by anything -> noise.
        assert!(labels[3].is_none() && labels[4].is_none());
    }

    #[test]
    fn dbscan_singleton_core_when_min_pts_one() {
        // min_pts = 1: every point's neighbourhood (itself) suffices.
        let mut d = Matrix::zeros(2, 2);
        d[(0, 1)] = 9.0;
        d[(1, 0)] = 9.0;
        let labels = dbscan(&d, 0.5, 1);
        assert!(labels[0].is_some() && labels[1].is_some());
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn caches_refuse_more_layers_than_the_index_holds() {
        let x = Matrix::zeros(MAX_LAYERS + 1, 14);
        let err = DistanceCache::from_features(&x, &ClusterParams::default()).unwrap_err();
        assert_eq!(
            err,
            NumericError::TooLarge {
                op: "DistanceCache",
                rows: 65_537,
                max: 65_536,
            }
        );
    }

    #[test]
    #[should_panic(expected = "at most 65536 rows")]
    fn unchecked_parts_beyond_the_layer_cap_panic() {
        // No columns, so the n×n index is refused before it is allocated.
        let dist = Matrix::zeros(MAX_LAYERS + 1, 0);
        DistanceCache::from_parts_unchecked(1, 1, &ClusterParams::default(), dist);
    }

    #[test]
    fn smoothing_preserves_constant_input_at_edges() {
        // Renormalizing by the actual (truncated) window size means a
        // constant signal passes through exactly — including the first and
        // last `radius` rows, which would shrink toward zero if the window
        // were divided by the full 2r+1.
        let x = Matrix::from_rows(&vec![vec![3.5, -2.0, 0.25]; 9]).unwrap();
        for radius in [1, 2, 4, 20] {
            let s = smooth_features(&x, radius);
            for i in 0..x.rows() {
                for j in 0..x.cols() {
                    assert!(
                        (s[(i, j)] - x[(i, j)]).abs() < 1e-12,
                        "radius {radius} row {i} col {j}: {} vs {}",
                        s[(i, j)],
                        x[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn process_clusters_absorbs_noise() {
        let labels = vec![Some(0), Some(0), None, Some(0), Some(1), Some(1)];
        let v = process_clusters(&labels, 2);
        assert_eq!(v.num_blocks(), 2);
        assert_eq!(v.blocks()[0], PowerBlock { start: 0, end: 4 });
        assert_eq!(v.blocks()[1], PowerBlock { start: 4, end: 6 });
    }

    #[test]
    fn process_clusters_merges_short_runs() {
        let labels = vec![
            Some(0),
            Some(0),
            Some(0),
            Some(1),
            Some(2),
            Some(2),
            Some(2),
        ];
        let v = process_clusters(&labels, 2);
        // The single-layer run of label 1 merges into its predecessor.
        assert_eq!(v.blocks()[0].end, 4);
        assert_eq!(v.num_blocks(), 2);
    }

    #[test]
    fn process_clusters_all_noise_single_block() {
        let labels = vec![None, None, None];
        let v = process_clusters(&labels, 2);
        assert_eq!(v.num_blocks(), 1);
        assert_eq!(v.blocks()[0], PowerBlock { start: 0, end: 3 });
    }

    #[test]
    fn process_clusters_leading_noise() {
        let labels = vec![None, None, Some(0), Some(0)];
        let v = process_clusters(&labels, 2);
        assert_eq!(v.num_blocks(), 1);
        assert_eq!(v.blocks()[0], PowerBlock { start: 0, end: 4 });
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let g = zoo::alexnet();
        let x = powerlens_features::depthwise_features(&g);
        let d = power_distance_matrix(&x, 0.7, 0.1).unwrap();
        assert!(d.is_symmetric(1e-9));
        for i in 0..d.rows() {
            assert_eq!(d[(i, i)], 0.0);
        }
        assert!(d.all_finite());
    }

    #[test]
    fn one_buffer_build_is_bit_identical_to_the_two_buffer_blend() {
        // The two-buffer construction: a raw symmetric Mahalanobis matrix
        // with its max, then `blend_spacing` into a second matrix, with one
        // `exp` per pair for the spacing term.
        let two_buffer = |x: &Matrix, alpha: f64, lambda: f64| {
            let z = whiten(x).unwrap();
            let n = z.rows();
            let mut d = Matrix::zeros(n, n);
            let mut d_max: f64 = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    let m = euclidean(z.row(i), z.row(j));
                    d[(i, j)] = m;
                    d[(j, i)] = m;
                    d_max = d_max.max(m);
                }
            }
            blend_spacing(&d, d_max, alpha, lambda)
        };
        let p = ClusterParams::default();
        for (name, build) in zoo::all_models() {
            let raw = powerlens_features::depthwise_features(&build());
            let smoothed = smooth_features(&raw, p.smooth_radius);
            for (x, alpha, lambda) in [(&smoothed, p.alpha, p.lambda), (&raw, 0.3, 0.25)] {
                let got = power_distance_matrix(x, alpha, lambda).unwrap();
                let want = two_buffer(x, alpha, lambda);
                assert_eq!(got.rows(), want.rows(), "{name}");
                for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{name} element {k}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn spacing_term_increases_distance_with_gap() {
        // Pure spacing (alpha = 0): distance grows with |i - j|.
        let g = zoo::alexnet();
        let x = powerlens_features::depthwise_features(&g);
        let d = power_distance_matrix(&x, 0.0, 0.2).unwrap();
        assert!(d[(0, 1)] < d[(0, 5)]);
        assert!(d[(0, 5)] < d[(0, 10)]);
    }

    #[test]
    fn cluster_graph_tiles_every_zoo_model() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let v = cluster_graph(&g, &ClusterParams::default()).unwrap();
            assert_eq!(v.num_layers(), g.num_layers(), "{name}");
            assert!(v.num_blocks() >= 1, "{name}");
            let covered: usize = v.blocks().iter().map(|b| b.len()).sum();
            assert_eq!(covered, g.num_layers(), "{name}");
        }
    }

    #[test]
    fn vit_clusters_into_few_blocks() {
        // Repeated transformer modules should merge into a small number of
        // blocks (paper observation ③: the ViT encoder is one large block).
        let g = zoo::vit_base_16();
        let v = cluster_graph(
            &g,
            &ClusterParams {
                epsilon: 0.15,
                min_pts: 6,
                ..ClusterParams::default()
            },
        )
        .unwrap();
        assert!(
            v.num_blocks() <= 4,
            "expected few blocks for ViT, got {}",
            v.num_blocks()
        );
    }

    #[test]
    fn smoothing_radius_zero_is_identity() {
        let g = zoo::alexnet();
        let x = powerlens_features::depthwise_features(&g);
        assert_eq!(smooth_features(&x, 0), x);
    }

    #[test]
    fn smoothing_reduces_neighbour_variance() {
        let g = zoo::resnet34();
        let x = powerlens_features::depthwise_features(&g);
        let s = smooth_features(&x, 4);
        let jitter = |m: &Matrix| -> f64 {
            let mut acc = 0.0;
            for i in 1..m.rows() {
                for j in 0..m.cols() {
                    acc += (m[(i, j)] - m[(i - 1, j)]).abs();
                }
            }
            acc
        };
        assert!(jitter(&s) < jitter(&x) * 0.5);
    }

    #[test]
    fn epsilon_controls_granularity() {
        let g = zoo::resnet152();
        let coarse = cluster_graph(
            &g,
            &ClusterParams {
                epsilon: 0.5,
                ..ClusterParams::default()
            },
        )
        .unwrap();
        let fine = cluster_graph(
            &g,
            &ClusterParams {
                epsilon: 0.05,
                ..ClusterParams::default()
            },
        )
        .unwrap();
        assert!(fine.num_blocks() >= coarse.num_blocks());
    }
}
