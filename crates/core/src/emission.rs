//! Shared emission table: `log P(i | s)` for every item × skill level.
//!
//! The assignment DP, the EM posteriors, generation difficulty, prediction
//! and recommendation all evaluate the same emission score
//! `log P(i | s) = Σ_f log P_f(i_f | θ_f(s))` (Eq. 2). That score depends
//! only on the *item*, not on where the action sits in a sequence — and a
//! dataset has far more actions than distinct items (`Σ_u |A_u| ≫ n_items`).
//! Building the full `n_items × S` matrix once per training iteration and
//! reading rows during the DP replaces `O(Σ_u |A_u| · F · S)` distribution
//! evaluations with `O(n_items · F · S)` plus cheap memory reads.
//!
//! The table is a flat row-major `Vec<f64>`: `data[item * S + (s - 1)]`.
//! One row is the emission vector of one item at all levels, contiguous in
//! memory, so the DP inner loop walks a cache line instead of re-deriving
//! log-PMFs.
//!
//! ## Columnar fill
//!
//! The fill itself is *columnar*: item feature values are gathered once
//! per feature into flat columns (`FeatureColumn`), hoisting the enum
//! dispatch and the per-item transcendentals (`ln x`, `ln k!`, integer →
//! float widening) out of the `S × n_items` loop. A [`Dataset`] gathers
//! its catalog once, on first use, so builds and refreshes after the
//! first read the held columns instead of gathering again. Each
//! (feature, level) pair is then evaluated by one batch kernel
//! (`log_prob_batch` / `log_pmf_batch` / `log_pdf_batch`) over a
//! contiguous unit-stride run of cells. Every cell accumulates its
//! feature contributions in schema order starting from `0.0` — the exact
//! operation order of [`SkillModel::item_log_likelihood`]'s feature sum —
//! so the table agrees with the direct path *bitwise*, not approximately
//! (pinned by `tests/properties_emission.rs`). The original cell-by-cell
//! fill is kept as [`EmissionTable::build_scalar`], the reference baseline
//! for tests and `bench_emission`.
//!
//! For memory-bound deployments, [`CompactEmissionTable`] stores the same
//! scores rounded once to `f32` (still accumulated in f64), halving the
//! resident table behind the `ParallelConfig::with_emission_f32` flag.

use crate::dist::special::ln_factorial;
use crate::dist::{score_kind_mismatch, FeatureDistribution};
use crate::error::{CoreError, Result};
use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
use crate::model::SkillModel;
use crate::types::{skill_level_from_index, Dataset, ItemId, SkillLevel};

/// Minimum items per stolen work unit in [`EmissionTable::build_parallel`].
const PARALLEL_CHUNK: usize = 64;

/// Item-tile width of the cache-blocked sequential fill
/// ([`EmissionTable::build`] and [`EmissionTable::refresh_levels`]).
///
/// Per tile the fill touches the gathered columns (≈ `3 × 8` bytes per
/// item per feature), the level-major scratch (`tile × S` f64), and the
/// output window (`tile × S` f64) — ~200 kB at 2048 items, S = 5,
/// F = 3, comfortably inside a per-core L2 — where the whole-axis fill
/// streams `n_items × S` buffers (2 MB at 50 k items) through every
/// kernel pass. Tile size changes no per-cell operation order, so every
/// choice is bitwise identical; 2048 is flat-optimal on this host
/// (within noise from 1024 to 4096).
const ITEM_TILE: usize = 2048;

/// One gathered feature column: the values of a single feature for a run
/// of items, with the per-item transforms the scalar path recomputes for
/// every level (integer → float widening, `ln k!`, `ln x`) hoisted out so
/// they are paid once across all `S` level kernels.
#[derive(Debug, Clone)]
enum FeatureColumn {
    /// Category codes for [`crate::dist::Categorical::log_prob_batch`].
    Categorical(Vec<u32>),
    /// Counts widened to `f64` plus `ln k!` for
    /// [`crate::dist::Poisson::log_pmf_batch`].
    Count {
        /// `k` as `f64`, one slot per item.
        ks: Vec<f64>,
        /// `ln k!`, one slot per item.
        ln_facts: Vec<f64>,
    },
    /// Positive reals plus `ln x` for the gamma / log-normal kernels.
    /// Items failing the scalar density guard (`x ≤ 0` or non-finite)
    /// carry the placeholder pair `(1.0, 0.0)` and are flagged in
    /// `guard`, so the kernels never see invalid inputs and
    /// [`apply_guard`] rewrites those cells to `-inf` afterwards —
    /// exactly the scalar guard result.
    Real {
        /// Sample values (placeholder `1.0` for guarded slots).
        xs: Vec<f64>,
        /// `ln x` (placeholder `0.0` for guarded slots).
        ln_xs: Vec<f64>,
        /// Which slots failed the density guard.
        guard: Vec<bool>,
        /// Fast path: skip the guard walk when nothing is flagged.
        any_guarded: bool,
    },
}

impl FeatureColumn {
    fn with_capacity(kind: FeatureKind, capacity: usize) -> Self {
        match kind {
            FeatureKind::Categorical { .. } => {
                FeatureColumn::Categorical(Vec::with_capacity(capacity))
            }
            FeatureKind::Count => FeatureColumn::Count {
                ks: Vec::with_capacity(capacity),
                ln_facts: Vec::with_capacity(capacity),
            },
            FeatureKind::Positive { .. } => FeatureColumn::Real {
                xs: Vec::with_capacity(capacity),
                ln_xs: Vec::with_capacity(capacity),
                guard: Vec::with_capacity(capacity),
                any_guarded: false,
            },
        }
    }

    /// Appends one value; `false` signals a value whose kind does not
    /// match the column (impossible for schema-validated datasets — the
    /// slot is kept aligned with a neutral placeholder and the caller
    /// poisons the whole item row).
    fn push(&mut self, value: &FeatureValue) -> bool {
        match (self, value) {
            (FeatureColumn::Categorical(cats), FeatureValue::Categorical(c)) => {
                cats.push(*c);
                true
            }
            (FeatureColumn::Count { ks, ln_facts }, FeatureValue::Count(k)) => {
                ks.push(*k as f64);
                ln_facts.push(ln_factorial(*k));
                true
            }
            (
                FeatureColumn::Real {
                    xs,
                    ln_xs,
                    guard,
                    any_guarded,
                },
                FeatureValue::Real(x),
            ) => {
                if *x > 0.0 && x.is_finite() {
                    xs.push(*x);
                    ln_xs.push(x.ln());
                    guard.push(false);
                } else {
                    xs.push(1.0);
                    ln_xs.push(0.0);
                    guard.push(true);
                    *any_guarded = true;
                }
                true
            }
            (column, _) => {
                column.push_placeholder();
                false
            }
        }
    }

    /// Appends a neutral slot so column lengths stay aligned after a
    /// gather-time kind mismatch.
    fn push_placeholder(&mut self) {
        match self {
            FeatureColumn::Categorical(cats) => cats.push(u32::MAX),
            FeatureColumn::Count { ks, ln_facts } => {
                ks.push(0.0);
                ln_facts.push(0.0);
            }
            FeatureColumn::Real {
                xs, ln_xs, guard, ..
            } => {
                xs.push(1.0);
                ln_xs.push(0.0);
                guard.push(false);
            }
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            FeatureColumn::Categorical(_) => "categorical",
            FeatureColumn::Count { .. } => "count",
            FeatureColumn::Real { .. } => "positive real",
        }
    }
}

/// The item catalog gathered into per-feature columns, plus the mask of
/// items whose value tuple failed schema dispatch entirely (dead code for
/// [`Dataset`]-validated items, which are checked at construction): those
/// rows are forced to `-inf` at every level, the release contract of
/// [`score_kind_mismatch`].
///
/// Item features never change after a [`Dataset`] is built, so the
/// dataset gathers its catalog once, on first use, and every table build
/// and refresh, and every [`crate::incremental::StatsGrid`] refit, reads
/// the same columns (see `Dataset::item_columns`).
#[derive(Debug, Clone)]
pub(crate) struct ItemColumns {
    columns: Vec<FeatureColumn>,
    hard_poison: Vec<bool>,
    any_hard: bool,
    /// Item-major integer features for the exact grid statistics: per
    /// item, one absolute category slot per categorical feature (the
    /// feature's offset into the concatenated category counts plus the
    /// code; `u64::MAX` when the code is out of range), then the raw
    /// value of every count feature, each group in schema order.
    ints: Vec<u64>,
    /// Integer slots per item (`n_categorical + n_count`).
    n_ints: usize,
    /// Categorical features per item (the leading slots of an int row).
    n_categorical: usize,
    /// Sum of the categorical cardinalities: the length of one level's
    /// concatenated category counts.
    category_slots: usize,
}

impl ItemColumns {
    /// Gathers `n_rows` item feature tuples against `schema`.
    pub(crate) fn gather<'a>(
        schema: &FeatureSchema,
        items: impl Iterator<Item = &'a [FeatureValue]>,
        n_rows: usize,
    ) -> Self {
        let kinds = schema.kinds();
        let mut columns: Vec<FeatureColumn> = kinds
            .iter()
            .map(|&kind| FeatureColumn::with_capacity(kind, n_rows))
            .collect();
        // Per feature: the categorical offset and cardinality, if any.
        let mut category_slots = 0usize;
        let categorical: Vec<Option<(usize, u32)>> = kinds
            .iter()
            .map(|kind| match *kind {
                FeatureKind::Categorical { cardinality } => {
                    let offset = category_slots;
                    category_slots += cardinality as usize;
                    Some((offset, cardinality))
                }
                _ => None,
            })
            .collect();
        let n_categorical = categorical.iter().flatten().count();
        let n_ints = n_categorical
            + kinds
                .iter()
                .filter(|k| matches!(k, FeatureKind::Count))
                .count();
        let mut ints = Vec::with_capacity(n_rows * n_ints);
        let mut hard_poison = vec![false; n_rows];
        let mut any_hard = false;
        for (features, bad) in items.zip(hard_poison.iter_mut()) {
            if features.len() != columns.len() {
                // A tuple of the wrong width: keep every column aligned
                // and poison the row.
                for column in columns.iter_mut() {
                    column.push_placeholder();
                }
                *bad = true;
                any_hard = true;
            } else {
                for (column, value) in columns.iter_mut().zip(features) {
                    if !column.push(value) {
                        let _ = score_kind_mismatch(column.kind_name(), value.name());
                        *bad = true;
                        any_hard = true;
                    }
                }
            }
            for (layout, f) in categorical.iter().zip(0..) {
                if let Some((offset, cardinality)) = *layout {
                    ints.push(match features.get(f) {
                        Some(FeatureValue::Categorical(c)) if *c < cardinality => {
                            (offset + *c as usize) as u64
                        }
                        _ => u64::MAX,
                    });
                }
            }
            for (kind, f) in kinds.iter().zip(0..) {
                if matches!(kind, FeatureKind::Count) {
                    ints.push(match features.get(f) {
                        Some(FeatureValue::Count(k)) => *k,
                        _ => 0,
                    });
                }
            }
        }
        Self {
            columns,
            hard_poison,
            any_hard,
            ints,
            n_ints,
            n_categorical,
            category_slots,
        }
    }

    /// Length of one level's concatenated category counts.
    pub(crate) fn category_slots(&self) -> usize {
        self.category_slots
    }

    /// Number of count (Poisson) features.
    pub(crate) fn n_counts(&self) -> usize {
        self.n_ints - self.n_categorical
    }

    /// The integer features of one item, split into its absolute
    /// category slots and its raw counts. `None` for an out-of-range
    /// item or one whose tuple failed schema dispatch.
    pub(crate) fn int_row(&self, item: usize) -> Option<(&[u64], &[u64])> {
        if self.hard_poison.get(item).copied().unwrap_or(true) {
            return None;
        }
        let row = self
            .ints
            .get(item * self.n_ints..(item + 1) * self.n_ints)?;
        Some(row.split_at(self.n_categorical))
    }

    /// The `x` and `ln x` columns of positive-real feature `f`, plus its
    /// guard mask when any slot is guarded; `None` when `f` is not a
    /// positive-real feature.
    pub(crate) fn real_column(&self, f: usize) -> Option<RealColumn<'_>> {
        match self.columns.get(f)? {
            FeatureColumn::Real {
                xs,
                ln_xs,
                guard,
                any_guarded,
            } => Some((xs, ln_xs, any_guarded.then_some(guard.as_slice()))),
            _ => None,
        }
    }
}

/// `(x, ln x, guard)` of one positive-real feature; the guard mask is
/// present only when some slot failed the density guard.
pub(crate) type RealColumn<'a> = (&'a [f64], &'a [f64], Option<&'a [bool]>);

/// A [`Dataset`]'s lazily gathered [`ItemColumns`]. Cloning copies the
/// gathered columns; serialization skips them (a deserialized dataset
/// gathers again on first use).
#[derive(Clone, Default)]
pub(crate) struct ItemColumnsCache(std::sync::OnceLock<ItemColumns>);

impl ItemColumnsCache {
    /// The gathered columns, gathering `items` on the first call.
    pub(crate) fn get_or_gather(
        &self,
        schema: &FeatureSchema,
        items: &[Vec<FeatureValue>],
    ) -> &ItemColumns {
        self.0.get_or_init(|| {
            ItemColumns::gather(schema, items.iter().map(Vec::as_slice), items.len())
        })
    }
}

impl std::fmt::Debug for ItemColumnsCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ItemColumnsCache")
            .field("gathered", &self.0.get().is_some())
            .finish()
    }
}

/// Applies one level's distribution to rows `range` of one gathered
/// column, accumulating into a level-major slice of `range.len()` cells.
fn evaluate_column(
    dist: &FeatureDistribution,
    column: &FeatureColumn,
    range: std::ops::Range<usize>,
    out: &mut [f64],
) {
    match (dist, column) {
        (FeatureDistribution::Categorical(d), FeatureColumn::Categorical(cats)) => {
            d.log_prob_batch(&cats[range], out);
        }
        (FeatureDistribution::Poisson(d), FeatureColumn::Count { ks, ln_facts }) => {
            d.log_pmf_batch(&ks[range.clone()], &ln_facts[range], out);
        }
        (
            FeatureDistribution::Gamma(d),
            FeatureColumn::Real {
                xs,
                ln_xs,
                guard,
                any_guarded,
            },
        ) => {
            d.log_pdf_batch(&xs[range.clone()], &ln_xs[range.clone()], out);
            apply_guard(out, &guard[range], *any_guarded);
        }
        (
            FeatureDistribution::LogNormal(d),
            FeatureColumn::Real {
                ln_xs,
                guard,
                any_guarded,
                ..
            },
        ) => {
            d.log_pdf_batch(&ln_xs[range.clone()], out);
            apply_guard(out, &guard[range], *any_guarded);
        }
        (dist, column) => {
            // Distribution / column kind mismatch: loud under debug or
            // strict invariants, the scalar `-inf` contract in release —
            // applied to the whole column at this level.
            let poison = score_kind_mismatch(dist.kind_name(), column.kind_name());
            out.fill(poison);
        }
    }
}

/// Rewrites guard-flagged cells to `-inf`, the scalar density-guard
/// result for non-positive or non-finite samples.
fn apply_guard(out: &mut [f64], guard: &[bool], any_guarded: bool) {
    if !any_guarded {
        return;
    }
    for (cell, &bad) in out.iter_mut().zip(guard) {
        if bad {
            *cell = f64::NEG_INFINITY;
        }
    }
}

/// Fills column `s₀` of rows `range` for level `s₀` into the contiguous
/// `column` scratch (`range.len()` cells): every feature contribution in
/// schema order starting from `0.0`, the exact operation order of
/// [`SkillModel::item_log_likelihood`]'s feature sum, then the
/// hard-poison rows forced to `-inf`.
fn fill_level_column(
    model: &SkillModel,
    columns: &ItemColumns,
    s0: usize,
    range: std::ops::Range<usize>,
    column: &mut [f64],
) {
    column.fill(0.0);
    match model.level_row(skill_level_from_index(s0)) {
        Ok(row) => {
            for (dist, feature_column) in row.iter().zip(&columns.columns) {
                evaluate_column(dist, feature_column, range.clone(), column);
            }
        }
        // Unreachable for `s₀ < S`, but the scalar path scores a
        // missing level row `-inf`, so mirror it.
        Err(_) => column.fill(f64::NEG_INFINITY),
    }
    if columns.any_hard {
        let poison = &columns.hard_poison[range];
        for (cell, &bad) in column.iter_mut().zip(poison) {
            if bad {
                *cell = f64::NEG_INFINITY;
            }
        }
    }
}

/// Fills `out` — item-major rows, `out[j·S + s₀]` for item
/// `range.start + j` — from the columnar kernels, for every level flagged
/// in `levels` (`None` = all levels); unflagged cells are left as they
/// are.
///
/// Each flagged level is evaluated into a contiguous unit-stride scratch
/// column of `range.len()` cells, then scattered into column `s₀` of the
/// rows. Per-cell values are independent of the range, so callers may
/// tile the item axis freely: results are bitwise identical to the
/// scalar path for every tile size.
fn fill_rows_columnar(
    model: &SkillModel,
    columns: &ItemColumns,
    range: std::ops::Range<usize>,
    levels: Option<&[bool]>,
    scratch: &mut Vec<f64>,
    out: &mut [f64],
) {
    let n_levels = model.n_levels();
    debug_assert_eq!(out.len(), range.len() * n_levels);
    if range.is_empty() || n_levels == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(range.len(), 0.0);
    for s0 in 0..n_levels {
        if !levels.is_none_or(|flags| flags.get(s0).copied().unwrap_or(false)) {
            continue;
        }
        fill_level_column(model, columns, s0, range.clone(), scratch);
        for (row, &v) in out.chunks_mut(n_levels).zip(scratch.iter()) {
            if let Some(cell) = row.get_mut(s0) {
                *cell = v;
            }
        }
    }
}

/// Checks that `dataset`'s catalog has the shape a table was built with.
fn check_table_shape(
    n_items: usize,
    n_levels: usize,
    model: &SkillModel,
    dataset: &Dataset,
) -> Result<()> {
    if model.n_levels() != n_levels {
        return Err(CoreError::LengthMismatch {
            context: "emission table levels vs model levels",
            left: n_levels,
            right: model.n_levels(),
        });
    }
    if dataset.n_items() != n_items {
        return Err(CoreError::LengthMismatch {
            context: "emission table items vs dataset items",
            left: n_items,
            right: dataset.n_items(),
        });
    }
    Ok(())
}

/// Precomputed `n_items × S` matrix of emission log-likelihoods.
///
/// Build it once per training iteration (the table is a pure function of
/// the current model parameters and the item feature matrix) and share it
/// across every sequence. After an online or forgetting-path model update
/// that only touches some items, refresh just those rows with
/// [`EmissionTable::refresh_items`] instead of rebuilding.
#[derive(Debug, Clone, PartialEq)]
pub struct EmissionTable {
    n_items: usize,
    n_levels: usize,
    /// Row-major scores: `data[item * n_levels + (s - 1)]`.
    data: Vec<f64>,
}

impl EmissionTable {
    /// Builds the full table sequentially with the columnar kernels,
    /// cache-blocked over item tiles.
    ///
    /// Feature values are gathered into columns per tile (hoisting enum
    /// dispatch and per-item transcendentals out of the `S`-level loop),
    /// then each (feature, level) pair runs one batch kernel over a
    /// contiguous run of cells. Blocking over `ITEM_TILE`-item tiles
    /// keeps each tile's gathered columns plus its level-major scratch
    /// (`ITEM_TILE × S` f64) resident in L2 even when the full
    /// `n_items × S` table is megabytes: every kernel streams a buffer
    /// that was just written. Each cell is a pure function of its own
    /// item's features and level row — tile boundaries change no
    /// operation order within a cell — so results are bitwise identical
    /// to [`EmissionTable::build_scalar`], the direct assignment path,
    /// and the pre-tiling whole-axis fill, for every tile size.
    pub fn build(model: &SkillModel, dataset: &Dataset) -> Self {
        let n_items = dataset.n_items();
        let n_levels = model.n_levels();
        let mut data = vec![0.0f64; n_items * n_levels];
        let mut scratch = Vec::new();
        let columns = dataset.item_columns();
        for (tile, window) in data.chunks_mut((ITEM_TILE * n_levels).max(1)).enumerate() {
            let start = tile * ITEM_TILE;
            let end = start + window.len() / n_levels.max(1);
            fill_rows_columnar(model, columns, start..end, None, &mut scratch, window);
        }
        EmissionTable {
            n_items,
            n_levels,
            data,
        }
    }

    /// Reference cell-by-cell fill: `n_items · S` calls to
    /// [`SkillModel::item_log_likelihood`] through per-value enum
    /// dispatch.
    ///
    /// Kept as the bitwise baseline the columnar [`EmissionTable::build`]
    /// is pinned against (property tests) and as the speedup denominator
    /// in `bench_emission`; production paths never call it.
    pub fn build_scalar(model: &SkillModel, dataset: &Dataset) -> Self {
        let n_items = dataset.n_items();
        let n_levels = model.n_levels();
        let mut data = Vec::with_capacity(n_items * n_levels);
        for features in dataset.items() {
            for s0 in 0..n_levels {
                data.push(model.item_log_likelihood(features, skill_level_from_index(s0)));
            }
        }
        EmissionTable {
            n_items,
            n_levels,
            data,
        }
    }

    /// Builds the table with `threads` workers stealing item chunks.
    ///
    /// The output buffer is allocated once up front and split into
    /// disjoint `PARALLEL_CHUNK`-row windows; workers pop windows from a
    /// shared queue and run the columnar fill *directly into the final
    /// buffer*, so there is no per-chunk row vector and no stitch copy at
    /// the end. Falls back to the sequential build when one thread (or
    /// one chunk) suffices.
    pub fn build_parallel(model: &SkillModel, dataset: &Dataset, threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(CoreError::InvalidParallelism { threads: 0 });
        }
        let n_items = dataset.n_items();
        let n_levels = model.n_levels();
        let n_chunks = n_items.div_ceil(PARALLEL_CHUNK).max(1);
        if threads <= 1 || n_chunks <= 1 || n_levels == 0 {
            return Ok(Self::build(model, dataset));
        }

        let n_workers = threads.min(n_chunks);
        let mut data = vec![0.0f64; n_items * n_levels];
        let columns = dataset.item_columns();
        let worker_results: Vec<Result<()>> = {
            // Ownership of disjoint output windows moves through the
            // queue, so workers write concurrently without aliasing and
            // without any unsafe code.
            let jobs: Vec<(usize, &mut [f64])> = data
                .chunks_mut(PARALLEL_CHUNK * n_levels)
                .enumerate()
                .collect();
            let queue = std::sync::Mutex::new(jobs);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_workers)
                    .map(|_| {
                        let queue = &queue;
                        scope.spawn(move || -> Result<()> {
                            let mut scratch: Vec<f64> = Vec::new();
                            loop {
                                let job = crate::sync::lock(queue).pop();
                                let Some((chunk, window)) = job else {
                                    return Ok(());
                                };
                                let start = chunk * PARALLEL_CHUNK;
                                let end = start + window.len() / n_levels;
                                fill_rows_columnar(
                                    model,
                                    columns,
                                    start..end,
                                    None,
                                    &mut scratch,
                                    window,
                                );
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or(Err(CoreError::WorkerPanicked {
                            step: "emission table",
                        }))
                    })
                    .collect()
            })
        };
        for worker in worker_results {
            worker?;
        }
        Ok(EmissionTable {
            n_items,
            n_levels,
            data,
        })
    }

    /// Number of items (table rows).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of skill levels `S` (table columns).
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// The emission vector of one item at all levels (`row[s - 1]`).
    ///
    /// # Panics
    /// Panics if `item` is out of range; use [`EmissionTable::checked_row`]
    /// when the item id is not already dataset-validated.
    pub fn row(&self, item: ItemId) -> &[f64] {
        let i = item as usize;
        &self.data[i * self.n_levels..(i + 1) * self.n_levels]
    }

    /// Bounds-checked variant of [`EmissionTable::row`].
    pub fn checked_row(&self, item: ItemId) -> Option<&[f64]> {
        let i = item as usize;
        if i >= self.n_items {
            return None;
        }
        Some(&self.data[i * self.n_levels..(i + 1) * self.n_levels])
    }

    /// `log P(item | s)`, mirroring [`SkillModel::item_log_likelihood`]:
    /// out-of-range items or levels score `-inf` (a forbidden DP path)
    /// rather than erroring.
    pub fn log_likelihood(&self, item: ItemId, s: SkillLevel) -> f64 {
        let level = s as usize;
        if level == 0 || level > self.n_levels {
            return f64::NEG_INFINITY;
        }
        match self.checked_row(item) {
            Some(row) => row[level - 1],
            None => f64::NEG_INFINITY,
        }
    }

    /// Incremental invalidation: recomputes only the rows of `items`.
    ///
    /// Online and forgetting paths that re-fit a handful of item-touching
    /// distributions can keep the rest of the table warm. The model and
    /// dataset must have the shapes the table was built with; a stale item
    /// id is reported, not silently skipped.
    pub fn refresh_items(
        &mut self,
        model: &SkillModel,
        dataset: &Dataset,
        items: &[ItemId],
    ) -> Result<()> {
        check_table_shape(self.n_items, self.n_levels, model, dataset)?;
        // Validate every id before touching any row so a stale id cannot
        // leave the table half-refreshed.
        for &item in items {
            let i = item as usize;
            if i >= self.n_items {
                return Err(CoreError::FeatureIndexOutOfBounds {
                    index: i,
                    len: self.n_items,
                });
            }
        }
        let n_levels = self.n_levels;
        let columns = dataset.item_columns();
        let mut scratch = Vec::new();
        for &item in items {
            let i = item as usize;
            let row = &mut self.data[i * n_levels..(i + 1) * n_levels];
            fill_rows_columnar(model, columns, i..i + 1, None, &mut scratch, row);
        }
        Ok(())
    }

    /// Incremental invalidation by *level*: recomputes column `s` of every
    /// item for the levels flagged in `levels` (zero-based, one flag per
    /// level).
    ///
    /// The incremental trainer refits only the levels whose sufficient
    /// statistics changed and reuses the previous iteration's
    /// distributions (bitwise) everywhere else, so the table columns of
    /// untouched levels are still exact — refreshing just the refit
    /// columns costs `n_items · n_refit · F` evaluations instead of a
    /// full `n_items · S · F` rebuild.
    pub fn refresh_levels(
        &mut self,
        model: &SkillModel,
        dataset: &Dataset,
        levels: &[bool],
    ) -> Result<()> {
        check_table_shape(self.n_items, self.n_levels, model, dataset)?;
        if levels.len() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "refresh flags vs levels",
                left: levels.len(),
                right: self.n_levels,
            });
        }
        if !levels.iter().any(|&d| d) || self.n_items == 0 {
            return Ok(());
        }
        // Cache-blocked like `build`: per item tile, evaluate each dirty
        // level into a tile-sized contiguous scratch column, then scatter
        // it into column `s₀` of the tile's rows.
        let n_levels = self.n_levels;
        let columns = dataset.item_columns();
        let mut scratch = Vec::with_capacity(ITEM_TILE.min(self.n_items));
        for (tile, window) in self.data.chunks_mut(ITEM_TILE * n_levels).enumerate() {
            let start = tile * ITEM_TILE;
            let end = start + window.len() / n_levels;
            fill_rows_columnar(
                model,
                columns,
                start..end,
                Some(levels),
                &mut scratch,
                window,
            );
        }
        Ok(())
    }

    /// Scans every cell for poison values — NaN or `+inf` — and reports
    /// the first offender's coordinates. `-inf` is a *legal* score (a
    /// forbidden DP path under Eq. 2) and passes.
    ///
    /// The invariant layer ([`crate::invariants::InvariantCtx`]) calls
    /// this after every build and refresh, so corrupted parameters or a
    /// poisoned dataset are caught before any DP reads the table.
    pub fn verify_finite(&self) -> Result<()> {
        let n_levels = self.n_levels;
        for (idx, &v) in self.data.iter().enumerate() {
            if v.is_nan() || (v.is_infinite() && v.is_sign_positive()) {
                return Err(CoreError::InvariantViolation {
                    check: "emission table",
                    detail: format!(
                        "poison value {v} at item {}, level {}",
                        idx / n_levels,
                        idx % n_levels + 1
                    ),
                });
            }
        }
        Ok(())
    }

    /// Posterior `P(s | item)` under a prior `P(s)` (Eq. 10), read from the
    /// table row. Replicates [`SkillModel::skill_posterior`] step for step
    /// (same log-space max trick, same impossible-item fallback to the
    /// normalized prior) so both paths produce identical distributions.
    pub fn posterior(&self, item: ItemId, prior: &[f64]) -> Result<Vec<f64>> {
        if prior.len() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "skill prior vs levels",
                left: prior.len(),
                right: self.n_levels,
            });
        }
        let row = self
            .checked_row(item)
            .ok_or(CoreError::FeatureIndexOutOfBounds {
                index: item as usize,
                len: self.n_items,
            })?;
        let mut log_post: Vec<f64> = row
            .iter()
            .zip(prior)
            .map(|(&ll, &p)| {
                if p > 0.0 {
                    ll + p.ln()
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        let max = log_post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            // The item is impossible under every level; fall back to the
            // prior itself so downstream code still gets a distribution.
            let total: f64 = prior.iter().sum();
            if total <= 0.0 {
                return Err(CoreError::InvalidProbability {
                    context: "skill prior sum",
                    value: total,
                });
            }
            return Ok(prior.iter().map(|&p| p / total).collect());
        }
        let mut total = 0.0;
        for lp in log_post.iter_mut() {
            *lp = (*lp - max).exp();
            total += *lp;
        }
        for lp in log_post.iter_mut() {
            *lp /= total;
        }
        Ok(log_post)
    }

    /// Expected skill level `Σ_s s · P(s | item)` — the generation-based
    /// difficulty of Eq. 11, evaluated from one table row.
    pub fn expected_level(&self, item: ItemId, prior: &[f64]) -> Result<f64> {
        let post = self.posterior(item, prior)?;
        Ok(post
            .iter()
            .enumerate()
            .map(|(idx, &p)| (idx + 1) as f64 * p)
            .sum())
    }

    /// Expected skill level of every item under one prior — the
    /// generation-based difficulty of Eq. 11 for the whole catalog.
    ///
    /// Bitwise equal to calling [`EmissionTable::expected_level`] per
    /// item: every item runs the same posterior arithmetic in the same
    /// per-item order (log-space max trick, impossible-row fallback to
    /// the normalized prior). `ln P(s)` is hoisted out of the item loop,
    /// and items are processed in level-major blocks so the independent
    /// `exp` and division of neighbouring items overlap.
    pub fn expected_levels(&self, prior: &[f64]) -> Result<Vec<f64>> {
        const BLOCK: usize = 256;
        let n_levels = self.n_levels;
        if prior.len() != n_levels {
            return Err(CoreError::LengthMismatch {
                context: "skill prior vs levels",
                left: prior.len(),
                right: n_levels,
            });
        }
        let ln_prior: Vec<f64> = prior
            .iter()
            .map(|&p| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY })
            .collect();
        // The expected level of an item impossible under every level: the
        // normalized prior's mean, computed on first need.
        let mut fallback: Option<f64> = None;
        let mut lanes = vec![0.0f64; n_levels * BLOCK];
        let mut maxes = vec![0.0f64; BLOCK];
        let mut totals = vec![0.0f64; BLOCK];
        let mut out = Vec::with_capacity(self.n_items);
        for block in self.data.chunks((n_levels * BLOCK).max(1)) {
            let m = block.len() / n_levels.max(1);
            let (maxes, totals) = (&mut maxes[..m], &mut totals[..m]);
            maxes.fill(f64::NEG_INFINITY);
            totals.fill(0.0);
            for (s0, (lane, (&p, &ln_p))) in lanes
                .chunks_mut(BLOCK)
                .zip(prior.iter().zip(&ln_prior))
                .enumerate()
            {
                let column = block.iter().skip(s0).step_by(n_levels);
                for ((cell, &ll), max) in lane.iter_mut().zip(column).zip(maxes.iter_mut()) {
                    *cell = if p > 0.0 {
                        ll + ln_p
                    } else {
                        f64::NEG_INFINITY
                    };
                    *max = max.max(*cell);
                }
            }
            for lane in lanes.chunks_mut(BLOCK) {
                for ((cell, &max), total) in
                    lane.iter_mut().zip(maxes.iter()).zip(totals.iter_mut())
                {
                    *cell = (*cell - max).exp();
                    *total += *cell;
                }
            }
            for lane in lanes.chunks_mut(BLOCK) {
                for (cell, &total) in lane.iter_mut().zip(totals.iter()) {
                    *cell /= total;
                }
            }
            for (j, max) in maxes.iter().enumerate() {
                if max.is_finite() {
                    out.push(
                        lanes
                            .iter()
                            .skip(j)
                            .step_by(BLOCK)
                            .enumerate()
                            .map(|(idx, &p)| (idx + 1) as f64 * p)
                            .sum(),
                    );
                    continue;
                }
                let expected = match fallback {
                    Some(e) => e,
                    None => {
                        let total: f64 = prior.iter().sum();
                        if total <= 0.0 {
                            return Err(CoreError::InvalidProbability {
                                context: "skill prior sum",
                                value: total,
                            });
                        }
                        let e = prior
                            .iter()
                            .map(|&p| p / total)
                            .enumerate()
                            .map(|(idx, p)| (idx + 1) as f64 * p)
                            .sum();
                        *fallback.insert(e)
                    }
                };
                out.push(expected);
            }
        }
        Ok(out)
    }

    /// Resident bytes of the score storage.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

/// Half-width storage for the emission table.
///
/// Scores are computed with the full f64 columnar pipeline, then rounded
/// once to `f32` (round-to-nearest) for storage, halving the resident
/// table — the difference that matters at the ROADMAP's 10–100× item
/// scale, where the f64 table stops fitting in L2. Reads widen back to
/// f64 (exactly) before any DP accumulates them, so the only deviation
/// from [`EmissionTable`] is the one rounding step per cell: ≤ half an
/// f32 ulp, ~6e-8 relative. Gated behind
/// `ParallelConfig::with_emission_f32`; the default f64 table keeps every
/// result bitwise identical to the direct path.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactEmissionTable {
    n_items: usize,
    n_levels: usize,
    /// Row-major scores: `data[item * n_levels + (s - 1)]`.
    data: Vec<f32>,
}

impl CompactEmissionTable {
    /// Rounds a full-precision table to f32 storage.
    pub fn from_table(table: &EmissionTable) -> Self {
        CompactEmissionTable {
            n_items: table.n_items,
            n_levels: table.n_levels,
            data: table.data.iter().map(|&v| v as f32).collect(),
        }
    }

    /// Builds directly from a model and dataset — f64 accumulation
    /// through the columnar kernels, one final rounding to f32.
    pub fn build(model: &SkillModel, dataset: &Dataset) -> Self {
        Self::from_table(&EmissionTable::build(model, dataset))
    }

    /// Number of items (table rows).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of skill levels `S` (table columns).
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Widens one item row into `out` (`out[s - 1]`), returning `false`
    /// when the item is out of range or `out` has the wrong length.
    ///
    /// The assignment DP borrows emission rows as `&[f64]`, so the
    /// compact path fills a caller-owned workspace row instead of
    /// handing out a reference.
    pub fn fill_row(&self, item: ItemId, out: &mut [f64]) -> bool {
        let i = item as usize;
        if i >= self.n_items || out.len() != self.n_levels {
            return false;
        }
        let row = &self.data[i * self.n_levels..(i + 1) * self.n_levels];
        for (dst, &v) in out.iter_mut().zip(row) {
            *dst = f64::from(v);
        }
        true
    }

    /// `log P(item | s)` with the [`EmissionTable::log_likelihood`]
    /// out-of-range contract.
    pub fn log_likelihood(&self, item: ItemId, s: SkillLevel) -> f64 {
        let level = s as usize;
        let i = item as usize;
        if level == 0 || level > self.n_levels || i >= self.n_items {
            return f64::NEG_INFINITY;
        }
        let row = &self.data[i * self.n_levels..(i + 1) * self.n_levels];
        row.get(level - 1)
            .copied()
            .map_or(f64::NEG_INFINITY, f64::from)
    }

    /// Resident bytes of the score storage — half of
    /// [`EmissionTable::memory_bytes`] for the same shape.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution, Poisson};
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::types::{Action, ActionSequence};

    #[test]
    fn refresh_levels_recomputes_only_flagged_columns() {
        let (model_a, ds) = mixed_setup();
        // A second model differing only in the level-2 row.
        let schema = ds.schema().clone();
        let cells = vec![
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.9, 0.1]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(2.0).unwrap()),
            ],
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.3, 0.7]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(4.0).unwrap()),
            ],
        ];
        let model_b = SkillModel::new(schema, 2, cells).unwrap();

        let mut table = EmissionTable::build(&model_a, &ds);
        // No flags set: a no-op.
        table
            .refresh_levels(&model_b, &ds, &[false, false])
            .unwrap();
        let fresh_a = EmissionTable::build(&model_a, &ds);
        for item in 0..ds.n_items() as ItemId {
            assert_eq!(table.row(item), fresh_a.row(item));
        }
        // Refresh only level 2: column 1 must match a fresh build of the
        // new model bit for bit, column 0 must stay the old model's.
        table.refresh_levels(&model_b, &ds, &[false, true]).unwrap();
        let fresh_b = EmissionTable::build(&model_b, &ds);
        for item in 0..ds.n_items() as ItemId {
            assert_eq!(table.row(item)[0].to_bits(), fresh_a.row(item)[0].to_bits());
            assert_eq!(table.row(item)[1].to_bits(), fresh_b.row(item)[1].to_bits());
        }
        // Wrong flag count is an error, not a silent zip.
        assert!(table.refresh_levels(&model_b, &ds, &[true]).is_err());
    }

    fn mixed_setup() -> (SkillModel, Dataset) {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 2 },
            FeatureKind::Count,
        ])
        .unwrap();
        let cells = vec![
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.9, 0.1]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(2.0).unwrap()),
            ],
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.1, 0.9]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(6.0).unwrap()),
            ],
        ];
        let model = SkillModel::new(schema.clone(), 2, cells).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0), FeatureValue::Count(2)],
            vec![FeatureValue::Categorical(1), FeatureValue::Count(7)],
            vec![FeatureValue::Categorical(0), FeatureValue::Count(5)],
        ];
        let seq = ActionSequence::new(
            0,
            vec![
                Action::new(0, 0, 0),
                Action::new(1, 0, 2),
                Action::new(2, 0, 1),
            ],
        )
        .unwrap();
        let ds = Dataset::new(schema, items, vec![seq]).unwrap();
        (model, ds)
    }

    #[test]
    fn columnar_build_matches_scalar_build_bitwise() {
        let (model, ds) = mixed_setup();
        let columnar = EmissionTable::build(&model, &ds);
        let scalar = EmissionTable::build_scalar(&model, &ds);
        assert_eq!(columnar, scalar);
    }

    #[test]
    fn compact_table_rounds_each_cell_once() {
        let (model, ds) = mixed_setup();
        let full = EmissionTable::build(&model, &ds);
        let compact = CompactEmissionTable::from_table(&full);
        assert_eq!(compact, CompactEmissionTable::build(&model, &ds));
        assert_eq!(compact.n_items(), full.n_items());
        assert_eq!(compact.n_levels(), full.n_levels());
        assert_eq!(compact.memory_bytes() * 2, full.memory_bytes());
        let mut row = vec![0.0f64; compact.n_levels()];
        for item in 0..ds.n_items() as ItemId {
            assert!(compact.fill_row(item, &mut row));
            for (s0, &widened) in row.iter().enumerate() {
                let expected = f64::from(full.row(item)[s0] as f32);
                assert_eq!(widened.to_bits(), expected.to_bits());
                let s = (s0 + 1) as SkillLevel;
                assert_eq!(
                    compact.log_likelihood(item, s).to_bits(),
                    expected.to_bits()
                );
            }
        }
        // Out-of-range contracts mirror the f64 table.
        assert!(!compact.fill_row(99, &mut row));
        let mut short = vec![0.0f64; 1];
        assert!(!compact.fill_row(0, &mut short));
        assert_eq!(compact.log_likelihood(0, 0), f64::NEG_INFINITY);
        assert_eq!(compact.log_likelihood(99, 1), f64::NEG_INFINITY);
    }

    #[test]
    fn table_matches_direct_evaluation_bitwise() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        assert_eq!(table.n_items(), 3);
        assert_eq!(table.n_levels(), 2);
        for item in 0..3u32 {
            let features = ds.item_features(item);
            for s in 1..=2u8 {
                let direct = model.item_log_likelihood(features, s);
                assert_eq!(table.log_likelihood(item, s), direct);
                assert_eq!(table.row(item)[s as usize - 1], direct);
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let (model, ds) = mixed_setup();
        let seq_table = EmissionTable::build(&model, &ds);
        // Few items → falls back to sequential, still exact.
        let par_table = EmissionTable::build_parallel(&model, &ds, 4).unwrap();
        assert_eq!(seq_table, par_table);
        assert!(EmissionTable::build_parallel(&model, &ds, 0).is_err());
    }

    #[test]
    fn parallel_build_matches_on_many_items() {
        // More items than one chunk so real workers engage.
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 4 }]).unwrap();
        let cells = vec![
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.4, 0.3, 0.2, 0.1]).unwrap(),
            )],
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.1, 0.2, 0.3, 0.4]).unwrap(),
            )],
        ];
        let model = SkillModel::new(schema.clone(), 2, cells).unwrap();
        let n_items = 3 * super::PARALLEL_CHUNK + 7;
        let items: Vec<Vec<FeatureValue>> = (0..n_items)
            .map(|i| vec![FeatureValue::Categorical((i % 4) as u32)])
            .collect();
        let actions: Vec<Action> = (0..n_items)
            .map(|t| Action::new(t as i64, 0, t as u32))
            .collect();
        let seq = ActionSequence::new(0, actions).unwrap();
        let ds = Dataset::new(schema, items, vec![seq]).unwrap();
        let seq_table = EmissionTable::build(&model, &ds);
        let par_table = EmissionTable::build_parallel(&model, &ds, 3).unwrap();
        assert_eq!(seq_table, par_table);
    }

    #[test]
    fn out_of_range_scores_neg_inf_or_none() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        assert!(table.checked_row(99).is_none());
        assert_eq!(table.log_likelihood(99, 1), f64::NEG_INFINITY);
        assert_eq!(table.log_likelihood(0, 0), f64::NEG_INFINITY);
        assert_eq!(table.log_likelihood(0, 3), f64::NEG_INFINITY);
    }

    #[test]
    fn posterior_matches_model_posterior() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        let prior = [0.3, 0.7];
        for item in 0..3u32 {
            let direct = model
                .skill_posterior(ds.item_features(item), &prior)
                .unwrap();
            let tabled = table.posterior(item, &prior).unwrap();
            assert_eq!(direct, tabled);
        }
        assert!(table.posterior(0, &[1.0]).is_err());
        assert!(table.posterior(42, &prior).is_err());
    }

    #[test]
    fn expected_level_is_prior_weighted_mean() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        let prior = [0.5, 0.5];
        let e = table.expected_level(1, &prior).unwrap();
        let post = table.posterior(1, &prior).unwrap();
        assert!((e - (post[0] + 2.0 * post[1])).abs() < 1e-15);
        assert!((1.0..=2.0).contains(&e));
    }

    #[test]
    fn expected_levels_cover_impossible_rows_and_zero_priors() {
        let (model, ds) = mixed_setup();
        let mut table = EmissionTable::build(&model, &ds);
        // Item 1 is impossible at every level; item 0 at level 1 only.
        table.data[2] = f64::NEG_INFINITY;
        table.data[3] = f64::NEG_INFINITY;
        table.data[0] = f64::NEG_INFINITY;
        for prior in [[0.25, 0.75], [1.0, 0.0], [0.0, 1.0]] {
            let all = table.expected_levels(&prior).unwrap();
            for (item, &e) in all.iter().enumerate() {
                let one = table.expected_level(item as ItemId, &prior).unwrap();
                assert_eq!(e.to_bits(), one.to_bits(), "item {item}, prior {prior:?}");
            }
            // The impossible row falls back to the prior's mean level.
            assert_eq!(all[1], prior[0] + 2.0 * prior[1]);
        }
        // With no prior mass every row is impossible: an error either way.
        assert!(table.expected_levels(&[0.0, 0.0]).is_err());
        assert!(table.expected_level(0, &[0.0, 0.0]).is_err());
        assert!(table.expected_levels(&[1.0]).is_err());
    }

    #[test]
    fn verify_finite_accepts_neg_inf_rejects_nan_and_pos_inf() {
        let (model, ds) = mixed_setup();
        let mut table = EmissionTable::build(&model, &ds);
        assert!(table.verify_finite().is_ok());
        // -inf is a legal "forbidden path" score.
        table.data[3] = f64::NEG_INFINITY;
        assert!(table.verify_finite().is_ok());
        // NaN and +inf are poison; the error names the coordinates.
        table.data[3] = f64::NAN;
        let err = table.verify_finite().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("item 1") && msg.contains("level 2"), "{msg}");
        table.data[3] = f64::INFINITY;
        assert!(table.verify_finite().is_err());
    }

    #[test]
    fn refresh_items_updates_only_requested_rows() {
        let (model, ds) = mixed_setup();
        let mut table = EmissionTable::build(&model, &ds);
        // Perturb two rows, then refresh one of them.
        let s = table.n_levels();
        table.data[0] = 123.0;
        table.data[s] = 456.0; // item 1, level 1
        table.refresh_items(&model, &ds, &[0]).unwrap();
        let fresh = EmissionTable::build(&model, &ds);
        assert_eq!(table.row(0), fresh.row(0));
        assert_eq!(table.row(1)[0], 456.0);
        table.refresh_items(&model, &ds, &[1]).unwrap();
        assert_eq!(table, fresh);
        assert!(table.refresh_items(&model, &ds, &[9]).is_err());
    }
}
