//! Dataset in memory → trained model, generation difficulties and level
//! bands, in two forms: the library trainer as users call it, and a
//! replica of its loop built from the layers' public functions, with a
//! span around each layer call.

use std::collections::BTreeMap;
use std::time::Instant;

use upskill_core::difficulty::{generation_difficulty_all_with_table, SkillPrior};
use upskill_core::emission::EmissionTable;
use upskill_core::error::Result;
use upskill_core::incremental::StatsGrid;
use upskill_core::init::initialize_model;
use upskill_core::model::SkillModel;
use upskill_core::parallel::{assign_all_parallel_with_table, ParallelConfig};
use upskill_core::recommend::{build_level_band, LevelBand, RecommendConfig};
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::types::{Dataset, SkillAssignments, SkillLevel};

use crate::trace::{Span, SpanId, Tracer};

/// What the pipeline hands on: the trained state plus its difficulty and
/// the recommendation band of every level.
pub struct Trained {
    pub model: SkillModel,
    pub assignments: SkillAssignments,
    pub log_likelihood: f64,
    pub iterations: usize,
    pub converged: bool,
    pub difficulty: Vec<f64>,
    pub bands: Vec<LevelBand>,
}

impl Trained {
    /// Bitwise equality of every output, the objective compared by bits.
    pub fn identical(&self, other: &Trained) -> bool {
        let json = |m: &SkillModel| serde_json::to_string(m).ok();
        self.model == other.model
            && json(&self.model) == json(&other.model)
            && self.assignments == other.assignments
            && self.log_likelihood.to_bits() == other.log_likelihood.to_bits()
            && self.iterations == other.iterations
            && self.converged == other.converged
            && self.difficulty.len() == other.difficulty.len()
            && self
                .difficulty
                .iter()
                .zip(&other.difficulty)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.bands == other.bands
    }
}

/// Work counts of one traced training run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub iterations: usize,
    pub levels_refreshed: usize,
    pub actions_assigned: usize,
    pub changed_actions: usize,
    pub delta_passes: usize,
    pub dirty_levels: usize,
    pub msteps: usize,
}

/// The single-thread configuration every workload trains with.
pub fn parallel() -> ParallelConfig {
    ParallelConfig::sequential()
}

/// Difficulty under the empirical prior and every level's band, from a
/// table of the final model.
fn difficulty_and_bands(
    model: &SkillModel,
    assignments: &SkillAssignments,
    dataset: &Dataset,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    request: u64,
) -> Result<(Vec<f64>, Vec<LevelBand>)> {
    let table = tracer.time("emission.build", root, request, || {
        EmissionTable::build(model, dataset)
    });
    let difficulty = tracer.time("difficulty", root, request, || {
        generation_difficulty_all_with_table(&table, SkillPrior::Empirical, Some(assignments))
    })?;
    let config = RecommendConfig::default();
    let bands = tracer.time("recommend.bands", root, request, || {
        (1..=model.n_levels() as SkillLevel)
            .map(|s| build_level_band(&table, &difficulty, s, &config))
            .collect::<Result<Vec<_>>>()
    })?;
    Ok((difficulty, bands))
}

/// The library trainer followed by difficulty and bands, untraced, and
/// the seconds it all took.
pub fn timed_train(dataset: &Dataset, config: &TrainConfig) -> Result<(Trained, f64)> {
    let t0 = Instant::now();
    let result = train_with_parallelism(dataset, config, &parallel())?;
    let (difficulty, bands) = difficulty_and_bands(
        &result.model,
        &result.assignments,
        dataset,
        &mut Tracer::new(false),
        None,
        0,
    )?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Trained {
            iterations: result.trace.len(),
            model: result.model,
            assignments: result.assignments,
            log_likelihood: result.log_likelihood,
            converged: result.converged,
            difficulty,
            bands,
        },
        secs,
    ))
}

/// Number of actions whose level differs between two assignments of the
/// same dataset.
fn count_changed(a: &SkillAssignments, b: &SkillAssignments) -> usize {
    a.per_user
        .iter()
        .zip(&b.per_user)
        .map(|(x, y)| x.iter().zip(y).filter(|(l, r)| l != r).count())
        .sum()
}

/// The hard trainer's loop (`train_with_parallelism` on the incremental
/// emission-table path) replayed through the layers' public functions,
/// each call inside a span under one `train` root span. Must produce the
/// library trainer's result bit for bit.
pub fn train_traced(
    dataset: &Dataset,
    config: &TrainConfig,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(Trained, Counts)> {
    let par = parallel();
    let n_levels = config.n_levels;
    let n_actions = dataset.n_actions();
    let mut counts = Counts::default();
    let root = tracer.enter("train", None, request);

    let mut model = tracer.time("init", root, request, || {
        initialize_model(dataset, n_levels, config.min_init_actions, config.lambda)
    })?;
    let mut prev: Option<SkillAssignments> = None;
    let mut prev_ll = f64::NEG_INFINITY;
    let mut grid: Option<StatsGrid> = None;
    let mut table: Option<EmissionTable> = None;
    let mut refit_levels: Vec<bool> = Vec::new();
    let mut converged = false;
    let mut final_state = None;

    // One assignment step: refresh the persistent table's refit columns
    // (or build it), then run the monotone DP over every user.
    let assign = |model: &SkillModel,
                  table: &mut Option<EmissionTable>,
                  refit_levels: &[bool],
                  tracer: &mut Tracer,
                  counts: &mut Counts|
     -> Result<(SkillAssignments, f64)> {
        if table.is_some() && refit_levels.len() == n_levels {
            let t = table.as_mut().expect("checked above");
            tracer.time("emission.refresh", root, request, || {
                t.refresh_levels(model, dataset, refit_levels)
            })?;
            counts.levels_refreshed += refit_levels.iter().filter(|&&d| d).count();
        } else {
            *table = Some(tracer.time("emission.build", root, request, || {
                EmissionTable::build(model, dataset)
            }));
        }
        let t = table.as_ref().expect("built or refreshed above");
        counts.actions_assigned += n_actions;
        tracer.time("assign.dp", root, request, || {
            assign_all_parallel_with_table(t, dataset, &par)
        })
    };

    for _ in 1..=config.max_iterations {
        counts.iterations += 1;
        let (assignments, ll) = assign(&model, &mut table, &refit_levels, tracer, &mut counts)?;
        let n_changed = match (grid.as_mut(), &prev) {
            (Some(g), Some(p)) => {
                let changed = tracer.time("incremental.delta", root, request, || {
                    g.apply_delta_with_config(dataset, p, &assignments, &par)
                })?;
                counts.changed_actions += changed;
                counts.delta_passes += 1;
                Some(changed)
            }
            _ => {
                grid = Some(tracer.time("incremental.build", root, request, || {
                    StatsGrid::build_with_config(dataset, &assignments, n_levels, &par)
                })?);
                None
            }
        };
        let stable = n_changed == Some(0);
        let small_gain = prev_ll.is_finite()
            && (ll - prev_ll).abs() <= config.tolerance * prev_ll.abs().max(1.0);
        let g = grid.as_mut().expect("grid is built on the first iteration");
        refit_levels = g.dirty_levels().to_vec();
        counts.dirty_levels += refit_levels.iter().filter(|&&d| d).count();
        counts.msteps += 1;
        model = tracer.time("incremental.mstep", root, request, || {
            g.fit_model_incremental(dataset, config.lambda, &par, Some(&model))
        })?;
        if stable || small_gain {
            converged = true;
            final_state = Some((assignments, ll));
            break;
        }
        prev = Some(assignments);
        prev_ll = ll;
    }

    let (assignments, log_likelihood) = match final_state {
        Some(state) => state,
        None => {
            // Iteration cap: one closing assignment pass under the last
            // refit model, as the trainer does. Its churn count is the
            // trainer's own diff, outside any layer span.
            counts.iterations += 1;
            let (assignments, ll) = assign(&model, &mut table, &refit_levels, tracer, &mut counts)?;
            if let Some(p) = &prev {
                std::hint::black_box(count_changed(p, &assignments));
            }
            (assignments, ll)
        }
    };
    let (difficulty, bands) =
        difficulty_and_bands(&model, &assignments, dataset, tracer, root, request)?;
    tracer.exit(root);
    Ok((
        Trained {
            model,
            assignments,
            log_likelihood,
            iterations: counts.iterations,
            converged,
            difficulty,
            bands,
        },
        counts,
    ))
}

/// Per-layer metrics of one traced training run (request id `request`),
/// from the spans and counts it recorded. Returns `(traced train_s,
/// layer self-time sum, time outside any layer span)` in seconds.
pub fn layer_metrics(
    spans: &[Span],
    selfs: &[u64],
    request: u64,
    counts: &Counts,
    n_actions: usize,
    n_levels: usize,
) -> (BTreeMap<&'static str, f64>, (f64, f64, f64)) {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    for (s, &self_ns) in spans.iter().zip(selfs) {
        if s.request != request {
            continue;
        }
        *by_name.entry(s.name).or_default() += self_ns;
        if s.parent.is_none() {
            root_ns = s.duration_ns();
        }
    }
    let outside_ns = by_name.remove("train").unwrap_or(0);
    let layers_ns: u64 = by_name.values().sum();
    let secs = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let dp_s = secs("assign.dp");
    let mut m = BTreeMap::new();
    m.insert("init.s", secs("init"));
    m.insert("emission.build_s", secs("emission.build"));
    m.insert("emission.refresh_s", secs("emission.refresh"));
    m.insert("emission.levels_refreshed", counts.levels_refreshed as f64);
    m.insert("assign.dp_s", dp_s);
    m.insert(
        "assign.actions_per_s",
        ratio(counts.actions_assigned as f64, dp_s),
    );
    m.insert("incremental.build_s", secs("incremental.build"));
    m.insert("incremental.delta_s", secs("incremental.delta"));
    m.insert("incremental.changed_actions", counts.changed_actions as f64);
    m.insert(
        "incremental.changed_ratio",
        ratio(
            counts.changed_actions as f64,
            (n_actions * counts.delta_passes) as f64,
        ),
    );
    m.insert("incremental.mstep_s", secs("incremental.mstep"));
    m.insert("incremental.dirty_levels", counts.dirty_levels as f64);
    m.insert(
        "incremental.dirty_ratio",
        ratio(
            counts.dirty_levels as f64,
            (n_levels * counts.msteps) as f64,
        ),
    );
    m.insert("difficulty.s", secs("difficulty"));
    m.insert("recommend.bands_s", secs("recommend.bands"));
    m.insert("train.iterations", counts.iterations as f64);
    (
        m,
        (
            root_ns as f64 / 1e9,
            layers_ns as f64 / 1e9,
            outside_ns as f64 / 1e9,
        ),
    )
}

/// Unit of a per-layer training metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") || name.ends_with(".s") {
        "s"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}
