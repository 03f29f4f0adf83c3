//! The `serve-write` and `serve-read` workloads: one in-process
//! load-generator thread sends a seeded open-loop request mix at a fixed rate to a
//! `SkillService` resumed from a freshly trained base model.
//!
//! `serve-write` is ingest-heavy, so the commit path, inline refits and
//! epoch publishes dominate. `serve-read` runs the adaptive policy and
//! is read-heavy, so policy re-ranking, band-cache hits and per-user DP
//! dominate while refits are almost idle.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use upskill_core::emission::EmissionTable;
use upskill_core::recommend::{build_level_band, recommend_for_level_with_table, RecommendConfig};
use upskill_core::streaming::{RefitPolicy, RefitTuner, StreamingSession};
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::types::{Action, Dataset, ItemId, SkillLevel, UserId};
use upskill_datasets::synthetic::{generate, SyntheticConfig};
use upskill_serve::{
    ModelEpoch, PolicyConfig, PolicyMode, PredictMode, ServeConfig, ServeError, SkillService,
};

use crate::outcome::{
    generator_metrics, op_metrics, p50_p99, p999_us, within_slo, Metrics, Outcome,
};
use crate::pipeline;
use crate::pipeline::{layer_metrics, unit_of};
use crate::schedule::{draw_op, drive, open_loop, saturate, Mix, Op, Population, Rng, Timing};
use crate::stats::{median, quantile, P50};
use crate::trace::{self_times, Tracer};

use crate::Args;

/// One serve workload.
pub struct Spec {
    pub mix: Mix,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Whether the service runs the adaptive policy layer.
    pub adaptive: bool,
    /// Ops of the closed-loop phase in each round, about half a second
    /// at the capacity measured on a 2-core host. A fixed count, not a
    /// fixed time, so the service's state and memory after the phase do
    /// not depend on host speed.
    pub peak_ops: u64,
}

/// About a sixth of one client's closed-loop capacity on this mix on a
/// 2-core host (~240k/s with a refit every 5k actions). At 80k/s, in the
/// phases where the host runs 1.5-2x slower, a refit's queue has not
/// drained before the next refit starts and p99 doubles.
pub const WRITE: Spec = Spec {
    mix: Mix::WRITE,
    rate: 40_000.0,
    adaptive: false,
    peak_ops: 120_000,
};

/// About a tenth of one client's closed-loop capacity on this mix on a
/// 2-core host. Policy calls take ~0.45 ms and are a fifth of the mix;
/// p50 stays among the unqueued fast requests only while under a fifth
/// of requests wait behind a policy call. At 2k/s a slow host phase
/// crosses that line and p50 triples; at half of capacity it flips
/// between 6 and 146 us.
pub const READ: Spec = Spec {
    mix: Mix::READ,
    rate: 1_000.0,
    adaptive: true,
    peak_ops: 5_000,
};

const BASE_USERS: usize = 50_000;
const BASE_ITEMS: usize = 20_000;
const MEAN_LEN: f64 = 20.0;
const N_SHARDS: usize = 8;
/// Refit interval in actions, and the tuner's floor. Random traffic
/// dirties every level, so the tuner stays at the floor: about five
/// refits a second on `serve-write`, a tenth of its requests wait behind
/// one, and p99 lies inside that queue. With one refit every few seconds
/// p99 sits on the edge of the queue and swings with host speed.
const REFIT_EVERY: usize = 5_000;
/// Live actions carry times past every base-data timestamp.
const CLOCK0: i64 = 1_000_000_000;
/// Seconds of one round: a set-up, the open-loop schedule on the
/// service it built, then the closed-loop phase. A run is as many
/// identical rounds as fit in `--seconds`, and each end-to-end timing is
/// the median over the rounds, so every metric samples the host evenly
/// across the whole run.
const ROUND_S: f64 = 3.5;
/// Share of a round the open-loop schedule lasts; the set-up and the
/// closed-loop phase take the rest.
const OPEN_SHARE: f64 = 0.65;
/// Length of the no-op calibration run over the start of the schedule.
const NULL_SECONDS: f64 = 1.0;
/// Users whose static recommendations are checked against a full scan.
const GATE_USERS: usize = 200;
/// Request id of the traced base-training spans.
const BASE_REQUEST: u64 = u64::MAX;
/// Error kinds `serve.errors.<kind>` reports.
pub const ERROR_KINDS: [&str; 8] = [
    "unknown_user",
    "invalid_config",
    "policy_disabled",
    "policy_mode_mismatch",
    "empty_band",
    "bad_request",
    "core",
    "other",
];

fn synth(n_users: usize, n_items: usize, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_users,
        n_items,
        n_levels: 5,
        mean_sequence_len: MEAN_LEN,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed,
    }
}

/// Base-model training settings, as `bench_serve` uses them.
fn train_config() -> TrainConfig {
    TrainConfig::new(5)
        .with_min_init_actions(10)
        .with_max_iterations(3)
        .with_lambda(0.01)
}

fn serve_config(spec: &Spec) -> Result<ServeConfig, String> {
    Ok(ServeConfig {
        n_shards: N_SHARDS,
        policy: RefitPolicy::EveryNActions(REFIT_EVERY),
        tuner: Some(RefitTuner::new(3, REFIT_EVERY, 1_000_000).map_err(|e| e.to_string())?),
        adaptive: spec.adaptive.then(PolicyConfig::hybrid),
        ..ServeConfig::default()
    })
}

fn error_kind(e: &ServeError) -> &'static str {
    match e {
        ServeError::UnknownUser { .. } => "unknown_user",
        ServeError::InvalidConfig { .. } => "invalid_config",
        ServeError::PolicyDisabled => "policy_disabled",
        ServeError::PolicyModeMismatch { .. } => "policy_mode_mismatch",
        ServeError::EmptyBand { .. } => "empty_band",
        ServeError::BadRequest { .. } => "bad_request",
        ServeError::Core(_) => "core",
        _ => "other",
    }
}

/// Span name of an op's service call.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Ingest { .. } => "ingest",
        Op::Predict {
            mode: PredictMode::Smoothed | PredictMode::Posterior,
            ..
        } => "predict_dp",
        Op::Predict { .. } => "predict_o1",
        Op::Recommend { .. } => "recommend",
        Op::Policy { .. } => "policy",
    }
}

/// Performs one request against the service.
fn execute(service: &SkillService, op: &Op) -> Result<(), ServeError> {
    match *op {
        Op::Ingest {
            user, item, time, ..
        } => {
            std::hint::black_box(service.ingest(Action::new(time, user, item))?);
        }
        Op::Predict { user, mode } => {
            std::hint::black_box(service.predict(user, mode)?);
        }
        Op::Recommend { user } => {
            std::hint::black_box(service.recommend(user, Some(10))?);
        }
        Op::Policy { user, correct } => {
            let recs = service.recommend_policy(user, Some(10), PolicyMode::Hybrid)?;
            if let Some(top) = recs.first() {
                std::hint::black_box(service.record_outcome(user, top.item, correct)?);
            }
        }
    }
    Ok(())
}

/// Eq. 3 objective of the service's committed state divided by its
/// action count.
fn ll_per_action(service: &SkillService) -> Result<f64, String> {
    let bundle = service.snapshot("perfbench").map_err(|e| e.to_string())?;
    let table = EmissionTable::build(&bundle.model, &bundle.dataset);
    let ll: f64 = bundle
        .dataset
        .sequences()
        .iter()
        .zip(&bundle.assignments.per_user)
        .flat_map(|(seq, levels)| seq.actions().iter().zip(levels))
        .map(|(a, &s)| table.log_likelihood(a.item, s))
        .sum();
    Ok(ll / bundle.dataset.n_actions() as f64)
}

/// `serve-read` gate: for a sample of users, `recommend` equals a full
/// scan of the current epoch at the user's committed level.
fn recommend_matches_full_scan(
    service: &SkillService,
    users: &[UserId],
    rng: &mut Rng,
) -> Result<bool, String> {
    let bundle = service.snapshot("gate").map_err(|e| e.to_string())?;
    let index: HashMap<UserId, usize> = bundle
        .dataset
        .sequences()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.user, i))
        .collect();
    let (_, ep) = service.current_epoch();
    let config = RecommendConfig {
        k: 10,
        ..RecommendConfig::default()
    };
    for _ in 0..GATE_USERS {
        let user = users[rng.below(users.len())];
        let i = index[&user];
        let level: SkillLevel = *bundle.assignments.per_user[i].last().ok_or("empty user")?;
        let seen: HashSet<ItemId> = bundle.dataset.sequences()[i]
            .actions()
            .iter()
            .map(|a| a.item)
            .collect();
        let served = service
            .recommend(user, Some(10))
            .map_err(|e| e.to_string())?;
        let scanned = recommend_for_level_with_table(
            ep.table(),
            ep.difficulty(),
            level,
            &|item| seen.contains(&item),
            &config,
        )
        .map_err(|e| e.to_string())?;
        let same = served.len() == scanned.len()
            && served
                .iter()
                .zip(&scanned)
                .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits() && a == b);
        if !same {
            eprintln!("recommend for user {user} differs from the full scan");
            return Ok(false);
        }
    }
    Ok(true)
}

/// `serve-write` gate: at a small scale, the same write-heavy traffic
/// through the service and through a single-owner `StreamingSession`
/// leaves byte-identical snapshot JSON.
fn service_matches_session(seed: u64) -> Result<bool, String> {
    let err = |e: upskill_core::error::CoreError| e.to_string();
    let data = generate(&synth(1_500, 2_000, seed ^ 0x00c0_ffee)).map_err(err)?;
    let cfg = train_config();
    let par = pipeline::parallel();
    let result = train_with_parallelism(&data.dataset, &cfg, &par).map_err(err)?;
    let policy = RefitPolicy::EveryNActions(64);
    let tuner = RefitTuner::new(2, 16, 4096).map_err(err)?;
    let service = SkillService::resume(
        data.dataset.clone(),
        &result,
        cfg,
        par,
        ServeConfig {
            n_shards: 5,
            policy,
            tuner: Some(tuner),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut session =
        StreamingSession::resume(data.dataset.clone(), &result, cfg, par, policy).map_err(err)?;
    session.set_tuner(Some(tuner));
    let mut pop = Population::new(data.dataset.n_users(), data.dataset.n_items(), CLOCK0);
    let requests = open_loop(
        &mut Rng::new(seed ^ 0x5e55_1011),
        1_000.0,
        4_000,
        &Mix::WRITE,
        &mut pop,
    );
    for r in &requests {
        if let Op::Ingest {
            user, item, time, ..
        } = r.op
        {
            let action = Action::new(time, user, item);
            let a = session.ingest(action).map_err(err)?;
            let b = service.ingest(action).map_err(|e| e.to_string())?;
            if a != b.level {
                eprintln!("service and session committed different levels for user {user}");
                return Ok(false);
            }
        } else {
            execute(&service, &r.op).map_err(|e| e.to_string())?;
        }
    }
    let ours = service.snapshot("x").map_err(|e| e.to_string())?;
    let theirs = session.snapshot("x");
    Ok(ours.to_json().map_err(err)? == theirs.to_json().map_err(err)?)
}

/// One set-up and what it produced.
struct SetUp {
    service: SkillService,
    trained: pipeline::Trained,
    /// The base dataset, when kept for the traced replica.
    dataset: Option<Dataset>,
    sizes: (usize, usize, usize),
    setup_s: f64,
    train_s: f64,
}

/// Generates the base population, trains it (model, difficulty, bands),
/// resumes a service from the result and fills the first epoch's band
/// cache, which every epoch's first reads would otherwise build lazily.
/// `setup_s` leaves out the dataset copy kept when `keep` is set.
fn set_up(
    seed: u64,
    cfg: &TrainConfig,
    serve_cfg: &ServeConfig,
    keep: bool,
) -> Result<SetUp, String> {
    let err = |e: upskill_core::error::CoreError| e.to_string();
    let serr = |e: ServeError| e.to_string();
    let t0 = Instant::now();
    let data = generate(&synth(BASE_USERS, BASE_ITEMS, seed)).map_err(err)?;
    let (trained, train_s) = pipeline::timed_train(&data.dataset, cfg).map_err(err)?;
    let before_copy = t0.elapsed().as_secs_f64();
    let dataset = keep.then(|| data.dataset.clone());
    let t1 = Instant::now();
    let d = &data.dataset;
    let sizes = (d.n_users(), d.n_items(), d.n_actions());
    let service = SkillService::new(
        data.dataset,
        trained.assignments.clone(),
        *cfg,
        pipeline::parallel(),
        *serve_cfg,
    )
    .map_err(serr)?;
    let (_, ep) = service.current_epoch();
    for s in 1..=cfg.n_levels as SkillLevel {
        ep.band(s, &serve_cfg.recommend).map_err(serr)?;
    }
    Ok(SetUp {
        service,
        trained,
        dataset,
        sizes,
        setup_s: before_copy + t1.elapsed().as_secs_f64(),
        train_s,
    })
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let err = |e: upskill_core::error::CoreError| e.to_string();
    let cfg = train_config();
    let serve_cfg = serve_config(spec)?;
    let mut tracer = Tracer::new(false);
    let rounds = ((args.seconds / ROUND_S).round() as usize).max(1);
    let round_s = args.seconds / rounds as f64;

    let mut m = Metrics::default();
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut peak_rate = Vec::new();
    // Per-round p50 and p99 latency, and p50 of traced and untraced
    // rounds for the tracing overhead.
    let (mut p50_ns, mut p99_ns) = (Vec::new(), Vec::new());
    let (mut traced_p50, mut untraced_p50) = (Vec::new(), Vec::new());
    let (mut in_slo, mut succeeded, mut sent) = (0usize, 0usize, 0usize);
    let mut errors: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut epochs = 0u64;
    let mut admitted = 0usize;
    let mut ll = None;
    // Filled by the traced run only.
    let mut pooled: Vec<Timing> = Vec::new();
    let mut refit_ns: Vec<u64> = Vec::new();
    let mut new_epochs: Vec<Arc<ModelEpoch>> = Vec::new();
    // The open-loop schedule and the generator state after it, fixed by
    // the seed and replayed in every round; the no-op calibration run.
    let mut traffic = None;
    let mut null = Vec::new();
    let mut last_timings = Vec::new();
    let mut sizes = (0, 0, 0);

    for round in 0..rounds {
        let last = round + 1 == rounds;
        // The traced run traces alternate rounds, so traced and untraced
        // requests see the same service state.
        let traced = args.trace && (round % 2 == 1 || rounds == 1);
        // The traced run checks the replica of the base training on the
        // first set-up, the untraced run on the last, after every timing.
        let keep = if args.trace { round == 0 } else { last };
        let SetUp {
            service,
            trained: base_trained,
            dataset: replica_input,
            sizes: round_sizes,
            setup_s: secs,
            train_s: train_secs,
        } = set_up(args.seed, &cfg, &serve_cfg, keep)?;
        setup_s.push(secs);
        train_s.push(train_secs);
        sizes = round_sizes;
        let (n_users, n_items, n_actions) = sizes;

        if args.trace && round == 0 {
            if let Some(dataset) = &replica_input {
                // Traced base training: the replica must match the
                // set-up's trainer.
                tracer.set_enabled(true);
                let (replica, counts) =
                    pipeline::train_traced(dataset, &cfg, &mut tracer, BASE_REQUEST)
                        .map_err(err)?;
                tracer.set_enabled(false);
                out.gate(
                    "serve: replica of the base training is bitwise equal",
                    replica.identical(&base_trained),
                );
                out.gate(
                    "serve: base assignments are monotone",
                    base_trained.assignments.is_monotone(),
                );
                let spans = tracer.spans();
                let (layers, (root_s, layers_s, outside_s)) = layer_metrics(
                    spans,
                    &self_times(spans),
                    BASE_REQUEST,
                    &counts,
                    n_actions,
                    cfg.n_levels,
                );
                out.gate(
                    "trace: layer self times add up to traced train_s",
                    ((layers_s + outside_s) - root_s).abs() < 1e-9,
                );
                for (name, v) in layers {
                    m.put(name, v, unit_of(name));
                }
                m.put("trace.layers_s", layers_s, "s");
                m.put("trace.outside_s", outside_s, "s");
                m.put("train.traced_s", root_s, "s");
            }
        }
        // Only the untraced run's last round still needs the trainer's
        // result.
        let base_trained = (keep && !args.trace).then_some(base_trained);

        let (schedule, rng_after, pop_after) = traffic.get_or_insert_with(|| {
            let mut rng = Rng::new(args.seed ^ 0x0a11_5e7e);
            let mut pop = Population::new(n_users, n_items, CLOCK0);
            let n_requests = (spec.rate * round_s * OPEN_SHARE).round() as usize;
            let schedule = open_loop(&mut rng, spec.rate, n_requests, &spec.mix, &mut pop);
            (schedule, rng, pop)
        });
        if round == 0 {
            let null_n = schedule.partition_point(|r| (r.due_ns as f64) < NULL_SECONDS * 1e9);
            null = drive(&schedule[..null_n], |_, r| {
                std::hint::black_box(r);
            });
        }
        if traced {
            tracer.reserve(2 * schedule.len());
        }

        // The open loop.
        let base = (round * schedule.len()) as u64;
        let first_epoch = service.current_epoch().0;
        let mut last_epoch = first_epoch;
        let mut ok = vec![false; schedule.len()];
        let mut refitted = vec![false; schedule.len()];
        tracer.set_enabled(traced);
        let timings = drive(schedule, |i, r| {
            let id = base + i as u64;
            let span = tracer.enter("request", None, id);
            let op_span = tracer.enter(op_name(&r.op), span, id);
            let res = execute(&service, &r.op);
            tracer.exit(op_span);
            tracer.exit(span);
            if traced && matches!(r.op, Op::Ingest { .. }) {
                let (epoch, ep) = service.current_epoch();
                if epoch != last_epoch {
                    last_epoch = epoch;
                    refitted[i] = true;
                    new_epochs.push(ep);
                }
            }
            match res {
                Ok(()) => ok[i] = true,
                Err(e) => *errors.entry(error_kind(&e)).or_default() += 1,
            }
        });
        tracer.set_enabled(false);
        let round_ok = ok.iter().filter(|&&ok| ok).count();
        in_slo += within_slo(&timings, &ok);
        succeeded += round_ok;
        sent += schedule.len();
        out.attempted += schedule.len() as u64;
        out.failed += (schedule.len() - round_ok) as u64;
        let mut lat: Vec<u64> = timings.iter().map(Timing::latency_ns).collect();
        lat.sort_unstable();
        let (p50, p99) = p50_p99(&lat)?;
        p50_ns.push(p50 as f64);
        p99_ns.push(p99 as f64);
        if traced {
            traced_p50.push(p50 as f64);
        } else {
            untraced_p50.push(p50 as f64);
        }
        epochs += service.current_epoch().0 - first_epoch;
        admitted += service.stats().n_users - n_users;
        refit_ns.extend(
            timings
                .iter()
                .zip(&refitted)
                .filter(|(_, &r)| r)
                .map(|(t, _)| t.end_ns - t.start_ns),
        );
        if args.trace {
            pooled.extend_from_slice(&timings);
        }

        // Correctness of the state the last round's traffic left behind.
        if last {
            ll = Some(ll_per_action(&service)?);
            if spec.adaptive {
                let users = pop_after.known.clone();
                let same = recommend_matches_full_scan(
                    &service,
                    &users,
                    &mut Rng::new(args.seed ^ 0x6a7e),
                )?;
                out.gate("serve-read: recommend equals a full scan", same);
            }
        }
        last_timings = timings;

        // Closed-loop saturation over the same mix, continuing the
        // round's traffic.
        let mut rng = rng_after.clone();
        let mut pop = pop_after.clone();
        let mut peak_failed = 0u64;
        let peak_secs = saturate(spec.peak_ops, || {
            let op = draw_op(&mut rng, &spec.mix, &mut pop);
            if let Err(e) = execute(&service, &op) {
                peak_failed += 1;
                *errors.entry(error_kind(&e)).or_default() += 1;
            }
        });
        peak_rate.push(spec.peak_ops as f64 / peak_secs);
        eprintln!(
            "round {round}: set-up {secs:.3} s, train {train_secs:.3} s, p50 {:.2} us, p99 {:.1} us, peak {:.0} ops/s",
            p50_ns.last().copied().unwrap_or(0.0) / 1e3,
            p99_ns.last().copied().unwrap_or(0.0) / 1e3,
            spec.peak_ops as f64 / peak_secs
        );
        out.attempted += spec.peak_ops;
        out.failed += peak_failed;

        // Without the service alive, the replica check adds nothing to
        // peak RSS.
        drop(service);
        if let (Some(dataset), Some(trained)) = (&replica_input, &base_trained) {
            let (replica, _) =
                pipeline::train_traced(dataset, &cfg, &mut tracer, BASE_REQUEST).map_err(err)?;
            out.gate(
                "serve: replica of the base training is bitwise equal",
                replica.identical(trained),
            );
            out.gate(
                "serve: base assignments are monotone",
                trained.assignments.is_monotone(),
            );
        }
    }
    if !spec.adaptive {
        out.gate(
            "serve-write: service snapshot equals a session replay",
            service_matches_session(args.seed)?,
        );
    }

    let (n_users, n_items, n_actions) = sizes;
    let n_requests = traffic.as_ref().map_or(0, |(s, _, _)| s.len());
    out.sizes = vec![
        ("base_users", n_users as f64),
        ("items", n_items as f64),
        ("base_actions", n_actions as f64),
        ("levels", 5.0),
        ("rate_per_s", spec.rate),
        ("rounds", rounds as f64),
        ("requests_per_round", n_requests as f64),
        ("closed_loop_ops_per_round", spec.peak_ops as f64),
        ("shards", N_SHARDS as f64),
        ("refit_every", REFIT_EVERY as f64),
    ];
    let med = |v: &[f64]| median(v).expect("at least one round");
    m.put("setup_s", med(&setup_s), "s");
    m.put("train_s", med(&train_s), "s");
    m.put("ll_per_action", ll.expect("the last round ran"), "nats");
    m.put("p50_us", med(&p50_ns) / 1e3, "us");
    m.put("p99_us", med(&p99_ns) / 1e3, "us");
    m.put("slo_ratio", in_slo as f64 / sent as f64, "ratio");
    m.put("success_ratio", succeeded as f64 / sent as f64, "ratio");
    m.put("peak_ops_per_s", med(&peak_rate), "1/s");
    m.put(
        "error_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    generator_metrics(
        if args.trace { &pooled } else { &last_timings },
        &null,
        &mut m,
    );
    m.put("serve.epochs", epochs as f64, "count");
    m.put("serve.admitted", admitted as f64, "count");
    for kind in ERROR_KINDS {
        m.put(
            format!("serve.errors.{kind}"),
            errors.get(kind).copied().unwrap_or(0) as f64,
            "count",
        );
    }

    if args.trace {
        let mut all_lat: Vec<u64> = pooled.iter().map(Timing::latency_ns).collect();
        all_lat.sort_unstable();
        m.put("tail.p999_us", p999_us(&all_lat), "us");
        if let Some(root_s) = m.get("train.traced_s") {
            m.put(
                "trace.train_overhead_ratio",
                root_s / med(&train_s),
                "ratio",
            );
        }
        let spans = tracer.spans();
        for name in ["ingest", "predict_o1", "predict_dp", "recommend", "policy"] {
            let durations = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns())
                .collect();
            op_metrics(&format!("serve.{name}"), durations, &mut m);
        }
        refit_ns.sort_unstable();
        m.put("serve.refit.n", refit_ns.len() as f64, "count");
        m.put(
            "serve.refit.p50_ms",
            quantile(&refit_ns, P50).unwrap_or(0) as f64 / 1e6,
            "ms",
        );
        m.put(
            "serve.refit.max_ms",
            refit_ns.last().copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        );
        m.put(
            "serve.refit.busy_s",
            refit_ns.iter().sum::<u64>() as f64 / 1e9,
            "s",
        );
        // Band builds, timed outside the service cache on each new
        // epoch's table and difficulty.
        let config = RecommendConfig::default();
        let mut band_ns = Vec::new();
        for ep in &new_epochs {
            for s in 1..=ep.table().n_levels() as SkillLevel {
                let t0 = Instant::now();
                let band =
                    build_level_band(ep.table(), ep.difficulty(), s, &config).map_err(err)?;
                band_ns.push(t0.elapsed().as_nanos() as u64);
                std::hint::black_box(band);
            }
        }
        band_ns.sort_unstable();
        m.put(
            "serve.band_build.p50_us",
            quantile(&band_ns, P50).unwrap_or(0) as f64 / 1e3,
            "us",
        );
        // Tracing overhead: median p50 latency of traced over untraced
        // rounds;
        // 0 when the run has no untraced round.
        m.put(
            "trace.overhead_ratio",
            match (median(&traced_p50), median(&untraced_p50)) {
                (Some(t), Some(u)) if u > 0.0 => t / u,
                _ => 0.0,
            },
            "ratio",
        );
        m.put("trace.spans", spans.len() as f64, "count");
        crate::dump_trace(&tracer, args);
    }
    out.metrics = m;
    Ok(out)
}
