//! Adaptive upskilling policies over precomputed difficulty bands —
//! the product loop the paper motivates (Fig. 1) but stops short of.
//!
//! The static recommender ([`crate::recommend`]) scores a level band
//! once and serves the same ranking to every user at that level. This
//! module adds the *adaptive* layer on top (after the AdUp adaptive
//! upskilling loop): per-user [`PolicyState`] accumulates recent
//! correctness evidence and failure history, and [`rerank_band`]
//! re-scores the band's prebuilt ranking against three objectives —
//!
//! - **aptitude** — expected learning gain: the item's stretch
//!   `d − s_eff` above the user's effective level, weighted by the
//!   user's success rate at that difficulty band (teaching pressure —
//!   reach upward, but only where reaching still succeeds);
//! - **expected performance** — the user's Laplace-smoothed success
//!   rate at the item's difficulty band, discounted by stretch
//!   (motivation pressure);
//! - **gap** — closeness to recently *failed* difficulties (review
//!   pressure: revisit what just went wrong).
//!
//! A [`PolicyMode`] fixes the objective weights (teach / motivate /
//! hybrid) and a practice/review/challenge [`MixQuota`] reserves
//! slots of the result list per stratum, so a teaching mode still
//! surfaces warm-up items and a motivating mode still stretches.
//!
//! The **NCC window** (non-consecutive-correct, after AdUp's skill
//! update) nudges the *effective* level used for scoring: a full
//! window of successes at the user's committed band lifts `s_eff`
//! above the (lagging) committed estimate; a fresh failure pulls it
//! back. Failures at a difficulty reset the streaks at every band at
//! or above it.
//!
//! Everything here is deterministic: re-ranking is a pure function of
//! `(band, state, config)`, ties break by item id, and no randomness
//! or clock is consulted — the property the serving layer's bitwise
//! replay tests rely on.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::recommend::{rank_key, LevelBand, Recommendation};
use crate::types::{ItemId, SkillLevel};

/// Which objective mix drives the adaptive re-ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyMode {
    /// Teaching: aptitude-heavy — prioritize stretch items that pull
    /// the user upward, with a challenge-heavy mix.
    Teach,
    /// Motivating: expected-performance-heavy — prioritize items the
    /// user is likely to complete, with a practice-heavy mix.
    Motivate,
    /// Balanced blend of teaching and motivating pressure.
    Hybrid,
}

impl PolicyMode {
    /// Stable lowercase name (report keys, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyMode::Teach => "teach",
            PolicyMode::Motivate => "motivate",
            PolicyMode::Hybrid => "hybrid",
        }
    }
}

/// Fractions of the result list reserved per difficulty stratum
/// relative to the user's effective level. Unreserved slots go to the
/// best-scoring survivors regardless of stratum, and a stratum that
/// cannot fill its reservation releases the slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixQuota {
    /// Fraction reserved for at-level items (within
    /// [`PolicyConfig::practice_halfwidth`] of the effective level).
    pub practice: f64,
    /// Fraction reserved for below-level items.
    pub review: f64,
    /// Fraction reserved for above-level items.
    pub challenge: f64,
}

impl MixQuota {
    fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("practice quota", self.practice),
            ("review quota", self.review),
            ("challenge quota", self.challenge),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(CoreError::InvalidProbability {
                    context: what,
                    value: v,
                });
            }
        }
        let total = self.practice + self.review + self.challenge;
        if total > 1.0 + 1e-12 {
            return Err(CoreError::InvalidProbability {
                context: "mix quota total",
                value: total,
            });
        }
        Ok(())
    }
}

/// Tuning for the adaptive policy layer. Build via [`PolicyConfig::teach`],
/// [`PolicyConfig::motivate`], or [`PolicyConfig::hybrid`], then adjust
/// fields as needed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// The mode this configuration implements (recorded so the serving
    /// envelope can reject mismatched requests).
    pub mode: PolicyMode,
    /// Weight of the aptitude (stretch) objective.
    pub w_aptitude: f64,
    /// Weight of the expected-performance objective.
    pub w_expected: f64,
    /// Weight of the recent-failure-gap objective.
    pub w_gap: f64,
    /// Blend weight of the band's own static score (0 = pure policy,
    /// 1 = static ranking unchanged).
    pub static_weight: f64,
    /// Length of the per-band non-consecutive-correct window.
    pub ncc_window: usize,
    /// Effective-level lift when the committed band's window is full
    /// of successes.
    pub nudge_up: f64,
    /// Effective-level drop when the committed band's latest recorded
    /// outcome is a failure.
    pub nudge_down: f64,
    /// Half-width of the practice stratum around the effective level.
    pub practice_halfwidth: f64,
    /// How many recent failed difficulties the gap objective remembers.
    pub failure_memory: usize,
    /// Practice/review/challenge slot reservations.
    pub mix: MixQuota,
}

impl PolicyConfig {
    fn base(mode: PolicyMode) -> Self {
        Self {
            mode,
            w_aptitude: 0.4,
            w_expected: 0.35,
            w_gap: 0.25,
            static_weight: 0.25,
            ncc_window: 3,
            nudge_up: 0.5,
            nudge_down: 0.25,
            practice_halfwidth: 0.25,
            failure_memory: 5,
            mix: MixQuota {
                practice: 0.3,
                review: 0.2,
                challenge: 0.3,
            },
        }
    }

    /// Aptitude-heavy teaching preset.
    pub fn teach() -> Self {
        Self {
            w_aptitude: 0.6,
            w_expected: 0.2,
            w_gap: 0.2,
            mix: MixQuota {
                practice: 0.2,
                review: 0.1,
                challenge: 0.5,
            },
            ..Self::base(PolicyMode::Teach)
        }
    }

    /// Expected-performance-heavy motivating preset.
    pub fn motivate() -> Self {
        Self {
            w_aptitude: 0.15,
            w_expected: 0.6,
            w_gap: 0.25,
            mix: MixQuota {
                practice: 0.5,
                review: 0.3,
                challenge: 0.1,
            },
            ..Self::base(PolicyMode::Motivate)
        }
    }

    /// Balanced hybrid preset.
    pub fn hybrid() -> Self {
        Self::base(PolicyMode::Hybrid)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("aptitude weight", self.w_aptitude),
            ("expected-performance weight", self.w_expected),
            ("gap weight", self.w_gap),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(CoreError::InvalidProbability {
                    context: what,
                    value: v,
                });
            }
        }
        if self.w_aptitude + self.w_expected + self.w_gap <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "objective weight total",
                value: 0.0,
            });
        }
        if !(0.0..=1.0).contains(&self.static_weight) {
            return Err(CoreError::InvalidProbability {
                context: "static blend weight",
                value: self.static_weight,
            });
        }
        if self.ncc_window == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        if !self.nudge_up.is_finite()
            || self.nudge_up < 0.0
            || !self.nudge_down.is_finite()
            || self.nudge_down < 0.0
        {
            return Err(CoreError::InvalidProbability {
                context: "effective-level nudge",
                value: self.nudge_up.min(self.nudge_down),
            });
        }
        if !self.practice_halfwidth.is_finite() || self.practice_halfwidth < 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "practice half-width",
                value: self.practice_halfwidth,
            });
        }
        self.mix.validate()
    }
}

/// Per-user adaptive state: non-consecutive-correct windows per
/// difficulty band, recently failed difficulties, and the set of items
/// with an unresolved failure (retry candidates).
///
/// The state is deliberately tiny — `O(S · window)` booleans plus
/// bounded failure history — so the serving layer can shard it
/// alongside the existing per-user session state and clone it out from
/// under a shard lock in O(1)-ish time.
#[derive(Debug, Clone)]
pub struct PolicyState {
    n_levels: usize,
    window: usize,
    failure_memory: usize,
    /// Per difficulty band (index `b` = difficulty rounding to `b+1`):
    /// most recent outcomes, oldest first, at most `window` entries.
    ncc: Vec<Vec<bool>>,
    /// Recently failed difficulties, oldest first, bounded by
    /// `failure_memory`.
    recent_failures: Vec<f64>,
    /// Items whose most recent recorded outcome was a failure.
    failed_items: HashSet<ItemId>,
    /// Attempts per band (successes + failures).
    attempts: Vec<u64>,
    /// Successes per band.
    successes: Vec<u64>,
}

impl PolicyState {
    /// Fresh state for a user under `config`, over `n_levels` bands.
    pub fn new(n_levels: usize, config: &PolicyConfig) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        config.validate()?;
        Ok(Self {
            n_levels,
            window: config.ncc_window,
            failure_memory: config.failure_memory,
            ncc: vec![Vec::new(); n_levels],
            recent_failures: Vec::new(),
            failed_items: HashSet::new(),
            attempts: vec![0; n_levels],
            successes: vec![0; n_levels],
        })
    }

    /// Which band a difficulty falls into: `round(difficulty) − 1`,
    /// clamped to `0..n_levels`. Rounding half away from zero reaches
    /// `b + 1` exactly from `b + 0.5`, and `difficulty − 0.5` is exact
    /// wherever the clamp does not decide, so truncating it is the same
    /// index without a libm `round` call on the re-rank's per-candidate
    /// path.
    fn band_index(&self, difficulty: f64) -> usize {
        ((difficulty - 0.5) as i64).clamp(0, self.n_levels as i64 - 1) as usize
    }

    /// Records one observed outcome at `difficulty`. Successes extend
    /// the band's streak and clear the item's failed mark; failures
    /// reset the streaks of every band at or above the failed one
    /// (the AdUp reset rule) and enter the failure history.
    pub fn record(&mut self, item: ItemId, difficulty: f64, correct: bool) {
        let b = self.band_index(difficulty);
        self.attempts[b] += 1;
        if correct {
            self.successes[b] += 1;
            self.failed_items.remove(&item);
            let w = &mut self.ncc[b];
            if w.len() == self.window {
                w.remove(0);
            }
            w.push(true);
        } else {
            self.failed_items.insert(item);
            for w in self.ncc[b..].iter_mut() {
                w.clear();
            }
            self.ncc[b].push(false);
            if self.failure_memory > 0 {
                if self.recent_failures.len() == self.failure_memory {
                    self.recent_failures.remove(0);
                }
                self.recent_failures.push(difficulty);
            }
        }
    }

    /// The effective level the policy scores against: the committed
    /// estimate nudged by the NCC evidence at its band, clamped to
    /// `[1, S]`.
    pub fn effective_level(&self, committed: SkillLevel, config: &PolicyConfig) -> f64 {
        let s = committed as f64;
        let b = self.band_index(s);
        let w = &self.ncc[b];
        let nudged = if w.len() >= self.window && w.iter().all(|&c| c) {
            s + config.nudge_up
        } else if matches!(w.last(), Some(false)) {
            s - config.nudge_down
        } else {
            s
        };
        nudged.clamp(1.0, self.n_levels as f64)
    }

    /// Whether `item`'s most recent recorded outcome was a failure
    /// (serving layers keep such items recommendable for retry).
    pub fn has_failed(&self, item: ItemId) -> bool {
        self.failed_items.contains(&item)
    }

    /// Items whose most recent recorded outcome was a failure, in no
    /// particular order.
    pub fn failed_items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.failed_items.iter().copied()
    }

    /// Laplace-smoothed success rate at the band `difficulty` falls in.
    pub fn success_rate(&self, difficulty: f64) -> f64 {
        self.rate_at(self.band_index(difficulty))
    }

    /// Laplace-smoothed success rate of band `b` (0-based).
    fn rate_at(&self, b: usize) -> f64 {
        (self.successes[b] + 1) as f64 / (self.attempts[b] + 2) as f64
    }

    /// Recently failed difficulties, oldest first.
    pub fn recent_failures(&self) -> &[f64] {
        &self.recent_failures
    }

    /// Total recorded attempts across all bands.
    pub fn total_attempts(&self) -> u64 {
        self.attempts.iter().sum()
    }
}

/// Which stratum of the practice/review/challenge mix an item falls in
/// relative to the user's effective level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stratum {
    /// Below the effective level by more than the practice half-width.
    Review,
    /// Within the practice half-width of the effective level.
    Practice,
    /// Above the effective level by more than the practice half-width.
    Challenge,
}

/// One adaptively re-ranked recommendation with its objective
/// decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRecommendation {
    /// The recommended item.
    pub item: ItemId,
    /// Its estimated difficulty.
    pub difficulty: f64,
    /// Stratum relative to the user's effective level.
    pub stratum: Stratum,
    /// Aptitude objective in `[0, 1]`: normalized stretch weighted by
    /// the user's success rate at the item's difficulty band.
    pub aptitude: f64,
    /// Expected-performance objective in `[0, 1]`.
    pub expected: f64,
    /// Recent-failure-gap objective in `[0, 1]`.
    pub gap: f64,
    /// Weighted objective blend in `[0, 1]`.
    pub policy_score: f64,
    /// The band's static score for the item.
    pub static_score: f64,
    /// Final blended score the ranking sorts by.
    pub score: f64,
}

/// The candidate-independent part of one re-rank: the user's
/// effective level, the band geometry and weight total, and the
/// success rate of every difficulty band (it depends only on the band,
/// so it is divided out once per query rather than once per candidate).
struct Scorer<'a> {
    state: &'a PolicyState,
    config: &'a PolicyConfig,
    s_eff: f64,
    upper: f64,
    span: f64,
    w_total: f64,
    rates: Vec<f64>,
}

impl<'a> Scorer<'a> {
    fn new(
        band: &LevelBand,
        state: &'a PolicyState,
        committed: SkillLevel,
        config: &'a PolicyConfig,
    ) -> Self {
        Self {
            state,
            config,
            s_eff: state.effective_level(committed, config),
            upper: band.config().upper_slack.max(1e-9),
            span: (band.config().lower_slack + band.config().upper_slack).max(1e-9),
            w_total: config.w_aptitude + config.w_expected + config.w_gap,
            rates: (0..state.n_levels).map(|b| state.rate_at(b)).collect(),
        }
    }

    /// Scores one band entry against the policy objectives.
    #[inline]
    fn score(&self, r: &Recommendation) -> PolicyRecommendation {
        let config = self.config;
        let stretch = r.difficulty - self.s_eff;
        let reach = if stretch > 0.0 {
            (stretch / self.upper).min(1.0)
        } else {
            0.0
        };
        let rate = self.rates[self.state.band_index(r.difficulty)];
        // Success-rate weighting is what makes the ranking *adaptive*:
        // an unweighted reach term would score the top of the band
        // identically whether the user lands those items or drowns in
        // them, so failures could never demote an overreaching pick.
        let aptitude = rate * reach;
        let expected = rate * (1.0 - reach);
        let gap = if self.state.recent_failures.is_empty() {
            0.0
        } else {
            // A plain comparison is `f64::min` here (distances are never
            // -0.0, and a NaN distance loses either way) minus its NaN
            // bookkeeping on the per-candidate path.
            let nearest = self
                .state
                .recent_failures
                .iter()
                .map(|f| (r.difficulty - f).abs())
                .fold(f64::INFINITY, |m, x| if x < m { x } else { m });
            (1.0 - nearest / self.span).clamp(0.0, 1.0)
        };
        let policy_score =
            (config.w_aptitude * aptitude + config.w_expected * expected + config.w_gap * gap)
                / self.w_total;
        let stratum = if stretch > config.practice_halfwidth {
            Stratum::Challenge
        } else if stretch < -config.practice_halfwidth {
            Stratum::Review
        } else {
            Stratum::Practice
        };
        PolicyRecommendation {
            item: r.item,
            difficulty: r.difficulty,
            stratum,
            aptitude,
            expected,
            gap,
            policy_score,
            static_score: r.score,
            score: (1.0 - config.static_weight) * policy_score + config.static_weight * r.score,
        }
    }
}

/// Slot of a stratum in the per-stratum buffers and quotas.
fn stratum_slot(s: Stratum) -> usize {
    match s {
        Stratum::Review => 0,
        Stratum::Practice => 1,
        Stratum::Challenge => 2,
    }
}

/// Re-ranks a prebuilt [`LevelBand`] for one user: scores every
/// non-excluded candidate against the policy objectives at the user's
/// effective level, then selects `k` items honoring the
/// practice/review/challenge reservations (best-scoring first within
/// each stratum, leftover slots filled globally). The returned list is
/// sorted by blended score descending, ties by item id.
///
/// Cost: one `O(band)` scan with no allocation per candidate, then
/// `O(k log k)`. The scan turns each candidate's blended score and
/// stratum into one integer sort key (`recommend::rank_key`: score
/// descending, then item id) in its stratum's buffer. A buffer that
/// reaches `2k` keys is cut back to its best `k` by
/// `select_nth_unstable`, and the worst of those becomes the stratum's
/// bar: a later key past it cannot reach the stratum's top `k`, so it
/// is dropped before `exclude` is consulted (`exclude` must therefore be
/// a pure predicate). The union of the buffers, fewer than `6k` keys, is
/// sorted, the two quota passes run over it, and
/// [`PolicyRecommendation`]s are built for the picks only.
///
/// The selection is exact. A reservation pick is among its stratum's
/// first `quota ≤ k` survivors. A leftover pick has every better
/// survivor already picked, so it lies in the global top `k` and hence
/// in its stratum's top `k`. Every buffer keeps its stratum's top `k`,
/// so the sorted union is a subsequence of the full ranking holding
/// every pick, and both passes pick exactly what they would over all
/// survivors fully sorted.
///
/// Never rescans the catalog and never touches model state, so policy
/// reads stay epoch-pinned exactly like the static path.
pub fn rerank_band(
    band: &LevelBand,
    state: &PolicyState,
    committed: SkillLevel,
    exclude: &dyn Fn(ItemId) -> bool,
    config: &PolicyConfig,
    k: usize,
) -> Result<Vec<PolicyRecommendation>> {
    config.validate()?;
    if k == 0 {
        return Err(CoreError::InvalidSkillCount { requested: 0 });
    }
    let scorer = Scorer::new(band, state, committed, config);
    let ranked = band.ranked();

    // Policy and static scores both lie in `[0, 1]` (the weights are
    // non-negative and every objective is in `[0, 1]`), so `rank_key`'s
    // integer order is exactly score descending, then item ascending.
    //
    // Each stratum keeps its best keys so far. When a buffer reaches
    // `2k`, selection cuts it back to its `k` best and the worst of those
    // becomes the stratum's bar: no later key past the bar can reach the
    // stratum's top `k`, so it is dropped before `exclude` is consulted.
    let cap = k.saturating_mul(2);
    let mut strata: [Vec<u128>; 3] = Default::default();
    let mut bars: [Option<u128>; 3] = [None; 3];
    for (index, r) in ranked.iter().enumerate() {
        let rec = scorer.score(r);
        let slot = stratum_slot(rec.stratum);
        let key = rank_key(rec.score, r.item, index);
        if bars[slot].is_some_and(|bar| key > bar) || exclude(r.item) {
            continue;
        }
        let keys = &mut strata[slot];
        keys.push(key);
        if keys.len() == cap {
            keys.select_nth_unstable(k - 1);
            keys.truncate(k);
            bars[slot] = Some(keys[k - 1]);
        }
    }

    // Reserved slots per stratum; the remainder is unreserved. With
    // fewer than `k` survivors every survivor is picked, whatever the
    // reservations.
    let reserve = |frac: f64| ((k as f64) * frac).floor() as usize;
    let mut quota = [
        reserve(config.mix.review),
        reserve(config.mix.practice),
        reserve(config.mix.challenge),
    ];
    // Each buffer holds its stratum's top `k`, so the sorted union is a
    // subsequence of the full ranking that contains every pick.
    let mut top: Vec<(u128, usize)> = strata
        .iter()
        .enumerate()
        .flat_map(|(slot, keys)| keys.iter().map(move |&key| (key, slot)))
        .collect();
    top.sort_unstable();

    let mut picked = vec![false; top.len()];
    let mut n_picked = 0usize;
    // Pass 1: fill each stratum's reservation best-first.
    for (i, &(_, slot)) in top.iter().enumerate() {
        if n_picked == k {
            break;
        }
        if quota[slot] > 0 {
            quota[slot] -= 1;
            picked[i] = true;
            n_picked += 1;
        }
    }
    // Pass 2: release unfilled reservations to the global ranking.
    for p in picked.iter_mut() {
        if n_picked == k {
            break;
        }
        if !*p {
            *p = true;
            n_picked += 1;
        }
    }
    // `top` is already in output order; keep the picks' order.
    Ok(top
        .iter()
        .zip(picked)
        .filter(|&(_, p)| p)
        .map(|(&(key, _), _)| scorer.score(&ranked[key as u32 as usize]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution};
    use crate::emission::EmissionTable;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::model::SkillModel;
    use crate::recommend::{build_level_band, RecommendConfig};
    use crate::types::{Action, ActionSequence, Dataset};

    /// Nine items spread over difficulties ~1..3, 3-level model.
    fn band_fixture(level: SkillLevel) -> LevelBand {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 9 }]).unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..9u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let seq =
            ActionSequence::new(0, (0..9).map(|t| Action::new(t, 0, t as u32)).collect()).unwrap();
        let ds = Dataset::new(schema.clone(), items, vec![seq]).unwrap();
        let cells = (0..3)
            .map(|s| {
                let mut probs = vec![0.02; 9];
                for (c, p) in probs.iter_mut().enumerate() {
                    if c / 3 == s {
                        *p = 0.88 / 3.0;
                    }
                }
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(probs).unwrap(),
                )]
            })
            .collect();
        let model = SkillModel::new(schema, 3, cells).unwrap();
        let table = EmissionTable::build(&model, &ds);
        let difficulty: Vec<f64> = (0..9)
            .map(|i| 1.0 + (i / 3) as f64 + 0.1 * (i % 3) as f64)
            .collect();
        let config = RecommendConfig {
            lower_slack: 2.5,
            upper_slack: 2.5,
            interest_weight: 0.3,
            ..RecommendConfig::default()
        };
        build_level_band(&table, &difficulty, level, &config).unwrap()
    }

    #[test]
    fn presets_validate_and_carry_their_mode() {
        for (cfg, mode) in [
            (PolicyConfig::teach(), PolicyMode::Teach),
            (PolicyConfig::motivate(), PolicyMode::Motivate),
            (PolicyConfig::hybrid(), PolicyMode::Hybrid),
        ] {
            cfg.validate().unwrap();
            assert_eq!(cfg.mode, mode);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = PolicyConfig::hybrid();
        c.w_aptitude = -0.1;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.w_aptitude = 0.0;
        c.w_expected = 0.0;
        c.w_gap = 0.0;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.ncc_window = 0;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.static_weight = 1.5;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.mix.challenge = 0.9;
        c.mix.practice = 0.9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ncc_window_nudges_effective_level() {
        let cfg = PolicyConfig::hybrid();
        let mut state = PolicyState::new(3, &cfg).unwrap();
        assert!((state.effective_level(2, &cfg) - 2.0).abs() < 1e-12);
        // A full window of successes at band 2 lifts the level.
        for item in 0..cfg.ncc_window as u32 {
            state.record(item, 2.0, true);
        }
        assert!((state.effective_level(2, &cfg) - 2.5).abs() < 1e-12);
        // A failure at band 2 resets the streak and pulls it down.
        state.record(99, 2.0, false);
        assert!((state.effective_level(2, &cfg) - 1.75).abs() < 1e-12);
        assert!(state.has_failed(99));
        // Retrying the item successfully clears the failed mark.
        state.record(99, 2.0, true);
        assert!(!state.has_failed(99));
        // Bounds clamp.
        assert!(state.effective_level(3, &cfg) <= 3.0);
        assert!(state.effective_level(1, &cfg) >= 1.0);
    }

    #[test]
    fn failure_resets_bands_at_and_above() {
        let cfg = PolicyConfig::hybrid();
        let mut state = PolicyState::new(3, &cfg).unwrap();
        for item in 0..3u32 {
            state.record(item, 1.0, true);
            state.record(item + 10, 3.0, true);
        }
        assert!((state.effective_level(1, &cfg) - 1.5).abs() < 1e-12);
        assert!((state.effective_level(3, &cfg) - 3.0).abs() < 1e-12); // clamped
                                                                       // A failure at band 2 wipes bands 2 and 3, but not band 1.
        state.record(50, 2.0, false);
        assert!((state.effective_level(1, &cfg) - 1.5).abs() < 1e-12);
        assert!((state.effective_level(3, &cfg) - 3.0).abs() < 1e-12);
        // Band 3's streak is gone: one more success doesn't refill it.
        state.record(60, 3.0, true);
        let lvl = state.effective_level(3, &cfg);
        assert!((lvl - 3.0).abs() < 1e-12, "window must have been reset");
        assert_eq!(state.total_attempts(), 8);
    }

    #[test]
    fn rerank_is_deterministic_and_bounded() {
        let band = band_fixture(2);
        let cfg = PolicyConfig::hybrid();
        let mut state = PolicyState::new(3, &cfg).unwrap();
        state.record(1, 2.0, true);
        state.record(2, 2.9, false);
        let a = rerank_band(&band, &state, 2, &|_| false, &cfg, 5).unwrap();
        let b = rerank_band(&band, &state, 2, &|_| false, &cfg, 5).unwrap();
        assert_eq!(a, b);
        assert!(a.len() <= 5);
        assert!(!a.is_empty());
        for r in &a {
            assert!((0.0..=1.0 + 1e-12).contains(&r.policy_score));
            assert!((0.0..=1.0 + 1e-12).contains(&r.aptitude));
            assert!((0.0..=1.0 + 1e-12).contains(&r.expected));
            assert!((0.0..=1.0 + 1e-12).contains(&r.gap));
        }
        assert!(a.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn quotas_reserve_strata_when_available() {
        let band = band_fixture(2);
        let mut cfg = PolicyConfig::hybrid();
        cfg.mix = MixQuota {
            practice: 0.25,
            review: 0.25,
            challenge: 0.25,
        };
        let state = PolicyState::new(3, &PolicyConfig::hybrid()).unwrap();
        let recs = rerank_band(&band, &state, 2, &|_| false, &cfg, 8).unwrap();
        // The wide fixture band has items in every stratum, so each
        // reserved stratum must be represented.
        for stratum in [Stratum::Review, Stratum::Practice, Stratum::Challenge] {
            assert!(
                recs.iter().any(|r| r.stratum == stratum),
                "missing {stratum:?} in {recs:?}"
            );
        }
    }

    #[test]
    fn teach_mode_stretches_more_than_motivate() {
        let band = band_fixture(2);
        let state_t = PolicyState::new(3, &PolicyConfig::teach()).unwrap();
        let state_m = PolicyState::new(3, &PolicyConfig::motivate()).unwrap();
        let teach = rerank_band(&band, &state_t, 2, &|_| false, &PolicyConfig::teach(), 4).unwrap();
        let motivate =
            rerank_band(&band, &state_m, 2, &|_| false, &PolicyConfig::motivate(), 4).unwrap();
        let mean_d = |recs: &[PolicyRecommendation]| {
            recs.iter().map(|r| r.difficulty).sum::<f64>() / recs.len().max(1) as f64
        };
        assert!(
            mean_d(&teach) > mean_d(&motivate),
            "teach {:.3} vs motivate {:.3}",
            mean_d(&teach),
            mean_d(&motivate)
        );
    }

    #[test]
    fn exclusion_and_k_are_honored() {
        let band = band_fixture(2);
        let cfg = PolicyConfig::hybrid();
        let state = PolicyState::new(3, &cfg).unwrap();
        let recs = rerank_band(&band, &state, 2, &|i| i % 2 == 0, &cfg, 3).unwrap();
        assert!(recs.iter().all(|r| r.item % 2 == 1));
        assert!(recs.len() <= 3);
        assert!(rerank_band(&band, &state, 2, &|_| false, &cfg, 0).is_err());
    }

    #[test]
    fn repeated_failures_demote_an_overreaching_pick() {
        let band = band_fixture(2);
        let mut cfg = PolicyConfig::hybrid();
        cfg.w_aptitude = 0.6;
        cfg.w_expected = 0.3;
        cfg.w_gap = 0.0;
        cfg.static_weight = 0.0;
        let mut state = PolicyState::new(3, &cfg).unwrap();
        let fresh = rerank_band(&band, &state, 2, &|_| false, &cfg, 1).unwrap();
        // With no evidence, the aptitude weight reaches for the top of
        // the band.
        assert!(fresh[0].difficulty > 2.5, "{fresh:?}");
        // Drowning at that difficulty must pull the pick back down:
        // the success-rate weighting demotes the failed band.
        for _ in 0..6 {
            state.record(fresh[0].item, fresh[0].difficulty, false);
        }
        let after = rerank_band(&band, &state, 2, &|_| false, &cfg, 1).unwrap();
        assert!(
            after[0].difficulty < fresh[0].difficulty,
            "fresh {fresh:?} vs after {after:?}"
        );
    }

    #[test]
    fn band_index_is_clamped_rounding() {
        let state = PolicyState::new(5, &PolicyConfig::hybrid()).unwrap();
        let by_rounding = |d: f64| {
            let b = d.round();
            if b < 1.0 {
                0
            } else if b >= 5.0 {
                4
            } else {
                b as usize - 1
            }
        };
        let mut probes = vec![-3.0, -0.5, 0.0, 1e-300, 1e300, f64::MAX, f64::INFINITY];
        for j in 0..=6 {
            let half = j as f64 + 0.5;
            let below = f64::from_bits(half.to_bits() - 1);
            let above = f64::from_bits(half.to_bits() + 1);
            probes.extend([j as f64, half, below, above]);
        }
        probes.extend((0..=7000).map(|i| i as f64 / 1000.0));
        for d in probes {
            assert_eq!(state.band_index(d), by_rounding(d), "difficulty {d}");
        }
    }

    #[test]
    fn zero_failure_memory_records_failures_without_history() {
        let mut cfg = PolicyConfig::hybrid();
        cfg.failure_memory = 0;
        cfg.validate().unwrap();
        let mut state = PolicyState::new(3, &cfg).unwrap();
        state.record(4, 2.0, false);
        state.record(5, 3.0, false);
        assert!(state.recent_failures().is_empty());
        assert!(state.has_failed(4) && state.has_failed(5));
        assert_eq!(state.total_attempts(), 2);
        let recs = rerank_band(&band_fixture(2), &state, 2, &|_| false, &cfg, 4).unwrap();
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| r.gap == 0.0));
    }

    #[test]
    fn gap_objective_prefers_recently_failed_difficulty() {
        let band = band_fixture(2);
        let mut cfg = PolicyConfig::hybrid();
        cfg.w_aptitude = 0.0;
        cfg.w_expected = 0.0;
        cfg.w_gap = 1.0;
        cfg.static_weight = 0.0;
        cfg.mix = MixQuota {
            practice: 0.0,
            review: 0.0,
            challenge: 0.0,
        };
        let mut state = PolicyState::new(3, &cfg).unwrap();
        state.record(7, 3.0, false);
        let recs = rerank_band(&band, &state, 2, &|_| false, &cfg, 3).unwrap();
        // Highest gap = closest to the failed difficulty 3.0.
        assert!((recs[0].difficulty - 3.0).abs() < 1e-9, "{recs:?}");
        assert!(recs[0].gap >= recs.last().unwrap().gap);
        assert!(recs
            .iter()
            .all(|r| (r.difficulty - 3.0).abs() <= (1.0_f64 - 3.0).abs()));
    }
}
