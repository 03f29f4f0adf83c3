//! Runtime invariant layer: cheap, centrally gated correctness checks.
//!
//! The model's guarantees — monotone non-decreasing skill paths (Eq. 4),
//! finite emission scores, and the assignment step's DP optimality (the
//! new path never scores below the incumbent under the same emission
//! model) — are enforced here at the moments state is *committed*: after
//! an emission-table fill or refresh, after an assignment step, after a
//! streaming ingest, and after each training iteration's likelihood
//! evaluation.
//!
//! ## Gating and cost model
//!
//! Every check routes through [`InvariantCtx`], whose methods start with
//! `if !ENABLED { return Ok(()); }`. [`ENABLED`] is a `const`, true in
//! debug builds (`debug_assertions`) and whenever the `strict-invariants`
//! cargo feature is on. In a release build without the feature the
//! compiler sees a constant-false branch and removes the check bodies
//! entirely — callers pay nothing, not even a branch.
//!
//! With checks on, per-call costs are:
//!
//! | check | cost |
//! |---|---|
//! | [`InvariantCtx::check_emission_table`] | `O(n_items · S)` scan |
//! | [`InvariantCtx::check_monotone`] | `O(Σ_u · A_u )` scan |
//! | [`InvariantCtx::check_sequence_monotone`] | `O( A_u )` scan |
//! | [`InvariantCtx::check_extension`] | `O(1)` |
//! | [`InvariantCtx::check_ll_non_decreasing`] | `O(1)` |
//! | [`InvariantCtx::check_assign_step_optimal`] | `O(Σ_u A_u)` rescore (+ a table build on the rescan path) |
//! | [`InvariantCtx::check_grid`] | full grid rebuild + compare |
//! | [`InvariantCtx::check_exact_integer`] | `O(1)` |
//!
//! [`StatsGrid`] refits carry no float
//! state of their own (the grid is an integer histogram), so NaN poison
//! introduced through a corrupted dataset surfaces at the *next* emission
//! fill or refresh — which is why every table build/refresh path calls
//! [`InvariantCtx::check_emission_table`] before the table is used.
//!
//! ## Failure mode
//!
//! A failed check returns [`CoreError::InvariantViolation`] naming the
//! check and the offending coordinates, rather than panicking: callers in
//! long-lived services can surface the corruption without dying, and the
//! proptest suite can assert rejection.

use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::incremental::StatsGrid;
use crate::types::{Dataset, SkillAssignments, SkillLevel};

/// Whether invariant checks are compiled in. True in debug builds and
/// under the `strict-invariants` feature; constant-false otherwise, so
/// release builds without the feature pay zero cost.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "strict-invariants"));

/// Relative slack for the likelihood-non-decrease check: closed-form
/// updates are exact in real arithmetic but accumulate rounding in
/// floating point, so a strict `curr >= prev` would flag healthy runs.
const LL_RELATIVE_SLACK: f64 = 1e-6;

/// Handle through which hot paths invoke invariant checks.
///
/// Zero-sized; thread it by value. Exists (rather than free functions)
/// so the gating policy lives in one place and future per-run
/// configuration (e.g. sampled checking) has a home that does not
/// require touching every call site again.
#[derive(Debug, Clone, Copy, Default)]
pub struct InvariantCtx;

impl InvariantCtx {
    /// Creates a check context.
    pub const fn new() -> Self {
        InvariantCtx
    }

    /// Whether checks are active in this build.
    pub const fn enabled(&self) -> bool {
        ENABLED
    }

    /// Rejects emission tables containing NaN or `+inf`.
    ///
    /// `-inf` is legal (a forbidden DP path); NaN and `+inf` can only
    /// arise from poisoned inputs or parameter corruption and would
    /// propagate through every DP that reads the row.
    pub fn check_emission_table(&self, table: &EmissionTable) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        table.verify_finite()
    }

    /// Rejects assignment matrices with a non-monotone committed path.
    pub fn check_monotone(
        &self,
        check: &'static str,
        assignments: &SkillAssignments,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        for (u, seq) in assignments.per_user.iter().enumerate() {
            for (n, w) in seq.windows(2).enumerate() {
                if w[1] < w[0] {
                    return Err(CoreError::InvariantViolation {
                        check,
                        detail: format!(
                            "sequence {u} decreases from level {} to {} at action {}",
                            w[0],
                            w[1],
                            n + 1
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Rejects a single non-monotone per-action level path.
    pub fn check_sequence_monotone(
        &self,
        check: &'static str,
        levels: &[SkillLevel],
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        for (n, w) in levels.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(CoreError::InvariantViolation {
                    check,
                    detail: format!(
                        "level path decreases from {} to {} at action {}",
                        w[0],
                        w[1],
                        n + 1
                    ),
                });
            }
        }
        Ok(())
    }

    /// O(1) check that appending `new_level` after `prev_last` keeps a
    /// streaming path monotone. `prev_last = None` (empty path) always
    /// passes.
    pub fn check_extension(
        &self,
        check: &'static str,
        prev_last: Option<SkillLevel>,
        new_level: SkillLevel,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        if let Some(prev) = prev_last {
            if new_level < prev {
                return Err(CoreError::InvariantViolation {
                    check,
                    detail: format!("appended level {new_level} is below previous level {prev}"),
                });
            }
        }
        Ok(())
    }

    /// Verifies an incrementally maintained [`StatsGrid`] against a
    /// from-scratch rebuild for `assignments`. This is the (previously
    /// `debug_assertions`-only) grid drift check, now gated with the rest
    /// of the invariant layer so `strict-invariants` release builds run
    /// it too.
    pub fn check_grid(
        &self,
        grid: &StatsGrid,
        dataset: &Dataset,
        assignments: &SkillAssignments,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        grid.cross_check(dataset, assignments)
    }

    /// Rejects an exact integer statistic at or past `2^53`.
    ///
    /// [`StatsGrid`] keeps the Poisson sums `Σ k` and level totals `n` as
    /// integers and converts them to `f64` when a level is refit. Below
    /// `2^53` every partial sum of the item-ordered replay is an exactly
    /// representable integer, so the conversion has the replay's bits;
    /// past it the two round differently and the incremental fit would
    /// silently drift from [`StatsGrid::fit_model`].
    pub fn check_exact_integer(&self, check: &'static str, value: u128) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        if value >= 1u128 << 53 {
            return Err(CoreError::InvariantViolation {
                check,
                detail: format!("{value} is at or past 2^53, where f64 sums stop being exact"),
            });
        }
        Ok(())
    }

    /// Rejects merging two item-range shards whose declared item ranges
    /// overlap.
    ///
    /// Item-range sharding (see [`StatsGrid::shard_for_items`]) promises
    /// each shard accumulated statistics for a disjoint slice of the
    /// item axis, which is what makes the additive merge exact. Two
    /// overlapping ranges mean some item was counted by both workers —
    /// the merge would silently double-count it. `None` marks a grid
    /// that covers the whole axis (e.g. a user-partition partial), for
    /// which overlap is legitimate; the check only fires when **both**
    /// operands declare a range.
    pub fn check_disjoint_shards(
        &self,
        check: &'static str,
        left: Option<(usize, usize)>,
        right: Option<(usize, usize)>,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        if let (Some((ls, le)), Some((rs, re))) = (left, right) {
            if ls < re && rs < le {
                return Err(CoreError::InvariantViolation {
                    check,
                    detail: format!("item ranges {ls}..{le} and {rs}..{re} overlap"),
                });
            }
        }
        Ok(())
    }

    /// Rejects a log-likelihood that dropped below an incumbent value by
    /// more than a small relative slack.
    ///
    /// `prev` and `curr` must be scores of two candidates under the
    /// *same* model — e.g. the incumbent path and the DP's new path on
    /// one emission table, where the DP's optimality guarantees
    /// `curr >= prev` in exact arithmetic. (Scores from *different*
    /// iterations do not qualify: the refit between them uses smoothing
    /// and moment fits, neither of which maximizes the raw likelihood,
    /// so the objective can genuinely dip across iterations.) The slack
    /// (`1e-6 · max(1, |prev|)`) absorbs rounding. Non-finite `prev`
    /// (e.g. an incumbent stranded on a now-forbidden `-inf` cell) skips
    /// the comparison; NaN `curr` always fails.
    pub fn check_ll_non_decreasing(&self, check: &'static str, prev: f64, curr: f64) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        if curr.is_nan() {
            return Err(CoreError::InvariantViolation {
                check,
                detail: "log-likelihood is NaN".to_string(),
            });
        }
        if !prev.is_finite() {
            return Ok(());
        }
        let slack = LL_RELATIVE_SLACK * prev.abs().max(1.0);
        if curr < prev - slack {
            return Err(CoreError::InvariantViolation {
                check,
                detail: format!("log-likelihood decreased from {prev} to {curr} (slack {slack})"),
            });
        }
        Ok(())
    }

    /// Verifies the assignment step's optimality guarantee: the DP's new
    /// path must score at least as well as the incumbent assignments
    /// *under the same emission model*.
    ///
    /// This is the form of likelihood non-decrease that hard-assignment
    /// training actually guarantees. `table` is the table the DP just
    /// consumed when the incremental path maintained one; on the rescan
    /// path (`None`) an equivalent table is built from `model` — checks
    /// are compiled out in release builds, so the extra build is free
    /// there. `incumbent` is `None` on the first iteration.
    pub fn check_assign_step_optimal(
        &self,
        check: &'static str,
        model: &crate::model::SkillModel,
        table: Option<&EmissionTable>,
        dataset: &Dataset,
        incumbent: Option<&SkillAssignments>,
        new_ll: f64,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        let Some(incumbent) = incumbent else {
            return self.check_ll_non_decreasing(check, f64::NEG_INFINITY, new_ll);
        };
        let owned;
        let table = match table {
            Some(t) => t,
            None => {
                owned = EmissionTable::build(model, dataset);
                &owned
            }
        };
        let mut incumbent_ll = 0.0;
        for (seq, levels) in dataset.sequences().iter().zip(&incumbent.per_user) {
            for (action, &level) in seq.actions().iter().zip(levels) {
                incumbent_ll += table.log_likelihood(action.item, level);
            }
        }
        self.check_ll_non_decreasing(check, incumbent_ll, new_ll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn enabled_in_test_builds() {
        // Tests compile with debug_assertions (or the feature), so the
        // gate must be open here — otherwise the rest of this module's
        // tests would be vacuous. Asserting the constant is the point.
        assert!(ENABLED);
        assert!(InvariantCtx::new().enabled());
    }

    #[test]
    fn monotone_checks_accept_and_reject() {
        let ctx = InvariantCtx::new();
        let ok = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![3]],
        };
        assert!(ctx.check_monotone("test", &ok).is_ok());
        let bad = SkillAssignments {
            per_user: vec![vec![1, 3, 2]],
        };
        let err = ctx.check_monotone("test", &bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sequence 0"), "{msg}");
        assert!(msg.contains("3 to 2"), "{msg}");

        assert!(ctx.check_sequence_monotone("test", &[1, 2, 2]).is_ok());
        assert!(ctx.check_sequence_monotone("test", &[2, 1]).is_err());
        assert!(ctx.check_sequence_monotone("test", &[]).is_ok());
    }

    #[test]
    fn disjoint_shard_check_fires_only_on_double_ranges() {
        let ctx = InvariantCtx::new();
        // Whole-axis partials (user partition) merge freely.
        assert!(ctx.check_disjoint_shards("test", None, None).is_ok());
        assert!(ctx
            .check_disjoint_shards("test", Some((0, 10)), None)
            .is_ok());
        // Disjoint and touching ranges pass.
        assert!(ctx
            .check_disjoint_shards("test", Some((0, 10)), Some((10, 20)))
            .is_ok());
        assert!(ctx
            .check_disjoint_shards("test", Some((10, 20)), Some((0, 10)))
            .is_ok());
        // Overlap is rejected with the offending coordinates.
        let err = ctx
            .check_disjoint_shards("test", Some((0, 10)), Some((5, 20)))
            .unwrap_err();
        assert!(err.to_string().contains("0..10"), "{err}");
    }

    #[test]
    fn extension_check_is_order_sensitive() {
        let ctx = InvariantCtx::new();
        assert!(ctx.check_extension("test", None, 1).is_ok());
        assert!(ctx.check_extension("test", Some(2), 2).is_ok());
        assert!(ctx.check_extension("test", Some(2), 3).is_ok());
        assert!(ctx.check_extension("test", Some(3), 2).is_err());
    }

    #[test]
    fn ll_check_allows_slack_but_rejects_drops_and_nan() {
        let ctx = InvariantCtx::new();
        // First iteration: prev is -inf, anything finite passes.
        assert!(ctx
            .check_ll_non_decreasing("test", f64::NEG_INFINITY, -100.0)
            .is_ok());
        // Improvement and tiny rounding dips pass.
        assert!(ctx.check_ll_non_decreasing("test", -100.0, -90.0).is_ok());
        assert!(ctx
            .check_ll_non_decreasing("test", -100.0, -100.0 - 1e-8)
            .is_ok());
        // A real drop fails.
        assert!(ctx.check_ll_non_decreasing("test", -100.0, -101.0).is_err());
        // NaN always fails, even from -inf.
        assert!(ctx
            .check_ll_non_decreasing("test", f64::NEG_INFINITY, f64::NAN)
            .is_err());
    }

    #[test]
    fn assign_step_check_scores_incumbent_under_same_model() {
        use crate::dist::{Categorical, FeatureDistribution};
        use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
        use crate::model::SkillModel;
        use crate::types::{Action, ActionSequence};

        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let cells = vec![
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.9, 0.1]).unwrap(),
            )],
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.1, 0.9]).unwrap(),
            )],
        ];
        let model = SkillModel::new(schema.clone(), 2, cells).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        let seq = ActionSequence::new(0, vec![Action::new(0, 0, 0), Action::new(1, 0, 1)]).unwrap();
        let ds = Dataset::new(schema, items, vec![seq]).unwrap();

        let incumbent = SkillAssignments {
            per_user: vec![vec![1, 2]],
        };
        let table = EmissionTable::build(&model, &ds);
        let incumbent_ll = table.log_likelihood(0, 1) + table.log_likelihood(1, 2);

        let ctx = InvariantCtx::new();
        // No incumbent: only NaN is rejected.
        assert!(ctx
            .check_assign_step_optimal("test", &model, None, &ds, None, -5.0)
            .is_ok());
        assert!(ctx
            .check_assign_step_optimal("test", &model, None, &ds, None, f64::NAN)
            .is_err());
        // Matching or better than the incumbent passes, with or without a
        // caller-maintained table.
        for table_arg in [Some(&table), None] {
            assert!(ctx
                .check_assign_step_optimal(
                    "test",
                    &model,
                    table_arg,
                    &ds,
                    Some(&incumbent),
                    incumbent_ll,
                )
                .is_ok());
        }
        // A clear drop below the incumbent fails.
        let err = ctx
            .check_assign_step_optimal(
                "test",
                &model,
                Some(&table),
                &ds,
                Some(&incumbent),
                incumbent_ll - 1.0,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::InvariantViolation { .. }));
    }
}
