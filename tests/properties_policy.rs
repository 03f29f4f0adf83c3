//! Property tests for the adaptive re-rank: [`rerank_band`] keeps only
//! each stratum's best keys and builds results for the picks alone, and
//! it must be *bit-for-bit* the re-rank that scores every survivor and
//! fully sorts them. That sort-based re-rank is rebuilt below from the
//! public [`PolicyState`] API as the oracle. Cases cover random bands
//! and states (failures, retries, an empty failure memory), random
//! exclusion sets, every preset plus zero, exactly-full and unfillable
//! quotas, `k` from 1 past the survivor count, everything excluded, and
//! tied scores.

use std::cmp::Ordering;

use proptest::prelude::*;
use upskill_core::dist::{Categorical, FeatureDistribution};
use upskill_core::emission::EmissionTable;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
use upskill_core::model::SkillModel;
use upskill_core::policy::{
    rerank_band, MixQuota, PolicyConfig, PolicyRecommendation, PolicyState, Stratum,
};
use upskill_core::recommend::{build_level_band, LevelBand, RecommendConfig};
use upskill_core::types::{Action, ActionSequence, Dataset, ItemId, SkillLevel};

/// Builds an emission table from raw draws: one categorical feature,
/// each item's category drawn freely, each level's emission row an
/// arbitrary (normalized) distribution over the categories. Items that
/// share a category share their interest, which is what lets equal
/// difficulties produce exactly tied scores.
fn table_from_draws(categories: &[u32], level_weights: &[Vec<f64>]) -> EmissionTable {
    let cardinality = 4u32;
    let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality }]).unwrap();
    let items: Vec<Vec<FeatureValue>> = categories
        .iter()
        .map(|&c| vec![FeatureValue::Categorical(c % cardinality)])
        .collect();
    let seq = ActionSequence::new(
        0,
        (0..categories.len().min(3))
            .map(|t| Action::new(t as i64, 0, t as u32))
            .collect(),
    )
    .unwrap();
    let ds = Dataset::new(schema.clone(), items, vec![seq]).unwrap();
    let cells: Vec<Vec<FeatureDistribution>> = level_weights
        .iter()
        .map(|weights| {
            let sum: f64 = weights.iter().sum();
            let probs: Vec<f64> = weights.iter().map(|w| w / sum).collect();
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(probs).unwrap(),
            )]
        })
        .collect();
    let model = SkillModel::new(schema, level_weights.len(), cells).unwrap();
    EmissionTable::build(&model, &ds)
}

/// The sort-based re-rank: score every non-excluded candidate, sort all
/// of them by score descending then item ascending, then run the two
/// quota passes over the full sorted list.
fn oracle_rerank(
    band: &LevelBand,
    state: &PolicyState,
    committed: SkillLevel,
    exclude: &dyn Fn(ItemId) -> bool,
    config: &PolicyConfig,
    k: usize,
) -> Vec<PolicyRecommendation> {
    let s_eff = state.effective_level(committed, config);
    let upper = band.config().upper_slack.max(1e-9);
    let span = (band.config().lower_slack + band.config().upper_slack).max(1e-9);
    let w_total = config.w_aptitude + config.w_expected + config.w_gap;
    let mut scored: Vec<PolicyRecommendation> = Vec::new();
    for r in band.ranked() {
        if exclude(r.item) {
            continue;
        }
        let stretch = r.difficulty - s_eff;
        let reach = if stretch > 0.0 {
            (stretch / upper).min(1.0)
        } else {
            0.0
        };
        let rate = state.success_rate(r.difficulty);
        let aptitude = rate * reach;
        let expected = rate * (1.0 - reach);
        let gap = if state.recent_failures().is_empty() {
            0.0
        } else {
            let nearest = state
                .recent_failures()
                .iter()
                .map(|f| (r.difficulty - f).abs())
                .fold(f64::INFINITY, f64::min);
            (1.0 - nearest / span).clamp(0.0, 1.0)
        };
        let policy_score =
            (config.w_aptitude * aptitude + config.w_expected * expected + config.w_gap * gap)
                / w_total;
        let stratum = if stretch > config.practice_halfwidth {
            Stratum::Challenge
        } else if stretch < -config.practice_halfwidth {
            Stratum::Review
        } else {
            Stratum::Practice
        };
        scored.push(PolicyRecommendation {
            item: r.item,
            difficulty: r.difficulty,
            stratum,
            aptitude,
            expected,
            gap,
            policy_score,
            static_score: r.score,
            score: (1.0 - config.static_weight) * policy_score + config.static_weight * r.score,
        });
    }
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then(a.item.cmp(&b.item))
    });
    let k = k.min(scored.len());
    let reserve = |frac: f64| ((k as f64) * frac).floor() as usize;
    let mut quota = [
        reserve(config.mix.review),
        reserve(config.mix.practice),
        reserve(config.mix.challenge),
    ];
    let slot = |s: Stratum| match s {
        Stratum::Review => 0usize,
        Stratum::Practice => 1,
        Stratum::Challenge => 2,
    };
    let mut picked = vec![false; scored.len()];
    let mut n_picked = 0usize;
    for (i, rec) in scored.iter().enumerate() {
        if n_picked == k {
            break;
        }
        if quota[slot(rec.stratum)] > 0 {
            quota[slot(rec.stratum)] -= 1;
            picked[i] = true;
            n_picked += 1;
        }
    }
    for p in picked.iter_mut() {
        if n_picked == k {
            break;
        }
        if !*p {
            *p = true;
            n_picked += 1;
        }
    }
    scored
        .into_iter()
        .zip(picked)
        .filter_map(|(r, p)| p.then_some(r))
        .collect()
}

/// Field-by-field bitwise equality of two re-ranked lists.
fn assert_bitwise_equal(
    expected: &[PolicyRecommendation],
    got: &[PolicyRecommendation],
) -> proptest::TestCaseResult {
    prop_assert_eq!(expected.len(), got.len());
    for (a, b) in expected.iter().zip(got) {
        prop_assert_eq!(a.item, b.item);
        prop_assert_eq!(a.stratum, b.stratum);
        for (x, y) in [
            (a.difficulty, b.difficulty),
            (a.aptitude, b.aptitude),
            (a.expected, b.expected),
            (a.gap, b.gap),
            (a.policy_score, b.policy_score),
            (a.static_score, b.static_score),
            (a.score, b.score),
        ] {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "item {}: {} vs {}",
                a.item,
                x,
                y
            );
        }
    }
    Ok(())
}

/// Decodes a drawn variant into a policy configuration: the three
/// presets, then quota shapes the presets never reach — no
/// reservations, reservations that sum to exactly 1, random
/// reservations scaled below 1, and an all-challenge reservation that a
/// band with few items above the user's level cannot fill.
fn decode_config(variant: usize, draws: &[f64]) -> PolicyConfig {
    let mix = |practice, review, challenge| MixQuota {
        practice,
        review,
        challenge,
    };
    let mut cfg = match variant % 3 {
        0 => PolicyConfig::teach(),
        1 => PolicyConfig::motivate(),
        _ => PolicyConfig::hybrid(),
    };
    match variant {
        0..=2 => return cfg,
        3 => cfg.mix = mix(0.0, 0.0, 0.0),
        4 => cfg.mix = mix(0.5, 0.25, 0.25),
        5 => {
            let total = draws[0] + draws[1] + draws[2];
            cfg.mix = mix(
                draws[0] / total * draws[3],
                draws[1] / total * draws[3],
                draws[2] / total * draws[3],
            );
        }
        _ => cfg.mix = mix(0.0, 0.0, 1.0),
    }
    cfg.w_aptitude = draws[4];
    cfg.w_expected = draws[5];
    cfg.w_gap = draws[6];
    cfg.static_weight = draws[7];
    cfg.practice_halfwidth = draws[8] * 0.8;
    cfg.failure_memory = (draws[9] * 4.0) as usize;
    cfg.ncc_window = 1 + (draws[10] * 3.0) as usize;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // THE re-rank contract, at every level of a random model: for any
    // policy state, configuration, exclusion set and `k`, the selection
    // re-rank reproduces the sort-based oracle bit for bit.
    #[test]
    fn rerank_matches_sort_based_oracle_bitwise(
        categories in proptest::collection::vec(0u32..8, 3..48),
        raw_weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..10.0, 4), 2..5),
        raw_difficulty in proptest::collection::vec(0.2f64..6.0, 48),
        tie_grid in 0u32..2,
        lower_slack in 0.0f64..4.0,
        upper_slack in 0.2f64..4.0,
        interest_weight in 0.0f64..1.0,
        variant in 0usize..7,
        draws in proptest::collection::vec(0.0f64..1.0, 11),
        history in proptest::collection::vec((0usize..64, 0u32..3), 0..24),
        exclude_kind in 0u32..3,
        exclude_mask in 0u64..u64::MAX,
        k_draw in 0usize..64,
    ) {
        let table = table_from_draws(&categories, &raw_weights);
        let n_items = categories.len();
        let n_levels = raw_weights.len();
        // On the tie grid many items share a difficulty, and items that
        // also share a category then tie on every score.
        let difficulty: Vec<f64> = raw_difficulty[..n_items]
            .iter()
            .map(|&d| if tie_grid == 1 { (d * 2.0).round() / 2.0 } else { d })
            .collect();
        let recommend = RecommendConfig {
            lower_slack,
            upper_slack,
            interest_weight,
            ..RecommendConfig::default()
        };
        let cfg = decode_config(variant, &draws);
        prop_assert!(cfg.validate().is_ok(), "{:?}", cfg);

        // Successes, failures and retries over in- and out-of-catalog
        // difficulties; an item failed and later passed is retried.
        let mut state = PolicyState::new(n_levels, &cfg).unwrap();
        for &(pick, outcome) in &history {
            let item = (pick % n_items) as ItemId;
            let d = if pick >= n_items { pick as f64 / 10.0 } else { difficulty[item as usize] };
            state.record(item, d, outcome != 0);
        }
        if cfg.failure_memory == 0 {
            prop_assert!(state.recent_failures().is_empty());
        }

        let excluded = |item: ItemId| match exclude_kind {
            0 => false,
            1 => exclude_mask >> (item % 64) & 1 == 1,
            _ => true,
        };
        for level in 1..=n_levels as SkillLevel {
            let band = build_level_band(&table, &difficulty, level, &recommend).unwrap();
            for k in [1, k_draw % (n_items + 4) + 1, n_items + 3] {
                let got = rerank_band(&band, &state, level, &excluded, &cfg, k).unwrap();
                let expected = oracle_rerank(&band, &state, level, &excluded, &cfg, k);
                assert_bitwise_equal(&expected, &got)?;
                prop_assert!(got.len() <= k);
                if exclude_kind == 2 {
                    prop_assert!(got.is_empty());
                }
            }
        }
    }
}
