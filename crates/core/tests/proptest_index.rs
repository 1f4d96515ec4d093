//! Property-based tests of the covering indexes: the SFC indexes must agree
//! with the brute-force geometric definition of covering.

use proptest::prelude::*;

use acd_covering::{
    ApproxConfig, CoveringIndex, CoveringPolicy, LinearScanIndex, QueryEngine, SfcCoveringIndex,
};
use acd_sfc::CurveKind;
use acd_subscription::{RangePredicate, Schema, Subscription};

/// Schemas of `(arity, bits)` whose dominance keys (`2·arity·bits` bits)
/// take every path of the SFC index: 24 bits, 60 (the daemon's 3 × 10,
/// packed in a `u64`), 96 (packed in a `u128`) and 160 (over 128 bits, so
/// no packed key column: the `Key` path).
const SHAPES: [(usize, u32); 4] = [(2, 6), (3, 10), (2, 24), (4, 20)];

/// An exhaustive configuration on the engine `kind` runs: the skip engine
/// on the Z curve, the eager engine on Hilbert and Gray.
fn exhaustive_on(kind: CurveKind) -> ApproxConfig {
    ApproxConfig::exhaustive().engine(QueryEngine::for_curve(kind))
}

fn schema(arity: usize, bits: u32) -> Schema {
    ["x", "y", "z", "w"]
        .iter()
        .take(arity)
        .fold(Schema::builder(), |b, &name| b.attribute(name, 0.0, 100.0))
        .bits_per_attribute(bits)
        .build()
        .unwrap()
}

fn build_sub(schema: &Schema, id: u64, bounds: &[(f64, f64)]) -> Subscription {
    let predicates: Vec<RangePredicate> = schema
        .attributes()
        .iter()
        .zip(bounds)
        .map(|(a, &(lo, hi))| RangePredicate::between(a.name(), lo, hi).unwrap())
        .collect();
    Subscription::from_predicates(schema, id, &predicates).unwrap()
}

/// Whether `a`'s quantized bounds contain `b`'s on every attribute: the
/// relation dominance of the transformed points decides.
fn grid_contains(a: &Subscription, b: &Subscription) -> bool {
    let mut bounds = a.grid_cells().zip(b.grid_cells());
    bounds.all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
}

/// `n` subscriptions' bounds, one pair per attribute of the widest schema
/// (`build_sub` uses as many as the schema has).
fn bounds_strategy(n: usize) -> impl Strategy<Value = Vec<Vec<(f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(a, b)| (a.min(b) * 100.0, a.max(b) * 100.0))
                .collect::<Vec<(f64, f64)>>()
        }),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exhaustive SFC index agrees with the linear scan on every curve
    /// and every key width, for arbitrary populations and query orders,
    /// including interleaved removals.
    #[test]
    fn exhaustive_index_agrees_with_linear(
        population in bounds_strategy(40),
        removals in prop::collection::vec(0usize..40, 0..10),
    ) {
        let cases = SHAPES
            .into_iter()
            .flat_map(|(arity, bits)| CurveKind::all().map(|kind| (arity, bits, kind)));
        for (arity, bits, kind) in cases {
            let schema = schema(arity, bits);
            let mut sfc = SfcCoveringIndex::with_curve(&schema, exhaustive_on(kind), kind).unwrap();
            let mut linear = LinearScanIndex::new(&schema);
            let subs: Vec<Subscription> = population
                .iter()
                .enumerate()
                .map(|(i, b)| build_sub(&schema, i as u64 + 1, b))
                .collect();
            for s in &subs {
                // Query-before-insert, like a router.
                let a = sfc.find_covering(s).unwrap();
                let b = linear.find_covering(s).unwrap();
                prop_assert_eq!(
                    a.is_covered(),
                    b.is_covered(),
                    "curve {} bits {}",
                    kind.name(),
                    bits
                );
                sfc.insert(s).unwrap();
                linear.insert(s).unwrap();
            }
            // Remove a few and re-check agreement.
            for &r in &removals {
                let id = r as u64 + 1;
                if sfc.contains(id) {
                    sfc.remove(id).unwrap();
                    linear.remove(id).unwrap();
                }
            }
            for s in subs.iter().take(10) {
                let probe = s.with_id(10_000 + s.id());
                let a = sfc.find_covering(&probe).unwrap();
                let b = linear.find_covering(&probe).unwrap();
                prop_assert_eq!(a.is_covered(), b.is_covered());
            }
        }
    }

    /// The approximate index never returns false positives, and whenever it
    /// answers "not covered" it has searched at least the promised volume
    /// fraction (or fallen back to the exact scan).
    #[test]
    fn approximate_index_is_sound(
        population in bounds_strategy(60),
        queries in bounds_strategy(15),
        eps_percent in 1u32..=40,
    ) {
        let eps = eps_percent as f64 / 100.0;
        let schema = schema(2, 7);
        let mut index =
            SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(eps).unwrap())
                .unwrap();
        let mut linear = LinearScanIndex::new(&schema);
        for (i, b) in population.iter().enumerate() {
            let s = build_sub(&schema, i as u64 + 1, b);
            index.insert(&s).unwrap();
            linear.insert(&s).unwrap();
        }
        for (i, b) in queries.iter().enumerate() {
            let q = build_sub(&schema, 10_000 + i as u64, b);
            let outcome = index.find_covering(&q).unwrap();
            let truth = linear.find_covering(&q).unwrap();
            if let Some(id) = outcome.covering {
                prop_assert!(index.get(id).unwrap().covers(&q), "false positive");
                prop_assert!(truth.is_covered());
            } else {
                prop_assert!(
                    outcome.stats.volume_fraction_searched >= 1.0 - eps - 1e-9
                        || outcome.stats.fell_back_to_scan,
                    "searched only {} of the region",
                    outcome.stats.volume_fraction_searched
                );
            }
        }
    }

    /// The populated-key skip engine returns exactly the same covering
    /// verdict as the eager engine and the linear scan on arbitrary
    /// populations and schemas, while never probing more runs than the eager
    /// engine pays (work caps disabled so the eager engine really pays the
    /// full decomposition, never the scan fallback). The per-query bound
    /// holds where every grid candidate is a true cover: the sweep's first
    /// probe then answers, while rejecting a grid-only candidate costs it a
    /// cell that the eager engine may have met inside one merged run.
    #[test]
    fn skip_engine_matches_eager_and_linear_with_fewer_probes(
        population in bounds_strategy(35),
        bits in 4u32..=7,
    ) {
        let schema = schema(2, bits);
        let skip_cfg = ApproxConfig::exhaustive();
        let eager_cfg = ApproxConfig::exhaustive()
            .work_cap(None)
            .engine(QueryEngine::EagerRuns);
        let mut skip = SfcCoveringIndex::new(&schema, skip_cfg).unwrap();
        let mut eager = SfcCoveringIndex::new(&schema, eager_cfg).unwrap();
        let mut linear = LinearScanIndex::new(&schema);
        for (i, b) in population.iter().enumerate() {
            let s = build_sub(&schema, i as u64 + 1, b);
            // Query-before-insert, like a router.
            let skip_out = skip.find_covering(&s).unwrap();
            let eager_out = eager.find_covering(&s).unwrap();
            let linear_out = linear.find_covering(&s).unwrap();
            prop_assert_eq!(
                skip_out.is_covered(),
                linear_out.is_covered(),
                "skip engine disagrees with linear scan on sub {}",
                s.id()
            );
            prop_assert_eq!(
                skip_out.is_covered(),
                eager_out.is_covered(),
                "engines disagree on sub {}",
                s.id()
            );
            // Each cell the sweep probes holds a stored subscription that
            // covers the query on the grid, so a miss probes a run only to
            // reject one that does not cover it on raw bounds.
            let grid_covers: Vec<&Subscription> =
                linear.iter().filter(|t| grid_contains(t, &s)).collect();
            prop_assert!(skip_out.stats.runs_probed <= grid_covers.len());
            if grid_covers.iter().all(|t| t.covers(&s)) {
                prop_assert!(
                    skip_out.stats.runs_probed <= eager_out.stats.runs_probed.max(1),
                    "skip probed {} runs vs eager {} on sub {}",
                    skip_out.stats.runs_probed,
                    eager_out.stats.runs_probed,
                    s.id()
                );
            }
            // A completed sweep reports the whole region as searched.
            if !skip_out.is_covered() {
                prop_assert!(skip_out.stats.volume_fraction_searched >= 1.0 - 1e-12);
            }
            skip.insert(&s).unwrap();
            eager.insert(&s).unwrap();
            linear.insert(&s).unwrap();
        }
        // Aggregate win: across the whole arrival sequence the sweep never
        // does more run probes than the eager engine.
        prop_assert!(
            skip.stats().total_runs_probed <= eager.stats().total_runs_probed.max(1)
        );
    }

    /// `find_covering_batch` (the trait's default, which the benchmark's
    /// covering probe calls) answers exactly like the per-event query on
    /// every curve and every key width — including duplicate queries in one
    /// batch and the empty batch — and through the policy-built trait
    /// objects (where `CoveringPolicy::None` builds no index at all).
    #[test]
    fn batched_covering_agrees_with_serial(
        population in bounds_strategy(40),
        queries in bounds_strategy(12),
        dup in 0usize..12,
    ) {
        for (arity, bits) in SHAPES {
            let schema = schema(arity, bits);
            let subs: Vec<Subscription> = population
                .iter()
                .enumerate()
                .map(|(i, b)| build_sub(&schema, i as u64 + 1, b))
                .collect();
            let mut batch: Vec<Subscription> = queries
                .iter()
                .enumerate()
                .map(|(i, b)| build_sub(&schema, 10_000 + i as u64, b))
                .collect();
            // A duplicated query (same id, same bounds) must answer identically
            // at both of its batch positions.
            let copy = batch[dup % batch.len()].clone();
            batch.push(copy);
            let mut linear = LinearScanIndex::new(&schema);
            for s in &subs {
                linear.insert(s).unwrap();
            }

            for kind in CurveKind::all() {
                let mut serial =
                    SfcCoveringIndex::with_curve(&schema, exhaustive_on(kind), kind).unwrap();
                let mut batched =
                    SfcCoveringIndex::with_curve(&schema, exhaustive_on(kind), kind).unwrap();
                for s in &subs {
                    serial.insert(s).unwrap();
                    batched.insert(s).unwrap();
                }
                let serial_out: Vec<_> = batch
                    .iter()
                    .map(|q| serial.find_covering(q).unwrap())
                    .collect();
                let batched_out = batched.find_covering_batch(&batch).unwrap();
                prop_assert_eq!(batched_out.len(), batch.len());
                for ((a, b), q) in serial_out.iter().zip(&batched_out).zip(&batch) {
                    prop_assert_eq!(
                        a.covering,
                        b.covering,
                        "curve {} bits {}",
                        kind.name(),
                        bits
                    );
                    prop_assert_eq!(
                        b.is_covered(),
                        linear.find_covering(q).unwrap().is_covered(),
                        "curve {} bits {}",
                        kind.name(),
                        bits
                    );
                }
                // Stats invariant: one recorded query per batch element, so the
                // totals agree with the per-event path.
                prop_assert_eq!(batched.stats().queries, serial.stats().queries);
                prop_assert!(batched.find_covering_batch(&[]).unwrap().is_empty());
            }

            // The trait entry point, through each policy's boxed index.
            for policy in [CoveringPolicy::None, CoveringPolicy::ExactSfc] {
                let indexes = (
                    policy.build_index(&schema).unwrap(),
                    policy.build_index(&schema).unwrap(),
                );
                let (mut index, mut mirror) = indexes;
                for s in &subs {
                    index.insert(s).unwrap();
                    mirror.insert(s).unwrap();
                }
                let batched = index.find_covering_batch(&batch).unwrap();
                prop_assert_eq!(batched.len(), batch.len());
                for (q, got) in batch.iter().zip(&batched) {
                    let expect = mirror.find_covering(q).unwrap();
                    prop_assert_eq!(
                        got.is_covered(),
                        expect.is_covered(),
                        "policy {}",
                        policy.label()
                    );
                    prop_assert!(policy.detects_covering() || !got.is_covered());
                }
            }
        }
    }

    /// After interleaved inserts and removals on every curve, covering
    /// queries match the brute-force answer over the live set, and the index
    /// saved and reopened answers them identically.
    #[test]
    fn removals_leave_exactly_the_live_set(
        population in bounds_strategy(30),
        query in bounds_strategy(1),
        curve in 0usize..CurveKind::all().len(),
        remove_mask in prop::collection::vec(any::<bool>(), 30),
    ) {
        let schema = schema(2, 6);
        let kind = CurveKind::all()[curve];
        let mut sfc = SfcCoveringIndex::with_curve(&schema, exhaustive_on(kind), kind).unwrap();
        let subs: Vec<Subscription> = population
            .iter()
            .enumerate()
            .map(|(i, b)| build_sub(&schema, i as u64 + 1, b))
            .collect();
        for (i, s) in subs.iter().enumerate() {
            sfc.insert(s).unwrap();
            // A set mask bit retracts an earlier (or this very) insert.
            let victim = subs[i / 2].id();
            if remove_mask[i] && sfc.contains(victim) {
                sfc.remove(victim).unwrap();
            }
        }
        let live: Vec<&Subscription> = subs.iter().filter(|s| sfc.contains(s.id())).collect();
        prop_assert_eq!(sfc.len(), live.len());
        // Each live subscription's twin is covered, and the query is
        // exactly when a live subscription covers it.
        let twins = live.iter().map(|s| s.with_id(10_000 + s.id()));
        for q in twins.chain([build_sub(&schema, 9_999, &query[0])]) {
            let got = sfc.find_covering(&q).unwrap().covering;
            prop_assert_eq!(got.is_some(), live.iter().any(|s| s.covers(&q)));
            if let Some(id) = got {
                prop_assert!(live.iter().any(|s| s.id() == id && s.covers(&q)));
            }
        }

        // The churned index saved and reopened answers every query of the
        // case as the live one does. Thirty inserts never reach the
        // array's 64-cell merge threshold, so every live cell is still in
        // the staging level when it is saved; the reopened array holds
        // them all in its main level. (Cases run one after another, so one
        // directory serves them all.)
        let dir = std::env::temp_dir().join(format!("acd-proptest-index-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        sfc.save_segments(&dir).unwrap();
        let mut reopened = SfcCoveringIndex::open_segments(&dir).unwrap();
        prop_assert_eq!(reopened.len(), sfc.len());
        let twins = live.iter().map(|s| s.with_id(10_000 + s.id()));
        let queries = subs.iter().cloned().chain(twins);
        for q in queries.chain([build_sub(&schema, 9_999, &query[0])]) {
            prop_assert_eq!(
                reopened.find_covering(&q).unwrap(),
                sfc.find_covering(&q).unwrap(),
                "query {}",
                q.id()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
