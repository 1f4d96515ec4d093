//! The reference the daemon's answers are checked against: a linear scan of
//! `Subscription::matches` over the acknowledged live set.
//!
//! One slack is granted, because the overlay grants it to itself: covering
//! suppression is decided on the quantization grid while matching uses raw
//! values, so a subscription suppressed behind a grid-coverer can miss an
//! event that lies in the same grid cell as one of its bounds. An answer may
//! therefore omit such *boundary* matches — and nothing else: every match
//! whose grid cell lies strictly inside the subscription must be delivered,
//! and nothing that does not match may be.

use acd_broker::{BrokerId, ClientId};
use acd_subscription::{Event, Subscription};

use crate::inputs::home;

type Pairs = Vec<(BrokerId, ClientId)>;

fn pairs<'a>(subscriptions: impl Iterator<Item = &'a Subscription>) -> Pairs {
    let mut pairs: Pairs = subscriptions.map(|s| home(s.id())).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The deliveries `event` causes by the linear scan: one `(broker, client)`
/// pair per matching live subscription, sorted and deduplicated as the
/// daemon returns them.
pub fn deliveries<'a>(live: impl IntoIterator<Item = &'a Subscription>, event: &Event) -> Pairs {
    pairs(live.into_iter().filter(|s| s.matches(event)))
}

/// How an answer compares with the linear scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exactly the linear scan's deliveries.
    Exact,
    /// The linear scan's deliveries minus some boundary matches.
    Boundary,
    /// A delivery that matches nothing, or a missing interior match.
    Wrong,
}

/// Compares `answer` (sorted, as the daemon returns it) with the scan.
pub fn verdict<'a>(
    live: impl IntoIterator<Item = &'a Subscription> + Clone,
    event: &Event,
    answer: &[(BrokerId, ClientId)],
) -> Verdict {
    let may = deliveries(live.clone(), event);
    if answer == may {
        return Verdict::Exact;
    }
    let Ok(cell) = event.grid_point() else {
        return Verdict::Wrong;
    };
    let must = pairs(live.into_iter().filter(|s| {
        s.matches(event)
            && s.grid_bounds()
                .iter()
                .zip(cell.coords())
                .all(|(&(lo, hi), &c)| lo < c && c < hi)
    }));
    let within = |inner: &[(BrokerId, ClientId)], outer: &[(BrokerId, ClientId)]| {
        inner.iter().all(|pair| outer.binary_search(pair).is_ok())
    };
    if within(&must, answer) && within(answer, &may) {
        Verdict::Boundary
    } else {
        Verdict::Wrong
    }
}

/// FNV-1a over a delivery list. The publish loops compare digests first, so
/// that checking every 16th answer neither allocates nor keeps it alive.
pub fn digest(pairs: &[(BrokerId, ClientId)]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(broker, client) in pairs {
        hash = (hash ^ broker as u64).wrapping_mul(PRIME);
        hash = (hash ^ client).wrapping_mul(PRIME);
    }
    (hash ^ pairs.len() as u64).wrapping_mul(PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::WORKLOADS;
    use crate::inputs::Inputs;

    #[test]
    fn digest_separates_lists_and_scan_is_sorted() {
        assert_ne!(digest(&[]), digest(&[(0, 0)]));
        assert_ne!(digest(&[(1, 2)]), digest(&[(2, 1)]));
        let inputs = Inputs::generate(&WORKLOADS[0], 3, true);
        let pairs = deliveries(&inputs.standing, &inputs.events[0]);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn only_boundary_matches_may_be_missing() {
        let inputs = Inputs::generate(&WORKLOADS[0], 3, true);
        let live = &inputs.standing;
        let event = inputs
            .events
            .iter()
            .find(|e| deliveries(live, e).len() >= 2)
            .expect("some event matches two homes");
        let exact = deliveries(live, event);
        assert_eq!(verdict(live, event, &exact), Verdict::Exact);

        // A delivery nobody asked for is wrong, whatever else is there.
        let mut extra = exact.clone();
        extra.push((usize::MAX, u64::MAX));
        assert_eq!(verdict(live, event, &extra), Verdict::Wrong);

        // Dropping everything is wrong as soon as one match is interior.
        let cell = event.grid_point().unwrap();
        let interior = live.iter().any(|s| {
            s.matches(event)
                && s.grid_bounds()
                    .iter()
                    .zip(cell.coords())
                    .all(|(&(lo, hi), &c)| lo < c && c < hi)
        });
        let expected = if interior {
            Verdict::Wrong
        } else {
            Verdict::Boundary
        };
        assert_eq!(verdict(live, event, &[]), expected);
    }
}
