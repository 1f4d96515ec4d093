//! The held-back half of the brokers' per-link invariant, shared by the
//! integration tests that check it against their own model of the live set
//! (`proptest_match_table` after every step, `stress_network` at every
//! quiescent barrier).

use std::collections::HashMap;

use acd_broker::BrokerNetwork;
use acd_subscription::{SubId, Subscription};

/// On every link of every broker: the per-witness lists hold live ids, once
/// each over all lists (they partition the suppressed ids), mirrored exactly
/// by the by-id map and disjoint from the link's sent ids; no list is empty;
/// every witness is sent on the link and covers what it holds back on raw
/// bounds (`Subscription::covers`), so a held-back subscription misses no
/// event that reaches its witness.
///
/// Both ends of an entry are looked up in `live`, then in `retired`. A
/// serial test passes an empty `retired`, which makes a dead witness or a
/// dead held-back entry a failure. A concurrent one passes what its threads
/// have unsubscribed: an unsubscribe that overtakes a re-advertisement of
/// the same subscription leaves the re-advertisement's records downstream
/// (ROADMAP item 1a) — sent ones, which can then stand as witnesses, and
/// held-back ones, where it ended behind a cover. The deterministic
/// reproduction is `network.rs`'s unit test
/// `every_interleaving_of_two_retractions_delivers_exactly_and_some_leave_ghosts`,
/// which enumerates the schedules of two retraction walks.
pub fn check_held_back(
    net: &BrokerNetwork,
    live: &HashMap<SubId, &Subscription>,
    retired: &HashMap<SubId, &Subscription>,
) {
    for b in 0..net.topology().brokers() {
        for &n in net.topology().neighbors(b) {
            let link = net.broker(b).unwrap().link_ids(n).unwrap();
            let mut listed = link.suppressed.clone();
            listed.sort_unstable();
            assert_eq!(listed, link.suppressed_mirror, "{b}->{n}: list != mirror");
            listed.dedup_by_key(|&mut (id, _)| id);
            assert_eq!(listed.len(), link.suppressed.len(), "{b}->{n}: duplicate");
            let mut masking: Vec<SubId> = link.suppressed.iter().map(|&(_, w)| w).collect();
            masking.dedup();
            assert_eq!(masking, link.witnesses, "{b}->{n}: an empty list is kept");
            let known = |id| live.get(id).or_else(|| retired.get(id));
            for (id, witness) in &link.suppressed {
                let Some(held) = known(id) else {
                    panic!("{b}->{n}: dead {id} suppressed");
                };
                assert!(
                    link.sent.binary_search(id).is_err(),
                    "{b}->{n}: {id} sent and suppressed"
                );
                assert!(
                    link.sent.binary_search(witness).is_ok(),
                    "{b}->{n}: witness {witness} of {id} not sent"
                );
                let Some(cover) = known(witness) else {
                    panic!("{b}->{n}: dead witness {witness} of {id}");
                };
                assert!(
                    cover.covers(held),
                    "{b}->{n}: witness {witness} does not cover {id}"
                );
            }
        }
    }
}
