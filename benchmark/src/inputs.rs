//! Generated inputs and the op stream every run of a workload follows. All
//! randomness comes from `acd-workload` seeded by `--seed`; the daemon only
//! ever receives the generated subscriptions and events.

use std::time::Instant;

use acd_broker::{BrokerId, ClientId};
use acd_covering::storage::JournalRecord;
use acd_subscription::{Event, Schema, SubId, Subscription};
use acd_workload::{
    CenterDistribution, EventWorkload, Scenario, SubscriptionWorkload, WidthModel, WorkloadConfig,
};

use crate::decl::{Kind, Population, Workload};

/// Brokers in the overlay (`Topology::balanced_tree(2, 2)`).
pub const BROKERS: usize = 7;

/// Distinct clients subscriptions are spread over.
const CLIENTS: u64 = 64;

/// Events in the pool the serial publish loop cycles through: few enough
/// that every event comes round a dozen times in a run, enough that the
/// mean cost of the pool hardly depends on the seed (a Zipf-placed event
/// matches anything between 0 and 2 000 subscriptions).
const EVENT_POOL: usize = 2048;

/// Events in the pool the burst loop cycles through (64 bursts).
const BURST_POOL: usize = 8192;

/// Probe publishes checked against the oracle after each timed phase.
pub const PROBES: usize = 256;

/// Fresh subscriptions the covering probes query with on workloads whose
/// stream never subscribes.
const PROBE_SUBSCRIPTIONS: usize = 512;

/// Churning subscriptions live at any time, on top of the standing set.
const CHURN_WINDOW: usize = 512;

/// `--quick` divides every size by this.
pub const QUICK_DIVISOR: usize = 50;

/// Where subscription `id` lives: broker `id % 7`, client `id % 64`.
pub fn home(id: SubId) -> (BrokerId, ClientId) {
    ((id % BROKERS as u64) as BrokerId, id % CLIENTS)
}

/// The journal record of `subscription` arriving at its home.
pub fn journal_record(subscription: &Subscription) -> JournalRecord {
    let (at, client) = home(subscription.id());
    JournalRecord::Subscribe {
        at: at as u64,
        client,
        id: subscription.id(),
        bounds: subscription.raw_bounds().to_vec(),
    }
}

/// Everything a run of one workload consumes.
#[derive(Debug)]
pub struct Inputs {
    /// The schema all subscriptions and events are built against.
    pub schema: Schema,
    /// The standing set, installed during set-up (ids `1..=n`) and never
    /// retracted.
    pub standing: Vec<Subscription>,
    /// Subscriptions after the standing set in the same generator stream:
    /// the churn loop's arrivals (cycled), the covering probes' queries.
    pub fresh: Vec<Subscription>,
    /// How many of `fresh` are live at any time (0 unless the workload
    /// churns); the first `window` are installed during set-up.
    pub window: usize,
    /// The event pool (cycled).
    pub events: Vec<Event>,
    /// Seconds spent generating the above.
    pub generate_s: f64,
}

fn population_config(population: Population, seed: u64) -> WorkloadConfig {
    match population {
        Population::StockTicker => Scenario::StockTicker.workload_config(seed),
        Population::Narrow => WorkloadConfig::builder()
            .attributes(3)
            .bits_per_attribute(10)
            .center_distribution(CenterDistribution::Uniform)
            .width_model(WidthModel::UniformFraction {
                min: 0.001,
                max: 0.01,
            })
            .seed(seed)
            .build()
            .expect("the narrow population is a valid configuration"),
    }
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`; the same seed gives
    /// the same inputs.
    pub fn generate(workload: &Workload, seed: u64, quick: bool) -> Inputs {
        let started = Instant::now();
        let scale = |n: usize| if quick { (n / QUICK_DIVISOR).max(8) } else { n };
        let config = population_config(workload.population, seed);
        let mut subscriptions =
            SubscriptionWorkload::new(&config).expect("declared populations are valid");
        let standing = subscriptions.take(scale(workload.standing));
        let window = match workload.kind {
            Kind::Churn => scale(CHURN_WINDOW),
            Kind::Publish | Kind::PublishBatch => 0,
        };
        // The churn loop cycles through the pool; at four windows long, an
        // entry it subscribes again was retracted three windows earlier.
        let fresh = subscriptions.take(match workload.kind {
            Kind::Churn => 4 * window,
            Kind::Publish | Kind::PublishBatch => scale(PROBE_SUBSCRIPTIONS),
        });
        let events = EventWorkload::new(&config)
            .expect("declared populations are valid")
            .take(match workload.kind {
                Kind::Churn => PROBES,
                Kind::Publish => EVENT_POOL,
                Kind::PublishBatch => BURST_POOL,
            });
        Inputs {
            schema: subscriptions.schema().clone(),
            standing,
            fresh,
            window,
            events,
            generate_s: started.elapsed().as_secs_f64(),
        }
    }

    /// The event of publish number `i` and the broker it enters at.
    pub fn publish(&self, i: usize) -> (BrokerId, &Event) {
        (i % BROKERS, &self.events[i % self.events.len()])
    }

    /// The events of burst number `i` and the broker they enter at.
    pub fn burst(&self, i: usize, len: usize) -> (BrokerId, &[Event]) {
        let bursts = self.events.len() / len;
        let offset = (i % bursts) * len;
        (i % BROKERS, &self.events[offset..offset + len])
    }

    /// What set-up installs: the standing set, then the first churn window.
    pub fn installed(&self) -> impl Iterator<Item = &Subscription> + Clone {
        self.standing.iter().chain(&self.fresh[..self.window])
    }

    /// Churn step `i`: the subscription that arrives and the oldest of the
    /// churning ones, which leaves. The standing set stays, so the stream is
    /// stationary from its first step: every step sees the standing set plus
    /// one window of recent arrivals. (Retiring the standing set instead
    /// would make the early steps, which retract subscriptions installed
    /// into an empty overlay and hence forwarded everywhere, many times
    /// dearer than the later ones, and a time-budgeted run would then
    /// measure a different mix the faster it ran.)
    pub fn churn(&self, i: usize) -> (&Subscription, &Subscription) {
        let pool = self.fresh.len();
        (&self.fresh[(i + self.window) % pool], &self.fresh[i % pool])
    }

    /// The live set after `steps` churn steps.
    pub fn live_after(&self, steps: usize) -> Vec<&Subscription> {
        let pool = self.fresh.len();
        let churning = (steps..steps + self.window).map(|i| &self.fresh[i % pool]);
        self.standing.iter().chain(churning).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::WORKLOADS;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let w = &WORKLOADS[0];
        let a = Inputs::generate(w, 7, true);
        let b = Inputs::generate(w, 7, true);
        let c = Inputs::generate(w, 8, true);
        assert_eq!(a.standing, b.standing);
        assert_eq!(a.events, b.events);
        assert_ne!(a.standing, c.standing);
    }

    #[test]
    fn churn_never_resubscribes_a_live_id_and_live_after_tracks_it() {
        let w = crate::decl::workload("subscription_churn").unwrap();
        let inputs = Inputs::generate(w, 1, true);
        let mut live: Vec<SubId> = inputs.installed().map(Subscription::id).collect();
        let standing = inputs.standing.len();
        for step in 0..5 * inputs.fresh.len() {
            let (arrives, leaves) = inputs.churn(step);
            assert!(
                !live.contains(&arrives.id()),
                "step {step} re-adds a live id"
            );
            live.push(arrives.id());
            assert_eq!(live.remove(standing), leaves.id());
            if step % 97 == 0 {
                let expected: Vec<SubId> =
                    inputs.live_after(step + 1).iter().map(|s| s.id()).collect();
                assert_eq!(live, expected);
            }
        }
        assert_eq!(
            live.iter().collect::<HashSet<_>>().len(),
            standing + inputs.window
        );
    }
}
