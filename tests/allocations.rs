//! Allocation budgets of the daemon's steady-state request path.
//!
//! A counting global allocator counts every `alloc`, `alloc_zeroed` and
//! `realloc` in the process, and separately the ones made on the calling
//! thread; it also keeps the process's live heap bytes. An in-process daemon (1 worker, `balanced_tree(2, 2)`,
//! `ExactSfc`) serves one client over loopback; after a warm-up, each request
//! kind runs a fixed number of ops and its **daemon-side** allocations per op
//! (the process count less this thread's, which is the client's) must stay
//! within the kind's committed budget. Lowering a budget is free; raising one
//! needs a reason in CHANGES.md. One kind is counted on this thread instead:
//! building a subscription from its raw bounds.
//!
//! The same population also bounds what a daemon keeps resident, measured
//! once the client has connected. One that installed it over the socket may
//! hold at most [`INSTALLED_PER_SUB`] live heap bytes a subscription, and one
//! recovered from a snapshot of the same set must hold at least
//! [`RECOVERY_SAVING`] less. Recovery installs covers first, so its links
//! hold back every subscription a sent one covers and keep fewer routing
//! entries than the socket's id order.
//!
//! The file is one `#[test]`, in its own binary, so no other test shares the
//! count. Run with `--nocapture` to see each kind's mean against its budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use acd::broker::{
    BrokerClient, BrokerConfig, BrokerDaemon, BrokerId, ClientId, CoveringPolicy, DaemonOptions,
    Topology,
};
use acd::covering::storage::{write_snapshot, JournalRecord};
use acd::subscription::{Event, SubId, Subscription};
use acd::workload::{
    CenterDistribution, EventWorkload, Scenario, SubscriptionWorkload, WidthModel, WorkloadConfig,
};

struct Counting;

/// Allocations made by any thread.
static ALL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by this thread; `const`, so reading it allocates nothing.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

/// Heap bytes allocated and not yet freed, by any thread. A `realloc` adds
/// the difference of its sizes, so the sum is kept modulo 2^64.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocation that changes the live bytes by `delta`.
fn tick(delta: usize) {
    ALL.fetch_add(1, Ordering::Relaxed);
    LIVE.fetch_add(delta, Ordering::Relaxed);
    let _ = MINE.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick(new_size.wrapping_sub(layout.size()));
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Daemon-side allocations per op over `runs` runs of `op`: the process's
/// count less this thread's, divided by `per` ops a run.
fn daemon_side(runs: usize, per: usize, mut op: impl FnMut(usize)) -> f64 {
    let (all, mine) = (ALL.load(Ordering::SeqCst), MINE.with(Cell::get));
    for i in 0..runs {
        op(i);
    }
    let all = ALL.load(Ordering::SeqCst) - all;
    let mine = MINE.with(Cell::get) - mine;
    (all - mine) as f64 / (runs * per) as f64
}

/// This thread's allocations per op over `runs` runs of `op`.
fn own(runs: usize, mut op: impl FnMut(usize)) -> f64 {
    let mine = MINE.with(Cell::get);
    for i in 0..runs {
        op(i);
    }
    (MINE.with(Cell::get) - mine) as f64 / runs as f64
}

/// `serve`'s result and the live heap bytes it added, once it returned.
fn resident<T>(serve: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.load(Ordering::SeqCst);
    let served = serve();
    (
        served,
        LIVE.load(Ordering::SeqCst).wrapping_sub(before) as i64,
    )
}

/// Brokers of `balanced_tree(2, 2)`.
const BROKERS: u64 = 7;

/// Where subscription `id` lives: broker `id % 7`, client `id % 64`.
fn home(id: SubId) -> (BrokerId, ClientId) {
    ((id % BROKERS) as BrokerId, id % 64)
}

/// A population: the standing set, a churn pool four windows long whose
/// first window is installed with it, and an event pool.
struct Population {
    standing: Vec<Subscription>,
    pool: Vec<Subscription>,
    window: usize,
    events: Vec<Event>,
}

impl Population {
    fn generate(config: &WorkloadConfig, standing: usize, window: usize) -> Population {
        let mut subscriptions = SubscriptionWorkload::new(config).expect("a valid configuration");
        Population {
            standing: subscriptions.take(standing),
            pool: subscriptions.take(4 * window),
            window,
            events: EventWorkload::new(config)
                .expect("a valid configuration")
                .take(1024),
        }
    }

    fn installed(&self) -> impl Iterator<Item = &Subscription> {
        self.standing.iter().chain(&self.pool[..self.window])
    }

    /// Starts a daemon over this population, installed by subscribing over
    /// the socket, or, with a data dir, by recovering a snapshot that holds
    /// it (a journalled subscribe is an `fdatasync`).
    fn serve(&self, data_dir: Option<&Path>) -> (BrokerDaemon, BrokerClient) {
        let schema = self.events[0].schema().clone();
        if let Some(dir) = data_dir {
            std::fs::create_dir_all(dir).expect("temp dir is writable");
            let records: Vec<_> = self
                .installed()
                .map(|s| {
                    let (at, client) = home(s.id());
                    JournalRecord::Subscribe {
                        at: at as u64,
                        client,
                        id: s.id(),
                        bounds: s.raw_bounds().to_vec(),
                    }
                })
                .collect();
            write_snapshot(&dir.join("snapshot.acd"), &records).expect("snapshot writes");
        }
        let topology = Topology::balanced_tree(2, 2).expect("a valid topology");
        let network = BrokerConfig::new(topology, &schema)
            .policy(CoveringPolicy::ExactSfc)
            .build()
            .expect("the network builds");
        let options = DaemonOptions {
            workers: 1,
            data_dir: data_dir.map(Path::to_path_buf),
            ..DaemonOptions::default()
        };
        let daemon = BrokerDaemon::start_with(Arc::new(network), "127.0.0.1:0", options)
            .expect("loopback binds");
        let mut client = BrokerClient::connect(daemon.local_addr()).expect("client connects");
        if data_dir.is_none() {
            for s in self.installed() {
                let (at, id) = home(s.id());
                client.subscribe(at, id, s).expect("subscribe");
            }
        }
        (daemon, client)
    }

    /// Churn pair `i`: subscribe the pool's next arrival, unsubscribe its
    /// oldest live entry.
    fn churn(&self, client: &mut BrokerClient, i: usize) {
        let pool = self.pool.len();
        let arrives = &self.pool[(i + self.window) % pool];
        let leaves = &self.pool[i % pool];
        let (at, id) = home(arrives.id());
        client.subscribe(at, id, arrives).expect("subscribe");
        client
            .unsubscribe(home(leaves.id()).0, leaves.id())
            .expect("unsubscribe");
    }
}

/// The 140-bit population: 7 attributes of 10 bits, so a dominance key
/// (2 coordinates an attribute) spills out of the packed `u128`.
fn wide_config() -> WorkloadConfig {
    WorkloadConfig::builder()
        .attributes(7)
        .bits_per_attribute(10)
        .center_distribution(CenterDistribution::Uniform)
        .width_model(WidthModel::UniformFraction {
            min: 0.05,
            max: 0.5,
        })
        .seed(1)
        .build()
        .expect("a valid configuration")
}

/// Daemon-side allocations a serial publish may make: `decode_payload`'s
/// `Vec<f64>`, which becomes the `Event`; `Shares::new` in `walk`; and the
/// walk's `VecDeque`.
const PUBLISH: f64 = 3.0;

/// A burst event's: its `decode_payload` `Vec<f64>`; and per 64-event chunk,
/// six: `EventChunk::new`'s column `Vec` and one `MaskColumn` table per
/// StockTicker attribute (three), `Shares::new`, and the walk's `VecDeque`.
const BURST_EVENT: f64 = 1.0 + 6.0 / 64.0;

/// `Subscription::from_raw_bounds`: the raw bounds' one `Arc<[_]>`. Grid
/// cells are derived where they are read, never stored.
const FROM_RAW_BOUNDS: f64 = 1.0;

/// A subscribe + unsubscribe pair's, as a mean over the churn stream.
/// - The subscribe, 2: `decode_payload`'s bounds `Vec`, and
///   `Subscription::from_raw_bounds`' one ([`FROM_RAW_BOUNDS`]).
/// - Each walk, 2 on a subscribe and 1 on an unsubscribe: the offered
///   `Rc<Subscription>` and the walk's `VecDeque`. A subscription its own
///   client covers stays home and walks nothing (1 pair in 8 here).
/// - Covering bookkeeping, about 1: a slot the newcomer demotes is rebuilt as
///   a `Subscription` (`MatchTable::remove_covered`, one allocation), a new
///   witness's masked list (`Held::hold`), and orphans re-offered on a
///   retraction.
const CHURN_PAIR: f64 = 6.0;

/// A data dir adds nothing a pair: the journal writes into a buffer it
/// already owns, and the durable live set is only ever folded from the files,
/// at start-up and at shutdown.
const CHURN_PAIR_DURABLE: f64 = 6.0;

/// On 140-bit keys a dominance key spills out of the packed `u128`, and the
/// covering index's sweep (`sweep_keys`) allocates a spilled `Key` about
/// twice an iteration (`OrthantWordSeeker::seek_key`, `orthant_min_words`):
/// ~225 of a pair's. The rest is per query or update (the dominance point,
/// past 8 inline coordinates; `Key::zero`; the word seeker's masks) and the
/// 9 of a StockTicker pair.
const CHURN_PAIR_WIDE: f64 = 300.0;

/// Debug builds add `MatchTable`'s `run_ends` rebuild check, a
/// `debug_assert_eq!` on a fresh `run_ends_of` after each local-table insert
/// and removal: at most 2 a pair.
const DEBUG_CHECKS: f64 = if cfg!(debug_assertions) { 2.0 } else { 0.0 };

/// How many fewer live heap bytes a daemon recovered from a snapshot must
/// hold than one that installed the same subscriptions over the socket in
/// id order. Recovery's covers-first order leaves each link only its side's
/// maximal subscriptions, which measured ~250 KB (~117 B a subscription)
/// less; a second copy of the live set would cost ~165 B a subscription,
/// and recovering in id order saves nothing.
const RECOVERY_SAVING: i64 = 128 * 1024;

/// Live heap bytes per installed subscription a daemon that installed the
/// population over the socket may hold once the client has connected: its
/// match tables, routing entries and covering indexes, and one copy of each
/// subscription. Measured at 878 B; a second, derived copy of each
/// subscription's bounds (its grid cells) would cost ~110 B more.
const INSTALLED_PER_SUB: i64 = 930;

#[test]
fn daemon_request_path_allocates_within_budget() {
    let mut report = Vec::new();
    let stock = Population::generate(&Scenario::StockTicker.workload_config(1), 2000, 128);
    let schema = stock.events[0].schema();
    let per_op = own(stock.standing.len(), |i| {
        let s = &stock.standing[i];
        let built = Subscription::from_raw_bounds(schema, s.id(), s.raw_bounds());
        drop(std::hint::black_box(built));
    });
    report.push(("Subscription::from_raw_bounds", per_op, FROM_RAW_BOUNDS));

    let over_socket = {
        let ((_daemon, mut client), over_socket) = resident(|| stock.serve(None));
        let publish = |client: &mut BrokerClient, i: usize| {
            let event = &stock.events[i % stock.events.len()];
            client
                .publish((i as u64 % BROKERS) as BrokerId, event)
                .expect("publish");
        };
        let burst = |client: &mut BrokerClient, i: usize| {
            let events = &stock.events[(i % 8) * 128..][..128];
            client
                .publish_batch((i as u64 % BROKERS) as BrokerId, events)
                .expect("burst");
        };
        for i in 0..200 {
            publish(&mut client, i);
        }
        let per_op = daemon_side(2000, 1, |i| publish(&mut client, i));
        report.push(("serial publish", per_op, PUBLISH));
        for i in 0..8 {
            burst(&mut client, i);
        }
        let per_op = daemon_side(40, 128, |i| burst(&mut client, i));
        report.push(("burst event", per_op, BURST_EVENT));
        for i in 0..stock.pool.len() {
            stock.churn(&mut client, i);
        }
        let per_op = daemon_side(4096, 1, |i| stock.churn(&mut client, i));
        report.push(("churn pair, in memory", per_op, CHURN_PAIR + DEBUG_CHECKS));
        over_socket
    };

    let recovered = {
        let dir = std::env::temp_dir().join(format!("acd-allocations-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ((daemon, mut client), recovered) = resident(|| stock.serve(Some(&dir)));
        for i in 0..stock.pool.len() {
            stock.churn(&mut client, i);
        }
        let per_op = daemon_side(1024, 1, |i| stock.churn(&mut client, i));
        let budget = CHURN_PAIR_DURABLE + DEBUG_CHECKS;
        report.push(("churn pair, data dir", per_op, budget));
        drop((client, daemon));
        let _ = std::fs::remove_dir_all(&dir);
        recovered
    };

    {
        let wide = Population::generate(&wide_config(), 500, 64);
        let (_daemon, mut client) = wide.serve(None);
        for i in 0..wide.pool.len() {
            wide.churn(&mut client, i);
        }
        let per_op = daemon_side(512, 1, |i| wide.churn(&mut client, i));
        let budget = CHURN_PAIR_WIDE + DEBUG_CHECKS;
        report.push(("churn pair, 140-bit keys", per_op, budget));
    }

    let table: String = report
        .iter()
        .map(|(kind, per_op, budget)| format!("{kind}: {per_op:.3} (budget {budget:.3})\n"))
        .collect();
    let installed = stock.installed().count() as i64;
    let excess = recovered - over_socket;
    let resident = format!(
        "live heap once connected: {over_socket} B installed over the socket \
         ({} B a subscription of {installed}; at most {INSTALLED_PER_SUB} B), \
         {recovered} B recovered from a snapshot; excess {excess} B \
         ({} B a subscription; at most -{RECOVERY_SAVING} B)",
        over_socket / installed,
        excess / installed
    );
    println!("{table}{resident}");
    assert!(
        report.iter().all(|&(_, per_op, budget)| per_op <= budget),
        "allocations per op over budget:\n{table}"
    );
    assert!(over_socket <= INSTALLED_PER_SUB * installed, "{resident}");
    assert!(excess <= -RECOVERY_SAVING, "{resident}");
}
