//! Must-fail fixture for the `lock-order` lint: acquires locks against the
//! documented hierarchy. Not compiled — linted by `tests/fixtures.rs`.

struct Daemon {
    ledger: std::sync::Mutex<()>,
    registered: std::sync::Mutex<()>,
}

impl Daemon {
    fn backwards(&self) {
        let _r = self.registered.lock();
        // netreg (rank 4) is held: the daemon lock (rank 3) must not follow.
        let _l = self.ledger.lock();
    }

    fn broker_then_daemon(&self, brokers: &[std::sync::RwLock<()>]) {
        let _guard = brokers[0].read();
        // A broker lock (rank 5) is held: the daemon lock (rank 3) is lower.
        let _ledger = self.ledger.lock();
    }

    fn broker_then_registry(&self) {
        let _guard = self.cell(0).read();
        // A walk takes the registry first and brokers under it: taking it
        // under a broker lock inverts that order.
        let _r = self.registered.lock();
    }

    fn two_brokers(&self, brokers: &[std::sync::RwLock<()>]) {
        let _a = brokers[0].write();
        // All brokers share one rank: a second one can deadlock with a
        // thread that took them the other way round.
        let _b = brokers[1].write();
    }

    fn two_brokers_through_cell(&self) {
        let _a = self.cell(0).write();
        // The overlay reaches its brokers through `cell`: the same double
        // acquisition.
        let _b = self.cell(1).write();
    }
}
