//! Must-fail fixture for the `lock-order` lint: acquires locks against the
//! documented hierarchy. Not compiled — linted by `tests/fixtures.rs`.

struct Daemon {
    sessions: std::sync::Mutex<()>,
    journal: std::sync::Mutex<()>,
    registered: std::sync::Mutex<()>,
}

impl Daemon {
    fn backwards(&self) {
        let _r = self.registered.lock();
        // netreg (rank 8) is held: journal (rank 4) must not follow.
        let _j = self.journal.lock();
    }

    fn broker_then_session(&self, brokers: &[std::sync::RwLock<()>]) {
        let _guard = brokers[0].read();
        // A broker lock (rank 5) is held: the session lock (rank 3) is lower.
        let _sessions = self.sessions.lock();
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
