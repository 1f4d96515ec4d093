//! What the broker's integration tests share: a spawned `acd-brokerd`
//! process that is killed on drop, a restart on the port a killed one held,
//! and a deterministic PRNG.

#![allow(dead_code, reason = "each test binary uses part of this module")]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The workload schema's domain (`acd_workload::WorkloadConfig::DOMAIN_MAX`),
/// which the daemon serves.
pub const DOMAIN: f64 = 1_000_000.0;

/// The `--topology`, `--brokers`, `--policy` and `--workers` flags a test
/// runs `acd-brokerd` with.
#[derive(Debug, Clone, Copy)]
pub struct Flags<'a> {
    pub topology: &'a str,
    pub brokers: usize,
    pub policy: &'a str,
    pub workers: usize,
}

/// The chaos and crash-recovery daemon: a line of six brokers under
/// `exact-sfc`, served by four workers.
pub const LINE_OF_SIX: Flags<'static> = Flags {
    topology: "line",
    brokers: 6,
    policy: "exact-sfc",
    workers: 4,
};

/// The daemon process, killed on drop so a failing test never leaks it.
pub struct DaemonGuard {
    child: Child,
    /// The address the daemon listens on, from its `listening on` line.
    pub addr: String,
}

impl DaemonGuard {
    /// Spawns `acd-brokerd` on `addr` with `flags` and `extra` and waits
    /// for its `listening on` line. `Err` when the process dies before
    /// printing it (e.g. the port is still settling after a kill).
    pub fn spawn(addr: &str, flags: Flags<'_>, extra: &[&str]) -> Result<DaemonGuard, String> {
        let (brokers, workers) = (flags.brokers.to_string(), flags.workers.to_string());
        let child = Command::new(env!("CARGO_BIN_EXE_acd-brokerd"))
            .args(["--addr", addr])
            .args(["--topology", flags.topology, "--brokers", &brokers])
            .args(["--policy", flags.policy, "--workers", &workers])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn acd-brokerd: {e}"))?;
        // From here on an early return drops the guard, which kills the child.
        let mut guard = DaemonGuard {
            child,
            addr: String::new(),
        };
        let stdout = guard.child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read the listening line: {e}"))?;
        let listening = line.trim().strip_prefix("listening on ");
        guard.addr = listening
            .ok_or_else(|| format!("unexpected daemon greeting: {line:?}"))?
            .to_string();
        Ok(guard)
    }

    /// Spawns the daemon on an ephemeral loopback port.
    pub fn start(flags: Flags<'_>, extra: &[&str]) -> DaemonGuard {
        DaemonGuard::spawn("127.0.0.1:0", flags, extra).expect("daemon starts on an ephemeral port")
    }

    /// SIGKILL — no shutdown handshake, no flush, nothing graceful.
    pub fn kill_nine(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.kill_nine();
    }
}

/// Restarts a daemon on the exact port a killed one held, retrying while
/// the kernel releases the address.
pub fn restart_on(addr: &str, flags: Flags<'_>, extra: &[&str]) -> DaemonGuard {
    let mut last = String::new();
    for _ in 0..100 {
        match DaemonGuard::spawn(addr, flags, extra) {
            Ok(daemon) => return daemon,
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon never came back on {addr}: {last}");
}

/// A deterministic splitmix64, so a test's schedule needs no external
/// dependency and every run replays it.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}
