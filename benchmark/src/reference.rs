//! The reference op: the yardstick the end-to-end timings are divided by.
//!
//! The sandbox's cores and disk are shared with other tenants of the host,
//! and the same binary on the same input runs anywhere between 1x and 2x its
//! best speed for tens of seconds at a time — longer than a run, so no
//! statistic over a run's own samples removes it (ten same-seed runs of
//! `fanout_publish` read 2 230 to 3 900 publishes/s). What does hold still is
//! the *ratio* between the daemon's work and a fixed piece of work of the
//! same kind done next to it: the slow stretches slow both alike. So after
//! every ~10 ms segment of the stream the client thread runs this reference
//! op, and the segment's timings are reported in units of it (`ref`).
//!
//! The op is the cheapest operation of the kind that dominates the workload:
//!
//! - a daemon without a data directory spends its time on the CPU and in
//!   socket system calls: one ref is one 64-byte `write` + `read` through a
//!   private loopback TCP pair, both ends on the calling thread (about 3 us);
//! - a journalling daemon spends it waiting for the disk: one ref is one
//!   64-byte append + `fdatasync` to a file beside the data directory (about
//!   350 us).
//!
//! The op touches nothing of the repository's code, so a later change moves
//! the ratio only by changing the daemon's own cost.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Loopback round trips one measurement times.
const ROUND_TRIPS: u32 = 64;

/// Synced appends one measurement times.
const SYNCS: u32 = 2;

/// Bytes per reference message or append.
const PAYLOAD: usize = 64;

/// A reference op ready to be measured.
#[derive(Debug)]
pub enum Reference {
    /// Both ends of a loopback connection.
    Loopback(TcpStream, TcpStream),
    /// An append-only file on the data directory's filesystem.
    Disk(File),
}

impl Reference {
    /// The reference for a daemon journalling beside `disk_file`, or for an
    /// in-memory daemon when `None`.
    ///
    /// # Errors
    ///
    /// Returns an error if the loopback pair or the file cannot be made.
    pub fn new(disk_file: Option<&Path>) -> io::Result<Reference> {
        if let Some(path) = disk_file {
            return Ok(Reference::Disk(File::create(path)?));
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        Ok(Reference::Loopback(near, far))
    }

    /// Runs the op a few times and returns the seconds one took.
    ///
    /// # Errors
    ///
    /// Returns an error if the socket or the file fails.
    pub fn measure(&mut self) -> io::Result<f64> {
        let mut payload = [0x5au8; PAYLOAD];
        let started = Instant::now();
        let ops = match self {
            Reference::Loopback(near, far) => {
                for _ in 0..ROUND_TRIPS {
                    near.write_all(&payload)?;
                    far.read_exact(&mut payload)?;
                }
                ROUND_TRIPS
            }
            Reference::Disk(file) => {
                for _ in 0..SYNCS {
                    file.write_all(&payload)?;
                    file.sync_data()?;
                }
                SYNCS
            }
        };
        Ok(started.elapsed().as_secs_f64() / f64::from(ops))
    }
}
