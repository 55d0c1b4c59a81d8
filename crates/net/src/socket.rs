//! Socket set-up shared by both ends of an APDM/net connection.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Read timeout both ends poll with: an idle reader wakes at this cadence
/// to re-check its shutdown flag or deadline.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Write timeout both ends apply: a peer that stops reading fails the
/// write instead of wedging the writer.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Capacity of a connection reader's buffer: one fill holds a whole tick
/// of lockstep frames at the sizes the workloads use.
pub(crate) const READ_BUFFER: usize = 32 * 1024;

/// Prepare a freshly accepted or connected stream: disable Nagle's
/// algorithm and apply the read and write timeouts.
///
/// Nagle must be off on both ends. Lockstep frames are small and each
/// tick ends in a `TickDone`/`TickAck` round trip that the next tick
/// waits for, so a frame that Nagle holds back until the peer's delayed
/// ACK stalls the whole barrier: ~40 ms per tick instead of under a
/// millisecond.
pub(crate) fn configure(
    stream: &TcpStream,
    read_timeout: Duration,
    write_timeout: Duration,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(write_timeout))
}
