//! The two items of `crates/sim/src/packet.rs` that `link.rs` reads, for
//! the link replay of `scripts/replay.sh`.

/// A packet's size on the wire.
pub trait WireSize {
    /// Wire size in bytes (headers included).
    fn wire_bytes(&self) -> u32;
}

/// A pool slot and its packet's size, as the engine's links queue them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktRef {
    pub(crate) slot: u32,
    pub(crate) size_bytes: u32,
}

impl WireSize for PktRef {
    #[inline]
    fn wire_bytes(&self) -> u32 {
        self.size_bytes
    }
}
