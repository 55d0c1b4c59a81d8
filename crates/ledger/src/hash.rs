//! The chained digest: 64-bit FNV-1a over previous digest + payload.
//!
//! The payload is the record's canonical bytes: since ledger format 2, a
//! compact binary form of `(seq, tick, event)` ([`crate::canon`]), not the
//! record's JSON text, which format 1 hashed. FNV-1a costs per byte, so
//! the shorter input is most of what an append saves.
//!
//! FNV-1a is not a cryptographic hash; it is the strongest digest available
//! from std alone (the issue constrains the crate to std + existing
//! workspace deps). It is entirely adequate for the *accidental/naive*
//! tamper model the E9 experiment measures — any byte-level corruption that
//! does not deliberately recompute the chain is detected — and the chaining
//! structure is hash-agnostic, so a cryptographic digest can be swapped in
//! without touching the ledger layout.

/// FNV-1a 64-bit offset basis; also the chain's genesis digest (the
/// "previous digest" of record 0).
pub const GENESIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest of one record: FNV-1a over the previous record's digest (little
/// endian) followed by the record's canonical bytes.
pub fn chain_digest(prev: u64, payload: &[u8]) -> u64 {
    let mut hash = GENESIS;
    for byte in prev.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    for &byte in payload {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(chain_digest(GENESIS, b"abc"), chain_digest(GENESIS, b"abc"));
    }

    #[test]
    fn digest_depends_on_payload() {
        assert_ne!(chain_digest(GENESIS, b"abc"), chain_digest(GENESIS, b"abd"));
    }

    #[test]
    fn digest_depends_on_previous_digest() {
        assert_ne!(chain_digest(1, b"abc"), chain_digest(2, b"abc"));
    }

    #[test]
    fn empty_payload_still_chains() {
        assert_ne!(
            chain_digest(GENESIS, b""),
            chain_digest(chain_digest(GENESIS, b""), b"")
        );
    }
}
