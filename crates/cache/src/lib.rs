//! Set-associative cache model for the ESTEEM (HPDC'14) reproduction.
//!
//! This crate implements the cache substrate the paper's evaluation relies
//! on (the paper used the cache models inside the Sniper x86-64 simulator):
//!
//! * a banked, set-associative, true-LRU cache with dirty bits and
//!   allocate-on-miss fill policy ([`SetAssocCache`]);
//! * per-*module* way-disable masks — the cache's sets are logically divided
//!   into `M` contiguous modules and each module can have a different number
//!   of active ways (the mechanism ESTEEM reconfigures, paper §3.1);
//! * an auxiliary tag directory (ATD) *embedded in the main tag directory*
//!   via set sampling: every `R_s`-th set is a "leader" set which always
//!   keeps all ways enabled and feeds per-LRU-position hit counters
//!   (paper §3.2, [`atd::AtdCounters`]);
//! * reconfiguration plumbing: shrinking a module discards clean lines and
//!   reports dirty lines for write-back; growing simply enables empty ways
//!   (paper §5).
//!
//! The model is purely functional state + counters: *timing* (bank
//! contention, refresh interference) lives in `esteem-edram`, and *energy*
//! in `esteem-energy`, keeping each concern independently testable.

/// Internal-invariant assertion: a `debug_assert!` in normal builds,
/// promoted to an unconditional `assert!` when the expanding crate is
/// built with its `strict-invariants` feature (the configuration the
/// differential checker `esteem-check` runs under).
///
/// The `cfg` is evaluated at the *expansion site*, so downstream crates
/// (`esteem-edram`, `esteem-core`) declare a `strict-invariants` feature
/// of their own — forwarding to this crate's — and get the promotion for
/// their assertions independently.
#[macro_export]
macro_rules! strict_assert {
    ($($arg:tt)*) => {{
        #[cfg(feature = "strict-invariants")]
        {
            assert!($($arg)*);
        }
        #[cfg(not(feature = "strict-invariants"))]
        {
            debug_assert!($($arg)*);
        }
    }};
}

/// Equality flavour of [`strict_assert!`].
#[macro_export]
macro_rules! strict_assert_eq {
    ($($arg:tt)*) => {{
        #[cfg(feature = "strict-invariants")]
        {
            assert_eq!($($arg)*);
        }
        #[cfg(not(feature = "strict-invariants"))]
        {
            debug_assert_eq!($($arg)*);
        }
    }};
}

pub mod atd;
pub mod batch;
pub mod cache;
pub mod config;
pub mod line;
pub mod lru;
pub mod stats;

pub use atd::AtdCounters;
pub use batch::{encode_l1_access, L1Rec};
pub use cache::{AccessOutcome, ReconfigOutcome, SetAssocCache};
pub use config::CacheGeometry;
pub use line::Line;
pub use stats::CacheStats;

/// A 64-byte-block-granular physical address (i.e. `byte_address >> 6`).
///
/// All crates in this workspace exchange block addresses, never byte
/// addresses; the line size only matters for geometry and energy math.
pub type BlockAddr = u64;
