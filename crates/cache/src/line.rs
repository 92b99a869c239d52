//! Per-line state.

/// State of one cache line (block) slot.
///
/// `last_update` records the cycle of the line's last *demand* charge
/// restore: a fill or a hit. Read hits count because an eDRAM read
/// internally rewrites the cell (destructive read + restore), which is the
/// property Refrint's polyphase policies exploit ("on a read or a write,
/// an eDRAM cache block is automatically refreshed", paper §6.2).
/// Refreshes do not write it: the full retention clock, the later of this
/// and the line's last refresh, is `esteem_edram::RefreshEngine::last_restore`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Line {
    pub tag: u64,
    pub valid: bool,
    pub dirty: bool,
    /// Cycle of the last demand charge restore (fill/hit).
    pub last_update: u64,
}

impl Line {
    /// An invalid (empty) slot.
    pub const EMPTY: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        last_update: 0,
    };

    /// Resets to the empty state (used when a way is power-gated).
    pub fn invalidate(&mut self) {
        *self = Line::EMPTY;
    }

    /// Installs a new block.
    pub fn fill(&mut self, tag: u64, write: bool, now: u64) {
        self.tag = tag;
        self.valid = true;
        self.dirty = write;
        self.last_update = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_invalidate() {
        let mut l = Line::EMPTY;
        assert!(!l.valid);
        l.fill(0x42, true, 100);
        assert!(l.valid && l.dirty);
        assert_eq!(l.tag, 0x42);
        assert_eq!(l.last_update, 100);
        l.invalidate();
        assert_eq!(l, Line::EMPTY);
    }
}
