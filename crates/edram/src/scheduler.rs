//! Armed-counter calendar queue for polyphase (per-line) refresh.
//!
//! Refrint's polyphase policies track, per line, the *phase* of the
//! retention period in which the line was last updated, and refresh the
//! line at the start of that phase in the next retention period — and, as
//! long as no demand access restores it, at the start of that phase in
//! every period after. An idle line is therefore refreshed at every
//! boundary of its *phase class* (`boundary_index mod phases`), so only
//! its **first** due boundary after a demand touch needs per-line work:
//!
//! * `touch(line, bank, cycle)` computes the line's first due boundary
//!   (`phase_floor(cycle) + retention`) and pushes the line into that
//!   boundary's bucket of a calendar ring;
//! * re-touching a line simply *overwrites* its authoritative due cycle;
//!   the superseded bucket entry becomes stale and is filtered when its
//!   bucket is drained (lazy deletion — O(1) per touch, no search);
//! * at the first due boundary the policy callback decides the line:
//!   [`DueAction::Arm`] refreshes it and moves it out of the ring into an
//!   **armed** count per (phase class, bank); [`DueAction::Drop`]
//!   forgets it;
//! * `advance(to)` walks every boundary up to `to`. Each boundary adds
//!   its class's armed counts to the per-bank refresh window in
//!   O(banks), then drains its bucket of first-due entries;
//! * `touch` and `unschedule` disarm an armed line. Lines invalidated
//!   behind the scheduler's back (a module shrink) are disarmed by the
//!   engine's walk at its next advance.
//!
//! The cost of a retention period thus scales with demand touches, not
//! with valid lines. Each line's `due` slot also carries its armed state:
//! an armed line stores its phase class (`< phases`), which no first-due
//! index (always `>= phases`) ever equals. That guards the count — a line
//! re-touched far enough ahead of the drain point can leave two live
//! entries in one bucket, and only the first may arm it — and costs the
//! touch path no extra load. Armed lines' retention clocks are not stored;
//! [`RefreshEngine::last_restore`](crate::RefreshEngine::last_restore)
//! derives them from the class.
//!
//! All due cycles are multiples of the phase length, so a bucket maps to
//! exactly one boundary at a time as long as the ring spans more than one
//! retention period (`ring_len = (2 * phases + 2).next_power_of_two()`;
//! rounding up to a power of two makes the bucket index a mask).
//!
//! `touch` sits on the L2 access hot path (every hit and fill of a
//! polyphase technique lands here), so the phase-floor computation avoids
//! hardware division: the phase length is inverted once at construction
//! into a 64-bit fixed-point reciprocal and each quotient is a widening
//! multiply plus shift (exact for the cycle ranges the simulator can
//! produce; see `PhaseDiv`).

use esteem_cache::{strict_assert, strict_assert_eq};

/// What the policy callback decided for a line at its first due boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DueAction {
    /// The line was refreshed; keep refreshing it at every boundary of
    /// its phase class until it is touched or unscheduled. `bank` is the
    /// bank the refreshes are charged to.
    Arm { bank: u8 },
    /// The line no longer needs scheduling (invalid, or invalidated by
    /// RPD).
    Drop,
}

/// Sentinel meaning "not scheduled".
const UNSCHEDULED: u32 = u32::MAX;

/// Division by a fixed phase length via a precomputed 64-bit reciprocal.
///
/// `magic = ceil(2^64 / d)`, so `(x * magic) >> 64 = floor(x/d)` whenever
/// `x * (magic*d - 2^64) < 2^64`; since the rounding excess is at most `d`,
/// gating on `d <= 2^20` makes the fast path exact for every `x < 2^44` —
/// far beyond any cycle count the simulator reaches (a full run is under
/// 2^40 cycles). Larger or unit divisors fall back to plain division.
#[derive(Debug, Clone, Copy)]
struct PhaseDiv {
    d: u64,
    /// `ceil(2^64 / d)` when the fast path applies, else 0.
    magic: u64,
}

impl PhaseDiv {
    fn new(d: u64) -> Self {
        assert!(d >= 1);
        let magic = if d > 1 && d <= (1 << 20) {
            (u128::from(u64::MAX) / u128::from(d) + 1) as u64
        } else {
            0
        };
        Self { d, magic }
    }

    /// `floor(x / d)`.
    #[inline]
    fn quot(&self, x: u64) -> u64 {
        let q = if self.d == 1 {
            x
        } else if self.magic != 0 {
            ((u128::from(x) * u128::from(self.magic)) >> 64) as u64
        } else {
            x / self.d
        };
        strict_assert_eq!(q, x / self.d, "reciprocal division wrong for x={x}");
        q
    }
}

#[derive(Debug, Clone)]
pub struct PolyphaseScheduler {
    phase_len: u64,
    /// Reciprocal divider for `phase_len` (the hot-path phase floor).
    phase_div: PhaseDiv,
    /// `retention / phase_len`: bucket distance of one retention period,
    /// and the number of phase classes.
    phases: u64,
    /// First-due entries per boundary bucket (plus stale ones).
    ring: Vec<Vec<u32>>,
    /// `ring.len() - 1`; the ring length is a power of two.
    ring_mask: u64,
    /// Per line: the phase class (`0..phases`) while armed; the first due
    /// boundary as a phase index (`due_cycle / phase_len`, always
    /// `>= phases`) while the line waits in the ring; `UNSCHEDULED`
    /// otherwise. Touch hits this array at random line offsets, one entry
    /// per L2 line; u32 halves it so the working set stays
    /// cache-resident. Phase indices fit easily: a full run is under 2^40
    /// cycles and the shortest real phase is tens of thousands of cycles.
    due: Vec<u32>,
    /// Armed lines per `(class, bank)`, at `class * banks + bank`.
    armed_count: Vec<u64>,
    banks: usize,
    /// Next phase boundary not yet processed.
    next_boundary: u64,
    /// `next_boundary / phase_len`, maintained incrementally.
    next_boundary_quot: u64,
}

impl PolyphaseScheduler {
    pub fn new(retention_cycles: u64, phases: u8, total_lines: u64, banks: u8) -> Self {
        assert!(phases >= 1, "at least one phase");
        assert!(banks >= 1, "at least one bank");
        assert!(
            retention_cycles.is_multiple_of(u64::from(phases)),
            "retention ({retention_cycles}) must be a multiple of the phase count ({phases})"
        );
        let phase_len = retention_cycles / u64::from(phases);
        let ring_len = (2 * phases as usize + 2).next_power_of_two();
        Self {
            phase_len,
            phase_div: PhaseDiv::new(phase_len),
            phases: u64::from(phases),
            ring: vec![Vec::new(); ring_len],
            ring_mask: ring_len as u64 - 1,
            due: vec![UNSCHEDULED; total_lines as usize],
            armed_count: vec![0; usize::from(phases) * usize::from(banks)],
            banks: usize::from(banks),
            next_boundary: phase_len,
            next_boundary_quot: 1,
        }
    }

    /// Bucket of a boundary given its phase index (`boundary / phase_len`).
    #[inline]
    fn bucket_of_quot(&self, quot: u64) -> usize {
        (quot & self.ring_mask) as usize
    }

    /// Whether `line` is armed (refreshed at every boundary of its class).
    #[inline]
    pub(crate) fn is_armed(&self, line: u32) -> bool {
        u64::from(self.due[line as usize]) < self.phases
    }

    /// Takes an armed line, held in `bank`, out of its class count; the
    /// caller overwrites its `due` slot.
    #[inline]
    fn disarm(&mut self, line: u32, bank: u8) {
        let class = self.due[line as usize] as usize;
        self.armed_count[class * self.banks + usize::from(bank)] -= 1;
    }

    /// Records a charge-restoring demand event (fill, hit) on `line`, held
    /// in `bank`, at `cycle`; the line's next refresh is due at the start
    /// of this phase, one retention period later.
    pub fn touch(&mut self, line: u32, bank: u8, cycle: u64) {
        // due = phase_floor(cycle) + retention; since retention is exactly
        // `phases` phase lengths, the due boundary's phase index is the
        // cycle's quotient plus `phases` — one quotient, no second divide.
        let q = self.phase_div.quot(cycle);
        let due_q = q + self.phases;
        // Hard (not debug) assert: a due quotient that reaches the u32
        // sentinel would alias UNSCHEDULED and silently never refresh the
        // line. Unreachable for real runs (< 2^40 cycles, phase lengths in
        // the tens of thousands), so the predictable branch is free.
        assert!(due_q < u64::from(UNSCHEDULED), "phase index overflows u32");
        // Touches never trail the drain point: the simulator reports
        // accesses at cycles >= the last `advance` target, so the due
        // boundary is always still ahead of the next one to process.
        strict_assert!(
            due_q >= self.next_boundary_quot,
            "touch at cycle {cycle} schedules an already-drained boundary"
        );
        // An armed line's `due` is its class, never `due_q >= phases`.
        if self.due[line as usize] == due_q as u32 {
            return; // re-touched within the same phase: already queued
        }
        if self.is_armed(line) {
            self.disarm(line, bank);
        }
        self.due[line as usize] = due_q as u32;
        let b = self.bucket_of_quot(due_q);
        self.ring[b].push(line);
    }

    /// Removes `line`, held in `bank`, from consideration (it was
    /// invalidated). A queued entry stays and is filtered at drain time.
    pub fn unschedule(&mut self, line: u32, bank: u8) {
        if self.is_armed(line) {
            self.disarm(line, bank);
        }
        self.due[line as usize] = UNSCHEDULED;
    }

    /// Next refresh boundary of a line (for tests/invariants): its first
    /// due boundary while queued, its next class boundary while armed.
    pub fn due_of(&self, line: u32) -> Option<u64> {
        let d = match self.due[line as usize] {
            UNSCHEDULED => return None,
            d => u64::from(d),
        };
        let q = if self.is_armed(line) {
            let next = self.next_boundary_quot;
            next + (d + self.phases - next % self.phases) % self.phases
        } else {
            d
        };
        Some(q * self.phase_len)
    }

    /// Cycle of the latest refresh of an armed line — the last drained
    /// boundary of its class — or `None` if the line is not armed.
    pub(crate) fn last_refresh(&self, line: u32) -> Option<u64> {
        if !self.is_armed(line) {
            return None;
        }
        let class = u64::from(self.due[line as usize]);
        // An armed line was armed at a drained boundary `>= phases`.
        let last = self.next_boundary_quot - 1;
        Some((last - (last - class) % self.phases) * self.phase_len)
    }

    /// Processes all phase boundaries `<= to`. Each boundary charges one
    /// refresh per line armed in its class to `window[bank]`, then calls
    /// `on_first_due(line)` for every line genuinely at its first due
    /// boundary: `Arm` counts one more refresh and arms the line, `Drop`
    /// unschedules it. Returns the number of refreshes charged.
    pub fn advance(
        &mut self,
        to: u64,
        window: &mut [u64],
        mut on_first_due: impl FnMut(u32) -> DueAction,
    ) -> u64 {
        let mut refreshes = 0u64;
        while self.next_boundary <= to {
            let bq = self.next_boundary_quot;
            let class = (bq % self.phases) as usize;
            let counts = &self.armed_count[class * self.banks..(class + 1) * self.banks];
            for (w, &n) in window.iter_mut().zip(counts) {
                *w += n;
                refreshes += n;
            }
            let b = self.bucket_of_quot(bq);
            // Swap the bucket out (not `mem::take`, which would free its
            // allocation: swapping back afterwards keeps the bucket's grown
            // capacity across ring revolutions instead of re-growing from
            // zero every period).
            let mut entries = Vec::new();
            std::mem::swap(&mut entries, &mut self.ring[b]);
            let mut kept = 0usize;
            for i in 0..entries.len() {
                let line = entries[i];
                let d = u64::from(self.due[line as usize]);
                if d != bq {
                    // Not due at this boundary. Usually a stale entry
                    // (re-touched into another bucket, unscheduled, or
                    // armed — possibly by a second entry for the line in
                    // this very bucket) to drop — but a line touched far
                    // enough ahead of the drain point wraps the ring and
                    // lands in this bucket for a *future* revolution;
                    // discarding it would lose its refresh entirely (found
                    // by the differential checker: repros div-0-{1,4,9}).
                    // Keep exactly the entries whose authoritative due is
                    // still ahead and maps here. (An armed line's `due` is
                    // its class, below every boundary index drained once a
                    // line can be armed.)
                    if d != u64::from(UNSCHEDULED) && d > bq && self.bucket_of_quot(d) == b {
                        entries[kept] = line;
                        kept += 1;
                    }
                    continue;
                }
                match on_first_due(line) {
                    DueAction::Arm { bank } => {
                        self.due[line as usize] = class as u32;
                        self.armed_count[class * self.banks + usize::from(bank)] += 1;
                        window[usize::from(bank)] += 1;
                        refreshes += 1;
                    }
                    DueAction::Drop => {
                        self.due[line as usize] = UNSCHEDULED;
                    }
                }
            }
            strict_assert!(self.ring[b].is_empty(), "drained bucket repopulated");
            entries.truncate(kept);
            std::mem::swap(&mut entries, &mut self.ring[b]);
            self.next_boundary += self.phase_len;
            self.next_boundary_quot += 1;
        }
        refreshes
    }

    pub fn phase_len(&self) -> u64 {
        self.phase_len
    }

    /// Queued first-due entries including stale ones (memory watermark,
    /// tests). Armed lines are not queued.
    pub fn queued_entries(&self) -> usize {
        self.ring.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scheduler over 16 lines with one bank per line, so the refresh
    /// window attributes every refresh to its line.
    fn sched(retention: u64, phases: u8) -> PolyphaseScheduler {
        PolyphaseScheduler::new(retention, phases, 16, 16)
    }

    fn touch(s: &mut PolyphaseScheduler, line: u32, cycle: u64) {
        s.touch(line, line as u8, cycle);
    }

    /// Advances boundary by boundary to `to`, arming every first-due line,
    /// and lists each refresh as `(line, boundary)`.
    fn collect_refreshes(s: &mut PolyphaseScheduler, to: u64) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        let mut boundary = s.next_boundary;
        while boundary <= to {
            let mut window = vec![0u64; s.banks];
            let n = s.advance(boundary, &mut window, |line| DueAction::Arm {
                bank: line as u8,
            });
            assert_eq!(n, window.iter().sum::<u64>(), "return value != window");
            for (line, &k) in window.iter().enumerate() {
                out.extend(std::iter::repeat_n((line as u32, boundary), k as usize));
            }
            boundary += s.phase_len();
        }
        out
    }

    #[test]
    fn untouched_line_never_refreshed() {
        let mut s = sched(100, 4);
        let r = collect_refreshes(&mut s, 1000);
        assert!(r.is_empty());
    }

    #[test]
    fn touched_line_refreshed_once_per_period() {
        let mut s = sched(100, 4);
        touch(&mut s, 3, 10); // phase 0 -> due at 100
        let r = collect_refreshes(&mut s, 350);
        // Due at 100, then armed for 200, 300.
        assert_eq!(r, vec![(3, 100), (3, 200), (3, 300)]);
        assert_eq!(s.queued_entries(), 0, "armed lines leave the ring");
        assert_eq!(s.last_refresh(3), Some(300));
        assert_eq!(s.due_of(3), Some(400));
    }

    #[test]
    fn phase_alignment() {
        let mut s = sched(100, 4);
        touch(&mut s, 1, 60); // phase 2 (cycles 50..75) -> due at 150
        let r = collect_refreshes(&mut s, 160);
        assert_eq!(r, vec![(1, 150)]);
    }

    #[test]
    fn retouch_postpones_refresh() {
        let mut s = sched(100, 4);
        touch(&mut s, 5, 10); // due 100
                              // Advance to 90, then re-touch at 95 (phase 3) -> due moves to 175.
        let r = collect_refreshes(&mut s, 90);
        assert!(r.is_empty());
        touch(&mut s, 5, 95);
        let r = collect_refreshes(&mut s, 174);
        assert!(r.is_empty(), "refresh at 100 must have been skipped");
        let r = collect_refreshes(&mut s, 175);
        assert_eq!(r, vec![(5, 175)]);
    }

    /// Touching an armed line disarms it: the class refreshes stop, and
    /// the line's next refresh is the new first due.
    #[test]
    fn retouch_disarms_armed_line() {
        let mut s = sched(100, 4);
        touch(&mut s, 2, 10);
        assert_eq!(collect_refreshes(&mut s, 200), vec![(2, 100), (2, 200)]);
        assert!(s.is_armed(2));
        touch(&mut s, 2, 230); // phase 1 of period 2 -> due at 325
        assert!(!s.is_armed(2));
        assert_eq!(s.last_refresh(2), None);
        assert_eq!(collect_refreshes(&mut s, 425), vec![(2, 325), (2, 425)]);
    }

    #[test]
    fn unschedule_cancels() {
        let mut s = sched(100, 4);
        touch(&mut s, 2, 0);
        s.unschedule(2, 2);
        assert!(collect_refreshes(&mut s, 500).is_empty());
        assert_eq!(s.due_of(2), None);
        // An armed line, too.
        touch(&mut s, 4, 510);
        assert_eq!(collect_refreshes(&mut s, 600), vec![(4, 600)]);
        s.unschedule(4, 4);
        assert!(collect_refreshes(&mut s, 1000).is_empty());
        assert_eq!(s.due_of(4), None);
    }

    #[test]
    fn drop_action_stops_rescheduling() {
        let mut s = sched(100, 4);
        touch(&mut s, 7, 0);
        let mut calls = 0;
        let mut window = vec![0; 16];
        let n = s.advance(400, &mut window, |_| {
            calls += 1;
            DueAction::Drop
        });
        assert_eq!(calls, 1);
        assert_eq!(n, 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the phase count")]
    fn rejects_indivisible_retention() {
        PolyphaseScheduler::new(101, 4, 8, 1);
    }

    /// Regression (differential checker, repros div-0-{1,4,9}): a touch
    /// more than `ring_len - phases` phases ahead of the drain point wraps
    /// the calendar ring into a bucket that is drained for an *earlier*
    /// boundary first; the drain used to discard the future-due entry,
    /// silently losing every subsequent refresh of the line.
    #[test]
    fn far_ahead_touch_survives_ring_wraparound() {
        // phases = 4 -> ring_len = 16, phase_len = 25. A touch at 505 is
        // due at 600 (phase index 24), which shares bucket 8 with the
        // boundary at 200 (phase index 8).
        let mut s = sched(100, 4);
        touch(&mut s, 2, 505);
        let r = collect_refreshes(&mut s, 550);
        assert!(r.is_empty(), "nothing is due before 600, got {r:?}");
        let r = collect_refreshes(&mut s, 600);
        assert_eq!(
            r,
            vec![(2, 600)],
            "far-ahead entry was lost when bucket 8 drained at boundary 200"
        );
        // And the line keeps its periodic schedule afterwards.
        let r = collect_refreshes(&mut s, 800);
        assert_eq!(r, vec![(2, 700), (2, 800)]);
    }

    /// Double-arm hazard: with one phase the ring has four buckets, so a
    /// line re-touched four periods ahead before any advance leaves two
    /// live entries in one bucket. Only the first may arm the line, or
    /// every later boundary would charge it twice.
    #[test]
    fn retouch_into_same_bucket_arms_once() {
        let mut s = sched(100, 1);
        touch(&mut s, 0, 10); // due 100: bucket 1
        touch(&mut s, 0, 410); // due 500: bucket 1 again
        assert_eq!(s.queued_entries(), 2);
        let r = collect_refreshes(&mut s, 800);
        assert_eq!(r, vec![(0, 500), (0, 600), (0, 700), (0, 800)]);
    }

    /// A touch exactly on a phase boundary belongs to the phase *starting*
    /// there: the refresh comes one full retention period later, not at
    /// the boundary one phase earlier.
    #[test]
    fn touch_exactly_on_boundary_schedules_full_period() {
        let mut s = sched(100, 4);
        touch(&mut s, 6, 100);
        let r = collect_refreshes(&mut s, 199);
        assert!(r.is_empty());
        let r = collect_refreshes(&mut s, 200);
        assert_eq!(r, vec![(6, 200)]);
    }

    /// The largest phase index below the sentinel still schedules.
    #[test]
    fn touch_at_max_representable_phase_index_is_fine() {
        let mut s = sched(4, 4); // phase_len = 1
        let cycle = u64::from(UNSCHEDULED) - 5; // due_q = u32::MAX - 1
        touch(&mut s, 0, cycle);
        assert_eq!(s.due_of(0), Some(u64::from(UNSCHEDULED) - 1));
    }

    /// One past it would alias UNSCHEDULED and silently drop the line —
    /// the guard must be a hard error, not a debug-only one.
    #[test]
    #[should_panic(expected = "overflows u32")]
    fn touch_one_past_max_phase_index_panics() {
        let mut s = sched(4, 4);
        touch(&mut s, 0, u64::from(UNSCHEDULED) - 4); // due_q == the sentinel
    }

    proptest! {
        /// The fixed-point reciprocal agrees with hardware division across
        /// the divisor range it claims (including the gate boundaries).
        #[test]
        fn phase_div_matches_division(
            d in prop_oneof![1u64..=1 << 21, (1u64 << 20) - 2..(1 << 20) + 2, 1u64 << 20..1 << 32],
            x in 0u64..1 << 44,
        ) {
            let pd = PhaseDiv::new(d);
            prop_assert_eq!(pd.quot(x), x / d);
        }

        /// Safety: with every first-due line armed, the gap between
        /// consecutive charge-restoring events of a line never exceeds one
        /// retention period plus one phase (the worst-case deferral of
        /// phase-floor alignment is < one phase).
        #[test]
        fn retention_never_violated(
            touches in proptest::collection::vec((0u32..16, 0u64..5_000), 1..300),
        ) {
            let retention = 400u64;
            let phases = 4u64;
            let mut s = sched(retention, phases as u8);
            let mut sorted = touches.clone();
            sorted.sort_by_key(|&(_, c)| c);
            let mut last_restore = [None::<u64>; 16];
            let mut max_gap = 0u64;
            let mut clock = 0u64;
            let final_cycle = sorted.last().map(|&(_, c)| c).unwrap_or(0) + 3 * retention;
            sorted.push((0, final_cycle)); // flush the schedule at the end
            for (line, cycle) in sorted {
                let cycle = cycle.max(clock);
                // Drain due refreshes before this touch.
                for (l, at) in collect_refreshes(&mut s, cycle) {
                    if let Some(prev) = last_restore[l as usize] {
                        max_gap = max_gap.max(at - prev);
                    }
                    last_restore[l as usize] = Some(at);
                }
                touch(&mut s, line, cycle);
                last_restore[line as usize] = Some(cycle);
                clock = cycle;
            }
            // Worst-case deferral from phase-floor alignment is < 1 phase.
            prop_assert!(
                max_gap <= retention + retention / phases,
                "charge-restore gap {max_gap} exceeds retention bound"
            );
        }
    }
}
