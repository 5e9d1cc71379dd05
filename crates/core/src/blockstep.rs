//! The block individual-timestep machinery (paper §3, §4.2; McMillan 1986,
//! Makino 1991).
//!
//! Timesteps are forced to powers of two and particle times are kept
//! commensurate with their steps, so that at every moment a whole *block* of
//! particles shares the same update time and can be integrated in parallel —
//! the property that makes the GRAPE pipelines (and any parallel hardware)
//! usable at all with individual timesteps.

use crate::particle::ParticleSystem;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Round `dt` down to the nearest power of two, clamped to
/// `[dt_min, dt_max]`. `dt_max` and `dt_min` must themselves be normal
/// powers of two, so a subnormal `dt` (whose exponent field is zero) lands
/// on `dt_min`.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(dt > 0)` also catches NaN
pub fn quantize_dt(dt: f64, dt_min: f64, dt_max: f64) -> f64 {
    debug_assert!(dt_min > 0.0 && dt_max >= dt_min);
    if !(dt > 0.0) {
        // NaN or non-positive desired step: take the floor of the range.
        return dt_min;
    }
    if dt >= dt_max {
        return dt_max;
    }
    // Largest power of two ≤ dt: keep the exponent, clear the mantissa.
    let q = f64::from_bits(dt.to_bits() & 0xfff0_0000_0000_0000);
    q.clamp(dt_min, dt_max)
}

/// Decompose a finite non-zero float as `|x| = m · 2^e` with `m` odd.
///
/// This is the exact integer view of a binary float that tick arithmetic
/// needs: `m` carries every significant bit, `e` the position of the lowest
/// set bit. Subnormals decompose the same way (their implicit leading bit is
/// zero, not one).
#[inline]
fn odd_mantissa_exp(x: f64) -> (u64, i64) {
    debug_assert!(x.is_finite() && x != 0.0);
    let bits = x.abs().to_bits();
    let raw_exp = (bits >> 52) & 0x7ff;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, e) = if raw_exp == 0 {
        (frac, -1074i64) // subnormal: no implicit bit
    } else {
        (frac | (1u64 << 52), raw_exp as i64 - 1075)
    };
    let tz = m.trailing_zeros();
    (m >> tz, e + i64::from(tz))
}

/// Whether `x` is exactly a positive finite power of two: its mantissa, odd
/// part taken, is 1. (A `log2` test rounds, and takes `2^-40 · (1 + 2^-52)`.)
pub(crate) fn is_power_of_two(x: f64) -> bool {
    x > 0.0 && x.is_finite() && odd_mantissa_exp(x).0 == 1
}

/// The rules of [`TickScheduler::check_clocks`] one particle's clock breaks,
/// one bit each in the order that function reports them (0 when all hold).
/// Branch-free, so the scan over all particles vectorizes.
#[inline]
fn clock_faults(t: f64, time: f64, dt: f64, dt_min: f64, dt_max: f64, tick_limit: f64) -> u8 {
    // A normal power of two has an all-zero fraction field, and dividing by
    // one is exact once the quotient is 1 or more.
    let step = (dt >= dt_min) & (dt <= dt_max) & (dt.to_bits() & ((1 << 52) - 1) == 0);
    let k = time / dt;
    let on_grid = (time == 0.0) | ((k >= 1.0) & (k.fract() == 0.0));
    let next = time + dt;
    let within = (time <= t) & (t < next);
    let in_range = next < tick_limit;
    u8::from(!step) | u8::from(!on_grid) << 1 | u8::from(!within) << 2 | u8::from(!in_range) << 3
}

/// True if time `t` is an integer multiple of `dt`, computed **exactly** via
/// mantissa/exponent arithmetic.
///
/// The obvious `(t / dt).fract() == 0.0` is wrong once `t/dt ≥ 2^53`: every
/// float of that magnitude is integer-valued, so the division rounds to an
/// integer and `fract()` vanishes no matter what the true ratio was. With
/// `dt_min = 2^-40` that magnitude is reached by `t ≥ 2^13` against a
/// dt_min-scale divisor — inside the paper's integration span. Writing
/// `t = mt · 2^et` and `dt = md · 2^ed` with odd `mt`, `md`, the ratio is an
/// integer iff `md` divides `mt` and `et ≥ ed`; both tests are exact in u64.
/// A power-of-two `dt` — every step [`next_block_dt`] asks about — has
/// `md = 1`, which divides anything, so the u64 division is skipped.
#[inline]
pub fn is_commensurate(t: f64, dt: f64) -> bool {
    if dt == 0.0 || !t.is_finite() || !dt.is_finite() {
        return false;
    }
    if t == 0.0 {
        return true;
    }
    let (mt, et) = odd_mantissa_exp(t);
    let (md, ed) = odd_mantissa_exp(dt);
    et >= ed && (md == 1 || mt % md == 0)
}

/// Given the step `dt_old` just completed at new time `t_new` and the desired
/// step `dt_des` from the timestep criterion, choose the next block step:
///
/// * shrink freely (halving preserves commensurability),
/// * grow at most ×2, and only when `t_new` is commensurate with the doubled
///   step (the McMillan rule),
/// * clamp to `[dt_min, dt_max]`.
#[inline]
pub fn next_block_dt(dt_old: f64, dt_des: f64, t_new: f64, dt_min: f64, dt_max: f64) -> f64 {
    if dt_des < dt_old {
        return quantize_dt(dt_des, dt_min, dt_max.min(dt_old));
    }
    if dt_des >= 2.0 * dt_old && dt_old < dt_max && is_commensurate(t_new, 2.0 * dt_old) {
        return (2.0 * dt_old).min(dt_max);
    }
    dt_old.clamp(dt_min, dt_max)
}

/// Total-ordering wrapper so event times can live in a heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Binary-heap event queue over particle update times: the reference the
/// integrator's [`TickScheduler`] is checked against (see [`ShadowReplay`]).
///
/// Every particle has exactly one pending event (its next update time
/// `time[i] + dt[i]`). A block step pops *all* events sharing the minimum
/// time — that set is the active block the paper integrates in parallel on
/// the GRAPE pipelines.
#[derive(Debug, Default, Clone)]
pub struct BlockScheduler {
    heap: BinaryHeap<Reverse<(OrdF64, usize)>>,
}

impl BlockScheduler {
    /// Empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from per-particle next-update times.
    pub fn from_times(next_times: &[f64]) -> Self {
        let mut s = Self::new();
        for (i, &t) in next_times.iter().enumerate() {
            s.push(i, t);
        }
        s
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule (or reschedule after an update) particle `i` at time `t`.
    pub fn push(&mut self, i: usize, t: f64) {
        self.heap.push(Reverse((OrdF64(t), i)));
    }

    /// The earliest pending update time.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse((t, _))| t.0)
    }

    /// Pop the full block of particles due at the minimum time. Returns the
    /// block time and the particle indices (ascending). The caller must push
    /// each popped particle back with its new next-update time.
    pub fn pop_block(&mut self, out: &mut Vec<usize>) -> Option<f64> {
        out.clear();
        let Reverse((t0, i0)) = self.heap.pop()?;
        out.push(i0);
        while let Some(&Reverse((t, _))) = self.heap.peek() {
            if t != t0 {
                break;
            }
            let Reverse((_, i)) = self.heap.pop().unwrap();
            out.push(i);
        }
        out.sort_unstable();
        Some(t0.0)
    }
}

/// One rung of the tick-bucket ring: all pending events whose tick shares
/// this bucket's trailing-zero count. Under the commensurate power-of-two
/// contract they all share a *single* tick (see [`TickScheduler`]), recorded
/// here together with the f64 time exactly as it was pushed. The events
/// themselves are a bitmap over particle indices (bit `i` set ⇔ particle `i`
/// is due at `tick`), so draining the rung in word order emits the block
/// ascending without a sort.
#[derive(Debug, Clone, Default)]
struct TickBucket {
    tick: u64,
    time: f64,
    bits: Vec<u64>,
    /// The words of `bits` that may hold set bits, `lo..=hi`; set by the
    /// first push into an empty rung.
    lo: usize,
    hi: usize,
    /// Set bits in `bits`; the rung is empty when 0.
    count: usize,
}

/// Integer tick-bucket event queue — the integrator's scheduler: O(block)
/// per pop, where the float-keyed [`BlockScheduler`] heap, its oracle, pays
/// O(b log N).
///
/// # Tick representation
///
/// Every particle time and step the integrator produces is a power-of-two
/// multiple of `dt_min`, so each event time is represented exactly as a
/// `u64` tick `t / dt_min` (a power-of-two division: exponent shift, no
/// rounding). Events live in a ring of 64 buckets keyed by
/// `trailing_zeros(tick)` — the event's rung in the block-step hierarchy.
///
/// # Why one bucket holds exactly one tick
///
/// A pending event of a particle with step `2^r` ticks sits at a tick that
/// is a multiple of `2^r` (commensurability) inside the half-open window
/// `(T, T + 2^r]`, where `T` is the last popped block tick — its owner was
/// last corrected at or before `T` and is not yet due. Its bucket index
/// `b = trailing_zeros(tick) ≥ r`, and a window of length `2^r ≤ 2^b`
/// contains at most one multiple of `2^b`. Hence all events that land in
/// bucket `b` share one tick, pushes are O(1), and [`Self::pop_block`] is a
/// 64-bucket min-scan plus a drain of the winning bucket — no comparisons
/// against float keys, no heap, O(block + words spanned by the block).
///
/// # Which times it can hold
///
/// A time `t` has a tick only if it is finite, non-negative, a multiple of
/// `dt_min`, and `t / dt_min < 2^64`. On that range `t ↔ tick` is exact
/// (scaling by a power of two, then an integer-valued float to `u64`) and
/// strictly monotone. Outside it the cast saturates or truncates, and runs
/// go wrong silently: a start time of 0.1 steps by `dt_min` forever, one of
/// 3e7 (3.3e19 ticks of 2^-40) merges distinct blocks. Times read from a
/// file are checked with [`Self::check_span`] before anything is scheduled.
///
/// # Equivalence with the heap scheduler
///
/// Because the map is strictly monotone, the minimum tick is the minimum
/// time, the popped set is exactly the heap's popped set, and both emit the
/// block ascending — the emitted `(time, block)` sequence is identical, and
/// therefore so is every downstream trajectory bit ([`ShadowReplay`] checks
/// this per block step). The f64 time returned is the value the caller
/// pushed, never a back-conversion.
///
/// Pushes that violate the contract — a tick other than the one its rung
/// holds, or a second push of an index already pending at that tick — spill
/// into an overflow list that the pop scan also consults; the pop appends
/// the overflow entries at the minimum tick and sorts, so the queue emits the
/// heap's multiset instead of reordering events. The integrator never
/// exercises that path.
#[derive(Debug, Clone)]
pub struct TickScheduler {
    /// 1 / dt_min — a power of two, so `t * inv_dt_min` is exact.
    inv_dt_min: f64,
    buckets: Vec<TickBucket>,
    /// Bit `b` set ⇔ `buckets[b]` is non-empty.
    occupied: u64,
    /// Out-of-contract events: (tick, pushed time, index).
    overflow: Vec<(u64, f64, usize)>,
    len: usize,
}

const TICK_BUCKETS: usize = 64;

impl TickScheduler {
    /// Empty scheduler for a schedule quantized to `dt_min` (must be a
    /// positive power of two).
    pub fn new(dt_min: f64) -> Self {
        assert!(is_power_of_two(dt_min), "dt_min = {dt_min} must be a positive power of two");
        Self {
            inv_dt_min: 1.0 / dt_min,
            buckets: vec![TickBucket::default(); TICK_BUCKETS],
            occupied: 0,
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Build from per-particle next-update times.
    pub fn from_times(next_times: &[f64], dt_min: f64) -> Self {
        let mut s = Self::new(dt_min);
        for (i, &t) in next_times.iter().enumerate() {
            s.push(i, t);
        }
        s
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Refuse a run from `t_start` to `t_end` whose times the scheduler
    /// cannot represent (see the type docs): the start time must have a
    /// tick, and the end time must be finite, not before the start, and
    /// below `2^64` ticks. The end need not be a multiple of `dt_min` — it
    /// only bounds the block times, it is never scheduled.
    pub fn check_span(t_start: f64, t_end: f64, dt_min: f64) -> Result<(), String> {
        if !(t_start.is_finite() && t_start >= 0.0) {
            return Err(format!("start time {t_start} must be finite and non-negative"));
        }
        if !is_commensurate(t_start, dt_min) {
            return Err(format!("start time {t_start} is not a multiple of dt_min = {dt_min:e}"));
        }
        if !(t_end.is_finite() && t_end >= t_start) {
            return Err(format!("end time {t_end} must be finite and not before {t_start}"));
        }
        if t_end / dt_min >= 2f64.powi(64) {
            return Err(format!(
                "end time {t_end:e} is {:e} ticks of dt_min = {dt_min:e}, beyond the u64 range",
                t_end / dt_min
            ));
        }
        Ok(())
    }

    /// Refuse per-particle clocks the scheduler cannot resume from (see the
    /// type docs). At system time `t`, every particle's step `dt[i]` must be a
    /// power of two in `[dt_min, dt_max]`, and its last-step time `time[i]` a
    /// finite, non-negative multiple of it with `time[i] ≤ t < time[i] +
    /// dt[i]`, the pending event below `2^64` ticks. One O(N) pass that
    /// vectorizes; the particles are scanned again only to name a bad one.
    pub fn check_clocks(
        t: f64,
        time: &[f64],
        dt: &[f64],
        dt_min: f64,
        dt_max: f64,
    ) -> Result<(), String> {
        // dt_min is a power of two, so this product is exact.
        let tick_limit = dt_min * 2f64.powi(64);
        let faults =
            |(&time, &dt): (&f64, &f64)| clock_faults(t, time, dt, dt_min, dt_max, tick_limit);
        if time.iter().zip(dt).fold(0, |any, clock| any | faults(clock)) == 0 {
            return Ok(());
        }
        let Some((i, fault)) = time.iter().zip(dt).map(faults).enumerate().find(|&(_, f)| f != 0)
        else {
            return Ok(());
        };
        let (time, dt, next) = (time[i], dt[i], time[i] + dt[i]);
        Err(match fault.trailing_zeros() {
            0 => format!("particle {i}: step {dt} is not a power of two in [{dt_min:e}, {dt_max}]"),
            1 => {
                format!("particle {i}: time {time} is not a non-negative multiple of its step {dt}")
            }
            2 => format!("particle {i}: system time {t} is outside its step [{time}, {next})"),
            _ => format!(
                "particle {i}: next time {next:e} is beyond the u64 range of dt_min = {dt_min:e}"
            ),
        })
    }

    #[inline]
    fn tick_of(&self, t: f64) -> u64 {
        let ticks = t * self.inv_dt_min;
        debug_assert!(
            ticks >= 0.0 && ticks.fract() == 0.0,
            "time {t} is not a non-negative multiple of dt_min"
        );
        ticks as u64 // saturating on overflow/NaN: deterministic
    }

    /// Schedule (or reschedule after an update) particle `i` at time `t`.
    // grape6-lint: hot
    pub fn push(&mut self, i: usize, t: f64) {
        let tick = self.tick_of(t);
        let b = (tick.trailing_zeros() as usize).min(TICK_BUCKETS - 1);
        let bucket = &mut self.buckets[b];
        let w = i >> 6;
        if bucket.count == 0 {
            (bucket.tick, bucket.time, bucket.lo, bucket.hi) = (tick, t, w, w);
            self.occupied |= 1 << b;
        } else if bucket.tick != tick {
            return self.spill(tick, t, i);
        }
        if w >= bucket.bits.len() {
            // Grows with the highest index pushed to this rung — to N/64
            // words at most — and then never reallocates.
            bucket.bits.resize(w + 1, 0);
        }
        let (word, bit) = (&mut bucket.bits[w], 1u64 << (i & 63));
        if *word & bit != 0 {
            return self.spill(tick, t, i);
        }
        *word |= bit;
        bucket.lo = bucket.lo.min(w);
        bucket.hi = bucket.hi.max(w);
        bucket.count += 1;
        self.len += 1;
    }

    /// Park an out-of-contract push — a tick other than the one its rung
    /// holds, or an index already pending at that tick — in `overflow`
    /// rather than corrupt the rung.
    #[cold]
    fn spill(&mut self, tick: u64, t: f64, i: usize) {
        self.overflow.push((tick, t, i));
        self.len += 1;
    }

    /// Minimum pending (tick, time) over buckets and overflow.
    #[inline]
    fn peek_min(&self) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        let mut mask = self.occupied;
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let bucket = &self.buckets[b];
            if best.is_none_or(|(t, _)| bucket.tick < t) {
                best = Some((bucket.tick, bucket.time));
            }
        }
        for &(tick, time, _) in &self.overflow {
            if best.is_none_or(|(t, _)| tick < t) {
                best = Some((tick, time));
            }
        }
        best
    }

    /// The earliest pending update time.
    pub fn peek_time(&self) -> Option<f64> {
        self.peek_min().map(|(_, t)| t)
    }

    /// Pop the full block of particles due at the minimum time. Returns the
    /// block time and the particle indices (ascending) — the same set, order
    /// and f64 time the heap scheduler would produce. The caller must push
    /// each popped particle back with its new next-update time.
    ///
    /// A tick has one rung (its trailing-zero count), so the block is that
    /// rung's bitmap, emitted in word order: O(block + words spanned), no
    /// comparison sort — the sort the heap pays per pop is exactly the
    /// O(b log b) term this scheduler removes from the large-N host budget.
    // grape6-lint: hot
    pub fn pop_block(&mut self, out: &mut Vec<usize>) -> Option<f64> {
        out.clear();
        let (tick0, t0) = self.peek_min()?;
        let b = (tick0.trailing_zeros() as usize).min(TICK_BUCKETS - 1);
        let bucket = &mut self.buckets[b];
        if bucket.count != 0 && bucket.tick == tick0 {
            for w in bucket.lo..=bucket.hi {
                let mut word = std::mem::take(&mut bucket.bits[w]);
                while word != 0 {
                    out.push((w << 6) | word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
            bucket.count = 0;
            self.occupied &= !(1 << b);
        }
        if !self.overflow.is_empty() {
            // Out-of-contract events at tick0: append and sort, so the
            // emitted multiset still matches the heap scheduler bit for bit.
            let ascending = out.len();
            self.overflow.retain(|&(tick, _, i)| {
                let due = tick == tick0;
                if due {
                    out.push(i);
                }
                !due
            });
            if out.len() != ascending {
                out.sort_unstable();
            }
        }
        self.len -= out.len();
        Some(t0)
    }
}

/// The integrator's one scheduler kind. It remains only because `benchmark/`
/// pins it (with [`crate::integrator::BlockHermite::with_scheduler`]); the
/// ROADMAP item "One `benchmark` PR that unblocks six items" deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Integer tick buckets ([`TickScheduler`]).
    TickBucket,
}

/// The heap as a shadow oracle of the [`TickScheduler`] that drives the
/// integrator. Fed the same `time[i] + dt[i]` pushes, it must pop the same
/// `(t, block)` after every block step; tests and the `sched/tick-vs-heap`
/// conformance check replay whole integrations through it. No run
/// schedules with it.
#[derive(Debug, Clone)]
pub struct ShadowReplay {
    heap: BlockScheduler,
    block: Vec<usize>,
    steps: u64,
}

impl ShadowReplay {
    /// Shadow the schedule of an initialized or resumed system: every
    /// particle is due at `time[i] + dt[i]`.
    pub fn new(sys: &ParticleSystem) -> Self {
        let next: Vec<f64> = sys.time.iter().zip(&sys.dt).map(|(t, dt)| t + dt).collect();
        Self { heap: BlockScheduler::from_times(&next), block: Vec::new(), steps: 0 }
    }

    /// Check the block step the integrator just took — its time `t` and
    /// `block` (`BlockHermite::last_block`) — against the heap's next pop,
    /// then reschedule the block from the corrected `sys`.
    pub fn check(&mut self, t: f64, block: &[usize], sys: &ParticleSystem) -> Result<(), String> {
        let step = self.steps;
        self.steps += 1;
        let want = self.heap.pop_block(&mut self.block);
        if want.map(f64::to_bits) != Some(t.to_bits()) || self.block != block {
            return Err(format!(
                "block step {step}: tick scheduler popped t = {t} {block:?}, heap t = {want:?} {:?}",
                self.block
            ));
        }
        for &i in block {
            self.heap.push(i, sys.time[i] + sys.dt[i]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_rounds_down_to_power_of_two() {
        assert_eq!(quantize_dt(0.3, 1e-10, 1.0), 0.25);
        assert_eq!(quantize_dt(0.25, 1e-10, 1.0), 0.25);
        assert_eq!(quantize_dt(0.9, 1e-10, 1.0), 0.5);
        assert_eq!(quantize_dt(1.0 / 1024.0 * 1.5, 1e-10, 1.0), 1.0 / 1024.0);
    }

    #[test]
    fn quantize_clamps_to_range() {
        assert_eq!(quantize_dt(100.0, 1e-10, 0.125), 0.125);
        assert_eq!(quantize_dt(1e-30, 1e-10, 1.0), 1e-10);
        assert_eq!(quantize_dt(f64::INFINITY, 1e-10, 0.5), 0.5);
    }

    #[test]
    fn quantize_handles_degenerate_input() {
        assert_eq!(quantize_dt(f64::NAN, 0.25, 1.0), 0.25);
        assert_eq!(quantize_dt(0.0, 0.25, 1.0), 0.25);
        assert_eq!(quantize_dt(-1.0, 0.25, 1.0), 0.25);
    }

    #[test]
    fn quantize_result_is_power_of_two() {
        let dt_min = 2.0f64.powi(-40);
        for x in [0.7, 0.3e-3, 1.9e-6, 0.501, 0.4999, 3.0e-9] {
            let q = quantize_dt(x, dt_min, 1.0);
            assert!(q <= x);
            assert_eq!(q.log2().fract(), 0.0, "{q} not a power of two");
            assert!(2.0 * q > x, "{q} not the largest power of two ≤ {x}");
        }
    }

    /// `quantize_dt` as `2^floor(log2 dt)` with an octave fix-up: the formula
    /// the exponent mask replaced, kept as the oracle it must match.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(dt > 0)` also catches NaN
    fn quantize_dt_log2(dt: f64, dt_min: f64, dt_max: f64) -> f64 {
        if !(dt > 0.0) {
            return dt_min;
        }
        if dt >= dt_max {
            return dt_max;
        }
        let q = 2.0f64.powi(dt.log2().floor() as i32);
        let q = if q > dt { q * 0.5 } else { q };
        q.clamp(dt_min, dt_max)
    }

    fn assert_quantize_matches_log2(dt: f64, dt_min: f64, dt_max: f64) {
        assert_eq!(
            quantize_dt(dt, dt_min, dt_max).to_bits(),
            quantize_dt_log2(dt, dt_min, dt_max).to_bits(),
            "dt = {dt:e} ({:#018x}) in [{dt_min:e}, {dt_max:e}]",
            dt.to_bits()
        );
    }

    /// A wide range that leaves the whole sweep unclamped, and the
    /// integrator's default.
    const QUANTIZE_RANGES: [(f64, f64); 2] =
        [(1.0 / (1u64 << 62) as f64, 32.0), (1.0 / (1u64 << 40) as f64, 0.125)];

    #[test]
    fn quantize_mask_matches_log2_around_every_power_of_two() {
        for (dt_min, dt_max) in QUANTIZE_RANGES {
            for e in -60..=4 {
                let p = 2.0f64.powi(e).to_bits();
                for ulps in 0..=4 {
                    for dt in [f64::from_bits(p - ulps), f64::from_bits(p + ulps)] {
                        assert_quantize_matches_log2(dt, dt_min, dt_max);
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_mask_matches_log2_on_edge_inputs() {
        let subnormals =
            [f64::from_bits(1), f64::MIN_POSITIVE / 3.0, f64::from_bits(0x000f_ffff_ffff_ffff)];
        let specials = [0.0, -0.0, -1.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let ranges = QUANTIZE_RANGES.into_iter().chain([(f64::MIN_POSITIVE, 1.0)]);
        for (dt_min, dt_max) in ranges {
            let at_or_above_max = [dt_max, dt_max * 1.5, dt_max * 2.0, 1e300, f64::MAX];
            for dt in subnormals.into_iter().chain(subnormals.map(|s| -s)) {
                assert_quantize_matches_log2(dt, dt_min, dt_max);
            }
            for dt in specials.into_iter().chain(at_or_above_max) {
                assert_quantize_matches_log2(dt, dt_min, dt_max);
            }
        }
    }

    #[test]
    fn commensurability_basic() {
        assert!(is_commensurate(0.0, 0.25));
        assert!(is_commensurate(0.75, 0.25));
        assert!(!is_commensurate(0.75, 0.5));
        assert!(is_commensurate(1.0, 0.5));
        assert!(!is_commensurate(1.0, 0.0));
    }

    #[test]
    fn commensurability_exact_over_many_steps() {
        // Accumulate 2⁻¹³ ten thousand times: binary-exact, so every
        // intermediate time must remain commensurate.
        let dt = 2.0f64.powi(-13);
        let mut t = 0.0;
        for _ in 0..10_000 {
            t += dt;
            assert!(is_commensurate(t, dt));
        }
    }

    #[test]
    fn next_dt_shrinks_freely() {
        let dt = next_block_dt(0.25, 0.03, 0.75, 1e-10, 1.0);
        assert_eq!(dt, 0.015625); // 2^-6 ≤ 0.03
    }

    #[test]
    fn next_dt_grows_only_when_commensurate() {
        // t_new = 0.75 is NOT a multiple of 0.5, so the step must stay 0.25.
        assert_eq!(next_block_dt(0.25, 10.0, 0.75, 1e-10, 1.0), 0.25);
        // t_new = 0.5 IS a multiple of 0.5 → allowed to double.
        assert_eq!(next_block_dt(0.25, 10.0, 0.5, 1e-10, 1.0), 0.5);
    }

    #[test]
    fn next_dt_grows_at_most_twofold() {
        assert_eq!(next_block_dt(0.25, 100.0, 1.0, 1e-10, 8.0), 0.5);
    }

    #[test]
    fn next_dt_respects_dt_max() {
        assert_eq!(next_block_dt(0.5, 100.0, 1.0, 1e-10, 0.5), 0.5);
    }

    #[test]
    fn scheduler_pops_whole_block() {
        let mut s = BlockScheduler::new();
        s.push(0, 1.0);
        s.push(1, 0.5);
        s.push(2, 0.5);
        s.push(3, 2.0);
        let mut block = Vec::new();
        let t = s.pop_block(&mut block).unwrap();
        assert_eq!(t, 0.5);
        assert_eq!(block, vec![1, 2]);
        let t = s.pop_block(&mut block).unwrap();
        assert_eq!(t, 1.0);
        assert_eq!(block, vec![0]);
    }

    #[test]
    fn scheduler_roundtrip_preserves_count() {
        let mut s = BlockScheduler::from_times(&[0.25, 0.5, 0.25, 1.0]);
        assert_eq!(s.len(), 4);
        let mut block = Vec::new();
        s.pop_block(&mut block).unwrap();
        assert_eq!(s.len(), 2);
        for &i in &block {
            s.push(i, 2.0);
        }
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn scheduler_empty_behaviour() {
        let mut s = BlockScheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        let mut block = Vec::new();
        assert_eq!(s.pop_block(&mut block), None);
    }

    #[test]
    fn scheduler_times_monotone_nondecreasing() {
        let mut s = BlockScheduler::from_times(&[0.125, 0.5, 0.125, 0.25, 0.25, 1.0]);
        let mut block = Vec::new();
        let mut last = f64::NEG_INFINITY;
        while let Some(t) = s.pop_block(&mut block) {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn commensurability_exact_beyond_2_53_ratio() {
        // Regression for the old `(t / dt).fract() == 0.0` implementation:
        // every float ≥ 2^53 is integer-valued, so once the *ratio* reaches
        // that magnitude the division rounds to an integer and fract()
        // vanishes regardless of the true remainder. With dt built on the
        // default dt_min = 2^-40 grid the bad regime starts at t ≈ 2^15.
        let dt_min = 2.0f64.powi(-40);
        // t/dt = 2^55/3 ≈ 1.2e16 ≥ 2^53 — NOT an integer multiple.
        let t = 2.0f64.powi(15);
        let dt = 3.0 * dt_min;
        assert!((t / dt).fract() == 0.0, "ratio must be in the fract-blind regime");
        assert!(!is_commensurate(t, dt), "2^55/3 is not an integer");
        // Same magnitude, genuinely commensurate: multiples of dt_min stay true.
        assert!(is_commensurate(t, dt_min));
        // The finest representable grid point at this magnitude (2^15 + 2^-37)
        // still resolves exactly against finer and coarser rungs.
        let t_odd = t + 2.0f64.powi(-37);
        assert!(t_odd > t, "grid point must be representable");
        assert!(is_commensurate(t_odd, 2.0f64.powi(-37)));
        assert!(!is_commensurate(t_odd, 2.0f64.powi(-36)));
        // And the power-of-two ladder is exact at any magnitude.
        assert!(is_commensurate(2.0f64.powi(30), dt_min));
    }

    #[test]
    fn commensurability_skips_the_division_only_for_a_unit_mantissa() {
        // md == 1 is taken for every power of two, subnormal ones included.
        let tiny = f64::from_bits(1); // 2^-1074, the smallest subnormal
        assert!(is_commensurate(3.0 * tiny, tiny));
        assert!(is_commensurate(1.0, tiny));
        assert!(!is_commensurate(tiny, 2.0 * tiny));
        assert!(is_commensurate(0.0, tiny));
        // Odd mantissas still divide: 0.75 = 3 · 2^-2 against 0.375 = 3 · 2^-3.
        assert!(is_commensurate(0.75, 0.375));
        assert!(!is_commensurate(0.5, 0.375));
    }

    #[test]
    fn commensurability_degenerate_inputs() {
        assert!(!is_commensurate(f64::INFINITY, 0.25));
        assert!(!is_commensurate(f64::NAN, 0.25));
        assert!(!is_commensurate(1.0, f64::NAN));
        assert!(is_commensurate(0.0, 0.25));
        assert!(is_commensurate(-0.75, 0.25));
        assert!(!is_commensurate(-0.75, 0.5));
    }

    const DT_MIN: f64 = 0.015625; // 2^-6 keeps test schedules readable

    #[test]
    fn tick_scheduler_pops_whole_block() {
        let mut s = TickScheduler::new(DT_MIN);
        s.push(0, 1.0);
        s.push(1, 0.5);
        s.push(2, 0.5);
        s.push(3, 2.0);
        let mut block = Vec::new();
        let t = s.pop_block(&mut block).unwrap();
        assert_eq!(t, 0.5);
        assert_eq!(block, vec![1, 2]);
        let t = s.pop_block(&mut block).unwrap();
        assert_eq!(t, 1.0);
        assert_eq!(block, vec![0]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tick_scheduler_empty_behaviour() {
        let mut s = TickScheduler::new(DT_MIN);
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        let mut block = Vec::new();
        assert_eq!(s.pop_block(&mut block), None);
    }

    #[test]
    fn tick_scheduler_handles_time_zero() {
        // tick 0 has 64 trailing zeros; the bucket index clamps to 63.
        let mut s = TickScheduler::new(DT_MIN);
        s.push(5, 0.0);
        s.push(1, DT_MIN);
        let mut block = Vec::new();
        assert_eq!(s.pop_block(&mut block), Some(0.0));
        assert_eq!(block, vec![5]);
        assert_eq!(s.pop_block(&mut block), Some(DT_MIN));
        assert_eq!(block, vec![1]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tick_scheduler_rejects_non_power_of_two_quantum() {
        let _ = TickScheduler::new(0.3);
    }

    #[test]
    fn tick_scheduler_block_is_ascending_from_any_push_order() {
        // The bitmap emission must sort what arrives unsorted (pushes land
        // in correction order, which is ascending per block step but
        // arbitrary across the rung hierarchy).
        let mut s = TickScheduler::new(DT_MIN);
        for &i in &[9, 2, 40, 0, 77, 3, 64, 63] {
            s.push(i, 0.5);
        }
        let mut block = Vec::new();
        assert_eq!(s.pop_block(&mut block), Some(0.5));
        assert_eq!(block, vec![0, 2, 3, 9, 40, 63, 64, 77]);
        assert!(s.is_empty());
    }

    #[test]
    fn tick_scheduler_duplicate_pushes_match_heap_multiset() {
        // Out-of-contract double push: both schedulers must emit the same
        // sorted multiset (the tick scheduler falls back to a sort).
        let mut heap = BlockScheduler::new();
        let mut tick = TickScheduler::new(DT_MIN);
        for &(i, t) in &[(4, 0.25), (1, 0.25), (4, 0.25), (7, 0.5)] {
            heap.push(i, t);
            tick.push(i, t);
        }
        let (mut bh, mut bt) = (Vec::new(), Vec::new());
        assert_eq!(heap.pop_block(&mut bh), tick.pop_block(&mut bt));
        assert_eq!(bh, vec![1, 4, 4]);
        assert_eq!(bh, bt);
        assert_eq!(heap.len(), tick.len());
    }

    /// Push `pushes` into both schedulers, then pop both dry, demanding the
    /// same (time-bits, block) at every pop and the same pending count.
    fn assert_pops_match_heap(pushes: &[(usize, f64)]) -> TickScheduler {
        let mut heap = BlockScheduler::new();
        let mut tick = TickScheduler::new(DT_MIN);
        for &(i, t) in pushes {
            heap.push(i, t);
            tick.push(i, t);
        }
        let (mut bh, mut bt) = (Vec::new(), Vec::new());
        loop {
            assert_eq!(heap.len(), tick.len());
            let (th, tt) = (heap.pop_block(&mut bh), tick.pop_block(&mut bt));
            assert_eq!(th.map(f64::to_bits), tt.map(f64::to_bits), "{pushes:?}");
            assert_eq!(bh, bt, "t = {th:?} after {pushes:?}");
            if th.is_none() {
                return tick;
            }
        }
    }

    #[test]
    fn tick_scheduler_same_index_twice_at_one_tick_matches_heap() {
        // The second push of 3 finds its bit set and spills to overflow.
        assert_pops_match_heap(&[(3, 0.5), (3, 0.5)]);
        assert_pops_match_heap(&[(3, 0.5), (0, 0.5), (3, 0.5), (3, 0.5), (64, 0.5)]);
    }

    #[test]
    fn tick_scheduler_duplicate_split_between_rung_and_overflow_matches_heap() {
        // 0.25 and 0.75 (ticks 16 and 48) share rung 4. Index 3 first spills
        // at 0.75 while the rung holds 0.25, then lands in the rung at 0.25
        // and spills again as a duplicate there.
        let pushes = [(1, 0.25), (3, 0.75), (3, 0.25), (3, 0.25), (2, 0.75)];
        assert_pops_match_heap(&pushes);
    }

    #[test]
    fn tick_scheduler_tick_held_only_by_overflow_matches_heap() {
        // The rung holds 0.75; the earlier 0.25 of the same rung exists only
        // in overflow, so the first pop drains no rung at all.
        let mut s = TickScheduler::new(DT_MIN);
        s.push(0, 0.75);
        s.push(1, 0.25);
        let mut block = Vec::new();
        assert_eq!(s.pop_block(&mut block), Some(0.25));
        assert_eq!(block, vec![1]);
        assert_eq!(s.pop_block(&mut block), Some(0.75));
        assert_eq!(block, vec![0]);
        assert_pops_match_heap(&[(0, 0.75), (1, 0.25), (5, 0.25), (2, 0.75)]);
    }

    #[test]
    fn tick_scheduler_block_spanning_far_apart_words_matches_heap() {
        // Words 0 and 2^16 of one rung: the drain walks every word between.
        let far = 1usize << 22;
        assert_pops_match_heap(&[(far, 0.5), (0, 0.5), (far - 1, 1.0), (far, 1.5), (1, 1.5)]);
    }

    #[test]
    fn tick_scheduler_drained_rung_resets_its_word_range() {
        let mut s = TickScheduler::new(DT_MIN);
        let rung = 5; // 0.5 is 32 ticks of 2^-6
        s.push(700, 0.5);
        s.push(70, 0.5);
        assert_eq!((s.buckets[rung].lo, s.buckets[rung].hi, s.buckets[rung].count), (1, 10, 2));
        let mut block = Vec::new();
        assert_eq!(s.pop_block(&mut block), Some(0.5));
        assert_eq!(block, vec![70, 700]);
        let drained = &s.buckets[rung];
        assert_eq!(drained.count, 0);
        assert!(drained.bits.iter().all(|&w| w == 0), "a drained rung holds no bits");
        // Refilled at another tick with an index below the old range: the
        // range restarts from that index alone.
        s.push(5, 1.5);
        assert_eq!((s.buckets[rung].lo, s.buckets[rung].hi, s.buckets[rung].count), (0, 0, 1));
        assert_eq!(s.pop_block(&mut block), Some(1.5));
        assert_eq!(block, vec![5]);
        let s = assert_pops_match_heap(&[(700, 0.5), (70, 0.5), (5, 0.5), (6, 1.5), (699, 1.5)]);
        assert!(s.buckets.iter().all(|b| b.count == 0 && b.bits.iter().all(|&w| w == 0)));
    }

    #[test]
    fn tick_scheduler_check_span_refuses_unrepresentable_times() {
        let dt_min = 2.0f64.powi(-40);
        assert_eq!(TickScheduler::check_span(0.0, 0.1, dt_min), Ok(()));
        assert_eq!(TickScheduler::check_span(12.0, 1e6, dt_min), Ok(()));
        for (t0, t1) in [(0.1, 2.1), (-1.0, 1.0), (f64::NAN, 1.0), (1.0, f64::INFINITY), (2.0, 1.0)]
        {
            let err = TickScheduler::check_span(t0, t1, dt_min).unwrap_err();
            assert!(err.contains("time"), "{t0} → {t1}: {err}");
            assert_eq!(err.contains("dt_min"), t0 == 0.1, "{t0} → {t1}: {err}");
        }
        // 3e7 is a multiple of 2^-40 but 3.3e19 ticks overflow a u64.
        let err = TickScheduler::check_span(3e7, 3e7 + 2.0, dt_min).unwrap_err();
        assert!(err.contains("dt_min") && err.contains("u64"), "{err}");
    }

    #[test]
    fn tick_scheduler_check_clocks_takes_every_resumable_clock() {
        let (dt_min, dt_max) = (2.0f64.powi(-40), 8.0);
        // Steps at both ends of the ladder; a time of 0, a time at t, and a
        // time of 2^53 - 1 ticks of dt_min.
        let time = [0.0, 3.0, 2.0, 3.0, 8192.0 - dt_min];
        let dt = [dt_max, 1.0, 2.0, dt_min, dt_min];
        assert_eq!(TickScheduler::check_clocks(3.0, &time[..4], &dt[..4], dt_min, dt_max), Ok(()));
        let at = 8192.0 - dt_min;
        assert_eq!(TickScheduler::check_clocks(at, &time[4..], &dt[4..], dt_min, dt_max), Ok(()));
        assert_eq!(TickScheduler::check_clocks(f64::NAN, &[], &[], dt_min, dt_max), Ok(()));
        // One bad clock among good ones is named by index.
        let err = TickScheduler::check_clocks(3.0, &[0.0, 2.0], &[4.0, 1.5], dt_min, dt_max);
        assert!(err.unwrap_err().starts_with("particle 1: step 1.5"));
        let err = TickScheduler::check_clocks(3.0, &[0.0, 2.5], &[4.0, 1.0], dt_min, dt_max);
        assert!(err.unwrap_err().starts_with("particle 1: time 2.5"));
    }

    #[test]
    fn shadow_replay_catches_a_wrong_block() {
        let mut sys = ParticleSystem::new(0.0, 0.0);
        for _ in 0..3 {
            sys.push(Default::default(), Default::default(), 1.0);
        }
        sys.dt = vec![0.5, 0.25, 0.25];
        let mut shadow = ShadowReplay::new(&sys);
        assert!(shadow.check(0.25, &[1], &sys).is_err(), "particle 2 is due too");
        let mut shadow = ShadowReplay::new(&sys);
        sys.time[1] = 0.25; // the corrector advanced the block
        sys.time[2] = 0.25;
        assert_eq!(shadow.check(0.25, &[1, 2], &sys), Ok(()));
        assert!(shadow.check(0.5, &[0], &sys).is_err(), "1 and 2 are due at 0.5 too");
    }

    /// Drive both schedulers through the same schedule and demand identical
    /// (time-bits, block) sequences.
    fn assert_schedulers_agree(times: &[f64], dt_min: f64, rounds: usize) {
        let mut heap = BlockScheduler::from_times(times);
        let mut tick = TickScheduler::from_times(times, dt_min);
        let (mut bh, mut bt) = (Vec::new(), Vec::new());
        for round in 0..rounds {
            assert_eq!(heap.len(), tick.len(), "round {round}");
            assert_eq!(
                heap.peek_time().map(f64::to_bits),
                tick.peek_time().map(f64::to_bits),
                "round {round} peek"
            );
            let (th, tt) = (heap.pop_block(&mut bh), tick.pop_block(&mut bt));
            assert_eq!(th.map(f64::to_bits), tt.map(f64::to_bits), "round {round} time");
            assert_eq!(bh, bt, "round {round} block");
            let Some(t) = th else { break };
            // Re-push each popped particle with a power-of-two step that is
            // commensurate with the block time (the integrator's contract).
            for &i in &bh {
                let mut step = dt_min * 2.0f64.powi((i % 5) as i32);
                while !is_commensurate(t, step) {
                    step *= 0.5;
                }
                heap.push(i, t + step);
                tick.push(i, t + step);
            }
        }
    }

    #[test]
    fn tick_and_heap_emit_identical_sequences() {
        let dt_min = 2.0f64.powi(-10);
        let times: Vec<f64> = (0..37).map(|i| dt_min * 2.0f64.powi(i % 6)).collect();
        assert_schedulers_agree(&times, dt_min, 500);
    }

    #[test]
    fn tick_and_heap_agree_far_from_t_zero() {
        // Resume-style start: events clustered just above a large base time.
        let dt_min = 2.0f64.powi(-40);
        let base = 12.0f64;
        let times: Vec<f64> = (0..24).map(|i| base + dt_min * 2.0f64.powi(i % 8)).collect();
        assert_schedulers_agree(&times, dt_min, 300);
    }

    mod sched_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Differential proptest over random power-of-two schedules: the
            /// tick-bucket and heap schedulers must emit identical
            /// (time, block) sequences, bit for bit.
            #[test]
            fn tick_matches_heap_on_random_pow2_schedules(
                exps in proptest::collection::vec(0u32..12, 1..40),
                base_exp in 0u32..20,
                rounds in 1usize..200,
            ) {
                let dt_min = 2.0f64.powi(-12);
                let base = dt_min * 2.0f64.powi(base_exp as i32);
                let times: Vec<f64> = exps
                    .iter()
                    .map(|&e| base + dt_min * 2.0f64.powi(e as i32))
                    .collect();
                assert_schedulers_agree(&times, dt_min, rounds);
            }

            /// The exponent mask is the `log2` oracle, bit for bit, over
            /// every scale a desired step takes.
            #[test]
            fn quantize_mask_matches_log2_on_random_steps(dt in 1e-12..100.0f64) {
                for (dt_min, dt_max) in QUANTIZE_RANGES {
                    assert_quantize_matches_log2(dt, dt_min, dt_max);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]
            /// The `md == 1` shortcut is the plain u64 `%` test, over ratios
            /// past 2^53, subnormals and zero on either side.
            #[test]
            fn commensurability_matches_the_plain_remainder(
                t_kind in 0u8..4,
                raw in 0u64..u64::MAX,
                dt_exp in -1074i32..64,
                dt_odd in 0u64..(1 << 20),
                unit in 0u8..2,
            ) {
                // dt = odd · 2^dt_exp: a power of two half the time; subnormal
                // below 2^-1022.
                let odd = if unit == 0 { 1 } else { 2 * dt_odd + 1 };
                let scale = 2f64.powi(dt_exp.max(-1022)) * 2f64.powi((dt_exp + 1022).min(0));
                let dt = odd as f64 * scale;
                let t = match t_kind {
                    0 => 0.0,
                    1 => f64::from_bits(raw & ((1 << 52) - 1)), // subnormal
                    2 => (raw >> 4) as f64 * dt,                // often a multiple, t/dt up to 2^60
                    _ => f64::from_bits(raw),                   // anything, NaN and ∞ included
                };
                let plain = if dt == 0.0 || !t.is_finite() || !dt.is_finite() {
                    false
                } else if t == 0.0 {
                    true
                } else {
                    let ((mt, et), (md, ed)) = (odd_mantissa_exp(t), odd_mantissa_exp(dt));
                    et >= ed && mt % md == 0
                };
                prop_assert_eq!(is_commensurate(t, dt), plain, "t = {:e}, dt = {:e}", t, dt);
            }
        }
    }
}
