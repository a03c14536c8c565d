//! Trace sinks and the kernel-side tracer.
//!
//! Workload kernels are *instrumented executions*: they run their real
//! algorithm and report every memory reference (plus a count of non-memory
//! instructions) through a [`Tracer`]. The tracer forwards references to a
//! generic [`TraceSink`], which in the full co-simulation is the virtual
//! platform's memory hierarchy; in unit tests it is a [`VecSink`] or a
//! [`CountingSink`].

use crate::addr::Addr;
use crate::record::{AccessKind, MemRef};

/// A consumer of memory references.
///
/// Sinks are generic (monomorphized) rather than trait objects because the
/// tracing channel is the hottest path in the whole simulator: every load
/// and store of a multi-billion-instruction workload passes through
/// [`TraceSink::record`].
pub trait TraceSink {
    /// Consumes one memory reference.
    fn record(&mut self, r: MemRef);
}

/// Forwarding impl so `&mut S` can be used wherever a sink is consumed.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn record(&mut self, r: MemRef) {
        (**self).record(r);
    }
}

/// A sink that stores every reference. Intended for tests and small traces.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    records: Vec<MemRef>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The references recorded so far, in order.
    pub fn records(&self) -> &[MemRef] {
        &self.records
    }

    /// Consumes the sink and returns the recorded references.
    pub fn into_records(self) -> Vec<MemRef> {
        self.records
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn record(&mut self, r: MemRef) {
        self.records.push(r);
    }
}

/// A sink that only counts references by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of data loads seen.
    pub reads: u64,
    /// Number of data stores seen.
    pub writes: u64,
    /// Number of instruction fetches seen.
    pub ifetches: u64,
    /// Total bytes accessed.
    pub bytes: u64,
}

impl CountingSink {
    /// Creates a zeroed counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total references of any kind.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.ifetches
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn record(&mut self, r: MemRef) {
        match r.kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
            AccessKind::IFetch => self.ifetches += 1,
        }
        self.bytes += u64::from(r.size);
    }
}

/// A sink that discards everything. Useful for measuring pure kernel
/// execution speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _r: MemRef) {}
}

/// A sink that duplicates each reference into two child sinks.
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B> {
    /// First child sink.
    pub first: A,
    /// Second child sink.
    pub second: B,
}

impl<A, B> TeeSink<A, B> {
    /// Creates a tee over two sinks.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    #[inline]
    fn record(&mut self, r: MemRef) {
        self.first.record(r);
        self.second.record(r);
    }
}

/// A sink that invokes a closure per reference.
pub struct FnSink<F>(pub F);

impl<F: FnMut(MemRef)> TraceSink for FnSink<F> {
    #[inline]
    fn record(&mut self, r: MemRef) {
        (self.0)(r);
    }
}

impl<F> std::fmt::Debug for FnSink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnSink(..)")
    }
}

/// The kernel-side instrumentation handle.
///
/// A `Tracer` counts the instruction mix (memory vs non-memory, loads vs
/// stores) while forwarding memory references to its sink. One memory
/// instruction is charged per [`read`](Tracer::read) / [`write`](Tracer::write)
/// call; non-memory work is charged in bulk with [`ops`](Tracer::ops), with
/// per-workload op weights derived from the algorithm's arithmetic and
/// branch structure (see the `cmpsim-workloads` crate).
#[derive(Debug, Clone, Default)]
pub struct Tracer<S> {
    sink: S,
    loads: u64,
    stores: u64,
    other_ops: u64,
    frac_ops: f64,
}

impl<S: TraceSink> Tracer<S> {
    /// Creates a tracer feeding `sink`.
    pub fn new(sink: S) -> Self {
        Tracer {
            sink,
            loads: 0,
            stores: 0,
            other_ops: 0,
            frac_ops: 0.0,
        }
    }

    /// Records a data load of `size` bytes at `addr`.
    #[inline]
    pub fn read(&mut self, addr: Addr, size: u32) {
        self.loads += 1;
        self.sink.record(MemRef::read(addr, size));
    }

    /// Records a data store of `size` bytes at `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, size: u32) {
        self.stores += 1;
        self.sink.record(MemRef::write(addr, size));
    }

    /// Records a read-modify-write (one load plus one store to `addr`).
    #[inline]
    pub fn update(&mut self, addr: Addr, size: u32) {
        self.read(addr, size);
        self.write(addr, size);
    }

    /// Charges `n` non-memory instructions (ALU ops, branches, ...).
    #[inline]
    pub fn ops(&mut self, n: u64) {
        self.other_ops += n;
    }

    /// Charges a fractional number of non-memory instructions. Whole
    /// parts are credited immediately; the remainder accumulates. This is
    /// how kernels calibrate their instruction mix to fractional
    /// ops-per-access ratios (e.g. PLSA's 0.2 non-memory ops per memory
    /// instruction, which yields Table 2's 83 % memory instructions).
    #[inline]
    pub fn ops_f(&mut self, n: f64) {
        self.frac_ops += n;
        if self.frac_ops >= 1.0 {
            let whole = self.frac_ops as u64;
            self.other_ops += whole;
            self.frac_ops -= whole as f64;
        }
    }

    /// Data loads recorded.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Data stores recorded.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Memory instructions recorded (loads + stores).
    pub fn memory_instructions(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total instructions recorded (memory + non-memory).
    pub fn instructions(&self) -> u64 {
        self.memory_instructions() + self.other_ops
    }

    /// Fraction of instructions that reference memory, in [0, 1].
    /// Returns 0 for an empty trace.
    pub fn memory_fraction(&self) -> f64 {
        ratio(self.memory_instructions(), self.instructions())
    }

    /// Fraction of instructions that are memory *reads*, in [0, 1].
    pub fn read_fraction(&self) -> f64 {
        ratio(self.loads, self.instructions())
    }

    /// Shared access to the sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the tracer and returns the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_preserves_order() {
        let mut t = Tracer::new(VecSink::new());
        t.read(Addr::new(0), 4);
        t.write(Addr::new(64), 8);
        let rec = t.into_sink().into_records();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec[0].kind, AccessKind::Read);
        assert_eq!(rec[1].kind, AccessKind::Write);
        assert_eq!(rec[1].addr, Addr::new(64));
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let mut s = CountingSink::new();
        s.record(MemRef::read(Addr::new(0), 4));
        s.record(MemRef::read(Addr::new(0), 4));
        s.record(MemRef::write(Addr::new(0), 8));
        s.record(MemRef::ifetch(Addr::new(0), 16));
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.ifetches, 1);
        assert_eq!(s.total(), 4);
        assert_eq!(s.bytes, 32);
    }

    #[test]
    fn tee_duplicates() {
        let mut tee = TeeSink::new(CountingSink::new(), VecSink::new());
        tee.record(MemRef::read(Addr::new(0), 4));
        assert_eq!(tee.first.reads, 1);
        assert_eq!(tee.second.records().len(), 1);
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut n = 0u64;
        {
            let mut s = FnSink(|_r| n += 1);
            s.record(MemRef::read(Addr::new(0), 4));
            s.record(MemRef::write(Addr::new(0), 4));
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn tracer_instruction_mix() {
        let mut t = Tracer::new(NullSink);
        t.read(Addr::new(0), 8);
        t.read(Addr::new(8), 8);
        t.write(Addr::new(16), 8);
        t.ops(7);
        assert_eq!(t.loads(), 2);
        assert_eq!(t.stores(), 1);
        assert_eq!(t.memory_instructions(), 3);
        assert_eq!(t.instructions(), 10);
        assert!((t.memory_fraction() - 0.3).abs() < 1e-12);
        assert!((t.read_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tracer_update_is_load_plus_store() {
        let mut t = Tracer::new(CountingSink::new());
        t.update(Addr::new(0), 8);
        assert_eq!(t.loads(), 1);
        assert_eq!(t.stores(), 1);
        assert_eq!(t.sink().total(), 2);
    }

    #[test]
    fn empty_tracer_fractions_are_zero() {
        let t = Tracer::new(NullSink);
        assert_eq!(t.memory_fraction(), 0.0);
        assert_eq!(t.read_fraction(), 0.0);
    }

    #[test]
    fn fractional_ops_accumulate() {
        let mut t = Tracer::new(NullSink);
        for _ in 0..10 {
            t.ops_f(0.25);
        }
        assert_eq!(t.instructions(), 2); // 2.5 accrued, 2 credited
        t.ops_f(0.5);
        assert_eq!(t.instructions(), 3);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed<S: TraceSink>(mut s: S) {
            s.record(MemRef::read(Addr::new(0), 4));
        }
        let mut counter = CountingSink::new();
        feed(&mut counter);
        feed(&mut counter);
        assert_eq!(counter.reads, 2);
    }
}
