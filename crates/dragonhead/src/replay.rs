//! Replaying a recorded FSB stream into one or more boards.
//!
//! Dragonhead is a *passive* snooper: it never affects the workload or
//! the platform's private caches, so any number of emulated boards can
//! legally observe the same bus stream. The paper re-ran the workload
//! per LLC configuration only because it had a single FPGA board; a
//! recorded stream lifts that constraint — one pass drives N
//! independently-configured boards simultaneously (cache-size sweeps,
//! line-size sweeps, replacement/sharing ablations), and per-core
//! attribution survives because co-simulation `Message` transactions
//! are part of the stream.
//!
//! Replay is observationally identical to live snooping: each board
//! sees the exact transaction sequence in order, so its counters,
//! samples, and per-core statistics are bit-for-bit those of a live
//! run. The `cmpsim-core` crate pins this equivalence end to end.

use crate::emulator::Dragonhead;
use crate::sampler::SamplerError;
use cmpsim_telemetry::trace as ftrace;
use cmpsim_trace::FsbTransaction;

/// Transactions per broadcast batch: each board consumes the stream in
/// runs of this many transactions, so its tag arrays stay hot for a
/// whole run instead of being evicted between boards on every
/// transaction. Batch boundaries are fixed relative to the stream —
/// never to the board grouping — which is part of the determinism
/// argument for sharded replay (DESIGN.md §17).
pub const BATCH_TRANSACTIONS: usize = 4096;

/// Drives every board in `boards` over `stream`, in order, then closes
/// each board's sample series at `final_cycle` (the platform run's
/// total cycle count, exactly as a live run's teardown does).
///
/// Returns the number of transactions replayed.
///
/// # Errors
///
/// Propagates the first [`SamplerError`] from a board flush — possible
/// only if `final_cycle` is behind the stream's newest sample boundary,
/// i.e. the stream and the claimed run length disagree. Every board is
/// still flushed (see [`flush_all`]).
pub fn replay<I>(
    stream: I,
    boards: &mut [Dragonhead],
    final_cycle: u64,
) -> Result<u64, SamplerError>
where
    I: IntoIterator<Item = FsbTransaction>,
{
    let _t = ftrace::span("board-replay");
    let mut batch = Vec::with_capacity(BATCH_TRANSACTIONS);
    let mut n = 0u64;
    for txn in stream {
        batch.push(txn);
        if batch.len() == BATCH_TRANSACTIONS {
            for board in boards.iter_mut() {
                board.observe_batch(&batch);
            }
            n += batch.len() as u64;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        for board in boards.iter_mut() {
            board.observe_batch(&batch);
        }
        n += batch.len() as u64;
    }
    flush_all(boards, final_cycle)?;
    Ok(n)
}

/// Drives every board in `boards` over pre-decoded transaction batches
/// (see `CapturedStream::decode_chunks` in `cmpsim-core`), then closes
/// each board's sample series at `final_cycle`.
///
/// This is the shard entry point for parallel sweep replay: the chunks
/// are decoded once and shared read-only, and each shard calls this
/// with its own contiguous board group. Batch boundaries come from the
/// chunking, not the grouping, so any shard count replays every board
/// identically.
///
/// Returns the number of transactions replayed.
///
/// # Errors
///
/// As [`replay`]: the first [`SamplerError`] from a board flush, after
/// every board has been flushed.
pub fn replay_chunks<'a, I>(
    chunks: I,
    boards: &mut [Dragonhead],
    final_cycle: u64,
) -> Result<u64, SamplerError>
where
    I: IntoIterator<Item = &'a [FsbTransaction]>,
{
    let _t = ftrace::span("board-replay");
    let mut n = 0u64;
    for chunk in chunks {
        for board in boards.iter_mut() {
            board.observe_batch(chunk);
        }
        n += chunk.len() as u64;
    }
    flush_all(boards, final_cycle)?;
    Ok(n)
}

/// Flushes every board at `final_cycle`, returning the first error —
/// but only after attempting all of them. A mid-sweep flush failure
/// must not leave later boards with their sample-series tails missing:
/// a retrying caller could otherwise silently reuse half-flushed
/// boards.
fn flush_all(boards: &mut [Dragonhead], final_cycle: u64) -> Result<(), SamplerError> {
    let mut first_err = None;
    for board in boards.iter_mut() {
        if let Err(e) = board.flush(final_cycle) {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::DragonheadConfig;
    use cmpsim_cache::CacheConfig;
    use cmpsim_trace::{Addr, FsbKind, Message, MessageCodec, Pcg32};

    /// A plausible co-simulation stream: start, core announcements,
    /// data traffic, counter messages, stop.
    fn sample_stream() -> Vec<FsbTransaction> {
        let mut rng = Pcg32::seed(11);
        let mut txns = Vec::new();
        let mut cycle = 10u64;
        txns.extend(MessageCodec::encode(Message::Start, cycle));
        for burst in 0..40u64 {
            cycle += 5;
            txns.extend(MessageCodec::encode(
                Message::CoreId((burst % 4) as u32),
                cycle,
            ));
            for _ in 0..500 {
                cycle += rng.below(20) + 1;
                let kind = match rng.below(3) {
                    0 => FsbKind::ReadLine,
                    1 => FsbKind::ReadInvalidateLine,
                    _ => FsbKind::WriteLine,
                };
                // A 1 MiB working set: fits the big test cache, thrashes
                // the small one.
                txns.push(FsbTransaction::new(
                    cycle,
                    kind,
                    Addr::new(rng.below(1 << 20) & !63),
                ));
            }
            cycle += 3;
            txns.extend(MessageCodec::encode(
                Message::InstructionsRetired(burst * 100_000),
                cycle,
            ));
        }
        cycle += 2;
        txns.extend(MessageCodec::encode(Message::Stop, cycle));
        txns
    }

    fn board(size: u64) -> Dragonhead {
        let mut cfg = DragonheadConfig::new(CacheConfig::lru(size, 64, 16).unwrap());
        // Sample densely so the stream spans many boundaries.
        cfg.sample_period = 1_000;
        Dragonhead::new(cfg)
    }

    #[test]
    fn replay_matches_live_observation() {
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;

        let mut live = board(1 << 20);
        for t in &stream {
            live.observe(t);
        }
        live.flush(final_cycle).unwrap();

        let mut boards = vec![board(1 << 20)];
        let n = replay(stream.iter().copied(), &mut boards, final_cycle).unwrap();
        assert_eq!(n, stream.len() as u64);
        assert_eq!(boards[0].stats(), live.stats());
        assert_eq!(boards[0].samples(), live.samples());
        assert_eq!(boards[0].per_core(), live.per_core());
    }

    #[test]
    fn boards_in_one_replay_are_independent() {
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;

        // Three boards replayed together must equal three boards
        // replayed alone: passive observation cannot couple them.
        let sizes = [1u64 << 18, 1 << 20, 1 << 22];
        let mut together: Vec<Dragonhead> = sizes.iter().map(|&s| board(s)).collect();
        replay(stream.iter().copied(), &mut together, final_cycle).unwrap();

        for (i, &size) in sizes.iter().enumerate() {
            let mut alone = vec![board(size)];
            replay(stream.iter().copied(), &mut alone, final_cycle).unwrap();
            assert_eq!(together[i].stats(), alone[0].stats(), "board {i}");
            assert_eq!(together[i].samples(), alone[0].samples(), "board {i}");
        }
        // And a bigger cache actually behaves differently (the boards
        // were not accidentally identical).
        assert!(together[0].stats().misses > together[2].stats().misses);
    }

    #[test]
    fn flush_error_surfaces_from_replay() {
        let stream = sample_stream();
        let mut boards = vec![board(1 << 20)];
        // Closing the series before the stream's end must fail, not
        // silently truncate the sample series.
        assert!(replay(stream.iter().copied(), &mut boards, 1).is_err());
    }

    #[test]
    fn observe_batch_matches_per_transaction_observe() {
        let stream = sample_stream();
        let mut one_by_one = board(1 << 19);
        for t in &stream {
            one_by_one.observe(t);
        }
        let mut batched = board(1 << 19);
        for chunk in stream.chunks(997) {
            // Deliberately odd batch size: boundaries must not matter.
            batched.observe_batch(chunk);
        }
        assert_eq!(batched.stats(), one_by_one.stats());
        assert_eq!(batched.samples(), one_by_one.samples());
        assert_eq!(batched.per_core(), one_by_one.per_core());
        assert_eq!(
            batched.transactions_quarantined(),
            one_by_one.transactions_quarantined()
        );
    }

    #[test]
    fn replay_chunks_matches_replay() {
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;
        let sizes = [1u64 << 18, 1 << 20, 1 << 22];

        let mut streamed: Vec<Dragonhead> = sizes.iter().map(|&s| board(s)).collect();
        let n1 = replay(stream.iter().copied(), &mut streamed, final_cycle).unwrap();

        let chunks: Vec<&[FsbTransaction]> = stream.chunks(BATCH_TRANSACTIONS).collect();
        let mut chunked: Vec<Dragonhead> = sizes.iter().map(|&s| board(s)).collect();
        let n2 = replay_chunks(chunks, &mut chunked, final_cycle).unwrap();

        assert_eq!(n1, n2);
        for i in 0..sizes.len() {
            assert_eq!(streamed[i].stats(), chunked[i].stats(), "board {i}");
            assert_eq!(streamed[i].samples(), chunked[i].samples(), "board {i}");
            assert_eq!(streamed[i].per_core(), chunked[i].per_core(), "board {i}");
        }
    }

    #[test]
    fn core_filter_matches_routing_by_attributed_core() {
        const CORES: u32 = 4;
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;
        for k in 0..CORES {
            // The routing rule private slices used before the core
            // filter: decode core-id messages beside the board, hand it
            // every message, and only the data of the announced core.
            let mut routed = board(1 << 18);
            let mut codec = MessageCodec::new();
            let mut core = 0;
            for t in &stream {
                if t.is_message() {
                    if let Ok(Some(Message::CoreId(c))) = codec.decode(t) {
                        core = c % CORES;
                    }
                    routed.observe(t);
                } else if core == k {
                    routed.observe(t);
                }
            }
            routed.flush(final_cycle).unwrap();

            let mut filtered = vec![Dragonhead::new(DragonheadConfig {
                core_filter: Some(k),
                ..*board(1 << 18).config()
            })];
            replay(stream.iter().copied(), &mut filtered, final_cycle).unwrap();
            assert!(routed.stats().accesses > 0, "core {k} saw no data");
            assert_eq!(filtered[0].stats(), routed.stats(), "core {k}");
            assert_eq!(filtered[0].samples(), routed.samples(), "core {k}");
            assert_eq!(filtered[0].per_core(), routed.per_core(), "core {k}");
        }
    }

    #[test]
    fn failed_flush_still_flushes_every_board() {
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;
        // Board 0 samples densely, so flushing at cycle 1 is an error
        // for it; board 1 uses a period longer than the stream, so its
        // only sample comes from the flush itself.
        let mut sparse_cfg = DragonheadConfig::new(CacheConfig::lru(1 << 20, 64, 16).unwrap());
        sparse_cfg.sample_period = u64::MAX;
        let mut boards = vec![board(1 << 20), Dragonhead::new(sparse_cfg)];
        let err = replay(stream.iter().copied(), &mut boards, 1).unwrap_err();
        assert_eq!(err.cycle, 1);
        // The old code returned on board 0's error and never flushed
        // board 1, losing its entire (tail-only) sample series.
        assert_eq!(boards[1].samples().len(), 1);
        assert_eq!(boards[1].samples()[0].cycle, 1);
        // A successful flush at the true final cycle still works on
        // board 0 afterwards: the failed attempt poisoned nothing.
        assert!(boards[0].flush(final_cycle).is_ok());
    }
}
