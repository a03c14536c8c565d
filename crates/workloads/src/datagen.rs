//! Deterministic synthetic dataset generators.
//!
//! The paper's inputs are real datasets we cannot redistribute (HGBASE
//! SNP data, a cancer micro-array, GenBank sequences, the Kosarak click
//! stream, MPEG-2 footage). Each generator here produces a synthetic
//! stand-in with the *statistics that drive memory behaviour*: alphabet
//! and length for sequences, Zipf-skewed item frequencies for
//! transactions, class-correlated expression for the gene matrix, and
//! piecewise-stationary scenes with known shot boundaries for video.

use cmpsim_trace::{Pcg32, ZipfTable};

/// Mixes two integers into a well-distributed 64-bit hash
/// (splitmix64-style finalizer). Used by generators that synthesize
/// values on the fly instead of storing hundreds of megabytes.
#[inline]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pseudo-random f32 in [0, 1) derived from two keys.
#[inline]
pub fn mix_f32(a: u64, b: u64) -> f32 {
    (mix64(a, b) >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

/// Generates a DNA sequence (bytes 0..4 encoding A/C/G/T).
pub fn dna_sequence(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Pcg32::seed(seed);
    (0..len).map(|_| (rng.next_u32() & 3) as u8).collect()
}

/// Generates a DNA sequence that shares `similarity` of its positions
/// with `base` (for alignment workloads, so Smith–Waterman finds real
/// high-scoring local alignments).
pub fn related_dna_sequence(base: &[u8], similarity: f64, seed: u64) -> Vec<u8> {
    let mut rng = Pcg32::seed(seed);
    base.iter()
        .map(|&b| {
            if rng.chance(similarity) {
                b
            } else {
                (rng.next_u32() & 3) as u8
            }
        })
        .collect()
}

/// A Kosarak-shaped transactional dataset: item frequencies follow a
/// Zipf law, transaction lengths are geometric-ish around the mean.
#[derive(Debug, Clone)]
pub struct TransactionSet {
    /// Transactions; item ids are *frequency ranks* (0 = most frequent),
    /// sorted ascending within a transaction and deduplicated — the order
    /// FP-growth inserts them in.
    pub transactions: Vec<Vec<u32>>,
    /// Number of distinct items.
    pub num_items: u32,
}

impl TransactionSet {
    /// Generates `count` transactions over `num_items` items with the
    /// given mean length and Zipf exponent.
    ///
    /// # Panics
    ///
    /// Panics if `num_items == 0` or `mean_len == 0`.
    pub fn generate(count: usize, num_items: u32, mean_len: usize, skew: f64, seed: u64) -> Self {
        assert!(num_items > 0 && mean_len > 0);
        let zipf = ZipfTable::new(num_items as usize, skew);
        let mut rng = Pcg32::seed(seed);
        let mut transactions = Vec::with_capacity(count);
        for _ in 0..count {
            // Length in [1, 2*mean_len).
            let len = 1 + rng.below(2 * mean_len as u64 - 1) as usize;
            let mut txn: Vec<u32> = (0..len).map(|_| zipf.sample(&mut rng) as u32).collect();
            txn.sort_unstable();
            txn.dedup();
            transactions.push(txn);
        }
        TransactionSet {
            transactions,
            num_items,
        }
    }

    /// Total item occurrences across all transactions.
    pub fn total_items(&self) -> usize {
        self.transactions.iter().map(Vec::len).sum()
    }
}

/// A gene-expression matrix with class structure: `informative` genes
/// carry signal separating two tissue classes; the rest are noise. Stored
/// row-major as `genes × samples` f32.
#[derive(Debug, Clone)]
pub struct GeneMatrix {
    /// Expression values, `genes * samples`, row-major by gene.
    pub values: Vec<f32>,
    /// Class label (0/1) per sample.
    pub labels: Vec<i8>,
    /// Number of genes (rows).
    pub genes: usize,
    /// Number of samples (columns).
    pub samples: usize,
    /// Indices of the genes that actually carry signal.
    pub informative: Vec<usize>,
}

impl GeneMatrix {
    /// Generates a matrix with `informative_count` signal genes.
    pub fn generate(genes: usize, samples: usize, informative_count: usize, seed: u64) -> Self {
        let mut rng = Pcg32::seed(seed);
        let labels: Vec<i8> = (0..samples).map(|_| (rng.next_u32() & 1) as i8).collect();
        let mut informative: Vec<usize> = (0..genes).collect();
        rng.shuffle(&mut informative);
        informative.truncate(informative_count.min(genes));
        informative.sort_unstable();
        let is_informative: Vec<bool> = {
            let mut v = vec![false; genes];
            for &g in &informative {
                v[g] = true;
            }
            v
        };
        let mut values = Vec::with_capacity(genes * samples);
        for &informative in is_informative.iter().take(genes) {
            for &label in &labels {
                let noise = rng.f64() as f32 - 0.5;
                let signal = if informative {
                    f32::from(label) * 1.5
                } else {
                    0.0
                };
                values.push(signal + noise);
            }
        }
        GeneMatrix {
            values,
            labels,
            genes,
            samples,
            informative,
        }
    }

    /// Expression of `gene` in `sample`.
    #[inline]
    pub fn at(&self, gene: usize, sample: usize) -> f32 {
        self.values[gene * self.samples + sample]
    }
}

/// A synthetic video: piecewise-stationary scenes with known shot
/// boundaries and per-scene dominant colors. Pixels are synthesized on
/// demand (a stored 200 MB clip would double host memory for no trace
/// benefit); the *kernel* still writes each decoded frame into its
/// simulated frame buffer and reads it back, so the traced behaviour
/// matches a real decoder pipeline.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Total frames.
    pub frames: u32,
    /// First frame index of each shot, ascending, starting at 0.
    pub shot_starts: Vec<u32>,
    seed: u64,
}

impl SyntheticVideo {
    /// Generates shot structure for a clip: shots last 40–200 frames.
    pub fn generate(width: u32, height: u32, frames: u32, seed: u64) -> Self {
        let mut rng = Pcg32::seed(seed);
        let mut shot_starts = vec![0u32];
        let mut f = 0u32;
        loop {
            f += 40 + rng.below(161) as u32;
            if f >= frames {
                break;
            }
            shot_starts.push(f);
        }
        SyntheticVideo {
            width,
            height,
            frames,
            shot_starts,
            seed,
        }
    }

    /// The shot index containing `frame`.
    pub fn shot_of(&self, frame: u32) -> usize {
        match self.shot_starts.binary_search(&frame) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Whether `frame` starts a new shot (frame 0 does not count).
    pub fn is_boundary(&self, frame: u32) -> bool {
        frame != 0 && self.shot_starts.binary_search(&frame).is_ok()
    }

    /// RGB pixel value at (frame, x, y): a per-shot base color plus
    /// deterministic texture and mild temporal noise. Consecutive frames
    /// in one shot are similar; frames across a boundary differ strongly.
    #[inline]
    pub fn pixel(&self, frame: u32, x: u32, y: u32) -> [u8; 3] {
        let shot = self.shot_of(frame) as u64;
        let base = mix64(self.seed, shot);
        let texture = mix64(base, (u64::from(x) << 20) | u64::from(y));
        let flicker = mix64(base ^ u64::from(frame), u64::from(x ^ y)) & 0x0F;
        [
            ((base & 0xFF) as u8).wrapping_add((texture & 0x3F) as u8) ^ flicker as u8,
            (((base >> 8) & 0xFF) as u8).wrapping_add(((texture >> 8) & 0x3F) as u8),
            (((base >> 16) & 0xFF) as u8).wrapping_add(((texture >> 16) & 0x3F) as u8),
        ]
    }
}

/// A synthetic document-similarity graph in CSR form. Column indices are
/// stored (they drive the gather pattern); edge weights are synthesized
/// on demand with [`mix_f32`].
#[derive(Debug, Clone)]
pub struct SimilarityCsr {
    /// Row start offsets, `docs + 1` entries.
    pub row_ptr: Vec<u64>,
    /// Column (document) indices, `nnz` entries.
    pub cols: Vec<u32>,
    /// Number of documents (rows).
    pub docs: u32,
    seed: u64,
}

impl SimilarityCsr {
    /// Generates a graph with `docs` documents and ~`nnz` edges, with
    /// mild clustering (documents link mostly to a neighborhood, the way
    /// topically-sorted document collections do).
    ///
    /// # Panics
    ///
    /// Panics if `docs == 0`.
    pub fn generate(docs: u32, nnz: u64, seed: u64) -> Self {
        assert!(docs > 0);
        let mut rng = Pcg32::seed(seed);
        let per_row = (nnz / u64::from(docs)).max(1);
        let mut row_ptr = Vec::with_capacity(docs as usize + 1);
        let mut cols = Vec::with_capacity(nnz as usize);
        row_ptr.push(0u64);
        for d in 0..docs {
            let degree = (per_row / 2 + rng.below(per_row.max(1)) + 1) as usize;
            for _ in 0..degree {
                // 70% of links fall in a +/- docs/16 neighborhood.
                let col = if rng.chance(0.7) {
                    let span = (docs / 16).max(1);
                    let off = rng.below(u64::from(span) * 2) as i64 - i64::from(span);
                    ((i64::from(d) + off).rem_euclid(i64::from(docs))) as u32
                } else {
                    rng.below(u64::from(docs)) as u32
                };
                cols.push(col);
            }
            row_ptr.push(cols.len() as u64);
        }
        SimilarityCsr {
            row_ptr,
            cols,
            docs,
            seed,
        }
    }

    /// Number of stored edges.
    pub fn nnz(&self) -> u64 {
        self.cols.len() as u64
    }

    /// Edge weight of the `k`-th stored edge, synthesized on demand.
    #[inline]
    pub fn weight(&self, k: u64) -> f32 {
        0.01 + mix_f32(self.seed, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spread() {
        assert_eq!(mix64(1, 2), mix64(1, 2));
        assert_ne!(mix64(1, 2), mix64(2, 1));
        // Low bits should not be constant across consecutive keys.
        let parity: u64 = (0..64).map(|i| mix64(7, i) & 1).sum();
        assert!(parity > 16 && parity < 48);
    }

    #[test]
    fn dna_alphabet_is_four_letters() {
        let s = dna_sequence(10_000, 3);
        assert!(s.iter().all(|&b| b < 4));
        let mut counts = [0u32; 4];
        for &b in &s {
            counts[b as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 2000), "{counts:?}");
    }

    #[test]
    fn related_sequence_matches_at_given_rate() {
        let a = dna_sequence(10_000, 4);
        let b = related_dna_sequence(&a, 0.8, 5);
        let matches = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        // 0.8 + 0.2*0.25 accidental = 0.85 expected.
        assert!((0.82..0.88).contains(&(matches as f64 / 10_000.0)));
    }

    #[test]
    fn transactions_are_sorted_dedup_zipf() {
        let ts = TransactionSet::generate(2_000, 1_000, 8, 1.1, 6);
        assert_eq!(ts.transactions.len(), 2_000);
        let mut freq = vec![0u32; 1_000];
        for t in &ts.transactions {
            assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted+dedup");
            for &i in t {
                freq[i as usize] += 1;
            }
        }
        // Zipf: rank 0 much more frequent than rank 500.
        assert!(freq[0] > freq[500] * 3, "{} vs {}", freq[0], freq[500]);
    }

    #[test]
    fn gene_matrix_informative_genes_separate_classes() {
        let m = GeneMatrix::generate(500, 100, 20, 7);
        let g = m.informative[0];
        let (mut sum0, mut n0, mut sum1, mut n1) = (0.0f64, 0, 0.0f64, 0);
        for s in 0..m.samples {
            if m.labels[s] == 0 {
                sum0 += f64::from(m.at(g, s));
                n0 += 1;
            } else {
                sum1 += f64::from(m.at(g, s));
                n1 += 1;
            }
        }
        let gap = (sum1 / f64::from(n1) - sum0 / f64::from(n0)).abs();
        assert!(gap > 1.0, "informative gene gap {gap}");
    }

    #[test]
    fn video_shot_structure() {
        let v = SyntheticVideo::generate(64, 48, 1000, 8);
        assert_eq!(v.shot_starts[0], 0);
        assert!(v.shot_starts.len() > 2);
        assert!(v.shot_starts.windows(2).all(|w| w[1] > w[0]));
        let b = v.shot_starts[1];
        assert!(v.is_boundary(b));
        assert!(!v.is_boundary(b - 1));
        assert_eq!(v.shot_of(b), 1);
        assert_eq!(v.shot_of(b - 1), 0);
    }

    #[test]
    fn video_frames_similar_within_shot_different_across() {
        let v = SyntheticVideo::generate(32, 32, 1000, 9);
        let b = v.shot_starts[1];
        let diff = |f1: u32, f2: u32| -> u64 {
            let mut d = 0u64;
            for y in 0..32 {
                for x in 0..32 {
                    let p1 = v.pixel(f1, x, y);
                    let p2 = v.pixel(f2, x, y);
                    d += p1
                        .iter()
                        .zip(&p2)
                        .map(|(a, b)| u64::from(a.abs_diff(*b)))
                        .sum::<u64>();
                }
            }
            d
        };
        let within = diff(b - 2, b - 1);
        let across = diff(b - 1, b);
        assert!(across > within * 2, "across {across} within {within}");
    }

    #[test]
    fn csr_is_well_formed() {
        let m = SimilarityCsr::generate(1000, 20_000, 10);
        assert_eq!(m.row_ptr.len(), 1001);
        assert_eq!(*m.row_ptr.last().unwrap(), m.nnz());
        assert!(m.row_ptr.windows(2).all(|w| w[1] >= w[0]));
        assert!(m.cols.iter().all(|&c| c < 1000));
        // Weight synthesis is deterministic and positive.
        assert_eq!(m.weight(5), m.weight(5));
        assert!(m.weight(5) > 0.0);
    }

    #[test]
    fn csr_has_locality() {
        let m = SimilarityCsr::generate(1600, 32_000, 11);
        let mut near = 0usize;
        let mut total = 0usize;
        for d in 0..1600u32 {
            for k in m.row_ptr[d as usize]..m.row_ptr[d as usize + 1] {
                let c = m.cols[k as usize];
                let dist = (i64::from(c) - i64::from(d)).unsigned_abs();
                let wrapped = dist.min(1600 - dist);
                if wrapped <= 100 {
                    near += 1;
                }
                total += 1;
            }
        }
        assert!(near * 10 > total * 5, "near {near} of {total}");
    }
}
