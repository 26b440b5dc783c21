//! Seeded inputs: edge lists, time-sorted ingest streams and the request
//! mix of the served read workload. Everything the program receives is
//! derived from the benchmark's `--seed`, so one seed always gives
//! byte-identical files and request lines.

use flowmotif_datasets::Dataset;
use flowmotif_graph::{io, GraphBuilder, Interaction, TemporalMultigraph, TimeSeriesGraph};
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};
use std::path::Path;

/// FNV-1a over `bytes`: the content hash printed beside every input, so
/// runs over different inputs are never compared.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A generated input as the program sees it.
pub struct Input {
    pub name: &'static str,
    pub interactions: usize,
    pub hash: u64,
}

impl Input {
    pub fn describe(&self) -> String {
        format!("input {} interactions={} fnv64={:016x}", self.name, self.interactions, self.hash)
    }
}

/// The bitcoin-like interaction network at `scale` (1.0 ≈ 7k
/// interactions; the time span is 2500 units at every scale).
pub fn bitcoin(scale: f64, seed: u64) -> TemporalMultigraph {
    Dataset::Bitcoin.generate_multigraph(scale, seed)
}

/// The graph the program builds from the edge list of `mg`: the same
/// builder, so nodes without interactions are not counted.
pub fn graph_of(mg: &TemporalMultigraph) -> TimeSeriesGraph {
    let mut b = GraphBuilder::new();
    b.extend_interactions(mg.interactions().iter().map(|i| (i.from, i.to, i.time, i.flow)));
    b.build_time_series_graph()
}

/// Serialises `mg` as the text edge list the CLI reads.
pub fn edge_list_text(mg: &TemporalMultigraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(mg.num_interactions() * 36);
    io::write_edge_list(mg, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// Writes `mg` to `path` as an edge list and describes it.
pub fn write_edge_list(mg: &TemporalMultigraph, path: &Path) -> std::io::Result<Input> {
    let text = edge_list_text(mg);
    std::fs::write(path, &text)?;
    Ok(Input { name: "edges.txt", interactions: mg.num_interactions(), hash: fnv64(&text) })
}

/// The interactions of `mg` stable-sorted by time: the order a live
/// feed would deliver them in.
pub fn time_sorted(mg: &TemporalMultigraph) -> Vec<Interaction> {
    let mut v = mg.interactions().to_vec();
    v.sort_by_key(|i| i.time);
    v
}

/// The `add` request line of one interaction (`{}` prints an `f64` so
/// that it parses back to the same value).
pub fn add_line(i: &Interaction) -> String {
    format!("add {} {} {} {}", i.from, i.to, i.time, i.flow)
}

/// One read request of the served query mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRequest {
    /// `count` (true) or `query`.
    pub count: bool,
    pub motif: &'static str,
    pub delta: i64,
    pub phi: f64,
    pub from: i64,
    pub to: i64,
}

impl ReadRequest {
    pub fn line(&self) -> String {
        let verb = if self.count { "count" } else { "query" };
        format!("{verb} {} {} {} {} {}", self.motif, self.delta, self.phi, self.from, self.to)
    }
}

/// Motifs of the read mix.
pub const READ_MOTIFS: [&str; 3] = ["M(3,2)", "M(3,3)", "M(4,3)"];

/// The distinct window-bounded reads of the served mix: every motif ×
/// δ ∈ {300, 600} × ϕ ∈ {0, 5} × (three `count` window widths and one
/// `query` width), 48 in all. The four reads of one motif, δ and ϕ fall
/// one into each quarter of the span, in a seeded order and at a seeded
/// offset, and the pool order is seeded too; the mix of work is the same
/// for every seed, so seeds differ in the data rather than in the mix.
pub fn read_pool(span: i64, seed: u64) -> Vec<ReadRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let quarter = span / 4;
    let mut pool = Vec::new();
    for motif in READ_MOTIFS {
        for delta in [300, 600] {
            for phi in [0.0, 5.0] {
                let mut quarters = [0, 1, 2, 3];
                flowmotif_datasets::rng::shuffle(&mut rng, &mut quarters);
                let kinds = [(true, 100), (true, 200), (true, 300), (false, 150)];
                for ((count, width), q) in kinds.into_iter().zip(quarters) {
                    let from = q * quarter + rng.random_range(0..=quarter - width);
                    pool.push(ReadRequest { count, motif, delta, phi, from, to: from + width });
                }
            }
        }
    }
    flowmotif_datasets::rng::shuffle(&mut rng, &mut pool);
    pool
}

/// A request sequence over a pool of `pool` distinct requests: each
/// pool entry once, plus `repeats` draws skewed towards low pool
/// indices (Zipf, exponent `s`), shuffled together. Every entry appears,
/// so a pass always holds exactly `pool` first occurrences.
pub fn read_sequence(pool: usize, repeats: usize, s: f64, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbf58_476d_1ce4_e5b9);
    let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut seq: Vec<usize> = (0..pool).collect();
    for _ in 0..repeats {
        let mut u = rng.random::<f64>() * total;
        let mut pick = pool - 1;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                pick = i;
                break;
            }
            u -= w;
        }
        seq.push(pick);
    }
    flowmotif_datasets::rng::shuffle(&mut rng, &mut seq);
    seq
}

/// For each position of `seq`, whether it is the first occurrence of its
/// request (a cold read) rather than a repeat of one already sent.
pub fn first_occurrences(seq: &[usize]) -> Vec<bool> {
    let mut seen = std::collections::HashSet::new();
    seq.iter().map(|r| seen.insert(*r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = edge_list_text(&bitcoin(0.5, 11));
        let b = edge_list_text(&bitcoin(0.5, 11));
        assert_eq!(fnv64(&a), fnv64(&b));
        assert_eq!(a, b);
        assert_ne!(a, edge_list_text(&bitcoin(0.5, 12)), "the seed must reach the generator");

        let lines = |seed| -> Vec<String> {
            time_sorted(&bitcoin(0.5, seed)).iter().map(add_line).collect()
        };
        assert_eq!(lines(3), lines(3));
        assert_ne!(lines(3), lines(4));
    }

    #[test]
    fn same_seed_gives_identical_request_sequences() {
        let render = |seed| -> Vec<String> {
            let pool = read_pool(2500, seed);
            read_sequence(pool.len(), 200, 1.1, seed).iter().map(|&i| pool[i].line()).collect()
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }

    #[test]
    fn time_sort_is_stable_and_complete() {
        let mg = bitcoin(0.2, 5);
        let sorted = time_sorted(&mg);
        assert_eq!(sorted.len(), mg.num_interactions());
        assert!(sorted.windows(2).all(|w| w[0].time <= w[1].time));
        // Ties keep their generator order.
        for t in [sorted[0].time, sorted[sorted.len() / 2].time] {
            let orig: Vec<_> = mg.interactions().iter().filter(|i| i.time == t).collect();
            let got: Vec<_> = sorted.iter().filter(|i| i.time == t).collect();
            assert_eq!(orig, got);
        }
    }

    #[test]
    fn add_lines_round_trip_flows() {
        for i in time_sorted(&bitcoin(0.1, 9)).iter().take(100) {
            let line = add_line(i);
            let f: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(f.to_bits(), i.flow.to_bits(), "{line}");
        }
    }

    #[test]
    fn pool_is_distinct_and_inside_the_span() {
        let pool = read_pool(2500, 1);
        assert_eq!(pool.len(), 48);
        for (i, r) in pool.iter().enumerate() {
            assert!(0 <= r.from && r.from < r.to && r.to < 2500, "{r:?}");
            assert!(!pool[..i].contains(r));
        }
        assert!(pool.iter().any(|r| r.count) && pool.iter().any(|r| !r.count));
    }

    #[test]
    fn sequence_holds_each_request_once_as_a_first_occurrence() {
        let seq = read_sequence(40, 500, 1.1, 2);
        assert_eq!(seq.len(), 540);
        let first = first_occurrences(&seq);
        assert_eq!(first.iter().filter(|&&f| f).count(), 40);
        // A first occurrence is exactly the earliest position of its id.
        for (pos, &id) in seq.iter().enumerate() {
            assert_eq!(first[pos], seq.iter().position(|&x| x == id) == Some(pos));
        }
        // Skew: the top-ranked request repeats more than the last one.
        let hits = |id| seq.iter().filter(|&&x| x == id).count();
        assert!(hits(0) > hits(39));
    }
}
