//! The four workloads: each client's request stream as a pure function of
//! `(workload, seed, client, index)`. The server sees only the generated lines.

use std::fmt::Write as _;

/// What a request asks for; selects the per-op latency row and how the
/// response is verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Counting + packed-MC + IS persistence-quorum cell (three cells).
    Small,
    /// 2 protocols x 3 node counts x 5 fault probabilities, all counting.
    Grid,
    /// 18 unequal Monte Carlo cells.
    Sweep,
    Optimize,
    Posterior,
    Validate,
    RareEvent,
    Trajectory,
    Stats,
}

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::Small => "small",
            Op::Grid => "grid",
            Op::Sweep => "sweep",
            Op::Optimize => "optimize",
            Op::Posterior => "posterior",
            Op::Validate => "validate",
            Op::RareEvent => "rare_event",
            Op::Trajectory => "trajectory",
            Op::Stats => "stats",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: String,
    pub op: Op,
    /// The request line, without its newline.
    pub line: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmLookup,
    ColdChurn,
    HeavySweep,
    MixedOps,
}

pub const ALL: [Workload; 4] = [
    Workload::WarmLookup,
    Workload::ColdChurn,
    Workload::HeavySweep,
    Workload::MixedOps,
];

/// Distinct queries in the `warm-lookup` corpus: the first half small, the
/// second half grids.
pub const CORPUS: usize = 64;

/// One `mixed-ops` round. Every engine op twice and `stats` once, so the
/// near-zero `stats` latencies take 1/11 of the distribution and neither p50
/// nor p90 sits on the edge between two ops' modes.
const MIXED_ROUND: [Op; 11] = [
    Op::Optimize,
    Op::Posterior,
    Op::Validate,
    Op::RareEvent,
    Op::Trajectory,
    Op::Stats,
    Op::Optimize,
    Op::Posterior,
    Op::Validate,
    Op::RareEvent,
    Op::Trajectory,
];

/// SplitMix64: the harness's only randomness, so streams depend on nothing
/// but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A seed the server's `as_u64` accepts (at most 2^53).
    fn wire_seed(&mut self) -> u64 {
        self.next() >> 12
    }
}

fn small_body(n: usize, p: f64, shock: f64, pq_p: f64, seed: u64) -> String {
    format!(
        "{{\"protocols\":[\"raft\"],\"nodes\":[{n}],\"fault_probs\":[{p}],\
         \"correlations\":[\"independent\",{{\"cluster_shock\":{{\"probability\":{shock}}}}}],\
         \"samples\":500,\"seed\":{seed},\
         \"cells\":[{{\"label\":\"pq\",\
         \"model\":{{\"persistence_quorum\":{{\"quorum\":[0,1,2,3]}}}},\
         \"deployment\":{{\"uniform_crash\":{{\"n\":24,\"p\":{pq_p}}}}}}}]}}"
    )
}

fn grid_body(first_nodes: usize, first_p: f64) -> String {
    let nodes: Vec<String> = (0..3).map(|k| (first_nodes + 4 * k).to_string()).collect();
    let probs: Vec<String> = (0..5)
        .map(|k| format!("{}", first_p * f64::from(1 << k)))
        .collect();
    format!(
        "{{\"protocols\":[\"raft\",\"pbft\"],\"nodes\":[{}],\"fault_probs\":[{}]}}",
        nodes.join(","),
        probs.join(",")
    )
}

/// The 64 distinct `warm-lookup` query bodies for a seed. Entry `i` differs
/// from every other entry in its fault probability whatever the seed draws.
pub fn corpus(seed: u64) -> Vec<(Op, String)> {
    let mut rng = Rng::new(seed ^ 0xC0_4F05);
    (0..CORPUS)
        .map(|i| {
            let jitter = rng.below(1_000) as f64 * 1e-7;
            if i < CORPUS / 2 {
                let n = 13 + 2 * rng.below(10) as usize;
                let p = 0.02 + i as f64 * 1e-3 + jitter;
                let shock = 0.01 + rng.below(20) as f64 * 1e-3;
                let pq_p = 0.01 + i as f64 * 1e-4;
                (Op::Small, small_body(n, p, shock, pq_p, rng.wire_seed()))
            } else {
                let first_nodes = 4 + rng.below(6) as usize;
                let first_p = 0.002 + i as f64 * 1e-4 + jitter;
                (Op::Grid, grid_body(first_nodes, first_p))
            }
        })
        .collect()
}

const SWEEP_BODY_HEAD: &str = "{\"protocols\":[\"raft\",\"pbft\"],\"nodes\":[25,49,101],\
     \"fault_probs\":[0.05],\
     \"correlations\":[{\"cluster_shock\":{\"probability\":0.02}}],\
     \"samples_sweep\":[500000,1000000,2000000],\"seed\":";

fn mixed_line(id: &str, op: Op, seed: u64) -> String {
    let query = |body: String| format!("{{\"id\":\"{id}\",\"op\":\"query\",\"query\":{body}}}");
    match op {
        Op::Optimize => format!(
            "{{\"id\":\"{id}\",\"op\":\"optimize\",\"space\":{{\"instances\":[\
             {{\"name\":\"spot\",\"fault_probability\":0.08,\"hourly_cost\":0.1}},\
             {{\"name\":\"std\",\"fault_probability\":0.02,\"hourly_cost\":0.3}},\
             {{\"name\":\"prem\",\"fault_probability\":0.005,\"hourly_cost\":0.9}}],\
             \"nodes\":[3,5,7,9,11],\
             \"domains\":{{\"racks\":3,\"shock_probability\":0.001}},\
             \"placements\":[\"same-rack\",\"cross-rack\"],\
             \"target\":{{\"protocol\":\"raft\"}}}},\
             \"config\":{{\"target_nines\":3,\"seed\":{seed},\
             \"screen_samples\":10000,\"refine_samples\":80000}}}}"
        ),
        Op::Posterior => query(format!(
            "{{\"protocols\":[\"raft\"],\"nodes\":[5],\"fault_probs\":[0.02],\
             \"correlations\":[{{\"cluster_shock\":{{\"probability\":0.001}}}}],\
             \"samples\":1000000,\"seed\":{seed},\
             \"posterior\":{{\"draws\":64,\"alpha\":8.5,\"beta\":191.5}}}}"
        )),
        Op::Validate => query(format!(
            "{{\"protocols\":[\"raft\"],\"nodes\":[3,5,7,9],\"fault_probs\":[0.08],\
             \"validate\":true,\"environments\":[\"clean\",\"gray-primary\"],\"seed\":{seed}}}"
        )),
        Op::RareEvent => query(format!(
            "{{\"samples\":120000,\"seed\":{seed},\"cells\":[{{\"label\":\"deep-tail\",\
             \"model\":{{\"persistence_quorum\":{{\"quorum\":[0,1,2,3,4,5,6,7,8,9]}}}},\
             \"deployment\":{{\"uniform_crash\":{{\"n\":100,\"p\":0.1}}}}}}]}}"
        )),
        Op::Trajectory => query(format!(
            "{{\"protocols\":[\"raft\"],\"nodes\":[5,7],\"fault_probs\":[0.02],\
             \"time_axis\":{{\"horizon_hours\":8760,\"step_hours\":6}},\
             \"repairable_cells\":[\
             {{\"label\":\"repairable-5\",\"n\":5,\"lambda\":0.0001,\"mu\":0.1,\
             \"tolerated_failures\":2}},\
             {{\"label\":\"repairable-9\",\"n\":9,\"lambda\":0.0001,\"mu\":0.1,\
             \"tolerated_failures\":4}}],\"seed\":{seed}}}"
        )),
        Op::Stats => format!("{{\"id\":\"{id}\",\"op\":\"stats\"}}"),
        Op::Small | Op::Grid | Op::Sweep => unreachable!("not a mixed-ops op"),
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmLookup => "warm-lookup",
            Workload::ColdChurn => "cold-churn",
            Workload::HeavySweep => "heavy-sweep",
            Workload::MixedOps => "mixed-ops",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Connections (= client threads) the closed loop would like; the runner
    /// caps it at `min(nproc, 2)`. `heavy-sweep` keeps one so both cores serve
    /// one plan.
    pub fn clients(self) -> usize {
        match self {
            Workload::HeavySweep => 1,
            _ => 2,
        }
    }

    /// Requests each client sends, untimed, before the timed phase; they are
    /// the first `warmup` entries of its stream. `warm-lookup` pre-sends the
    /// whole corpus between its clients.
    pub fn warmup(self, clients: usize) -> usize {
        match self {
            Workload::WarmLookup => CORPUS.div_ceil(clients),
            Workload::ColdChurn => 16,
            Workload::HeavySweep => 3,
            Workload::MixedOps => MIXED_ROUND.len(),
        }
    }

    /// Requests the in-process traced run replays at most. `cold-churn` needs
    /// more than 4096 / 3 requests before its cache starts evicting.
    pub fn traced_requests(self) -> usize {
        match self {
            Workload::ColdChurn => 2_048,
            _ => 512,
        }
    }

    /// Request `index` of client `client` (of `clients`) under `seed`.
    ///
    /// `corpus` must be [`corpus`]`(seed)`; it is passed in so a stream does
    /// not rebuild it per request.
    pub fn request(
        self,
        corpus: &[(Op, String)],
        seed: u64,
        clients: usize,
        client: usize,
        index: usize,
    ) -> Request {
        let id = format!("c{client}-{index}");
        // Position of this request in the interleaved stream of all clients:
        // unique per (client, index), which is what keeps cold-churn's keys
        // from ever repeating.
        let position = (index * clients + client) as u64;
        let mut rng = Rng::new(seed ^ position.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let (op, line) = match self {
            Workload::WarmLookup => {
                let entry = if index < self.warmup(clients) {
                    (index * clients + client) % CORPUS
                } else {
                    rng.below(CORPUS as u64) as usize
                };
                let (op, body) = &corpus[entry];
                (
                    *op,
                    format!("{{\"id\":\"{id}\",\"op\":\"query\",\"query\":{body}}}"),
                )
            }
            Workload::ColdChurn => {
                // `position` steps p by 1e-7 and the jitter stays below one
                // step, so no two requests share a fault probability and
                // therefore none shares a cache key.
                let jitter = rng.below(64) as f64 * 1e-9;
                let p = 0.02 + position as f64 * 1e-7 + jitter;
                let pq_p = 0.005 + position as f64 * 1e-7 + jitter;
                let n = 13 + 2 * rng.below(10) as usize;
                let shock = 0.01 + rng.below(20) as f64 * 1e-3;
                let body = small_body(n, p, shock, pq_p, rng.wire_seed());
                (
                    Op::Small,
                    format!("{{\"id\":\"{id}\",\"op\":\"query\",\"query\":{body}}}"),
                )
            }
            Workload::HeavySweep => {
                let mut line = format!("{{\"id\":\"{id}\",\"op\":\"query\",\"query\":");
                write!(line, "{SWEEP_BODY_HEAD}{}}}}}", rng.wire_seed()).expect("string write");
                (Op::Sweep, line)
            }
            Workload::MixedOps => {
                // The second client starts half a round later, so the two do
                // not run the same op in lockstep.
                let slot = (index + client * (MIXED_ROUND.len() / 2)) % MIXED_ROUND.len();
                let op = MIXED_ROUND[slot];
                (op, mixed_line(&id, op, rng.wire_seed()))
            }
        };
        Request { id, op, line }
    }
}

/// The first `count` requests of the interleaved stream (client 0's first,
/// client 1's first, client 0's second, ...): what the traced run replays.
pub fn interleaved(workload: Workload, seed: u64, clients: usize, count: usize) -> Vec<Request> {
    let corpus = corpus(seed);
    (0..count)
        .map(|k| workload.request(&corpus, seed, clients, k % clients, k / clients))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prob_consensus::json::JsonValue;
    use std::collections::HashSet;

    fn stream_bytes(workload: Workload, seed: u64) -> String {
        interleaved(workload, seed, 2, 300)
            .into_iter()
            .map(|r| r.line + "\n")
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_does_not() {
        for workload in ALL {
            assert_eq!(stream_bytes(workload, 7), stream_bytes(workload, 7));
            assert_ne!(stream_bytes(workload, 7), stream_bytes(workload, 8));
        }
    }

    #[test]
    fn every_line_is_one_json_object_with_a_fresh_id() {
        for workload in ALL {
            let mut ids = HashSet::new();
            for request in interleaved(workload, 3, 2, 200) {
                let value = JsonValue::parse(&request.line).expect("request is JSON");
                assert_eq!(
                    value.get("id").and_then(|v| v.as_str()),
                    Some(request.id.as_str())
                );
                assert!(!request.line.contains('\n'));
                assert!(ids.insert(request.id), "{} repeats an id", workload.name());
            }
        }
    }

    #[test]
    fn warm_lookup_corpus_is_64_distinct_queries_all_sent_in_warm_up() {
        let bodies: HashSet<String> = corpus(11).into_iter().map(|(_, body)| body).collect();
        assert_eq!(bodies.len(), CORPUS);
        let workload = Workload::WarmLookup;
        let warmup: HashSet<String> = interleaved(workload, 11, 2, 2 * workload.warmup(2))
            .into_iter()
            .map(|r| r.line.split_once("\"query\":").unwrap().1.to_string())
            .collect();
        assert_eq!(warmup.len(), CORPUS);
    }

    #[test]
    fn cold_churn_never_repeats_a_cache_key_within_50_000_requests() {
        // The scratch-cache key of each of a request's three cells contains a
        // fault probability's bits; distinct probabilities mean distinct keys.
        let mut grid = HashSet::new();
        let mut quorum = HashSet::new();
        for request in interleaved(Workload::ColdChurn, 5, 2, 50_000) {
            let value = JsonValue::parse(&request.line).unwrap();
            let query = value.get("query").unwrap();
            let p = query.get("fault_probs").unwrap().as_array().unwrap()[0]
                .as_f64()
                .unwrap();
            let pq_p = query.get("cells").unwrap().as_array().unwrap()[0]
                .get("deployment")
                .and_then(|d| d.get("uniform_crash"))
                .and_then(|u| u.get("p"))
                .and_then(|p| p.as_f64())
                .unwrap();
            assert!(grid.insert(p.to_bits()), "fault probability {p} repeats");
            assert!(
                quorum.insert(pq_p.to_bits()),
                "quorum cell p {pq_p} repeats"
            );
        }
    }

    #[test]
    fn mixed_ops_clients_cover_every_op_each_round() {
        for client in 0..2 {
            let corpus = corpus(1);
            let ops: HashSet<&str> = (0..MIXED_ROUND.len())
                .map(|i| {
                    Workload::MixedOps
                        .request(&corpus, 1, 2, client, i)
                        .op
                        .label()
                })
                .collect();
            assert_eq!(ops.len(), 6);
        }
    }
}
