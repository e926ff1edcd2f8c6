//! Workload definitions, the program-aware stationary request
//! generator, and the independent oracle the served answers are
//! checked against.
//!
//! Every workload keeps a sliding window of live input tuples. Once the
//! window holds `window` tuples the generator alternates between
//! inserting a fresh tuple (one not currently live) and deleting the
//! oldest live one, so the input size — and with it the per-write cost —
//! stays put for the whole run instead of drifting.

use dynfo_core::{programs, DynFoProgram, Request};
use dynfo_graph::graph::{DiGraph, Graph};
use dynfo_graph::traversal::{connected, reaches};
use dynfo_logic::Elem;
use std::collections::{BTreeSet, VecDeque};

/// Which Dyn-FO program a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    /// REACH_u (Theorem 4.1): undirected edges `E(a, b)`, `a < b`.
    ReachU,
    /// REACH(acyclic) (Theorem 4.2): DAG edges `E(a, b)` with `a < b`,
    /// so the acyclicity promise holds for every prefix of the stream.
    ReachA,
}

impl Program {
    /// The program, as the server's standard registry names it.
    pub fn program(self) -> DynFoProgram {
        match self {
            Program::ReachU => programs::reach_u::program(),
            Program::ReachA => programs::reach_acyclic::program(),
        }
    }

    /// Named pair query every read asks.
    pub fn pair_query(self) -> &'static str {
        match self {
            Program::ReachU => "connected",
            Program::ReachA => "reaches",
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Program served.
    pub program: Program,
    /// Universe size.
    pub n: Elem,
    /// Live tuples in the stationary window.
    pub window: usize,
    /// Open-loop reader rate, requests per second.
    pub read_rate: f64,
    /// Length of the load slices the run's latency and rate figures are
    /// taken over (median across slices), in seconds; 0 = one slice for
    /// the whole run. A slice must hold enough samples for its p90.
    pub slice_s: u64,
}

/// The served workloads (see `perfbench/README.md` for why each).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "reach_u-rw",
        program: Program::ReachU,
        n: 32,
        window: 32,
        read_rate: 20.0,
        slice_s: 0,
    },
    Workload {
        name: "reach_a-rw",
        program: Program::ReachA,
        n: 128,
        window: 128,
        read_rate: 200.0,
        slice_s: 1,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: a tiny seeded generator, so the same seed gives the same
/// stream on every host and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % bound as u64) as u32
    }
}

/// The stationary sliding-window write stream of one workload, which is
/// also the oracle's record of what is live.
#[derive(Clone, Debug)]
pub struct Stream {
    wl: Workload,
    rng: Rng,
    /// Live tuples, oldest first.
    live: VecDeque<Vec<Elem>>,
    set: BTreeSet<Vec<Elem>>,
}

/// A generated write, applied to the stream only once the server
/// acknowledged it (see [`Stream::commit`]).
#[derive(Clone, Debug)]
pub struct Write {
    /// The request to send.
    pub request: Request,
    insert: bool,
    tuple: Vec<Elem>,
}

impl Stream {
    /// An empty window for `wl`, seeded.
    pub fn new(wl: Workload, seed: u64) -> Stream {
        Stream {
            wl,
            rng: Rng::new(seed, 1),
            live: VecDeque::new(),
            set: BTreeSet::new(),
        }
    }

    /// Live tuples right now.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// The next write: insert a fresh tuple while the window is not
    /// over-full, otherwise delete the oldest live tuple.
    pub fn next_write(&mut self) -> Write {
        let rel = "E";
        if self.live.len() > self.wl.window {
            let tuple = self.live.front().expect("window is non-empty").clone();
            return Write {
                request: Request::del(rel, tuple.clone()),
                insert: false,
                tuple,
            };
        }
        let tuple = loop {
            let t = self.fresh_candidate();
            if !self.set.contains(&t) {
                break t;
            }
        };
        Write {
            request: Request::ins(rel, tuple.clone()),
            insert: true,
            tuple,
        }
    }

    fn fresh_candidate(&mut self) -> Vec<Elem> {
        let n = self.wl.n;
        loop {
            let (a, b) = (self.rng.below(n), self.rng.below(n));
            if a != b {
                break vec![a.min(b), a.max(b)];
            }
        }
    }

    /// Record an acknowledged write.
    pub fn commit(&mut self, w: &Write) {
        if w.insert {
            self.set.insert(w.tuple.clone());
            self.live.push_back(w.tuple.clone());
        } else {
            let oldest = self.live.pop_front();
            debug_assert_eq!(oldest.as_ref(), Some(&w.tuple));
            self.set.remove(&w.tuple);
        }
    }

    /// The oracle: every `(args, expected answer)` pair the run-end
    /// check compares the served session against — all ordered pairs.
    pub fn expected_answers(&self) -> Vec<(Vec<Elem>, bool)> {
        let n = self.wl.n;
        match self.wl.program {
            Program::ReachU => {
                let mut g = Graph::new(n);
                for t in &self.live {
                    g.insert(t[0], t[1]);
                }
                all_pairs(n, |x, y| connected(&g, x, y))
            }
            Program::ReachA => {
                let mut g = DiGraph::new(n);
                for t in &self.live {
                    g.insert(t[0], t[1]);
                }
                all_pairs(n, |x, y| reaches(&g, x, y))
            }
        }
    }
}

fn all_pairs(n: Elem, f: impl Fn(Elem, Elem) -> bool) -> Vec<(Vec<Elem>, bool)> {
    let mut out = Vec::with_capacity((n * n) as usize);
    for x in 0..n {
        for y in 0..n {
            out.push((vec![x, y], f(x, y)));
        }
    }
    out
}

/// The reader's query arguments: a uniform random pair.
pub fn read_args(wl: &Workload, rng: &mut Rng) -> Vec<Elem> {
    vec![rng.below(wl.n), rng.below(wl.n)]
}
