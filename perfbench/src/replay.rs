//! The traced replay: the request stream a served run issued is replayed
//! through each layer's public functions, one layer at a time, with a
//! span recorded around every call. Nothing inside the program is
//! instrumented; every number here is measured from the benchmark's
//! side of each layer boundary.

use crate::live::{open_store, primary_root, ReadRec, Span, SpanId, SESSION};
use crate::stats::{median_of, Samples};
use crate::workload::Workload;
use dynfo_core::{DynFoMachine, Request};
use dynfo_net::proto::{decode_payload, encode_payload};
use dynfo_net::{Client, Message, ProgramRegistry, Server, ServerConfig};
use dynfo_obs::ObsHandle;
use dynfo_serve::journal::{parse_segment_name, segment_path};
use dynfo_serve::snapshot::encode_snapshot;
use dynfo_serve::{read_log_after, read_segment, write_snapshot, JournalWriter};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Live writes timed through every layer, from the first traced slice
/// on; the span file holds every layer's spans for these requests. It
/// bounds the replay's time on slow programs: each replayed layer also
/// applies every write before the window, untimed.
const DISK_REPLAY_CAP: usize = 500;
/// Live writes a replica-side session applies (it repeats the session
/// layer's work, so a shorter prefix suffices). Its state at the end of
/// that prefix must equal the primary's at the same sequence number.
const REPLICA_REPLAY_CAP: usize = 300;
/// Entries a replica is behind when `FetchLog` and `read_log_after` are
/// timed: one, a replica that keeps up with the writer.
const SHIP_LAG: u64 = 1;
/// Idle-server probes per net measurement.
const NET_PROBES: usize = 2000;
/// `FetchLog` / `read_log_after` probes.
const LOG_PROBES: usize = 200;
/// Snapshot writes timed.
const SNAPSHOT_REPEATS: usize = 5;

/// The recorded run a replay works from.
pub struct Recorded<'a> {
    /// Workload served.
    pub wl: Workload,
    /// Every acknowledged write, in sequence order.
    pub writes: &'a [Request],
    /// Every read the load generator issued.
    pub reads: &'a [ReadRec],
    /// Index of the first write of the timed phase.
    pub live_from: usize,
    /// One past the last write of the timed phase.
    pub live_end: usize,
    /// Index of the first write of the first traced slice.
    pub traced_from: usize,
    /// Run directory (the crashed-and-recovered primary is under it).
    pub root: &'a Path,
    /// Span clock origin.
    pub epoch: Instant,
}

/// Per-layer measurements from one replay.
#[derive(Default)]
pub struct Layers {
    /// Spans of every replayed call.
    pub spans: Vec<Span>,
    /// `DynFoMachine::apply` per live write, µs.
    pub core_apply_us: Samples,
    /// `DynFoMachine::query_named` per live read, µs.
    pub core_query_us: Samples,
    /// Machine counter deltas summed over the live writes.
    pub guarded_evals: u64,
    /// Conservative full evaluations.
    pub full_evals: u64,
    /// Interpreter rows materialized.
    pub interp_rows: u64,
    /// Plan kernel words.
    pub kernel_words: u64,
    /// Evaluations served by a compiled plan.
    pub plan_compiled: u64,
    /// Evaluations that fell back to the interpreter.
    pub plan_fallback: u64,
    /// Live writes replayed through core.
    pub core_writes: u64,
    /// The core machine's snapshot encoding at the replica's end
    /// sequence number, which the replica-side session must match byte
    /// for byte.
    pub core_state_at_replica_end: Vec<u8>,
    /// `Session::apply` per replayed write, µs.
    pub serve_apply_us: Samples,
    /// `Session::apply` minus `DynFoMachine::apply` for the same write, µs.
    pub serve_self_us: Samples,
    /// `JournalWriter::append` (group commit 1: includes fsync), µs.
    pub journal_append_us: Samples,
    /// Fsyncs per write through `Session::apply`.
    pub fsyncs_per_write: f64,
    /// `write_snapshot` of the replayed state, ms (median of repeats).
    pub snapshot_ms: f64,
    /// Snapshot file size, bytes.
    pub snapshot_bytes: u64,
    /// `read_log_after` at the observed lag, µs (median).
    pub read_log_after_us: f64,
    /// Files in the primary's session directory.
    pub dir_files: u64,
    /// Journal frames decoded per frame shipped by `read_log_after`.
    pub decoded_per_shipped: f64,
    /// `Client::ping` on an idle server, µs.
    pub ping_us: Samples,
    /// A recorded read on an idle server, µs.
    pub read_idle_us: Samples,
    /// `encode_payload` + `decode_payload`, ns per frame.
    pub codec_ns_per_frame: f64,
    /// `Client::fetch_log` at the observed lag, µs.
    pub fetch_us: Samples,
    /// A shipped entry applied through a replica-side session, µs.
    pub replica_apply_us: Samples,
}

fn us(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn serve_err(what: &str) -> impl Fn(dynfo_serve::ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn net_err(what: &str) -> impl Fn(dynfo_net::NetError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Recorded<'_> {
    /// The writes every layer is timed and traced on.
    pub fn window(&self) -> std::ops::Range<usize> {
        self.traced_from..self.live_end.min(self.traced_from + DISK_REPLAY_CAP)
    }

    /// Sequence number the replica-side session stops at.
    fn replica_end(&self) -> usize {
        self.live_end.min(self.live_from + REPLICA_REPLAY_CAP)
    }

    fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Replay every layer in turn.
    pub fn replay(&self) -> Result<Layers, String> {
        let mut out = Layers::default();
        let machine = self.core(&mut out)?;
        self.session(&mut out)?;
        self.journal(&mut out)?;
        self.snapshot(&mut out, &machine)?;
        self.log_reads(&mut out)?;
        self.net(&mut out)?;
        Ok(out)
    }

    /// Core: a fresh machine (instrumented like a served session's)
    /// applies the stream up to the end of the window (and of the
    /// replica-side prefix); live writes and reads are timed.
    fn core(&self, out: &mut Layers) -> Result<DynFoMachine, String> {
        let program = self.wl.program.program();
        let mut m = DynFoMachine::new(program, self.wl.n).with_obs(&ObsHandle::default());
        let query = self.wl.program.pair_query();
        let window = self.window();
        let mut reads = self.reads.iter().enumerate().peekable();
        let end = window.end.max(self.replica_end());
        for (i, req) in self.writes[..end].iter().enumerate() {
            while let Some((r, rec)) = reads.next_if(|(_, rec)| rec.after_writes <= i) {
                let t0 = Instant::now();
                let answer = m.query_named(query, &rec.args);
                let t1 = Instant::now();
                answer.map_err(|e| format!("core query: {e}"))?;
                if window.contains(&rec.after_writes) {
                    let id = SpanId::Read(r);
                    out.spans.push(Span::new(
                        id,
                        "core.query",
                        Some("serve.query"),
                        self.epoch,
                        t0,
                        t1,
                    ));
                }
                out.core_query_us.push(us(t1 - t0));
            }
            let before = *m.stats();
            let t0 = Instant::now();
            m.apply(req).map_err(|e| format!("core apply: {e}"))?;
            let t1 = Instant::now();
            if i + 1 == self.replica_end() {
                out.core_state_at_replica_end = encode_snapshot(&m, i as u64 + 1);
            }
            if i < self.live_from {
                continue;
            }
            let after = m.stats();
            out.guarded_evals +=
                (after.installs.guarded_evals - before.installs.guarded_evals) as u64;
            out.full_evals += (after.installs.full_evals - before.installs.full_evals) as u64;
            let (w0, w1) = (&before.update_work, &after.update_work);
            out.interp_rows += (w1.rows_built - w0.rows_built) as u64;
            out.kernel_words += w1.kernel_words - w0.kernel_words;
            out.plan_compiled += (w1.plan_compiled - w0.plan_compiled) as u64;
            out.plan_fallback += (w1.plan_fallback - w0.plan_fallback) as u64;
            out.core_writes += 1;
            if window.contains(&i) {
                let id = SpanId::Write(i);
                out.spans.push(Span::new(
                    id,
                    "core.apply",
                    Some("serve.apply"),
                    self.epoch,
                    t0,
                    t1,
                ));
            }
            out.core_apply_us.push(us(t1 - t0));
        }
        Ok(m)
    }

    /// Serve: a fresh session under the shipped store defaults applies
    /// the stream up to the end of the window; the window's writes and
    /// reads are timed.
    fn session(&self, out: &mut Layers) -> Result<(), String> {
        let store = open_store(&self.scratch("replay-session"))?;
        let program = self.wl.program.program();
        let session = store
            .session(SESSION, &program, self.wl.n)
            .map_err(serve_err("open"))?;
        let core_ns: HashMap<usize, u64> = out
            .spans
            .iter()
            .filter_map(|s| match (s.layer, s.id) {
                ("core.apply", SpanId::Write(i)) => Some((i, s.dur_ns())),
                _ => None,
            })
            .collect();
        let query = self.wl.program.pair_query();
        let window = self.window();
        let mut reads = self
            .reads
            .iter()
            .enumerate()
            .filter(|(_, rec)| window.contains(&rec.after_writes))
            .peekable();
        let mut fsyncs_before = 0;
        for (i, req) in self.writes[..window.end].iter().enumerate() {
            if i == window.start {
                fsyncs_before = session.fsyncs();
            }
            while let Some((r, rec)) = reads.next_if(|(_, rec)| rec.after_writes <= i) {
                let t0 = Instant::now();
                let answer = session.query_named(query, &rec.args);
                let t1 = Instant::now();
                answer.map_err(serve_err("session query"))?;
                let id = SpanId::Read(r);
                out.spans.push(Span::new(
                    id,
                    "serve.query",
                    Some("e2e.read"),
                    self.epoch,
                    t0,
                    t1,
                ));
            }
            let t0 = Instant::now();
            session.apply(req).map_err(serve_err("session apply"))?;
            let t1 = Instant::now();
            if i < window.start {
                continue;
            }
            let id = SpanId::Write(i);
            out.spans.push(Span::new(
                id,
                "serve.apply",
                Some("e2e.write"),
                self.epoch,
                t0,
                t1,
            ));
            out.serve_apply_us.push(us(t1 - t0));
            let core = core_ns.get(&i).copied().unwrap_or(0);
            out.serve_self_us
                .push((t1 - t0).as_nanos() as f64 / 1e3 - core as f64 / 1e3);
        }
        let replayed = window.len().max(1);
        out.fsyncs_per_write = (session.fsyncs() - fsyncs_before) as f64 / replayed as f64;
        drop(session);
        store.shutdown().map_err(serve_err("session shutdown"))
    }

    /// Journal: a fresh segment with the default group commit (1)
    /// appends the window's writes; each append includes its fsync.
    fn journal(&self, out: &mut Layers) -> Result<(), String> {
        let dir = self.scratch("replay-journal");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let group_commit = ServerConfig::default().store.group_commit;
        let mut w = JournalWriter::create(&segment_path(&dir, 0), group_commit)
            .map_err(serve_err("journal create"))?;
        for i in self.window() {
            let t0 = Instant::now();
            w.append(i as u64 + 1, &self.writes[i])
                .map_err(serve_err("journal append"))?;
            let t1 = Instant::now();
            let id = SpanId::Write(i);
            out.spans.push(Span::new(
                id,
                "serve.journal_append",
                Some("serve.apply"),
                self.epoch,
                t0,
                t1,
            ));
            out.journal_append_us.push(us(t1 - t0));
        }
        w.commit().map_err(serve_err("journal commit"))
    }

    /// Snapshot: write the replayed live state's snapshot a few times.
    fn snapshot(&self, out: &mut Layers, machine: &DynFoMachine) -> Result<(), String> {
        let dir = self.scratch("replay-snapshot");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut ms = Vec::new();
        for _ in 0..SNAPSHOT_REPEATS {
            let t0 = Instant::now();
            let path = write_snapshot(&dir, machine, self.live_end as u64)
                .map_err(serve_err("write snapshot"))?;
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        out.snapshot_ms = median_of(&ms);
        Ok(())
    }

    fn session_dir(&self) -> PathBuf {
        primary_root(self.root).join(SESSION)
    }

    fn fetch_after(&self) -> u64 {
        (self.writes.len() as u64).saturating_sub(SHIP_LAG)
    }

    /// Log shipping from the primary's real directory: `read_log_after`
    /// [`SHIP_LAG`] entries behind, and how many frames it decoded to
    /// ship them.
    fn log_reads(&self, out: &mut Layers) -> Result<(), String> {
        let dir = self.session_dir();
        let after = self.fetch_after();
        let max = dynfo_net::MAX_BATCH as usize;
        let mut times = Vec::with_capacity(LOG_PROBES);
        let mut shipped = 0;
        for _ in 0..LOG_PROBES {
            let t0 = Instant::now();
            let entries = read_log_after(&dir, after, max).map_err(serve_err("read_log_after"))?;
            times.push(us(t0.elapsed()));
            shipped = entries.len();
        }
        out.read_log_after_us = median_of(&times);
        // The segments `read_log_after` decodes: every one not wholly
        // behind the cursor (the next segment's base is past it).
        let mut bases = Vec::new();
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
            let entry = entry.map_err(|e| format!("list {}: {e}", dir.display()))?;
            files += 1;
            if let Some(base) = parse_segment_name(&entry.file_name().to_string_lossy()) {
                bases.push(base);
            }
        }
        bases.sort_unstable();
        let mut decoded = 0;
        for (i, &base) in bases.iter().enumerate() {
            if bases.get(i + 1).is_some_and(|&next| next <= after) {
                continue;
            }
            let read =
                read_segment(&segment_path(&dir, base)).map_err(serve_err("read segment"))?;
            decoded += read.entries.len();
        }
        out.dir_files = files;
        out.decoded_per_shipped = decoded as f64 / shipped.max(1) as f64;
        Ok(())
    }

    /// Net: a server over the recovered primary, idle — ping, recorded
    /// reads, and `FetchLog` [`SHIP_LAG`] entries behind; a replica-side
    /// session applying the shipped log; then the wire codec over every
    /// recorded frame.
    fn net(&self, out: &mut Layers) -> Result<(), String> {
        let store = Arc::new(open_store(&primary_root(self.root))?);
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&store),
            Arc::new(ProgramRegistry::standard()),
            ServerConfig::default(),
            ObsHandle::default(),
        )
        .map_err(net_err("start server"))?;
        let addr = server.addr().to_string();
        let result = self.net_probes(out, &addr);
        server.shutdown().map_err(net_err("server shutdown"))?;
        result?;
        self.codec(out);
        Ok(())
    }

    fn net_probes(&self, out: &mut Layers, addr: &str) -> Result<(), String> {
        let program = self.wl.program.program();
        let mut client = Client::connect(addr).map_err(net_err("connect"))?;
        client
            .open(SESSION, program.name(), self.wl.n)
            .map_err(net_err("open"))?;
        for _ in 0..NET_PROBES {
            let t0 = Instant::now();
            client.ping().map_err(net_err("ping"))?;
            out.ping_us.push(us(t0.elapsed()));
        }
        let query = self.wl.program.pair_query();
        for rec in self.reads.iter().cycle().take(NET_PROBES) {
            let t0 = Instant::now();
            client
                .query_named(query, &rec.args)
                .map_err(net_err("idle read"))?;
            out.read_idle_us.push(us(t0.elapsed()));
        }
        let after = self.fetch_after();
        for _ in 0..LOG_PROBES {
            let t0 = Instant::now();
            client
                .fetch_log(after, dynfo_net::MAX_BATCH)
                .map_err(net_err("fetch_log"))?;
            out.fetch_us.push(us(t0.elapsed()));
        }
        self.replica_apply(out, &mut client)
    }

    /// A replica-side session pulls the primary's log through
    /// `Client::fetch_log` and applies it entry by entry, exactly as the
    /// replica puller does; the capped live prefix is timed. The run is
    /// gated on the replica's state: its snapshot bytes must equal the
    /// core machine's at the same sequence number.
    fn replica_apply(&self, out: &mut Layers, client: &mut Client) -> Result<(), String> {
        let store = open_store(&self.scratch("replay-replica"))?;
        let program = self.wl.program.program();
        let session = store
            .session(SESSION, &program, self.wl.n)
            .map_err(serve_err("open"))?;
        let end = self.replica_end() as u64;
        while session.seq() < end {
            let (_, entries) = client
                .fetch_log(session.seq(), dynfo_net::MAX_BATCH)
                .map_err(net_err("fetch_log"))?;
            if entries.is_empty() {
                return Err(format!(
                    "primary shipped nothing after seq {}",
                    session.seq()
                ));
            }
            for entry in entries.iter().take_while(|e| e.seq <= end) {
                let t0 = Instant::now();
                session
                    .apply(&entry.request)
                    .map_err(serve_err("replica apply"))?;
                let t1 = Instant::now();
                let i = entry.seq as usize - 1;
                if i >= self.live_from {
                    let id = SpanId::Write(i);
                    out.spans
                        .push(Span::new(id, "replica.apply", None, self.epoch, t0, t1));
                    out.replica_apply_us.push(us(t1 - t0));
                }
            }
        }
        let equal = session.snapshot_bytes() == out.core_state_at_replica_end;
        drop(session);
        store.shutdown().map_err(serve_err("replica shutdown"))?;
        if !equal {
            return Err(format!(
                "replica state differs from the primary's at seq {end}"
            ));
        }
        Ok(())
    }

    /// The wire codec over every recorded live frame and its reply.
    fn codec(&self, out: &mut Layers) {
        let query = self.wl.program.pair_query();
        let mut frames: Vec<Message> = Vec::new();
        for (i, req) in self.writes[self.live_from..self.live_end]
            .iter()
            .enumerate()
        {
            frames.push(Message::Apply(req.clone()));
            frames.push(Message::Ok {
                seq: (self.live_from + i + 1) as u64,
            });
        }
        for rec in self.reads {
            frames.push(Message::Query {
                name: query.to_string(),
                args: rec.args.clone(),
            });
            frames.push(Message::Answer { value: true });
        }
        let t0 = Instant::now();
        for m in &frames {
            let bytes = encode_payload(std::hint::black_box(m));
            std::hint::black_box(decode_payload(&bytes).expect("own encoding decodes"));
        }
        out.codec_ns_per_frame = t0.elapsed().as_nanos() as f64 / frames.len().max(1) as f64;
    }
}

/// Per-layer self time: each span's duration minus the durations of its
/// child spans (same request, `parent` naming this layer), as samples
/// in µs per layer. Layers are listed in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, Samples, Samples)> {
    let key = |id: SpanId| match id {
        SpanId::Write(i) => (0u8, i),
        SpanId::Read(i) => (1u8, i),
    };
    let mut child_ns: HashMap<((u8, usize), &'static str), u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry((key(s.id), parent)).or_default() += s.dur_ns();
        }
    }
    let mut order: Vec<&'static str> = Vec::new();
    let mut per: HashMap<&'static str, (Samples, Samples)> = HashMap::new();
    for s in spans {
        let entry = per.entry(s.layer).or_insert_with(|| {
            order.push(s.layer);
            (Samples::new(), Samples::new())
        });
        let children = child_ns.get(&(key(s.id), s.layer)).copied().unwrap_or(0);
        entry.0.push(s.dur_ns() as f64 / 1e3);
        entry
            .1
            .push(s.dur_ns().saturating_sub(children) as f64 / 1e3);
    }
    order
        .into_iter()
        .map(|l| {
            let (total, own) = per.remove(l).expect("layer recorded");
            (l, total, own)
        })
        .collect()
}

/// Write spans as JSONL: request id, layer, start, end, parent.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    use std::io::Write;
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let id = match s.id {
            SpanId::Write(i) => format!("w{i}"),
            SpanId::Read(i) => format!("r{i}"),
        };
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            w,
            "{{\"req\":\"{id}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.layer, s.start_ns, s.end_ns
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}
