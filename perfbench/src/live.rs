//! The served run: an in-process `dynfo-net` server, a two-thread load
//! generator talking TCP to it, and the run-end correctness gates —
//! oracle and crash recovery.

use crate::stats::Samples;
use crate::workload::{read_args, Rng, Stream, Workload};
use dynfo_core::Request;
use dynfo_logic::Elem;
use dynfo_net::{Client, ErrorCode, NetError, ProgramRegistry, Server, ServerConfig};
use dynfo_obs::ObsHandle;
use dynfo_serve::{Session, SessionStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Session name every connection binds.
pub const SESSION: &str = "bench";
/// Writes after the window fill that warm the server up, per window
/// tuple (part of set-up, untimed by the latency metrics).
const WARMUP_WRITES_PER_TUPLE: usize = 2;
/// Reads issued during warm-up.
const WARMUP_READS: usize = 32;
/// Journal frames past the last snapshot at crash time: every run
/// pads its stream to this tail so recovery always replays the same
/// number of frames.
pub const RECOVERY_TAIL: u64 = 32;

/// Identifies the request a span belongs to.
#[derive(Clone, Copy, Debug)]
pub enum SpanId {
    /// The write with this stream index (its sequence number minus 1).
    Write(usize),
    /// The read with this index in the recorded read list.
    Read(usize),
}

/// One traced interval, in nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request the span belongs to.
    pub id: SpanId,
    /// Layer that did the work (e.g. `serve.apply`).
    pub layer: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Layer of the enclosing span for the same request, if any.
    pub parent: Option<&'static str>,
}

impl Span {
    /// Span from two instants.
    pub fn new(
        id: SpanId,
        layer: &'static str,
        parent: Option<&'static str>,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            layer,
            start_ns: (start - epoch).as_nanos() as u64,
            end_ns: (end - epoch).as_nanos() as u64,
            parent,
        }
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A read as the load generator issued it.
#[derive(Clone, Debug)]
pub struct ReadRec {
    /// Query arguments.
    pub args: Vec<Elem>,
    /// Writes acknowledged when the read was sent: its position in the
    /// replayed stream.
    pub after_writes: usize,
}

/// A served workload, set up and ready to drive.
pub struct Served {
    /// The workload.
    pub wl: Workload,
    server: Server,
    store: Arc<SessionStore>,
    writer: Client,
    reader: Client,
    /// Generator state and oracle record.
    pub stream: Stream,
    /// Every acknowledged write, in sequence order.
    pub writes: Vec<Request>,
    /// Every read issued by the load generator.
    pub reads: Vec<ReadRec>,
    /// Run directory (primary store under `primary/`).
    pub root: PathBuf,
}

fn net(what: &str) -> impl Fn(NetError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn serve(what: &str) -> impl Fn(dynfo_serve::ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Primary store directory under a run root.
pub fn primary_root(root: &Path) -> PathBuf {
    root.join("primary")
}

/// Open one store with the shipped serving defaults.
pub fn open_store(root: &Path) -> Result<SessionStore, String> {
    SessionStore::open(root, ServerConfig::default().store).map_err(serve("open store"))
}

/// Send the stream's next write; on success record it.
fn write_one(
    client: &mut Client,
    stream: &mut Stream,
    writes: &mut Vec<Request>,
) -> Result<u64, NetError> {
    let w = stream.next_write();
    let seq = client.apply(w.request.clone())?;
    stream.commit(&w);
    writes.push(w.request);
    Ok(seq)
}

/// Ask the served session one read.
fn read_one(client: &mut Client, wl: &Workload, args: &[Elem]) -> Result<bool, NetError> {
    client.query_named(wl.program.pair_query(), args)
}

/// Set up a workload from an empty directory: start the server, open
/// the session, fill the window and warm up.
pub fn setup(wl: Workload, seed: u64, root: &Path) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(root);
    let registry = Arc::new(ProgramRegistry::standard());
    let program = wl.program.program();
    let store = Arc::new(open_store(&primary_root(root))?);
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&store),
        Arc::clone(&registry),
        ServerConfig::default(),
        ObsHandle::default(),
    )
    .map_err(net("start server"))?;
    let addr = server.addr().to_string();
    let mut writer = Client::connect(&addr).map_err(net("connect writer"))?;
    writer
        .open(SESSION, program.name(), wl.n)
        .map_err(net("open"))?;

    let mut stream = Stream::new(wl, seed);
    let mut writes = Vec::new();
    let warm = wl.window * WARMUP_WRITES_PER_TUPLE;
    while stream.live_len() < wl.window || writes.len() < wl.window + warm {
        write_one(&mut writer, &mut stream, &mut writes).map_err(net("warm-up write"))?;
    }

    let mut reader = Client::connect(&addr).map_err(net("connect reader"))?;
    reader
        .open(SESSION, program.name(), wl.n)
        .map_err(net("open reader"))?;
    let mut rng = Rng::new(seed, 99);
    for _ in 0..WARMUP_READS {
        read_one(&mut reader, &wl, &read_args(&wl, &mut rng)).map_err(net("warm-up read"))?;
    }
    Ok(Served {
        wl,
        server,
        store,
        writer,
        reader,
        stream,
        writes,
        reads: Vec::new(),
        root: root.to_path_buf(),
    })
}

/// Stop a set-up that is not measured further and delete its files.
pub fn teardown(served: Served) -> Result<(), String> {
    let Served {
        server,
        store,
        writer,
        reader,
        root,
        ..
    } = served;
    drop((writer, reader));
    server.shutdown().map_err(net("server shutdown"))?;
    drop(store);
    std::fs::remove_dir_all(&root).map_err(|e| format!("remove {}: {e}", root.display()))
}

/// What one timed slice of load produced.
#[derive(Clone, Default)]
pub struct Phase {
    /// Durable-write latency, send to `Ok`, µs.
    pub write_us: Samples,
    /// The same, inserts only.
    pub ins_us: Samples,
    /// The same, deletes only.
    pub del_us: Samples,
    /// Read latency, due time to `Answer`, µs.
    pub read_us: Samples,
    /// How late each read was sent against its due time, µs.
    pub read_late_us: Samples,
    /// Writes acknowledged.
    pub writes_ok: u64,
    /// Reads answered.
    pub reads_ok: u64,
    /// Requests refused (`Overloaded`) or failed.
    pub failed: u64,
    /// The writer's time in the slice, from its start to its last
    /// acknowledgement, s.
    pub elapsed_s: f64,
    /// Error text of the first hard failure, if any.
    pub error: Option<String>,
    /// End-to-end spans (traced slices only).
    pub spans: Vec<Span>,
}

impl Phase {
    /// Merge another slice into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.write_us.extend(&other.write_us);
        self.ins_us.extend(&other.ins_us);
        self.del_us.extend(&other.del_us);
        self.read_us.extend(&other.read_us);
        self.read_late_us.extend(&other.read_late_us);
        self.writes_ok += other.writes_ok;
        self.reads_ok += other.reads_ok;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
        if self.error.is_none() {
            self.error = other.error;
        }
        self.spans.extend(other.spans);
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Drive the served workload for `duration`: one closed-loop writer and
/// one open-loop reader at the workload's rate, each on its own thread
/// and connection. With `traced` every request also records an
/// end-to-end span.
pub fn drive(
    served: &mut Served,
    duration: Duration,
    read_seed: u64,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let wl = served.wl;
    let acked_cell = AtomicU64::new(served.writes.len() as u64);
    let acked = &acked_cell;
    let start = Instant::now();
    let end = start + duration;
    let Served {
        writer,
        reader,
        stream,
        writes,
        reads,
        ..
    } = served;

    let (mut wphase, rphase) = std::thread::scope(|s| {
        let writer_thread = s.spawn(|| {
            let mut p = Phase::default();
            let mut last_ack = start;
            while Instant::now() < end {
                let w = stream.next_write();
                let t0 = Instant::now();
                let outcome = writer.apply(w.request.clone());
                let t1 = Instant::now();
                match outcome {
                    Ok(seq) => {
                        stream.commit(&w);
                        if traced {
                            let id = SpanId::Write(writes.len());
                            p.spans
                                .push(Span::new(id, "e2e.write", None, epoch, t0, t1));
                        }
                        let lat = us(t1 - t0);
                        match w.request {
                            Request::Ins(..) => p.ins_us.push(lat),
                            _ => p.del_us.push(lat),
                        }
                        writes.push(w.request);
                        p.write_us.push(lat);
                        p.writes_ok += 1;
                        acked.store(seq, Ordering::SeqCst);
                        last_ack = t1;
                    }
                    Err(NetError::Remote {
                        code: ErrorCode::Overloaded,
                        ..
                    }) => p.failed += 1,
                    Err(e) => {
                        p.failed += 1;
                        p.error = Some(format!("write failed: {e}"));
                        break;
                    }
                }
            }
            // The write rate is taken over the writer's own time: a
            // reader catching up on its schedule after the writer stopped
            // must not dilute it.
            let writer_end = if p.writes_ok > 0 {
                last_ack
            } else {
                Instant::now()
            };
            p.elapsed_s = (writer_end - start).as_secs_f64();
            p
        });
        let reader_thread = s.spawn(|| {
            tight_timer_slack();
            let mut p = Phase::default();
            let mut rng = Rng::new(read_seed, 2);
            let period = Duration::from_secs_f64(1.0 / wl.read_rate);
            let mut due = start;
            while due < end {
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let args = read_args(&wl, &mut rng);
                let sent = Instant::now();
                let after_writes = acked.load(Ordering::SeqCst) as usize;
                let outcome = read_one(reader, &wl, &args);
                let got = Instant::now();
                match outcome {
                    Ok(_) => {
                        if traced {
                            let id = SpanId::Read(reads.len());
                            p.spans
                                .push(Span::new(id, "e2e.read", None, epoch, due, got));
                        }
                        p.read_us.push(us(got - due));
                        p.read_late_us.push(us(sent - due));
                        p.reads_ok += 1;
                        reads.push(ReadRec { args, after_writes });
                    }
                    Err(e) => {
                        p.failed += 1;
                        p.error = Some(format!("read failed: {e}"));
                        break;
                    }
                }
                due += period;
            }
            p
        });
        let wp = writer_thread.join().expect("writer thread panicked");
        let rp = reader_thread.join().expect("reader thread panicked");
        (wp, rp)
    });
    wphase.read_us = rphase.read_us;
    wphase.read_late_us = rphase.read_late_us;
    wphase.reads_ok = rphase.reads_ok;
    wphase.failed += rphase.failed;
    if wphase.error.is_none() {
        wphase.error = rphase.error;
    }
    wphase.spans.extend(rphase.spans);
    wphase
}

/// Let this thread's sleeps end on time: Linux delays timer wake-ups
/// by up to the thread's timer slack (50 µs by default), which the
/// open-loop reader would otherwise add to every read it times from the
/// read's due time.
fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// Size in bytes of the files in a directory tree.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut bytes = 0;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            bytes += if meta.is_dir() {
                dir_bytes(&entry.path())
            } else {
                meta.len()
            };
        }
    }
    bytes
}

impl Served {
    /// The primary's session.
    pub fn session(&self) -> Arc<Session> {
        self.store.get(SESSION).expect("primary session is open")
    }

    /// Run-end gates: the session holds exactly the acknowledged
    /// writes, and every served answer matches the oracle.
    pub fn check(&mut self) -> Result<(), String> {
        let seq = self.session().seq();
        if seq != self.writes.len() as u64 {
            return Err(format!(
                "primary at seq {seq}, but {} writes were acknowledged",
                self.writes.len()
            ));
        }
        let wl = self.wl;
        for (args, want) in self.stream.expected_answers() {
            let got = read_one(&mut self.writer, &wl, &args).map_err(net("oracle read"))?;
            if got != want {
                return Err(format!(
                    "served answer {got} for {args:?}, oracle says {want}"
                ));
            }
        }
        Ok(())
    }

    /// Pad the stream (untimed) until the journal tail past the last
    /// snapshot is exactly [`RECOVERY_TAIL`] frames long.
    pub fn pad_to_recovery_tail(&mut self) -> Result<(), String> {
        let every = ServerConfig::default().store.snapshot_every;
        while self.writes.len() as u64 % every != RECOVERY_TAIL {
            write_one(&mut self.writer, &mut self.stream, &mut self.writes)
                .map_err(net("padding write"))?;
        }
        Ok(())
    }

    /// Crash the primary: drop the server without draining and drop the
    /// store without committing anything.
    pub fn crash(self) -> Result<(Stream, Vec<Request>, Vec<ReadRec>), String> {
        let Served {
            server,
            store,
            writer,
            reader,
            stream,
            writes,
            reads,
            ..
        } = self;
        drop((writer, reader));
        drop(server);
        Arc::try_unwrap(store)
            .map_err(|_| "store still shared after the server stopped".to_string())?
            .crash();
        Ok((stream, writes, reads))
    }
}

/// How often to repeat a short measurement whose median is reported:
/// at least `min` times, then again while the repeats so far took less
/// than `budget` seconds in total, at most `max` times.
#[derive(Clone, Copy, Debug)]
pub struct Repeats {
    /// Fewest repeats.
    pub min: usize,
    /// Most repeats.
    pub max: usize,
    /// Total seconds after which no repeat beyond `min` starts.
    pub budget: f64,
}

impl Repeats {
    /// Whether another repeat should run, given the times so far.
    pub fn more(&self, times: &[f64]) -> bool {
        times.len() < self.min
            || (times.len() < self.max && times.iter().sum::<f64>() < self.budget)
    }
}

/// Check a session's every answer against the oracle, in process.
pub fn check_session(session: &Session, wl: &Workload, stream: &Stream) -> Result<(), String> {
    for (args, want) in stream.expected_answers() {
        let got = session
            .query_named(wl.program.pair_query(), &args)
            .map_err(serve("oracle query"))?;
        if got != want {
            return Err(format!(
                "recovered answer {got} for {args:?}, oracle says {want}"
            ));
        }
    }
    Ok(())
}

/// Reopen the crashed primary once, timed until its first answer, and
/// check that answer, the sequence number (every acknowledged write is
/// present) and the recovery ladder (newest snapshot plus exactly the
/// padded tail). Returns the time in seconds and the reopened store.
pub fn reopen_once(
    root: &Path,
    wl: &Workload,
    first: &(Vec<Elem>, bool),
    acked: u64,
) -> Result<(f64, SessionStore, Arc<Session>), String> {
    let program = wl.program.program();
    let t0 = Instant::now();
    let store = open_store(&primary_root(root))?;
    let session = store
        .session(SESSION, &program, wl.n)
        .map_err(serve("reopen"))?;
    let answer = session
        .query_named(wl.program.pair_query(), &first.0)
        .map_err(serve("first query after recovery"))?;
    let secs = t0.elapsed().as_secs_f64();
    if answer != first.1 {
        return Err(format!(
            "first answer after recovery {answer}, oracle says {}",
            first.1
        ));
    }
    if session.seq() != acked {
        return Err(format!(
            "recovered seq {}, acknowledged {acked}",
            session.seq()
        ));
    }
    let report = session.recovery_report();
    if report.rung != 1 || report.replayed != RECOVERY_TAIL {
        return Err(format!(
            "recovery landed on rung {} replaying {} frames (want rung 1, {RECOVERY_TAIL})",
            report.rung, report.replayed
        ));
    }
    Ok((secs, store, session))
}

/// The oracle query a recovery is timed to.
pub fn first_query(stream: &Stream) -> (Vec<Elem>, bool) {
    let mut expected = stream.expected_answers();
    let mid = expected.len() / 2;
    expected.swap_remove(mid)
}

/// Crash recovery, gated and timed. The first reopen runs in this
/// process and must answer every oracle query correctly. The timed
/// reopens then run as often as `repeats` says, each in a fresh child
/// process of this benchmark, as a restart after a crash would.
pub fn recover(
    root: &Path,
    wl: &Workload,
    stream: &Stream,
    acked: u64,
    repeats: Repeats,
) -> Result<Vec<f64>, String> {
    let first = first_query(stream);
    let (_, store, session) = reopen_once(root, wl, &first, acked)?;
    check_session(&session, wl, stream)?;
    drop(session);
    store.crash();

    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let args: Vec<String> = first.0.iter().map(|a| a.to_string()).collect();
    let mut times = Vec::new();
    while repeats.more(&times) {
        let out = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(wl.name)
            .arg("--recover-once")
            .arg(root)
            .arg("--acked")
            .arg(acked.to_string())
            .arg("--first-args")
            .arg(args.join(","))
            .arg("--first-want")
            .arg((first.1 as u8).to_string())
            .output()
            .map_err(|e| format!("spawn recovery process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let secs = stdout
            .lines()
            .find_map(|l| l.strip_prefix("recover_s "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (out.status.success(), secs) {
            (true, Some(secs)) => times.push(secs),
            _ => {
                return Err(format!(
                    "recovery process failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(times)
}
