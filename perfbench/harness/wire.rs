//! The served workloads: a `Server` on loopback over a default
//! `Catalog`, driven by blocking clients. `serve-mix` runs two closed-
//! loop readers; `serve-update` runs one reader beside an open-loop
//! writer committing at a fixed rate.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xtwig_core::Strategy;
use xtwig_net::{Client, ClientError, Response, Server, ServerHandle, WireOp};
use xtwig_service::{Catalog, CatalogOptions, ServiceSnapshot, TwigService};
use xtwig_xml::XmlForest;

use crate::check::{digest, ProbeExpect, ReadSample};
use crate::setup::{self, Data, SetupTimes};
use crate::stream::{probe_name, MixStream, Read};

/// The catalog name the index is served under.
pub const INDEX: &str = "xmark";
/// Closed-loop reader connections on `serve-mix` (one per core).
pub const MIX_CONNECTIONS: u64 = 2;
/// `serve-update`'s fixed commit rate.
pub const COMMITS_PER_SEC: f64 = 10.0;
/// Inserted persons kept live before each commit also deletes the oldest.
pub const LIVE_PERSONS: u64 = 64;
/// Answers above this encoded size are split out of the residual.
pub const LARGE_ANSWER_BYTES: usize = 8 * 1024;

/// A loopback server over a one-index catalog.
pub struct Served {
    pub addr: SocketAddr,
    pub catalog: Arc<Catalog>,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

/// A default catalog with the index at `path` registered (attached on
/// first use).
pub fn catalog(path: &Path) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new(CatalogOptions::default()));
    catalog.register(INDEX, path);
    catalog
}

impl Served {
    pub fn start(path: &Path) -> Result<Served, String> {
        let catalog = catalog(path);
        let server = Server::bind("127.0.0.1:0", catalog.clone()).map_err(|e| e.to_string())?;
        let handle = server.handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Served { addr: handle.addr(), catalog, handle, thread: Some(thread) })
    }

    pub fn service(&self) -> Result<Arc<TwigService>, String> {
        self.catalog.get(INDEX).map_err(|e| e.to_string())
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with_timeout(self.addr, Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One set-up: parse, build, persist, serve, and the first answer
/// (which attaches the index in the catalog).
pub fn setup_once(data: &Data, path: &Path) -> Result<(XmlForest, Served, SetupTimes), String> {
    let (forest, mut times) = setup::parse_build_persist(&data.xml, setup::SERVE_POOL_PAGES, path)?;
    let t = Instant::now();
    let served = Served::start(path)?;
    let mut client = served.connect()?;
    let first = crate::stream::paper_xpaths()[0];
    client.query(INDEX, first, "auto").map_err(|e| format!("first query: {e}"))?;
    times.open_s = t.elapsed().as_secs_f64();
    Ok((forest, served, times))
}

/// Node ids the writer gives inserted persons: past every document id.
#[derive(Debug, Clone, Copy)]
pub struct PersonIds {
    pub site: u64,
    pub people: u64,
    pub base: u64,
}

impl PersonIds {
    pub fn of(forest: &XmlForest) -> PersonIds {
        let find =
            |tag: &str| forest.iter_nodes().find(|&n| forest.tag_name(n) == tag).map_or(0, |n| n.0);
        PersonIds {
            site: find("site"),
            people: find("people"),
            base: forest.node_count() as u64 + 1_000,
        }
    }

    pub fn person(&self, k: u64) -> u64 {
        self.base + 2 * k
    }

    /// The ops of commit `k`: insert person `k` with its name leaf and,
    /// once [`LIVE_PERSONS`] are live, delete person `k - LIVE_PERSONS`.
    pub fn commit_ops(&self, k: u64) -> Vec<WireOp> {
        let path = |k: u64, insert: bool| {
            let (pid, nid) = (self.person(k), self.person(k) + 1);
            vec![
                WireOp {
                    insert,
                    tags: vec!["site".into(), "people".into(), "person".into()],
                    ids: vec![self.site, self.people, pid],
                    value: None,
                },
                WireOp {
                    insert,
                    tags: vec!["site".into(), "people".into(), "person".into(), "name".into()],
                    ids: vec![self.site, self.people, pid, nid],
                    value: Some(probe_name(k as u32)),
                },
            ]
        };
        let mut ops = path(k, true);
        if k >= LIVE_PERSONS {
            ops.extend(path(k - LIVE_PERSONS, false));
        }
        ops
    }
}

/// A closed-loop reader: sends the stream's next read as soon as the
/// previous answer arrives, until `stop` is set. `reads_done` counts
/// completed reads for the writer (it orders commits among reads when
/// the traced run replays them).
pub fn reader_loop(
    client: &mut Client,
    mut stream: MixStream,
    stop: &AtomicBool,
    reads_done: Option<&AtomicU64>,
) -> Vec<ReadSample> {
    let paper = crate::stream::paper_xpaths();
    let mut out = Vec::with_capacity(1 << 15);
    while !stop.load(Ordering::Relaxed) {
        let (sample, broken) = query_sample(client, stream.next_read(), None, &paper);
        out.push(sample);
        if broken {
            break;
        }
        if let Some(done) = reads_done {
            done.fetch_add(1, Ordering::SeqCst);
        }
    }
    out
}

/// Sends one `auto` read and records what came back. The flag is true
/// when the connection broke (anything but a typed refusal).
fn query_sample(
    client: &mut Client,
    read: Read,
    probe: Option<ProbeExpect>,
    paper: &[&str],
) -> (ReadSample, bool) {
    let xpath = read.xpath(paper);
    let t = Instant::now();
    let result = client.query(INDEX, &xpath, "auto");
    let latency_ns = t.elapsed().as_nanos() as u64;
    let mut sample = ReadSample {
        read,
        latency_ns,
        server_us: 0,
        n_ids: 0,
        digest: 0,
        strategy: None,
        from_cache: false,
        error: None,
        probe,
    };
    match result {
        Ok(a) => {
            sample.server_us = a.micros;
            sample.n_ids = a.ids.len() as u32;
            sample.digest = digest(a.ids.iter().copied());
            sample.strategy = a.strategy.parse().ok();
            sample.from_cache = a.from_cache;
            (sample, false)
        }
        Err(e) => {
            let broken = !matches!(e, ClientError::Server { .. });
            sample.error = Some(e.to_string());
            (sample, broken)
        }
    }
}

/// The known-defect check of `serve-update`, run after its window with
/// the writer stopped: every person the writer touched is probed once
/// under `auto`. Each probe expects the person's acknowledged state, as
/// the writer's commits left it. This pass is not timed, and its probes
/// are not among the workload's operations.
pub fn probe_touched(
    served: &Served,
    ids: &PersonIds,
    commits: &[CommitSample],
) -> Result<Vec<ReadSample>, String> {
    let paper = crate::stream::paper_xpaths();
    let mut client = served.connect()?;
    let acked = |k: usize| commits.get(k).is_some_and(|c| c.error.is_none());
    let mut out = Vec::with_capacity(commits.len());
    for k in (0..commits.len()).filter(|&k| acked(k)) {
        // Person k is deleted by commit k + LIVE_PERSONS.
        let live = !acked(k + LIVE_PERSONS as usize);
        let expect = ProbeExpect { live_id: live.then(|| ids.person(k as u64)) };
        let (sample, _) = query_sample(&mut client, Read::Probe(k as u32), Some(expect), &paper);
        if let Some(e) = &sample.error {
            return Err(format!("probe of bench-{k}: {e}"));
        }
        out.push(sample);
    }
    Ok(out)
}

/// One commit as the writer saw it.
#[derive(Debug, Clone)]
pub struct CommitSample {
    /// From the scheduled send time to the acknowledgement.
    pub latency_ns: u64,
    /// How late the send left against its schedule.
    pub lag_ns: u64,
    /// Reads the reader had completed when the ack arrived.
    pub acked_after_reads: u64,
    pub error: Option<String>,
}

/// The open-loop writer: commit `k` is due at `start + k / rate`,
/// whatever happened to earlier commits.
pub fn writer_loop(
    client: &mut Client,
    ids: &PersonIds,
    reads_done: &AtomicU64,
    commits: u64,
    start: Instant,
) -> Vec<CommitSample> {
    let period = Duration::from_secs_f64(1.0 / COMMITS_PER_SEC);
    let mut out = Vec::with_capacity(commits as usize);
    for k in 0..commits {
        let due = start + period * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lag_ns = Instant::now().saturating_duration_since(due).as_nanos() as u64;
        let result = client.update(INDEX, ids.commit_ops(k));
        let latency_ns = due.elapsed().as_nanos() as u64;
        let acked_after_reads = reads_done.load(Ordering::SeqCst);
        let error = result.err().map(|e| e.to_string());
        out.push(CommitSample { latency_ns, lag_ns, acked_after_reads, error });
    }
    out
}

/// What a timed window produced.
pub struct Window {
    pub reads: Vec<ReadSample>,
    pub commits: Vec<CommitSample>,
    /// The window's length.
    pub seconds: f64,
    pub before: ServiceSnapshot,
    pub after: ServiceSnapshot,
}

/// Runs `serve-mix`'s window: `connections` closed-loop readers.
pub fn mix_window(
    served: &Served,
    data: &Data,
    seed: u64,
    seconds: f64,
    connections: u64,
) -> Result<Window, String> {
    let svc = served.service()?;
    let mut clients = (0..connections).map(|_| served.connect()).collect::<Result<Vec<_>, _>>()?;
    let stop = AtomicBool::new(false);
    let before = svc.stats();
    let start = Instant::now();
    let reads = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let stream = MixStream::new(seed, lane as u64, data.persons, data.items);
                let stop = &stop;
                s.spawn(move || reader_loop(client, stream, stop, None))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().flat_map(|h| h.join().expect("reader thread")).collect::<Vec<_>>()
    });
    let seconds = start.elapsed().as_secs_f64();
    Ok(Window { reads, commits: Vec::new(), seconds, before, after: svc.stats() })
}

/// Runs `serve-update`'s window: one reader beside the writer; the
/// window ends when the last scheduled commit is acknowledged.
pub fn update_window(
    served: &Served,
    data: &Data,
    ids: &PersonIds,
    seed: u64,
    seconds: f64,
) -> Result<Window, String> {
    let svc = served.service()?;
    let mut reader = served.connect()?;
    let mut writer = served.connect()?;
    let reads_done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let commits = (seconds * COMMITS_PER_SEC).ceil() as u64;
    let before = svc.stats();
    let start = Instant::now();
    let (reads, commits) = std::thread::scope(|s| {
        let stream = MixStream::new(seed, 0, data.persons, data.items);
        let (done, stop) = (&reads_done, &stop);
        let r = s.spawn(move || reader_loop(&mut reader, stream, stop, Some(done)));
        let w = writer_loop(&mut writer, ids, done, commits, start);
        stop.store(true, Ordering::Relaxed);
        (r.join().expect("reader thread"), w)
    });
    let seconds = start.elapsed().as_secs_f64();
    Ok(Window { reads, commits, seconds, before, after: svc.stats() })
}

/// Sum of the service's per-strategy logical and physical page reads
/// (its own cumulative counters, so they survive the epoch forks a
/// commit makes).
pub fn cost_totals(s: &ServiceSnapshot) -> (u64, u64) {
    s.costs.iter().fold((0, 0), |(l, p), c| (l + c.logical_reads, p + c.physical_reads))
}

/// Encoded size of an answer frame payload with `n_ids` ids.
pub fn answer_bytes(n_ids: u32, strategy: Option<Strategy>) -> usize {
    let resp = Response::Answer {
        strategy: strategy.map_or("", |s| s.label()).to_owned(),
        plan: "IndexNestedLoop".to_owned(),
        from_cache: false,
        micros: 0,
        ids: vec![0; n_ids as usize],
    };
    resp.encode_enveloped(0).1.len()
}

/// The file the served workloads persist into.
pub fn index_path(dir: &Path) -> PathBuf {
    dir.join("serve.xtwig")
}
