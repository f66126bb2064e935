//! Seeded request schedules: every input the benchmark sends is derived
//! from the workload seed through `lantern-gen`, so the same seed gives
//! byte-identical requests (checked by [`self_test`]).

use crate::spec::{Kind, Spec};
use lantern::cache::{fingerprint_document, Fingerprint, Hasher128};
use lantern::gen::{ArtifactFormat, GenConfig, PlanGenerator};
use lantern::text::json::JsonValue;
use std::collections::{BTreeMap, HashMap};

/// Distinct plans cycled by `fresh`: more than the default cache's
/// exact-text index (4 × 4096 entries), so every request misses both
/// cache levels.
const FRESH_POOL: usize = 24_576;
/// Schedule length of `repeat`. A run wraps it a few times; by then
/// its early plans have long left the cache, so the hit ratio holds.
const REPEAT_LEN: usize = 262_144;
/// Schedule length of `fleet-mixed`. A run wraps it about once; the
/// periodic writes leave every cache cold by then.
const FLEET_LEN: usize = 8_192;
/// Distinct plans cycled by `neural`; more than its cache holds (see
/// `deploy::neural_cache`), so every request misses.
const NEURAL_POOL: usize = 1_536;
/// Every this many `fleet-mixed` operations, one is a catalog write.
const WRITE_EVERY: usize = 256;
/// Seed of the warm-up requests: a slice of the generator's seed space
/// no measured run uses in practice (and if one did, its plans would
/// only start warm).
const WARMUP_SEED: u64 = 0x5741_524D_5550_0000;
/// Plans per `/narrate/batch` envelope on `fleet-mixed`.
pub const BATCH_SIZE: usize = 8;

/// A small, fast, seedable generator (SplitMix64) for the benchmark's
/// own choices: operation mix, formats, arrival gaps.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (mean `1 / rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// What one request asks for; indices point into [`Schedule::docs`]
/// and [`Schedule::stmts`].
#[derive(Debug, Clone)]
pub enum ReqKind {
    Narrate { doc: u32 },
    Batch { docs: Vec<u32> },
    Diff { base: u32, alt: u32 },
    Write { stmt: u32 },
}

/// One distinct request: its path, HTTP head and body.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: ReqKind,
    pub path: &'static str,
    /// Request line and headers, as the service's own client frames them.
    head: Vec<u8>,
    /// The body; empty for `/narrate`, whose body is its plan document
    /// (see [`Schedule::body`]), so a plan is held once.
    body: String,
}

impl Request {
    fn new(kind: ReqKind, path: &'static str, body: &str) -> Self {
        let head = head("POST", path, body.len());
        let body = match kind {
            ReqKind::Narrate { .. } => String::new(),
            _ => body.to_string(),
        };
        Request {
            kind,
            path,
            head,
            body,
        }
    }

    /// Plans the request carries (a write counts as one).
    pub fn plans(&self) -> usize {
        match &self.kind {
            ReqKind::Batch { docs } => docs.len(),
            ReqKind::Diff { .. } => 2,
            ReqKind::Narrate { .. } | ReqKind::Write { .. } => 1,
        }
    }
}

/// HTTP/1.1 request line and headers for a body of `len` bytes.
fn head(method: &str, path: &str, len: usize) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: lantern\r\nContent-Length: {len}\r\n\r\n")
        .into_bytes()
}

/// A workload's full input: distinct documents and requests, and the
/// operation sequence (indices into `reqs`) the load phases replay in
/// order, wrapping at the end.
#[derive(Debug)]
pub struct Schedule {
    pub docs: Vec<String>,
    pub stmts: Vec<String>,
    pub reqs: Vec<Request>,
    pub ops: Vec<u32>,
}

impl Schedule {
    /// The schedule for `spec` and `seed`; `len` caps the operation
    /// count (the self-test builds short prefixes).
    pub fn generate(spec: &Spec, seed: u64, len: Option<usize>) -> Schedule {
        let mut builder = Builder::default();
        match spec.kind {
            Kind::Fresh => builder.fresh(seed, len.unwrap_or(FRESH_POOL)),
            Kind::Neural => builder.fresh(seed, len.unwrap_or(NEURAL_POOL)),
            Kind::Repeat => builder.repeat(seed, len.unwrap_or(REPEAT_LEN)),
            Kind::Fleet => builder.fleet(seed, len.unwrap_or(FLEET_LEN)),
        }
        builder.finish()
    }

    /// Warm-up requests: fresh plans (and, on `fleet-mixed`, batches and
    /// diffs) from [`WARMUP_SEED`], so every run's set-up does the same
    /// work whatever its workload seed.
    pub fn warmup(spec: &Spec, len: usize) -> Schedule {
        let warm = Spec {
            kind: match spec.kind {
                Kind::Fleet => Kind::Fleet,
                _ => Kind::Fresh,
            },
            ..*spec
        };
        let mut schedule = Schedule::generate(&warm, WARMUP_SEED, Some(len));
        // Warm-up never writes: catalog state stays at its base version.
        schedule
            .ops
            .retain(|&op| !matches!(schedule.reqs[op as usize].kind, ReqKind::Write { .. }));
        schedule
    }

    /// The body of `req`, one of this schedule's requests.
    pub fn body<'a>(&'a self, req: &'a Request) -> &'a str {
        match req.kind {
            ReqKind::Narrate { doc } => &self.docs[doc as usize],
            _ => &req.body,
        }
    }

    /// Append the wire bytes of request `i` to `out`.
    pub fn encode(&self, i: u32, out: &mut Vec<u8>) {
        let req = &self.reqs[i as usize];
        out.extend_from_slice(&req.head);
        out.extend_from_slice(self.body(req).as_bytes());
    }

    /// Digest of everything sent, in order: distinct request bytes and
    /// the operation sequence.
    pub fn digest(&self) -> Fingerprint {
        let mut h = Hasher128::new("servebench/schedule/v1");
        h.write_u64(self.reqs.len() as u64);
        for req in &self.reqs {
            let body = self.body(req);
            h.write_u64((req.head.len() + body.len()) as u64);
            h.write(&req.head);
            h.write(body.as_bytes());
        }
        h.write_u64(self.ops.len() as u64);
        for &op in &self.ops {
            h.write_u64(u64::from(op));
        }
        h.finish()
    }

    /// Counts of operations by endpoint, for the run record.
    pub fn mix(&self) -> BTreeMap<&'static str, usize> {
        let mut mix = BTreeMap::new();
        for &op in &self.ops {
            *mix.entry(self.reqs[op as usize].path).or_insert(0) += 1;
        }
        mix
    }
}

#[derive(Default)]
struct Builder {
    docs: Vec<String>,
    /// Exact-text digest → index into `docs`.
    doc_index: HashMap<u128, u32>,
    stmts: Vec<String>,
    reqs: Vec<Request>,
    /// doc index → index of its `/narrate` request.
    narrate_req: HashMap<u32, u32>,
    ops: Vec<u32>,
}

impl Builder {
    fn doc(&mut self, mut doc: String) -> u32 {
        let key = fingerprint_document(0, &doc).0;
        if let Some(&i) = self.doc_index.get(&key) {
            return i;
        }
        let i = self.docs.len() as u32;
        self.doc_index.insert(key, i);
        // Held for the whole run, so without the rendering's spare room.
        doc.shrink_to_fit();
        self.docs.push(doc);
        i
    }

    fn push(&mut self, req: Request) -> u32 {
        self.reqs.push(req);
        (self.reqs.len() - 1) as u32
    }

    fn narrate_op(&mut self, doc: String) {
        let doc = self.doc(doc);
        let req = match self.narrate_req.get(&doc) {
            Some(&req) => req,
            None => {
                let req = Request::new(
                    ReqKind::Narrate { doc },
                    "/narrate",
                    &self.docs[doc as usize],
                );
                let req = self.push(req);
                self.narrate_req.insert(doc, req);
                req
            }
        };
        self.ops.push(req);
    }

    /// Distinct plans only (duplicate rate 0), mixed formats.
    fn fresh(&mut self, seed: u64, n: usize) {
        let mut gen = PlanGenerator::new(GenConfig::default().with_seed(seed));
        for _ in 0..n {
            let item = gen.next_fresh();
            self.narrate_op(item.doc);
        }
    }

    /// Duplicate rate 0.9 over the generator's 64-plan history.
    fn repeat(&mut self, seed: u64, n: usize) {
        let mut gen = PlanGenerator::new(
            GenConfig::default()
                .with_seed(seed)
                .with_duplicate_rate(0.9),
        );
        for item in gen.by_ref().take(n) {
            self.narrate_op(item.doc);
        }
    }

    /// The fleet mix: ~64% singles (duplicate 0.5, mutate 0.2, 4–12
    /// operators, history wider than a replica's cache), ~20% batches
    /// of 8, ~16% diffs of a plan against its mutant, and one catalog
    /// write every [`WRITE_EVERY`] operations. Batch and diff plans have
    /// the generator's default size (1–4 operators), so one envelope
    /// costs about as much as a few large singles.
    fn fleet(&mut self, seed: u64, n: usize) {
        let history = |config: GenConfig| GenConfig {
            history: 8192,
            ..config.with_duplicate_rate(0.5)
        };
        let mut stream = PlanGenerator::new(history(
            GenConfig::default()
                .with_seed(seed)
                .with_mutate_rate(0.2)
                .with_ops(4, 12),
        ));
        let mut batches =
            PlanGenerator::new(history(GenConfig::default().with_seed(seed ^ 0xBA7C)));
        let mut diffs = PlanGenerator::new(GenConfig::default().with_seed(seed ^ 0xD1FF));
        let mut rng = Rng::new(seed ^ 0x3141_5926);
        for i in 0..n {
            if i % WRITE_EVERY == WRITE_EVERY - 1 {
                let stmt = self.stmts.len() as u32;
                // `defn` is not narrated: the write bumps the catalog
                // version (so caches go cold) and leaves every
                // narration byte-identical.
                let text = format!(
                    "UPDATE pg SET defn = 'servebench write {stmt}' WHERE name = 'hashjoin'"
                );
                self.stmts.push(text.clone());
                let req = self.push(Request::new(
                    ReqKind::Write { stmt },
                    "/catalog/apply",
                    &text,
                ));
                self.ops.push(req);
                continue;
            }
            let pick = rng.unit();
            if pick < 0.64 {
                let item = stream.next_item();
                self.narrate_op(item.doc);
            } else if pick < 0.84 {
                let docs: Vec<u32> = (0..BATCH_SIZE)
                    .map(|_| {
                        let doc = batches.next_item().doc;
                        self.doc(doc)
                    })
                    .collect();
                let body = JsonValue::Array(
                    docs.iter()
                        .map(|&d| JsonValue::String(self.docs[d as usize].clone()))
                        .collect(),
                )
                .to_string_compact();
                let req = self.push(Request::new(
                    ReqKind::Batch { docs },
                    "/narrate/batch",
                    &body,
                ));
                self.ops.push(req);
            } else {
                let format = if rng.unit() < 0.5 {
                    ArtifactFormat::PgJson
                } else {
                    ArtifactFormat::SqlServerXml
                };
                let tree = diffs.next_tree();
                let (mutant, _) = diffs.mutate(&tree);
                let base = self.doc(PlanGenerator::render(&tree, format));
                let alt = self.doc(PlanGenerator::render(&mutant, format));
                let mut envelope = BTreeMap::new();
                envelope.insert(
                    "base".to_string(),
                    JsonValue::String(self.docs[base as usize].clone()),
                );
                envelope.insert(
                    "alt".to_string(),
                    JsonValue::String(self.docs[alt as usize].clone()),
                );
                let body = JsonValue::Object(envelope).to_string_compact();
                let req = self.push(Request::new(
                    ReqKind::Diff { base, alt },
                    "/narrate/diff",
                    &body,
                ));
                self.ops.push(req);
            }
        }
    }

    fn finish(self) -> Schedule {
        Schedule {
            docs: self.docs,
            stmts: self.stmts,
            reqs: self.reqs,
            ops: self.ops,
        }
    }
}

/// Same seed ⇒ same digest; different seed ⇒ different digest.
pub fn self_test(spec: &Spec, seed: u64) -> Result<(), String> {
    let a = Schedule::generate(spec, seed, Some(512)).digest();
    let b = Schedule::generate(spec, seed, Some(512)).digest();
    let c = Schedule::generate(spec, seed.wrapping_add(1), Some(512)).digest();
    if a != b {
        return Err(format!("schedule digest differs for the same seed {seed}"));
    }
    if a == c {
        return Err(format!(
            "schedule digest is the same for seeds {seed} and {}",
            seed.wrapping_add(1)
        ));
    }
    Ok(())
}
