//! Seeded request streams for the three workloads.
//!
//! Every input the benchmark sends is a deterministic function of the
//! `--seed` argument: the served database, each client's request
//! sequence, and the write schedule. The server receives only these
//! generated texts and batches.
//!
//! * `hot_read` replays the 9 distinct templates of the sales, range
//!   and division families ([`templates`]), each in
//!   [`SPELLINGS_PER_TEMPLATE`] spellings that share one fingerprint
//!   ([`spellings`]): whitespace, keyword case, alias names and literal
//!   spelling vary, the plan does not.
//! * `cold_read` sends the same query shapes with every numeric literal
//!   outside `LIMIT` drawn from the seed ([`ColdStream`]), so almost
//!   every request is a template the plan cache has never seen.
//! * `write_mix` adds a writer whose batches come from
//!   [`qarith_datagen::mutations::sales_mutations`] ([`WriteSchedule`])
//!   and fall due after a fixed number of completed reads.

use std::collections::HashSet;

use qarith_datagen::mutations::{sales_mutations, MutationShape};
use qarith_datagen::workload::QueryFamily;
use qarith_types::{Database, WriteBatch};

/// Spellings generated per template for the hot path.
pub const SPELLINGS_PER_TEMPLATE: usize = 5;

/// Ops per write batch.
pub const OPS_PER_BATCH: usize = 4;

/// Half-width of the cold-read literal sweep, as a share of the
/// template's own literal: drawn literals lie in `v·[1 − w, 1 + w]`.
const SWEEP_WIDTH: f64 = 0.25;

/// Grid steps of the cold-read literal sweep per literal.
const SWEEP_STEPS: u64 = 200_000;

/// SplitMix64: a tiny, fully specified generator, so a stream is the
/// same on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named sub-stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a, 64 bit: the digest of streams and of answer sets.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a length-delimited field in (so `["ab","c"]` and
    /// `["a","bc"]` differ).
    pub fn field(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A named query template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    /// Display name (the family's query name).
    pub name: String,
    /// The family's SQL text, verbatim.
    pub sql: String,
}

/// The distinct templates of the sales, range and division families,
/// in family order (`Unfair Discount` belongs to two families and
/// appears once).
pub fn templates() -> Vec<Template> {
    let mut seen = HashSet::new();
    QueryFamily::all()
        .iter()
        .flat_map(QueryFamily::queries)
        .filter(|q| seen.insert(q.sql.clone()))
        .map(|q| Template { name: q.name, sql: q.sql })
        .collect()
}

/// One lexical token of a SQL text (enough lexing to respell a text
/// without changing what it parses to).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Word(String),
    Number(String),
    Space,
    Other(char),
}

fn tokenize(sql: &str) -> Vec<Tok> {
    let chars: Vec<char> = sql.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let start = i;
        if c.is_whitespace() {
            while i < chars.len() && chars[i].is_whitespace() {
                i += 1;
            }
            out.push(Tok::Space);
        } else if c.is_ascii_alphabetic() || c == '_' {
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Tok::Word(chars[start..i].iter().collect()));
        } else if c.is_ascii_digit() {
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || (chars[i] == '.' && chars.get(i + 1).is_some_and(char::is_ascii_digit)))
            {
                i += 1;
            }
            out.push(Tok::Number(chars[start..i].iter().collect()));
        } else {
            out.push(Tok::Other(c));
            i += 1;
        }
    }
    out
}

const KEYWORDS: [&str; 8] = ["SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "LIMIT", "AS"];

fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word.to_ascii_uppercase().as_str())
}

/// Renders tokens, spelling each run of whitespace as `space`, or as
/// `clause_break` before a clause keyword.
fn render(tokens: &[Tok], space: &str, clause_break: &str) -> String {
    let mut out = String::new();
    for (i, tok) in tokens.iter().enumerate() {
        match tok {
            Tok::Word(w) | Tok::Number(w) => out.push_str(w),
            Tok::Other(c) => out.push(*c),
            Tok::Space => {
                let next_is_clause = matches!(tokens.get(i + 1), Some(Tok::Word(w))
                    if ["FROM", "WHERE", "AND", "LIMIT"].contains(&w.to_ascii_uppercase().as_str()));
                out.push_str(if next_is_clause { clause_break } else { space });
            }
        }
    }
    out
}

/// `true` for the number token right after `LIMIT` (an integer slot,
/// not a literal of the predicate).
fn is_limit_operand(tokens: &[Tok], i: usize) -> bool {
    tokens[..i]
        .iter()
        .rev()
        .find(|t| **t != Tok::Space)
        .is_some_and(|t| matches!(t, Tok::Word(w) if w.eq_ignore_ascii_case("LIMIT")))
}

/// The spellings of one template that `hot_read` sends: verbatim,
/// lower-case keywords, reflowed whitespace, renamed aliases, and
/// respelled literals (with lower-case keywords and renamed aliases).
/// All of them normalize to the template's fingerprint.
pub fn spellings(sql: &str) -> Vec<String> {
    let tokens = tokenize(sql);
    let lower: Vec<Tok> = tokens
        .iter()
        .map(|t| match t {
            Tok::Word(w) if is_keyword(w) => Tok::Word(w.to_ascii_lowercase()),
            other => other.clone(),
        })
        .collect();
    // Single upper-case letters are the templates' table aliases
    // (columns are lower-case words).
    let renamed = |toks: &[Tok]| -> Vec<Tok> {
        toks.iter()
            .map(|t| match t {
                Tok::Word(w) if w.len() == 1 && w.chars().all(|c| c.is_ascii_uppercase()) => {
                    Tok::Word(format!("{}_alias", w.to_ascii_lowercase()))
                }
                other => other.clone(),
            })
            .collect()
    };
    let respelled: Vec<Tok> = renamed(&lower)
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Tok::Number(n) if !is_limit_operand(&lower, i) => {
                Tok::Number(if n.contains('.') { format!("{n}00") } else { format!("{n}.0") })
            }
            other => other.clone(),
        })
        .collect();
    vec![
        sql.to_string(),
        render(&lower, " ", " "),
        render(&tokens, "  ", "\n\t"),
        render(&renamed(&tokens), " ", " "),
        render(&respelled, " ", "\n "),
    ]
}

/// The `hot_read` text population: every spelling of every template,
/// template-major, with the index of its template.
pub fn hot_texts() -> Vec<(usize, String)> {
    templates()
        .iter()
        .enumerate()
        .flat_map(|(t, template)| spellings(&template.sql).into_iter().map(move |s| (t, s)))
        .collect()
}

/// One client's `hot_read` sequence: uniform draws from the text
/// population, a function of `(seed, client)` alone.
#[derive(Clone, Debug)]
pub struct HotStream {
    rng: Rng,
    texts: usize,
}

impl HotStream {
    /// Client `client`'s stream over a population of `texts` texts.
    pub fn new(seed: u64, client: u64, texts: usize) -> HotStream {
        HotStream { rng: Rng::new(seed, 0x4807 + client), texts }
    }

    /// Index of the next text to send.
    pub fn next_index(&mut self) -> usize {
        self.rng.below(self.texts as u64) as usize
    }
}

/// A template whose predicate literals the cold stream redraws.
#[derive(Clone, Debug)]
struct Shape {
    template: usize,
    tokens: Vec<Tok>,
    /// Token positions of the redrawn literals, with their values.
    literals: Vec<(usize, f64)>,
}

/// Template indices of one turn of the `cold_read` rotation: every
/// shape once, and the two sales templates that join `Orders` (1 and
/// 2) once more. The four templates that join `Orders` (1, 2, 5, 7)
/// each take about 10 ms, the other four 1 to 8 ms. With every shape
/// once, half the reads would be light and the median would fall on the
/// edge between the two groups, where it jumps with the host's noise;
/// with six heavy slots of ten it falls inside the heavy group.
pub const COLD_ROTATION: [usize; 10] = [1, 3, 2, 4, 5, 6, 7, 8, 1, 2];

/// One client's `cold_read` sequence: the template shapes in the fixed
/// [`COLD_ROTATION`] (client `c` starts `c` slots in), with every
/// predicate literal `v` redrawn from a grid of [`SWEEP_STEPS`] values
/// in `v·[1 − w, 1 + w]`. `Competitive Advantage` has no literal
/// outside `LIMIT`, so the sweep leaves it out.
#[derive(Clone, Debug)]
pub struct ColdStream {
    rng: Rng,
    shapes: Vec<Shape>,
    turn: usize,
}

impl ColdStream {
    /// Client `client`'s stream. Warm-up traffic uses client numbers
    /// of its own, so it never replays a timed request.
    pub fn new(seed: u64, client: u64) -> ColdStream {
        let shapes = templates()
            .iter()
            .enumerate()
            .filter_map(|(template, t)| {
                let tokens = tokenize(&t.sql);
                let literals: Vec<(usize, f64)> = tokens
                    .iter()
                    .enumerate()
                    .filter_map(|(i, tok)| match tok {
                        Tok::Number(n) if !is_limit_operand(&tokens, i) => {
                            Some((i, n.parse::<f64>().expect("lexed number parses")))
                        }
                        _ => None,
                    })
                    .collect();
                (!literals.is_empty()).then_some(Shape { template, tokens, literals })
            })
            .collect();
        ColdStream { rng: Rng::new(seed, 0xC01D + client), shapes, turn: client as usize }
    }

    /// The next request: its template index and SQL text.
    pub fn next_request(&mut self) -> (usize, String) {
        let template = COLD_ROTATION[self.turn % COLD_ROTATION.len()];
        self.turn += 1;
        let shape = self
            .shapes
            .iter()
            .find(|s| s.template == template)
            .expect("every rotation slot names a template with literals");
        let mut tokens = shape.tokens.clone();
        for &(pos, value) in &shape.literals {
            let step = self.rng.below(SWEEP_STEPS + 1) as f64 / SWEEP_STEPS as f64;
            let drawn = value * (1.0 - SWEEP_WIDTH + 2.0 * SWEEP_WIDTH * step);
            tokens[pos] = Tok::Number(format!("{drawn:.6}"));
        }
        (shape.template, render(&tokens, " ", " "))
    }
}

/// The write batches of a run, in send order. When each is due is up
/// to the workload (see `load::READS_PER_WRITE`), never to the server.
#[derive(Clone, Debug)]
pub struct WriteSchedule {
    /// The batches, in send order.
    pub batches: Vec<WriteBatch>,
}

impl WriteSchedule {
    /// `count` batches of [`OPS_PER_BATCH`] ops derived from the
    /// served database and the seed.
    pub fn new(db: &Database, seed: u64, count: usize) -> WriteSchedule {
        let shape = MutationShape { batches: count, ops_per_batch: OPS_PER_BATCH };
        WriteSchedule { batches: sales_mutations(db, seed ^ 0x0057_17E5, shape) }
    }
}

/// Digest of the first `n` requests of both clients of each read
/// stream plus the encoded write schedule: the stream identity the
/// determinism test pins.
pub fn stream_digest(seed: u64, n: usize, schedule: &WriteSchedule) -> u64 {
    let texts = hot_texts();
    let mut h = Fnv::default();
    for client in 0..2 {
        let mut hot = HotStream::new(seed, client, texts.len());
        let mut cold = ColdStream::new(seed, client);
        for _ in 0..n {
            h.field(texts[hot.next_index()].1.as_bytes());
            h.field(cold.next_request().1.as_bytes());
        }
    }
    for batch in &schedule.batches {
        let encoded = qarith_net::frame::encode_write(batch).expect("generated batches encode");
        h.field(encoded.as_bytes());
    }
    h.finish()
}

/// Share of `texts` whose fingerprint already occurred earlier in the
/// sequence.
pub fn fingerprint_repeat_rate<'a>(texts: impl IntoIterator<Item = &'a str>) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for text in texts {
        let fp = qarith_sql::sql_fingerprint(text).expect("generated SQL parses");
        total += 1;
        if !seen.insert(fp) {
            repeats += 1;
        }
    }
    repeats as f64 / total.max(1) as f64
}
