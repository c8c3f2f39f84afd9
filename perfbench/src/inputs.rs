//! Seeded inputs of every workload.
//!
//! Everything the measured program receives is made here, from the seed
//! alone: initial documents as XML text, update batches, query patterns and
//! the open-loop schedule. The workload functions take these values and no
//! seed, so one seed always drives the program with the same bytes
//! ([`IngestInputs::render`] and friends give those bytes for comparison).

use pxml_core::{Update, UpdateTransaction};
use pxml_gen::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml_query::Pattern;
use pxml_store::serialize_batch;
use pxml_tree::{write_data_tree, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// People in the `ingest` directory.
pub const INGEST_PEOPLE: usize = 1500;
/// Updates per committed `ingest` batch.
pub const INGEST_BATCH: usize = 1;
/// Batches committed into each `served_mix` document after an explicit
/// checkpoint at the end of the run, so that every cold reopen replays a
/// journal of the same length.
pub const RECOVERY_JOURNAL_BATCHES: usize = 32;
/// The same for the one `ingest` document. It stays below the default
/// 64-batch checkpoint interval, which would otherwise empty the journal.
pub const INGEST_RECOVERY_BATCHES: usize = 48;
/// Batches committed per round. Every round starts again from the initial
/// directory and commits the same batches: every commit grows the directory
/// and makes the next one dearer, so rounds of fixed work keep the program's
/// own speed from deciding how large the document gets.
pub const INGEST_ROUND_BATCHES: usize = 100;
/// Directory sizes of the traced run's simplify-against-size table.
pub const SIZE_PROBE_PEOPLE: [usize; 3] = [200, 800, 1600];
/// Updates timed per size in that table.
pub const SIZE_PROBE_UPDATES: usize = 24;

/// Tenants (one client connection each) of `served_mix`.
pub const SERVED_TENANTS: usize = 2;
/// Documents per tenant.
pub const SERVED_DOCS_PER_TENANT: usize = 8;
/// People per `served_mix` document.
pub const SERVED_PEOPLE: usize = 40;
/// Offered rate of the open loop, requests per second over all connections.
pub const SERVED_RATE: f64 = 1000.0;
/// Length of the schedule one `served_mix` round sends, microseconds.
pub const SERVED_ROUND_US: u64 = 1_000_000;
/// Merged queries per commit in the `served_mix` request mix.
pub const SERVED_QUERIES_PER_COMMIT: u32 = 4;

/// People in the `uncertain_history` directory.
pub const HISTORY_PEOPLE: usize = 100;
/// Extraction updates in its history.
pub const HISTORY_LENGTH: usize = 250;
/// Seed of the history's schedule (which person gets which kind of update,
/// in which order). The run seed draws the values and confidences. Merge
/// cost is heavy-tailed in the schedule, so a schedule drawn from the run
/// seed would make run-to-run spread a property of the seeds.
pub const HISTORY_SCHEDULE_SEED: u64 = 1;
/// Prefix lengths of the traced run's merge-against-history table.
pub const HISTORY_PROBE_LENGTHS: [usize; 4] = [100, 150, 200, HISTORY_LENGTH];
/// The broad patterns of `uncertain_history`, in rotation. `person { phone }`
/// is the one whose merge blows up with history length; it takes six of
/// every eight queries so that the median query is a merged one.
pub const HISTORY_ROTATION: [&str; 8] = [
    "person { phone }",
    "person { email }",
    "person { phone }",
    "person { phone }",
    "person { name, city }",
    "person { phone }",
    "person { phone }",
    "person { phone }",
];
/// People and updates of the small directory checked against possible
/// worlds at setup (one event per update, so at most this many events).
pub const CHECK_PEOPLE: usize = 3;
pub const CHECK_UPDATES: usize = 8;

/// A per-purpose generator derived from the run seed.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn scenario(people: usize) -> PeopleScenarioConfig {
    PeopleScenarioConfig {
        people,
        ..PeopleScenarioConfig::default()
    }
}

/// The initial directory of `people` people as XML.
pub fn directory_xml(people: usize) -> String {
    write_data_tree(&people_directory(&scenario(people)), false)
}

/// The names `pxml_gen::people_directory` gives its people, in order.
pub fn person_names(people: usize) -> Vec<String> {
    let tree = people_directory(&scenario(people));
    tree.children(tree.root())
        .iter()
        .map(|&person| tree.text_content(tree.children(person)[0]))
        .collect()
}

/// `person { name[="…"], <field> }` for one person of the directory.
fn selective_query(rng: &mut impl Rng, names: &[String]) -> String {
    let name = &names[rng.gen_range(0..names.len())];
    let field = ["phone", "email", "city"][rng.gen_range(0..3usize)];
    format!("person {{ name[=\"{name}\"], {field} }}")
}

fn render_batch(out: &mut String, batch: &[UpdateTransaction]) {
    out.push_str(&serialize_batch(batch));
    out.push('\n');
}

/// Inputs of `ingest`.
#[derive(Debug, Clone)]
pub struct IngestInputs {
    pub initial_xml: String,
    /// One round's batches, then the last [`INGEST_RECOVERY_BATCHES`] for
    /// the journal recovery replays.
    pub batches: Vec<Vec<UpdateTransaction>>,
    /// One selective merged query after each commit of a round.
    pub queries: Vec<String>,
    /// Traced run only: `(directory XML, updates)` per size of the
    /// simplify-against-size table.
    pub size_probe: Vec<(String, Vec<UpdateTransaction>)>,
}

impl IngestInputs {
    pub fn generate(seed: u64) -> Self {
        let config = scenario(INGEST_PEOPLE);
        let mut updates = rng(seed, 1);
        let measured = INGEST_ROUND_BATCHES;
        let batches = (0..measured + INGEST_RECOVERY_BATCHES)
            .map(|_| {
                (0..INGEST_BATCH)
                    .map(|_| extraction_update(&mut updates, &config).0)
                    .collect()
            })
            .collect();
        let mut queries_rng = rng(seed, 2);
        let names = person_names(INGEST_PEOPLE);
        let queries = (0..measured)
            .map(|_| selective_query(&mut queries_rng, &names))
            .collect();
        let mut probe_rng = rng(seed, 3);
        let size_probe = SIZE_PROBE_PEOPLE
            .iter()
            .map(|&people| {
                let config = scenario(people);
                let updates = (0..SIZE_PROBE_UPDATES)
                    .map(|_| extraction_update(&mut probe_rng, &config).0)
                    .collect();
                (directory_xml(people), updates)
            })
            .collect();
        IngestInputs {
            initial_xml: directory_xml(INGEST_PEOPLE),
            batches,
            queries,
            size_probe,
        }
    }

    /// Every byte the program receives, in order.
    pub fn render(&self) -> String {
        let mut out = self.initial_xml.clone();
        for batch in &self.batches {
            render_batch(&mut out, batch);
        }
        for query in &self.queries {
            out.push_str(query);
            out.push('\n');
        }
        for (xml, updates) in &self.size_probe {
            out.push_str(xml);
            render_batch(&mut out, updates);
        }
        out
    }
}

/// What one `served_mix` request does.
#[derive(Debug, Clone)]
pub enum ServedKind {
    /// A merged query (pattern text).
    Query(String),
    /// A synchronous commit of one batch.
    Commit(Vec<UpdateTransaction>),
}

/// One scheduled `served_mix` request.
#[derive(Debug, Clone)]
pub struct ServedOp {
    /// When the request is due, from the start of the measured loop.
    pub due_us: u64,
    pub doc: String,
    pub kind: ServedKind,
}

/// Inputs of `served_mix`.
#[derive(Debug, Clone)]
pub struct ServedInputs {
    pub tenants: Vec<String>,
    /// `(tenant index, document name, initial XML)`.
    pub docs: Vec<(usize, String, String)>,
    /// One round's schedule per connection; connection `i` serves tenant
    /// `i`.
    pub schedules: Vec<Vec<ServedOp>>,
    /// Per document (aligned with `docs`): the single-update batches
    /// committed after a checkpoint at the end of the run, so that every
    /// cold reopen replays journals of the same length.
    pub recovery_tails: Vec<Vec<UpdateTransaction>>,
}

impl ServedInputs {
    pub fn generate(seed: u64) -> Self {
        let tenants: Vec<String> = (0..SERVED_TENANTS).map(|t| format!("tenant{t}")).collect();
        let doc_names: Vec<String> = (0..SERVED_DOCS_PER_TENANT)
            .map(|d| format!("dir{d}"))
            .collect();
        let xml = directory_xml(SERVED_PEOPLE);
        let docs = (0..SERVED_TENANTS)
            .flat_map(|t| doc_names.iter().map(move |d| (t, d.clone())))
            .map(|(t, d)| (t, d, xml.clone()))
            .collect();
        let config = scenario(SERVED_PEOPLE);
        let names = person_names(SERVED_PEOPLE);
        let horizon_us = SERVED_ROUND_US;
        let per_connection = SERVED_RATE / SERVED_TENANTS as f64;
        let per_round = (per_connection * horizon_us as f64 / 1e6).round() as usize;
        let schedules = (0..SERVED_TENANTS)
            .map(|t| {
                let mut rng = rng(seed, 10 + t as u64);
                // Poisson arrivals given their number: uniform due times,
                // sorted. A fixed number of requests and of commits per
                // round keeps the offered load the same for every seed.
                let mut dues: Vec<u64> = (0..per_round)
                    .map(|_| rng.gen_range(0..horizon_us))
                    .collect();
                dues.sort_unstable();
                let mut commits = per_round / (SERVED_QUERIES_PER_COMMIT as usize + 1);
                dues.iter()
                    .enumerate()
                    .map(|(i, &due_us)| {
                        let doc = doc_names[rng.gen_range(0..doc_names.len())].clone();
                        // Selection sampling: exactly `commits` of the rest.
                        let kind = if rng.gen_range(0..per_round - i) < commits {
                            commits -= 1;
                            ServedKind::Commit(vec![extraction_update(&mut rng, &config).0])
                        } else {
                            ServedKind::Query(selective_query(&mut rng, &names))
                        };
                        ServedOp { due_us, doc, kind }
                    })
                    .collect()
            })
            .collect();
        let mut tails = rng(seed, 30);
        let recovery_tails = (0..SERVED_TENANTS * SERVED_DOCS_PER_TENANT)
            .map(|_| {
                (0..RECOVERY_JOURNAL_BATCHES)
                    .map(|_| extraction_update(&mut tails, &config).0)
                    .collect()
            })
            .collect();
        ServedInputs {
            tenants,
            docs,
            schedules,
            recovery_tails,
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (tenant, doc, xml) in &self.docs {
            out.push_str(&format!("{tenant} {doc} {xml}\n"));
        }
        for (connection, ops) in self.schedules.iter().enumerate() {
            for op in ops {
                out.push_str(&format!("{connection} {} {} ", op.due_us, op.doc));
                match &op.kind {
                    ServedKind::Query(pattern) => out.push_str(pattern),
                    ServedKind::Commit(batch) => render_batch(&mut out, batch),
                }
                out.push('\n');
            }
        }
        for tail in &self.recovery_tails {
            render_batch(&mut out, tail);
        }
        out
    }
}

/// Inputs of `uncertain_history`.
#[derive(Debug, Clone)]
pub struct HistoryInputs {
    pub initial_xml: String,
    /// One update per commit.
    pub history: Vec<UpdateTransaction>,
    pub rotation: Vec<String>,
    /// The small directory checked against possible worlds at setup.
    pub check_xml: String,
    pub check_history: Vec<UpdateTransaction>,
}

impl HistoryInputs {
    pub fn generate(seed: u64) -> Self {
        let mut schedule = StdRng::seed_from_u64(HISTORY_SCHEDULE_SEED);
        let mut values = rng(seed, 20);
        let names = person_names(HISTORY_PEOPLE);
        let history = (0..HISTORY_LENGTH)
            .map(|_| history_update(&mut schedule, &mut values, &names))
            .collect();
        let mut check = rng(seed, 21);
        let config = scenario(CHECK_PEOPLE);
        let check_history = (0..CHECK_UPDATES)
            .map(|_| extraction_update(&mut check, &config).0)
            .collect();
        HistoryInputs {
            initial_xml: directory_xml(HISTORY_PEOPLE),
            history,
            rotation: HISTORY_ROTATION.iter().map(|p| p.to_string()).collect(),
            check_xml: directory_xml(CHECK_PEOPLE),
            check_history,
        }
    }

    pub fn render(&self) -> String {
        let mut out = self.initial_xml.clone();
        render_batch(&mut out, &self.history);
        for pattern in &self.rotation {
            out.push_str(pattern);
            out.push('\n');
        }
        out.push_str(&self.check_xml);
        render_batch(&mut out, &self.check_history);
        out
    }
}

/// One extraction update in the shape of `pxml_gen::extraction_update`,
/// with the schedule (person, kind) and the values (confidence, extracted
/// text) drawn from separate generators.
fn history_update(
    schedule: &mut StdRng,
    values: &mut StdRng,
    names: &[String],
) -> UpdateTransaction {
    let config = scenario(names.len());
    let name = &names[schedule.gen_range(0..names.len())];
    let kind = schedule.gen_range(0..4u32);
    let confidence = values.gen_range(config.min_confidence..=config.max_confidence);
    let by_name = format!("person {{ name[=\"{name}\"] }}");
    let update = match kind {
        0 => insert(
            &by_name,
            "phone",
            format!("+33-1-{:08}", values.gen_range(0..100_000_000u64)),
        ),
        1 => insert(
            &by_name,
            "email",
            format!(
                "{name}@{}",
                ["example.org", "inria.fr"][values.gen_range(0..2usize)]
            ),
        ),
        2 => insert(
            &by_name,
            "city",
            ["paris", "orsay", "saclay", "lyon"][values.gen_range(0..4usize)].to_string(),
        ),
        _ => {
            let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"], phone }}"))
                .expect("static query");
            let phone = pattern.node_ids().nth(2).expect("phone is the third node");
            Update::matching(pattern).delete_at(phone)
        }
    };
    update
        .with_confidence(confidence)
        .build()
        .expect("confidence in range")
}

fn insert(pattern: &str, field: &str, value: String) -> Update {
    let pattern = Pattern::parse(pattern).expect("static query");
    let target = pattern.root();
    let mut subtree = Tree::new(field);
    subtree.add_text(subtree.root(), value);
    Update::matching(pattern).insert_at(target, subtree)
}
